// Package sim provides the discrete-event simulation kernel under the
// ledger simulator: a deterministic event scheduler with a simulated clock
// measured in hours (the paper's time unit). Events scheduled for the same
// instant fire in submission order, which keeps protocol races reproducible.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the scheduler.
var (
	// ErrPastEvent reports an attempt to schedule before the current time.
	ErrPastEvent = errors.New("sim: event scheduled in the past")
	// ErrBadTime reports a non-finite event time.
	ErrBadTime = errors.New("sim: invalid event time")
)

// Priority tiers for same-instant ordering: consensus-level state changes
// settle before observers act on them, mirroring "B does so only after
// verifying that its deployment has been confirmed" (§III-B) when the
// confirmation lands exactly at the decision instant.
const (
	// PriorityMempool orders mempool gossip first at an instant.
	PriorityMempool = 5
	// PriorityConsensus orders chain state transitions next.
	PriorityConsensus = 10
	// PriorityDefault orders ordinary (agent) events last.
	PriorityDefault = 100
)

// event is a pending callback: a function value with its receiver and
// argument passed as interfaces, which boxes nothing when both are
// pointers and captures no closure when fn is a package-level function.
type event struct {
	at   float64
	prio int
	seq  uint64
	call func(a1, a2 any)
	a1   any
	a2   any
}

// less orders events by time, then priority tier, then submission
// sequence, so same-instant events fire in a reproducible order.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// ready to use with the clock at time zero.
//
// Pending events live in a slab of reusable slots; the queue is a binary
// min-heap of slot indices, so sifting moves four-byte indices instead of
// whole events. A slot returns to the free list as its event fires, and a
// reset scheduler schedules and runs without allocating (the Monte Carlo
// hot path; see Reset).
type Scheduler struct {
	now     float64
	seq     uint64
	slab    []event
	free    []int32
	heap    []int32
	stopped bool
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Reset rewinds the scheduler to a freshly constructed state — clock at
// zero, no pending events — while retaining the allocated slab and heap
// capacity. Every slot is cleared, so no callback or argument of the old
// run stays reachable.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.stopped = false
	clear(s.slab)
	s.slab = s.slab[:0]
	s.free = s.free[:0]
	s.heap = s.heap[:0]
}

// Now returns the current simulated time in hours.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.heap) }

// ScheduleCall registers fn(a1, a2) to fire at absolute time at within the
// given priority tier (lower fires first among same-instant events). With
// fn a package-level function and a1/a2 pointers, scheduling captures no
// closure and boxes nothing — the Monte Carlo hot path schedules every
// per-path event this way.
func (s *Scheduler) ScheduleCall(at float64, prio int, fn func(a1, a2 any), a1, a2 any) error {
	if fn == nil {
		return fmt.Errorf("%w: nil callback", ErrBadTime)
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("%w: %g", ErrBadTime, at)
	}
	if at < s.now {
		return fmt.Errorf("%w: at=%g < now=%g", ErrPastEvent, at, s.now)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, event{})
	}
	s.seq++
	// Field by field: a composite literal is built on the stack and then
	// copied into the slot, a measurable share of every path.
	ev := &s.slab[slot]
	ev.at, ev.prio, ev.seq = at, prio, s.seq
	ev.call, ev.a1, ev.a2 = fn, a1, a2
	s.heap = append(s.heap, slot)
	s.siftUp(len(s.heap) - 1)
	return nil
}

// less reports whether heap position i fires before heap position j.
func (s *Scheduler) less(i, j int) bool {
	return s.slab[s.heap[i]].less(&s.slab[s.heap[j]])
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && s.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}

// fire pops the front event, advances the clock to it and dispatches it.
// The slot is cleared and released before the callback runs, so the
// callback may schedule into it and the slab keeps no stale references.
func (s *Scheduler) fire() {
	slot := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	ev := &s.slab[slot]
	s.now = ev.at
	call, a1, a2 := ev.call, ev.a1, ev.a2
	*ev = event{}
	s.free = append(s.free, slot)
	call(a1, a2)
}

// Run processes events in time order until none remain or Stop is called.
// It returns the number of events processed. Callbacks may schedule further
// events.
func (s *Scheduler) Run() int {
	s.stopped = false
	n := 0
	for len(s.heap) > 0 && !s.stopped {
		s.fire()
		n++
	}
	return n
}

// RunUntil processes events with time <= t, then advances the clock to t
// (if it is ahead of the last event). It returns the number of events
// processed.
func (s *Scheduler) RunUntil(t float64) int {
	s.stopped = false
	n := 0
	for len(s.heap) > 0 && !s.stopped && s.slab[s.heap[0]].at <= t {
		s.fire()
		n++
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
	return n
}

// Stop halts Run/RunUntil after the current callback returns.
func (s *Scheduler) Stop() { s.stopped = true }
