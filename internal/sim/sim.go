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

// event is a pending callback. Exactly one of fn and call is set: fn is
// the closure form, call+a1+a2 the allocation-free form (a package-level
// function pointer with its receiver and argument passed as interfaces,
// which boxes nothing when both are pointers).
type event struct {
	at   float64
	prio int
	seq  uint64
	fn   func()
	call func(a1, a2 any)
	a1   any
	a2   any
}

// less orders events by time, then priority tier, then submission
// sequence — the same total order the original container/heap
// implementation used, so event execution order is unchanged.
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
// The event queue is a binary min-heap of event values managed in place:
// pushing and popping move values within one backing array, so a reset
// scheduler schedules and runs without allocating (the Monte Carlo hot
// path; see Reset).
type Scheduler struct {
	now     float64
	seq     uint64
	events  []event
	stopped bool
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Reset rewinds the scheduler to a freshly constructed state — clock at
// zero, no pending events — while retaining the allocated event-heap
// capacity, so a reused scheduler schedules without reallocating.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.stopped = false
	for i := range s.events {
		s.events[i] = event{}
	}
	s.events = s.events[:0]
}

// Now returns the current simulated time in hours.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.events) }

// Schedule registers fn to fire at absolute time at, in the default
// priority tier.
func (s *Scheduler) Schedule(at float64, fn func()) error {
	return s.ScheduleWithPriority(at, PriorityDefault, fn)
}

// ScheduleWithPriority registers fn to fire at absolute time at within the
// given priority tier (lower fires first among same-instant events).
func (s *Scheduler) ScheduleWithPriority(at float64, prio int, fn func()) error {
	if fn == nil {
		return fmt.Errorf("%w: nil callback", ErrBadTime)
	}
	return s.push(event{at: at, prio: prio, fn: fn})
}

// ScheduleCall registers fn(a1, a2) to fire at absolute time at within the
// given priority tier. It is the allocation-free form of
// ScheduleWithPriority: with fn a package-level function and a1/a2
// pointers, scheduling captures no closure and boxes nothing — the Monte
// Carlo hot path schedules every per-path event this way.
func (s *Scheduler) ScheduleCall(at float64, prio int, fn func(a1, a2 any), a1, a2 any) error {
	if fn == nil {
		return fmt.Errorf("%w: nil callback", ErrBadTime)
	}
	return s.push(event{at: at, prio: prio, call: fn, a1: a1, a2: a2})
}

// ScheduleAfter registers fn to fire delay hours from now.
func (s *Scheduler) ScheduleAfter(delay float64, fn func()) error {
	return s.Schedule(s.now+delay, fn)
}

// push validates the event time and sifts the event into the heap.
func (s *Scheduler) push(ev event) error {
	if math.IsNaN(ev.at) || math.IsInf(ev.at, 0) {
		return fmt.Errorf("%w: %g", ErrBadTime, ev.at)
	}
	if ev.at < s.now {
		return fmt.Errorf("%w: at=%g < now=%g", ErrPastEvent, ev.at, s.now)
	}
	s.seq++
	ev.seq = s.seq
	s.events = append(s.events, ev)
	s.siftUp(len(s.events) - 1)
	return nil
}

// pop removes and returns the front event. The vacated slot is cleared so
// the backing array does not retain closures or arguments.
func (s *Scheduler) pop() event {
	ev := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n] = event{}
	s.events = s.events[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return ev
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.events[i].less(&s.events[parent]) {
			break
		}
		s.events[i], s.events[parent] = s.events[parent], s.events[i]
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.events)
	for {
		least := i
		if l := 2*i + 1; l < n && s.events[l].less(&s.events[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s.events[r].less(&s.events[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.events[i], s.events[least] = s.events[least], s.events[i]
		i = least
	}
}

// fire dispatches one event.
func (s *Scheduler) fire(ev *event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.call(ev.a1, ev.a2)
}

// Run processes events in time order until none remain or Stop is called.
// It returns the number of events processed. Callbacks may schedule further
// events.
func (s *Scheduler) Run() int {
	s.stopped = false
	n := 0
	for len(s.events) > 0 && !s.stopped {
		ev := s.pop()
		s.now = ev.at
		s.fire(&ev)
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
	for len(s.events) > 0 && !s.stopped && s.events[0].at <= t {
		ev := s.pop()
		s.now = ev.at
		s.fire(&ev)
		n++
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
	return n
}

// Stop halts Run/RunUntil after the current callback returns.
func (s *Scheduler) Stop() { s.stopped = true }
