package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// call adapts a test closure to the scheduler's calling convention.
func call(fn func()) func(_, _ any) { return func(_, _ any) { fn() } }

// schedule registers fn at the default priority, failing the test on error.
func schedule(t *testing.T, s *Scheduler, at float64, fn func()) {
	t.Helper()
	if err := s.ScheduleCall(at, PriorityDefault, call(fn), nil, nil); err != nil {
		t.Fatalf("ScheduleCall(%v): %v", at, err)
	}
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	add := func(at float64, name string) {
		schedule(t, s, at, func() { got = append(got, name) })
	}
	add(3, "c")
	add(1, "a")
	add(2, "b")
	if n := s.Run(); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now() = %v, want 3", s.Now())
	}
}

func TestSchedulerTieBreaksBySubmissionOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		schedule(t, s, 5, func() { got = append(got, name) })
	}
	s.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tie order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	s := NewScheduler()
	noop := call(func() {})
	if err := s.ScheduleCall(1, PriorityDefault, noop, nil, nil); err != nil {
		t.Fatalf("valid schedule failed: %v", err)
	}
	s.Run()
	if err := s.ScheduleCall(0.5, PriorityDefault, noop, nil, nil); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event err = %v, want ErrPastEvent", err)
	}
	if err := s.ScheduleCall(math.NaN(), PriorityDefault, noop, nil, nil); !errors.Is(err, ErrBadTime) {
		t.Errorf("NaN err = %v, want ErrBadTime", err)
	}
	if err := s.ScheduleCall(math.Inf(1), PriorityDefault, noop, nil, nil); !errors.Is(err, ErrBadTime) {
		t.Errorf("Inf err = %v, want ErrBadTime", err)
	}
	if err := s.ScheduleCall(2, PriorityDefault, nil, nil, nil); !errors.Is(err, ErrBadTime) {
		t.Errorf("nil fn err = %v, want ErrBadTime", err)
	}
	if s.Pending() != 0 {
		t.Errorf("rejected events are pending: %d", s.Pending())
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	schedule(t, s, 1, func() {
		fired = append(fired, s.Now())
		schedule(t, s, s.Now()+2, func() { fired = append(fired, s.Now()) })
	})
	if n := s.Run(); n != 2 {
		t.Fatalf("processed %d, want 2", n)
	}
	if fired[0] != 1 || fired[1] != 3 {
		t.Errorf("fired at %v, want [1 3]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	for _, at := range []float64{1, 2, 3, 4, 5} {
		schedule(t, s, at, func() { count++ })
	}
	if n := s.RunUntil(3); n != 3 {
		t.Errorf("RunUntil(3) processed %d, want 3", n)
	}
	if s.Now() != 3 {
		t.Errorf("Now() = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	// Advancing beyond all events moves the clock to the requested time.
	if n := s.RunUntil(10); n != 2 {
		t.Errorf("RunUntil(10) processed %d, want 2", n)
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v, want 10", s.Now())
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler()
	var count int
	for _, at := range []float64{1, 2, 3} {
		schedule(t, s, at, func() {
			count++
			if at == 2 {
				s.Stop()
			}
		})
	}
	if n := s.Run(); n != 2 {
		t.Errorf("Run processed %d, want 2 (stopped)", n)
	}
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
	// A subsequent Run resumes.
	if n := s.Run(); n != 1 {
		t.Errorf("resumed Run processed %d, want 1", n)
	}
}

func TestResetRewindsToFreshState(t *testing.T) {
	s := NewScheduler()
	fired := 0
	schedule(t, s, 1, func() { fired++ })
	schedule(t, s, 5, func() { fired++ })
	s.RunUntil(2)
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 {
		t.Errorf("after Reset: now=%g pending=%d", s.Now(), s.Pending())
	}
	// The leftover event "b" must not fire after the reset.
	if n := s.Run(); n != 0 {
		t.Errorf("reset scheduler ran %d stale events", n)
	}
	// The scheduler is fully reusable: scheduling before the old clock
	// value is legal again and ordering restarts from scratch.
	schedule(t, s, 0.5, func() { fired++ })
	if n := s.Run(); n != 1 || fired != 2 {
		t.Errorf("post-reset run processed %d events (fired=%d), want 1 (fired=2)", n, fired)
	}
}

// TestResetDropsEveryReference checks that after Reset no slot of the
// event slab, up to its full capacity, still holds a callback or an
// argument of the old run: a reused scheduler must not keep a finished
// path's objects alive.
func TestResetDropsEveryReference(t *testing.T) {
	s := NewScheduler()
	type payload struct{ _ [64]byte }
	for i := 0; i < 40; i++ {
		if err := s.ScheduleCall(float64(i%7), i%3, func(_, _ any) {}, &payload{}, &payload{}); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(3)
	if s.Pending() == 0 {
		t.Fatal("fixture must leave events pending at Reset")
	}
	s.Reset()
	for i, ev := range s.slab[:cap(s.slab)] {
		if ev.call != nil || ev.a1 != nil || ev.a2 != nil {
			t.Fatalf("slab slot %d still references the old run after Reset", i)
		}
	}
	if len(s.free) != 0 || len(s.heap) != 0 {
		t.Errorf("free list %d / heap %d not emptied by Reset", len(s.free), len(s.heap))
	}
}

// record is one scheduled event of the randomized test, in the order the
// scheduler must fire it.
type record struct {
	at   float64
	prio int
	seq  int
}

func (r record) before(o record) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.prio != o.prio {
		return r.prio < o.prio
	}
	return r.seq < o.seq
}

// TestRandomizedFiringOrder pushes random (time, priority) events whose
// callbacks schedule further events during fire — the first of them into
// the slot the firing event just released — and resets the scheduler
// mid-sequence. In each phase the firing order must equal a sort of the
// phase's events by (time, priority, submission), and the slab must never
// hold more slots than events were ever pending at once.
func TestRandomizedFiringOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var (
			scheduled, fired []record
			peak             int
		)
		var push func(at float64, prio int)
		onFire := func(a1, _ any) {
			r := *a1.(*record)
			fired = append(fired, r)
			// Children stay at or after the firing event in the total
			// order: later, or same instant at the same or a later tier.
			for k := rng.Intn(3); k > 0 && len(scheduled) < 400; k-- {
				if rng.Intn(2) == 0 {
					push(r.at, r.prio+rng.Intn(2))
				} else {
					push(r.at+float64(1+rng.Intn(3)), rng.Intn(3))
				}
			}
		}
		push = func(at float64, prio int) {
			r := &record{at: at, prio: prio, seq: len(scheduled)}
			scheduled = append(scheduled, *r)
			if err := s.ScheduleCall(at, prio, onFire, r, nil); err != nil {
				t.Fatalf("seed %d: ScheduleCall(%v, %d): %v", seed, at, prio, err)
			}
			peak = max(peak, s.Pending())
		}
		phase := func(name string, run func()) {
			scheduled, fired, peak = scheduled[:0], fired[:0], 0
			for i := 0; i < 60; i++ {
				push(float64(rng.Intn(10)), rng.Intn(3))
			}
			run()
			want := append([]record(nil), scheduled...)
			sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
			want = want[:len(fired)]
			for i := range fired {
				if fired[i] != want[i] {
					t.Fatalf("seed %d %s: event %d fired %+v, want %+v", seed, name, i, fired[i], want[i])
				}
			}
			if len(s.slab) > peak {
				t.Fatalf("seed %d %s: slab grew to %d slots for %d pending events", seed, name, len(s.slab), peak)
			}
		}
		phase("before reset", func() { s.RunUntil(4) })
		left := s.Pending()
		s.Reset()
		if left == 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: pending before/after Reset = %d/%d", seed, left, s.Pending())
		}
		phase("after reset", func() { s.Run() })
		if len(fired) != len(scheduled) || s.Pending() != 0 {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(fired), len(scheduled))
		}
	}
}
