package sim

import (
	"errors"
	"math"
	"testing"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	add := func(at float64, name string) {
		if err := s.Schedule(at, func() { got = append(got, name) }); err != nil {
			t.Fatalf("Schedule(%v, %s): %v", at, name, err)
		}
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
		name := name
		if err := s.Schedule(5, func() { got = append(got, name) }); err != nil {
			t.Fatal(err)
		}
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
	if err := s.Schedule(1, func() {}); err != nil {
		t.Fatalf("valid schedule failed: %v", err)
	}
	s.Run()
	if err := s.Schedule(0.5, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event err = %v, want ErrPastEvent", err)
	}
	if err := s.Schedule(math.NaN(), func() {}); !errors.Is(err, ErrBadTime) {
		t.Errorf("NaN err = %v, want ErrBadTime", err)
	}
	if err := s.Schedule(math.Inf(1), func() {}); !errors.Is(err, ErrBadTime) {
		t.Errorf("Inf err = %v, want ErrBadTime", err)
	}
	if err := s.Schedule(2, nil); !errors.Is(err, ErrBadTime) {
		t.Errorf("nil fn err = %v, want ErrBadTime", err)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	if err := s.Schedule(1, func() {
		fired = append(fired, s.Now())
		if err := s.ScheduleAfter(2, func() {
			fired = append(fired, s.Now())
		}); err != nil {
			t.Errorf("inner schedule: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
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
		if err := s.Schedule(at, func() { count++ }); err != nil {
			t.Fatal(err)
		}
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
		at := at
		if err := s.Schedule(at, func() {
			count++
			if at == 2 {
				s.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
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
	if err := s.Schedule(1, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(5, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
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
	if err := s.Schedule(0.5, func() { fired++ }); err != nil {
		t.Fatalf("schedule after reset: %v", err)
	}
	if n := s.Run(); n != 1 || fired != 2 {
		t.Errorf("post-reset run processed %d events (fired=%d), want 1 (fired=2)", n, fired)
	}
}
