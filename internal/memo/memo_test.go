package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOncePerKey(t *testing.T) {
	var m Map[int, int]
	calls := 0
	for i := 0; i < 5; i++ {
		got := m.Do(7, func() int { calls++; return 42 })
		if got != 42 {
			t.Fatalf("Do(7) = %d, want 42", got)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if got := m.Do(8, func() int { return 43 }); got != 43 {
		t.Fatalf("Do(8) = %d, want 43", got)
	}
	hits, misses := m.Stats()
	if hits != 4 || misses != 2 {
		t.Fatalf("Stats() = (%d, %d), want (4, 2)", hits, misses)
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("Len() = %d, want 2", n)
	}
}

// TestConcurrentDoSharesOneComputation hammers one key from many
// goroutines: the compute function must run exactly once and every caller
// must observe its value (run with -race in CI).
func TestConcurrentDoSharesOneComputation(t *testing.T) {
	var m Map[int, *int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*int, 64)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = m.Do(1, func() *int {
				calls.Add(1)
				v := 99
				return &v
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d saw a different pointer", i)
		}
		if *r != 99 {
			t.Fatalf("caller %d saw value %d", i, *r)
		}
	}
}

// TestInFlightEntryVisibility covers the in-flight branches: while a first
// computation runs, Len counts it and Range skips it; a concurrent Do
// blocks until the winner finishes and returns its value, which Range
// then visits.
func TestInFlightEntryVisibility(t *testing.T) {
	var m Map[int, int]
	started := make(chan struct{})
	release := make(chan struct{})
	go m.Do(1, func() int {
		close(started)
		<-release
		return 10
	})
	<-started
	if n := m.Len(); n != 1 {
		t.Errorf("Len() = %d with one in-flight entry, want 1", n)
	}
	seen := 0
	m.Range(func(int, int) bool { seen++; return true })
	if seen != 0 {
		t.Errorf("Range visited %d in-flight entries", seen)
	}
	done := make(chan int)
	go func() { done <- m.Do(1, func() int { t.Error("second compute ran"); return -1 }) }()
	close(release)
	if got := <-done; got != 10 {
		t.Errorf("waiter saw %d, want 10", got)
	}
	var got []int
	m.Range(func(k, v int) bool { got = append(got, k, v); return true })
	if len(got) != 2 || got[0] != 1 || got[1] != 10 {
		t.Errorf("Range after completion visited %v, want [1 10]", got)
	}
}

// TestPanicPropagatesAndPoisons pins the failure mode a deadlock review
// found: a panicking compute must re-panic in the caller AND in every
// waiter (never block them), and later lookups must not silently read a
// zero value.
func TestPanicPropagatesAndPoisons(t *testing.T) {
	var m Map[int, int]
	mustPanic := func(name string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		m.Do(1, func() int { panic("boom") })
	}
	mustPanic("first Do")
	// The key is poisoned: a second Do re-panics instead of blocking or
	// recomputing; the poisoned entry stays retained but Range skips it.
	mustPanic("second Do")
	if hits, misses := m.Stats(); hits != 1 || misses != 1 || m.Len() != 1 {
		t.Fatalf("poisoned key: Stats() = (%d, %d), Len() = %d, want (1, 1), 1", hits, misses, m.Len())
	}
	m.Range(func(k, v int) bool {
		t.Fatalf("Range visited poisoned entry (%d, %d)", k, v)
		return true
	})
	// Concurrent waiters during the panic also re-panic rather than hang.
	var m2 Map[int, int]
	started := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan any, 1)
	go func() {
		defer func() { waiterDone <- recover() }()
		<-started
		m2.Do(7, func() int { t.Error("waiter recomputed"); return 0 })
	}()
	go func() {
		defer func() { recover() }()
		m2.Do(7, func() int { close(started); <-release; panic("late boom") })
	}()
	<-started
	close(release)
	if r := <-waiterDone; r == nil {
		t.Fatal("waiter did not observe the panic")
	}
}

func TestRangeStopsEarly(t *testing.T) {
	var m Map[int, int]
	for k := 0; k < 10; k++ {
		m.Do(k, func() int { return k })
	}
	visited := 0
	m.Range(func(int, int) bool { visited++; return false })
	if visited != 1 {
		t.Errorf("Range visited %d entries after returning false, want 1", visited)
	}
}

// TestConcurrentDistinctKeys checks independent keys do not serialise or
// cross results.
func TestConcurrentDistinctKeys(t *testing.T) {
	var m Map[int, int]
	var wg sync.WaitGroup
	for k := 0; k < 32; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if got := m.Do(k, func() int { return k * k }); got != k*k {
					t.Errorf("Do(%d) = %d, want %d", k, got, k*k)
				}
			}
		}(k)
	}
	wg.Wait()
	if n := m.Len(); n != 32 {
		t.Fatalf("Len() = %d, want 32", n)
	}
}

// TestMaxClearsAndCountsEvictions pins the bound: a miss that finds Max
// entries clears the map before inserting, the dropped entries are counted
// as evictions, and a flushed key recomputes on its next request.
func TestMaxClearsAndCountsEvictions(t *testing.T) {
	m := Map[int, int]{Max: 4}
	calls := 0
	sq := func(k int) func() int { return func() int { calls++; return k * k } }
	for k := 0; k < 4; k++ {
		m.Do(k, sq(k))
	}
	if m.Len() != 4 || m.Evictions() != 0 {
		t.Fatalf("at the bound: Len() = %d, Evictions() = %d, want 4, 0", m.Len(), m.Evictions())
	}
	// Hits at the bound never flush.
	if got := m.Do(3, sq(3)); got != 9 || m.Len() != 4 {
		t.Fatalf("hit at the bound: Do(3) = %d, Len() = %d", got, m.Len())
	}
	if got := m.Do(4, sq(4)); got != 16 {
		t.Fatalf("Do(4) = %d, want 16", got)
	}
	if m.Len() != 1 || m.Evictions() != 4 {
		t.Fatalf("after the insert past Max: Len() = %d, Evictions() = %d, want 1, 4", m.Len(), m.Evictions())
	}
	before := calls
	if got := m.Do(0, sq(0)); got != 0 || calls != before+1 {
		t.Fatalf("flushed key: Do(0) = %d, computes %d, want 0, 1", got, calls-before)
	}
	for k := 5; k < 40; k++ {
		m.Do(k, sq(k))
		if m.Len() > m.Max {
			t.Fatalf("Len() = %d exceeds Max %d", m.Len(), m.Max)
		}
	}
	_, misses := m.Stats()
	if got := m.Evictions() + uint64(m.Len()); got != misses {
		t.Fatalf("evictions + retained = %d, want misses %d", got, misses)
	}
}

// TestConcurrentDoAtBound hammers a small bounded map from many goroutines
// (run with -race in CI): every caller gets its key's value, the map stays
// within Max plus one entry per goroutine, and evictions plus retained
// entries account for every miss.
func TestConcurrentDoAtBound(t *testing.T) {
	const workers = 8
	m := Map[int, int]{Max: 16}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i*7 + w) % 64
				if got := m.Do(k, func() int { return k * k }); got != k*k {
					t.Errorf("Do(%d) = %d, want %d", k, got, k*k)
					return
				}
				if n := m.Len(); n > m.Max+workers {
					t.Errorf("Len() = %d exceeds Max %d + %d workers", n, m.Max, workers)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Evictions() == 0 {
		t.Fatal("no evictions while cycling 64 keys through a 16-entry map")
	}
	_, misses := m.Stats()
	if got := m.Evictions() + uint64(m.Len()); got != misses {
		t.Fatalf("evictions + retained = %d, want misses %d", got, misses)
	}
}
