package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/utility"
)

// TestSolveMemosBounded drives each of the Model's three solve memos past
// solveMemoMax: none retains more than the bound, each counts evictions,
// and a flushed cell — basic or collateral — re-solves bit-identically.
func TestSolveMemosBounded(t *testing.T) {
	m, err := New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	coll, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(i int) float64 { return 1.5 + 1e-4*float64(i) }
	first, err := m.SuccessRate(rate(0))
	if err != nil {
		t.Fatal(err)
	}
	firstColl, err := coll.SuccessRate(rate(0))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := feasible(t, m)
	for i := 1; i <= solveMemoMax; i++ {
		if _, err := m.SuccessRate(rate(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The region and range memos hold a handful of cells per model in
	// practice; fill them with cheap placeholder cells under keys no solve
	// uses (a deposit ratio is never negative).
	for i := 0; i <= solveMemoMax; i++ {
		m.solve.regions.Do(-1-float64(i), func() mathx.IntervalSet { return mathx.IntervalSet{} })
		m.solve.ranges.Do(rangeKind{kind: 'X', q: float64(i)}, func() mathx.IntervalSet { return mathx.IntervalSet{} })
	}
	for name, s := range map[string]interface {
		Len() int
		Evictions() uint64
	}{
		"regions": &m.solve.regions,
		"sr":      &m.solve.sr,
		"ranges":  &m.solve.ranges,
	} {
		if n := s.Len(); n > solveMemoMax {
			t.Errorf("%s holds %d cells, bound is %d", name, n, solveMemoMax)
		}
		if s.Evictions() == 0 {
			t.Errorf("%s recorded no evictions past its bound", name)
		}
	}
	again, err := m.SuccessRate(rate(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again) != math.Float64bits(first) {
		t.Errorf("re-solved SR %v != first SR %v", again, first)
	}
	againColl, err := coll.SuccessRate(rate(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(againColl) != math.Float64bits(firstColl) {
		t.Errorf("re-solved collateral SR %v != first SR %v", againColl, firstColl)
	}
	if lo2, hi2, ok2 := feasible(t, m); lo2 != lo || hi2 != hi || ok2 != ok {
		t.Errorf("re-solved feasible range (%v, %v, %v) != first (%v, %v, %v)", lo2, hi2, ok2, lo, hi, ok)
	}
}

func feasible(t *testing.T, m *Model) (lo, hi float64, ok bool) {
	t.Helper()
	iv, ok, err := m.FeasibleRateRange()
	if err != nil {
		t.Fatal(err)
	}
	return iv.Lo, iv.Hi, ok
}
