package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/mathx"
	"repro/internal/utility"
)

// TestNarrowT2RegionsPinned pins the two narrowest basic-game t2 regions
// of the btc,ltc,doge,evm universe (128 samples, seed 1). Each is narrower
// than one of the 600 scan panels (~3.5% in price): a scan that samples
// each panel once reported u-evm-ltc-094 as SR = 0, and reusing the
// unit-rate region on that scan moved the miss to u-doge-ltc-005. Both
// regions must agree with a 4800-panel direct scan, where every panel is
// four times narrower than either region.
func TestNarrowT2RegionsPinned(t *testing.T) {
	cells, err := config.UniverseSpec{Chains: []string{"btc", "ltc", "doge", "evm"}, Samples: 128, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		sr     string
		lo, hi string
	}{
		"u-evm-ltc-094":  {"0.0998102685", "2.0521", "2.0877"},
		"u-doge-ltc-005": {"0.0622790755", "1.9867", "2.0119"},
	}
	found := 0
	for _, sc := range cells {
		w, ok := want[sc.Name]
		if !ok {
			continue
		}
		found++
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := m.SuccessRate(sc.PStar)
		if err != nil {
			t.Fatal(err)
		}
		iv, ok, err := m.ContRangeT2(sc.PStar)
		if err != nil || !ok {
			t.Fatalf("%s: no t2 region (ok=%v, err=%v)", sc.Name, ok, err)
		}
		if got := fmt.Sprintf("%.10f", sr); got != w.sr {
			t.Errorf("%s: SR %s, want %s", sc.Name, got, w.sr)
		}
		if lo, hi := fmt.Sprintf("%.4f", iv.Lo), fmt.Sprintf("%.4f", iv.Hi); lo != w.lo || hi != w.hi {
			t.Errorf("%s: region [%s, %s], want [%s, %s]", sc.Name, lo, hi, w.lo, w.hi)
		}
		dense, err := New(sc.Params, WithScanPoints(4800))
		if err != nil {
			t.Fatal(err)
		}
		ref := dense.contSetT2Scan(sc.PStar, 0).Bounds()
		if relErr(iv.Lo, ref.Lo) > 1e-9 || relErr(iv.Hi, ref.Hi) > 1e-9 {
			t.Errorf("%s: region %v, 4800-panel scan %v", sc.Name, iv, ref)
		}
	}
	if found != len(want) {
		t.Fatalf("found %d of the %d pinned cells in the universe", found, len(want))
	}
}

// TestScaledContSetMatchesDirectScan checks the scale invariance every t2
// region relies on: on every preset and the 64 universe cells, at rates
// across the feasibility scan and deposits Q ∈ {0, 0.01, 0.1, 0.5},
// contSetT2's scaled unit region S(Q/P*) has as many intervals as a direct
// scan at (P*, Q), and its endpoints and the SR integrated over it agree
// with the direct scan's to 1e-9 relative.
func TestScaledContSetMatchesDirectScan(t *testing.T) {
	var worstIv, worstSR float64
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.01, 0.1, 0.5} {
			for _, pstar := range []float64{0.3, 1, 1.7, sc.PStar, 2.4, 2.9, 4.5} {
				got := m.contSetT2(pstar, q).Intervals()
				direct := m.contSetT2Scan(pstar, q)
				want := direct.Intervals()
				if len(got) != len(want) {
					t.Fatalf("params #%d (%s), P*=%g, Q=%g: scaled region %v, direct %v", k, sc.Name, pstar, q, got, want)
				}
				for i := range got {
					e := math.Max(relErr(got[i].Lo, want[i].Lo), relErr(got[i].Hi, want[i].Hi))
					worstIv = math.Max(worstIv, e)
					if e > 1e-9 {
						t.Errorf("params #%d (%s), P*=%g, Q=%g: scaled region %v, direct %v", k, sc.Name, pstar, q, got, want)
					}
				}
				srGot := m.successRate(pstar, q)
				srWant := successRateOverSet(m, direct, pstar, q)
				e := relErr(srGot, srWant)
				worstSR = math.Max(worstSR, e)
				if e > 1e-9 {
					t.Errorf("params #%d (%s), P*=%g, Q=%g: scaled SR %v, direct %v", k, sc.Name, pstar, q, srGot, srWant)
				}
			}
		}
	}
	t.Logf("worst relative gap: region endpoints %.2g, SR %.2g", worstIv, worstSR)
}

// successRateOverSet is SR(P*) of Eqs. 31/40 integrated over an explicit
// t2 region at rate pstar, the quadrature successRate runs on its scaled
// unit region.
func successRateOverSet(m *Model, set mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	var sr float64
	for _, iv := range set.Intervals() {
		sr += m.integrateT1(iv, e.succ)
	}
	return mathx.Clamp(sr, 0, 1)
}

// TestBayesianScaledContSetMatchesDirectScan checks the same invariance
// for the incomplete-information B on the uncertainty figure's four priors
// over αB: every B type's scaled region agrees with a direct scan at the
// rate to 1e-9 relative.
func TestBayesianScaledContSetMatchesDirectScan(t *testing.T) {
	m := newDefaultModel(t)
	var worst float64
	for _, prior := range []TypePrior{
		PointPrior(0.3),
		{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}},
		{Values: []float64{0.1, 0.5}, Probs: []float64{0.5, 0.5}},
		{Values: []float64{0.05, 0.55}, Probs: []float64{0.5, 0.5}},
	} {
		b, err := m.Bayesian(PointPrior(m.params.Alice.Alpha), prior)
		if err != nil {
			t.Fatal(err)
		}
		for _, alphaB := range prior.Values {
			for _, pstar := range mathx.LinSpace(1.4, 2.8, 8) {
				set, err := b.ContSetT2(alphaB, pstar)
				if err != nil {
					t.Fatal(err)
				}
				got, want := set.Intervals(), b.contSetT2Scan(alphaB, pstar).Intervals()
				if len(got) != len(want) {
					t.Fatalf("αB=%g, P*=%g: scaled region %v, direct %v", alphaB, pstar, got, want)
				}
				for i := range got {
					e := math.Max(relErr(got[i].Lo, want[i].Lo), relErr(got[i].Hi, want[i].Hi))
					worst = math.Max(worst, e)
					if e > 1e-9 {
						t.Errorf("αB=%g, P*=%g: scaled region %v, direct %v", alphaB, pstar, got, want)
					}
				}
			}
		}
	}
	t.Logf("worst relative endpoint gap %.2g", worst)
}

// TestBayesianMemosBounded drives a Bayesian solver's region memo past
// bayesianMemoMax with B types outside the prior: it retains no more than
// the bound, counts evictions, and a flushed region re-solves
// bit-identically.
func TestBayesianMemosBounded(t *testing.T) {
	m, err := New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Bayesian(PointPrior(0.3), PointPrior(0.3))
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.ContSetT2(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= bayesianMemoMax; i++ {
		if _, err := b.ContSetT2(0.3+1e-4*float64(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.units.Len(); n > bayesianMemoMax {
		t.Errorf("units holds %d entries, bound is %d", n, bayesianMemoMax)
	}
	if b.units.Evictions() == 0 {
		t.Error("units recorded no evictions past its bound")
	}
	again, err := b.ContSetT2(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, w := again.Bounds(), first.Bounds()
	if math.Float64bits(g.Lo) != math.Float64bits(w.Lo) || math.Float64bits(g.Hi) != math.Float64bits(w.Hi) {
		t.Errorf("re-solved region %v != first region %v", again, first)
	}
}

// TestPerModelTablesConcurrent builds a fresh Model's unit-rate region,
// z-table and Bayesian unit regions from several goroutines at once
// (run it under -race): every goroutine reads the results a sequential
// Model computes, bit for bit, and all share one z-table.
func TestPerModelTablesConcurrent(t *testing.T) {
	prior := TypePrior{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}}
	rates := mathx.LinSpace(1.4, 2.8, 8)
	seq := newDefaultModel(t)
	seqB, err := seq.Bayesian(PointPrior(0.3), prior)
	if err != nil {
		t.Fatal(err)
	}
	type result struct{ sr, bay float64 }
	want := make([]result, len(rates))
	for i, p := range rates {
		want[i].sr, _ = seq.SuccessRate(p)
		want[i].bay, _, _ = seqB.SuccessRate(p)
	}
	m := newDefaultModel(t)
	b, err := m.Bayesian(PointPrior(0.3), prior)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]result, len(rates))
	resp := make([]*response, len(rates))
	var wg sync.WaitGroup
	for i, p := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp[i] = m.Uncertain().response
			got[i].sr, _ = m.SuccessRate(p)
			got[i].bay, _, _ = b.SuccessRate(p)
		}()
	}
	wg.Wait()
	for i := range rates {
		if math.Float64bits(got[i].sr) != math.Float64bits(want[i].sr) || math.Float64bits(got[i].bay) != math.Float64bits(want[i].bay) {
			t.Errorf("P*=%g: concurrent (SR %v, Bayesian %v), sequential (%v, %v)", rates[i], got[i].sr, got[i].bay, want[i].sr, want[i].bay)
		}
		if resp[i] != resp[0] {
			t.Errorf("goroutine %d got a separate z-table", i)
		}
	}
}
