package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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
		ref := dense.contSetT2Scan(sc.PStar, 0, mathx.IntervalSet{}).Bounds()
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
				direct := m.contSetT2Scan(pstar, q, mathx.IntervalSet{})
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
	for _, prior := range uncertaintyPriors {
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

// windowKappas are the deposit ratios κ = Q/P* the windowed t2 scan is
// checked at: the basic game, Fig. 8's range, κ = 0.0193 just below Table
// III's root birth (its region is [0, 0.397] ∪ [0.481, 1.215] there) and
// deposits that dwarf the rate.
var windowKappas = []float64{0, 1e-3, 0.01, 0.0193, 0.1, 0.5, 5, 50}

// uncertaintyPriors are the uncertainty figure's priors over a premium.
var uncertaintyPriors = []TypePrior{
	PointPrior(0.3),
	{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}},
	{Values: []float64{0.1, 0.5}, Probs: []float64{0.5, 0.5}},
	{Values: []float64{0.05, 0.55}, Probs: []float64{0.5, 0.5}},
}

// bayesianT2Mixture restates Bayesian.contSetT2Scan's inputs for the
// tests: the typed Model with A's mean premium that brackets the scan,
// the largest of A's types' settled bounds, and a type-αB B's t2 cont
// utility averaged over A's types.
func bayesianT2Mixture(b *Bayesian, alphaB, pstar float64) (ref *Model, above float64, bobCont func(logy float64) float64) {
	evals := make([]t2Eval, len(b.priorA.Values))
	for i, alphaA := range b.priorA.Values {
		evals[i] = b.typedModel(alphaA, alphaB).newT2Eval(pstar, 0)
		above = math.Max(above, 2*b.m.k.discBTauB*(evals[i].bobCont3+b.m.k.growth2B*evals[i].pbar))
	}
	bobCont = func(logy float64) float64 {
		var u float64
		for i := range evals {
			u += b.priorA.Probs[i] * evals[i].bobCont(logy)
		}
		return u
	}
	return b.typedModel(b.priorA.Mean(), alphaB), above, bobCont
}

// sameBits reports whether two regions have bit-identical endpoints.
func sameBits(a, b mathx.IntervalSet) bool {
	x, y := a.Intervals(), b.Intervals()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i].Lo) != math.Float64bits(y[i].Lo) || math.Float64bits(x[i].Hi) != math.Float64bits(y[i].Hi) {
			return false
		}
	}
	return true
}

// TestWindowedT2ScanMatchesFullGrid checks that scanning only the nodes
// between the settled bounds changes no region: on the presets and the 64
// universe cells at every windowKappas ratio (at the unit rate and at the
// scenario's rate), and for every B type of the uncertainty figure's
// priors (with A's prior the figure's point prior and each of the same
// priors), the region equals the full [0, n] window's bit for bit.
func TestWindowedT2ScanMatchesFullGrid(t *testing.T) {
	var windowed, full atomic.Uint64
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, kappa := range windowKappas {
			for _, pstar := range []float64{1, sc.PStar} {
				e := m.newT2Eval(pstar, kappa*pstar)
				below, above := e.settled()
				got := m.t2RegionScan(pstar, e.q, e.pbar, below, above, e.bobCont, &windowed, mathx.IntervalSet{})
				want := m.t2RegionScan(pstar, e.q, e.pbar, 0, math.Inf(1), e.bobCont, &full, mathx.IntervalSet{})
				if !sameBits(got, want) {
					t.Errorf("params #%d (%s), P*=%g, κ=%g: windowed %v, full %v", k, sc.Name, pstar, kappa, got, want)
				}
			}
		}
	}
	m := newDefaultModel(t)
	for _, priorA := range uncertaintyPriors {
		for _, priorB := range uncertaintyPriors {
			b, err := m.Bayesian(priorA, priorB)
			if err != nil {
				t.Fatal(err)
			}
			for _, alphaB := range priorB.Values {
				for _, pstar := range []float64{1, 2} {
					got := b.contSetT2Scan(alphaB, pstar)
					ref, _, bobCont := bayesianT2Mixture(b, alphaB, pstar)
					want := ref.t2RegionScan(pstar, 0, ref.cutoffT3(pstar, 0), 0, math.Inf(1), bobCont, &full, mathx.IntervalSet{})
					if !sameBits(got, want) {
						t.Errorf("A prior %v, αB=%g, P*=%g: windowed %v, full %v", priorA.Values, alphaB, pstar, got, want)
					}
				}
			}
		}
	}
	windowed.Add(m.ScanEvals())
	t.Logf("evaluations: windowed %d, full grid %d (%.1f%% fewer)",
		windowed.Load(), full.Load(), 100*(1-float64(windowed.Load())/float64(full.Load())))
}

// TestSettledBoundsHold samples the settled ranges the window skips: on
// the same cells and ratios, U^B_t2(cont) − y is positive at every sampled
// y below the lower bound and negative at every sampled y above the upper
// one, for the complete-information B and for every Bayesian B type.
func TestSettledBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, below, above float64, bobCont func(logy float64) float64) {
		t.Helper()
		for i := 0; i < 32; i++ {
			// Log-uniform over 30 e-folds, plus the bounds' own neighbours.
			s := math.Exp(-30 * rng.Float64())
			if i == 0 {
				s = 1 - 1e-12
			}
			if y := below * s; y > 0 && bobCont(math.Log(y))-y <= 0 {
				t.Errorf("%s: diff(%g) = %g ≤ 0 below %g", name, y, bobCont(math.Log(y))-y, below)
			}
			if y := above / s; bobCont(math.Log(y))-y >= 0 {
				t.Errorf("%s: diff(%g) = %g ≥ 0 above %g", name, y, bobCont(math.Log(y))-y, above)
			}
		}
	}
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, kappa := range windowKappas {
			for _, pstar := range []float64{1, sc.PStar} {
				e := m.newT2Eval(pstar, kappa*pstar)
				below, above := e.settled()
				check(fmt.Sprintf("params #%d (%s), P*=%g, κ=%g", k, sc.Name, pstar, kappa), below, above, e.bobCont)
			}
		}
	}
	m := newDefaultModel(t)
	for _, priorA := range uncertaintyPriors {
		for _, priorB := range uncertaintyPriors {
			b, err := m.Bayesian(priorA, priorB)
			if err != nil {
				t.Fatal(err)
			}
			for _, alphaB := range priorB.Values {
				_, above, bobCont := bayesianT2Mixture(b, alphaB, 2)
				check(fmt.Sprintf("A prior %v, αB=%g", priorA.Values, alphaB), 0, above, bobCont)
			}
		}
	}
}
