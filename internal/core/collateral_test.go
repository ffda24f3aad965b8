package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mathx"
	"repro/internal/utility"
)

func TestCollateralConstruction(t *testing.T) {
	m := newDefaultModel(t)
	for _, q := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := m.Collateral(q); !errors.Is(err, ErrBadParam) {
			t.Errorf("Collateral(%v) err = %v, want ErrBadParam", q, err)
		}
	}
	c, err := m.Collateral(0.05)
	if err != nil {
		t.Fatalf("Collateral: %v", err)
	}
	if c.Q() != 0.05 {
		t.Errorf("Q() = %v, want 0.05", c.Q())
	}
}

func TestCollateralZeroReducesToBasic(t *testing.T) {
	// Q = 0 must reproduce the basic game exactly at every stage.
	m := newDefaultModel(t)
	c, err := m.Collateral(0)
	if err != nil {
		t.Fatal(err)
	}
	const pstar = 2.0
	cutBasic, _ := m.CutoffT3(pstar)
	cutColl, err := c.CutoffT3(pstar)
	if err != nil {
		t.Fatal(err)
	}
	if cutBasic != cutColl {
		t.Errorf("cut-offs differ: basic %v, collateral %v", cutBasic, cutColl)
	}
	for _, y := range []float64{0.7, 1.5, 2.2, 3.0} {
		for _, action := range []Action{Cont, Stop} {
			ub, _ := m.BobUtilityT2(action, y, pstar)
			uc, err := c.BobUtilityT2(action, y, pstar)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(ub, uc, 1e-12) {
				t.Errorf("BobT2 %v at y=%v: basic %v, collateral %v", action, y, ub, uc)
			}
			ua, _ := m.AliceUtilityT2(action, y, pstar)
			uac, err := c.AliceUtilityT2(action, y, pstar)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(ua, uac, 1e-12) {
				t.Errorf("AliceT2 %v at y=%v: basic %v, collateral %v", action, y, ua, uac)
			}
		}
	}
	srBasic, _ := m.SuccessRate(pstar)
	srColl, err := c.SuccessRate(pstar)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(srBasic, srColl, 1e-12) {
		t.Errorf("SR differs: basic %v, collateral %v", srBasic, srColl)
	}
}

func TestCollateralCutoffDecreasesWithQ(t *testing.T) {
	// Eq. 33: a larger forfeitable deposit lowers A's withdrawal cut-off,
	// until it is clamped at zero.
	m := newDefaultModel(t)
	const pstar = 2.0
	prev := math.Inf(1)
	for _, q := range []float64{0, 0.01, 0.1, 0.5, 1} {
		c, err := m.Collateral(q)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := c.CutoffT3(pstar)
		if err != nil {
			t.Fatal(err)
		}
		if cut > prev {
			t.Errorf("cut-off must not increase with Q: Q=%v gives %v > %v", q, cut, prev)
		}
		prev = cut
	}
	// With Q ≥ P* (scaled by discounts) the cut-off must clamp at zero.
	c, err := m.Collateral(5)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := c.CutoffT3(pstar)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Errorf("cut-off = %v, want 0 under overwhelming collateral", cut)
	}
}

func TestCollateralSuccessRateIncreasesWithQ(t *testing.T) {
	// Fig. 9: SR increases with the collateral amount.
	m := newDefaultModel(t)
	const pstar = 2.0
	var prev float64
	for i, q := range []float64{0, 0.01, 0.1} {
		c, err := m.Collateral(q)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := c.SuccessRate(pstar)
		if err != nil {
			t.Fatal(err)
		}
		if sr < 0 || sr > 1 {
			t.Fatalf("SR = %v out of range", sr)
		}
		if i > 0 && sr <= prev {
			t.Errorf("SR(Q=%v) = %v, want > SR at smaller Q (%v)", q, sr, prev)
		}
		prev = sr
	}
}

func TestCollateralContSetIncludesLowPrices(t *testing.T) {
	// §IV.A.3: with collateral, B continues at very low prices — forfeiting
	// the deposit to keep a worthless token is not sensible.
	m := newDefaultModel(t)
	c, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.ContSetT2(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Empty() {
		t.Fatal("continuation set empty")
	}
	if !set.Contains(0.01) {
		t.Errorf("continuation set %v should contain prices near zero", set)
	}
	// And stop still wins at very high prices.
	if set.Contains(50) {
		t.Errorf("continuation set %v should not contain very high prices", set)
	}
}

func TestCollateralThreeIndifferencePoints(t *testing.T) {
	// Fig. 7 (Q=0.01): the cont/stop difference has three crossings, making
	// 𝒫_t2 a union of two intervals.
	m := newDefaultModel(t)
	c, err := m.Collateral(0.01)
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.ContSetT2(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Intervals()); got != 2 {
		t.Fatalf("ContSetT2 = %v: got %d intervals, want 2 (three indifference points)", set, got)
	}
	// At interior indifference points cont ≈ stop.
	ivs := set.Intervals()
	interior := []float64{ivs[0].Hi, ivs[1].Lo, ivs[1].Hi}
	for _, y := range interior {
		cont, _ := c.BobUtilityT2(Cont, y, 2.0)
		stop, _ := c.BobUtilityT2(Stop, y, 2.0)
		if !almostEqual(cont, stop, 1e-6) {
			t.Errorf("at y=%v: cont=%v stop=%v, want indifference", y, cont, stop)
		}
	}
}

func TestCollateralSingleRegionForLargeQ(t *testing.T) {
	// Fig. 7 (Q=0.1): one indifference point; 𝒫_t2 = (0, ȳ].
	m := newDefaultModel(t)
	c, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.ContSetT2(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Intervals()); got != 1 {
		t.Fatalf("ContSetT2 = %v: got %d intervals, want 1", set, got)
	}
}

func TestCollateralFeasibleRates(t *testing.T) {
	m := newDefaultModel(t)
	c, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	a := c.FeasibleRatesAlice()
	b := c.FeasibleRatesBob()
	if a.Empty() || b.Empty() {
		t.Fatalf("feasible sets empty: A=%v B=%v", a, b)
	}
	inter := c.FeasibleRatesIntersection()
	union := c.FeasibleRatesUnion()
	if inter.Empty() {
		t.Fatal("intersection empty: agents never agree")
	}
	// Intersection ⊆ each ⊆ union.
	for _, iv := range inter.Intervals() {
		mid := 0.5 * (iv.Lo + iv.Hi)
		if !a.Contains(mid) || !b.Contains(mid) || !union.Contains(mid) {
			t.Errorf("intersection point %v not in both feasible sets", mid)
		}
	}
	if union.TotalLen() < inter.TotalLen() {
		t.Errorf("union smaller than intersection: %v < %v", union.TotalLen(), inter.TotalLen())
	}
	// A fair rate near P0 should be agreeable for both with Q=0.1.
	if !inter.Contains(2.0) {
		t.Errorf("intersection %v should contain the fair rate 2.0", inter)
	}
}

func TestCollateralUtilityT1(t *testing.T) {
	m := newDefaultModel(t)
	c, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Stop utilities include the kept deposit (Eqs. 38–39).
	stopA, err := c.AliceUtilityT1(Stop, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(stopA, 2.1, 1e-12) {
		t.Errorf("Alice stop = %v, want 2.1", stopA)
	}
	stopB, err := c.BobUtilityT1(Stop, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(stopB, 2.1, 1e-12) {
		t.Errorf("Bob stop = %v, want P0 + Q = 2.1", stopB)
	}
	// At the fair rate both prefer cont (consistent with the feasible sets).
	contA, _ := c.AliceUtilityT1(Cont, 2)
	contB, _ := c.BobUtilityT1(Cont, 2)
	if contA <= stopA {
		t.Errorf("Alice cont = %v, want > stop = %v", contA, stopA)
	}
	if contB <= stopB {
		t.Errorf("Bob cont = %v, want > stop = %v", contB, stopB)
	}
	// Validation.
	if _, err := c.AliceUtilityT1(Action(9), 2); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad action err = %v", err)
	}
	if _, err := c.BobUtilityT1(Cont, -1); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad rate err = %v", err)
	}
}

func TestCollateralUtilityValidation(t *testing.T) {
	m := newDefaultModel(t)
	c, err := m.Collateral(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cases := []func() (float64, error){
		func() (float64, error) { return c.CutoffT3(-1) },
		func() (float64, error) { return c.AliceUtilityT2(Cont, -1, 2) },
		func() (float64, error) { return c.AliceUtilityT2(Action(8), 1, 2) },
		func() (float64, error) { return c.BobUtilityT2(Cont, 1, -2) },
		func() (float64, error) { return c.BobUtilityT2(Action(8), 1, 2) },
		func() (float64, error) { return c.SuccessRate(0) },
	}
	for i, f := range cases {
		if _, err := f(); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: err = %v, want ErrBadParam", i, err)
		}
	}
	if _, err := c.ContSetT2(-3); !errors.Is(err, ErrBadParam) {
		t.Errorf("ContSetT2 err = %v, want ErrBadParam", err)
	}
	if _, err := c.Strategy(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("Strategy err = %v, want ErrBadParam", err)
	}
}

func TestCollateralStrategy(t *testing.T) {
	m := newDefaultModel(t)
	c, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AliceInitiates {
		t.Error("both agents should engage at the fair rate with Q=0.1")
	}
	if s.BobContT2.Empty() {
		t.Error("strategy continuation set empty")
	}
	cut, _ := c.CutoffT3(2.0)
	if s.AliceCutoffT3 != cut {
		t.Errorf("strategy cut-off %v, want %v", s.AliceCutoffT3, cut)
	}
}

func TestOptimalDeposit(t *testing.T) {
	m := newDefaultModel(t)
	q, sr, err := m.OptimalDeposit(2.0, 0.5)
	if err != nil {
		t.Fatalf("OptimalDeposit: %v", err)
	}
	if q < 0 || q > 0.5 {
		t.Errorf("q = %v outside [0, 0.5]", q)
	}
	sr0, _ := m.SuccessRate(2.0)
	if sr < sr0 {
		t.Errorf("optimal-deposit SR %v below no-deposit SR %v", sr, sr0)
	}
	if _, _, err := m.OptimalDeposit(-1, 0.5); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad rate err = %v", err)
	}
	if _, _, err := m.OptimalDeposit(2, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad qMax err = %v", err)
	}
}

func TestCollateralExpandsViableRates(t *testing.T) {
	// Fig. 9 discussion: "higher Q allows for larger price movement, by
	// expanding the feasible Token_b price range at both t2 and t1."
	m := newDefaultModel(t)
	c0, err := m.Collateral(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	set0, _ := c0.ContSetT2(2.0)
	set1, _ := c1.ContSetT2(2.0)
	if set1.TotalLen() <= set0.TotalLen() {
		t.Errorf("t2 region with Q=0.1 (%v) not larger than Q=0 (%v)",
			set1.TotalLen(), set0.TotalLen())
	}
}

func TestCollateralSweepAgainstAlternateParams(t *testing.T) {
	// The monotone effect of collateral must be robust away from Table III.
	params := utility.Default().
		WithMu(-0.002).
		WithSigma(0.15).
		WithAliceAlpha(0.2).
		WithBobAlpha(0.2)
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, q := range []float64{0, 0.05, 0.2} {
		c, err := m.Collateral(q)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := c.SuccessRate(2.0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && sr < prev-1e-9 {
			t.Errorf("SR(Q=%v) = %v dropped below %v", q, sr, prev)
		}
		prev = sr
	}
}

// hintFreeEngagement is feasibleSet without hints: the P* scan of diff
// over per-rate regions from the direct scan (unitRegion).
func hintFreeEngagement(m *Model, q float64, diff func(p float64) float64) mathx.IntervalSet {
	lo, hi := 1e-3, m.rateScanBound()+2*q
	return mathx.FromSignChanges(diff, lo, hi, mathx.FindAllRoots(diff, lo, hi, m.scanN/2, m.tol))
}

// TestEngagementRegionsMatchDirectScan checks that carrying roots between
// the engagement scans' probes changes no region: on Fig. 8's model at
// Q ∈ {0.01, 0.1} and on the presets and the 64 universe cells at
// Q ∈ {0.01, 0.1, 0.5}, every κ that FeasibleRatesAlice and
// FeasibleRatesBob visit holds the direct scan's region bit for bit, and
// 𝒫^A and 𝒫^B equal those of a Model scanned without hints. It logs how
// many of those scans fell back to the direct scan. The cells run on
// GOMAXPROCS goroutines.
func TestEngagementRegionsMatchDirectScan(t *testing.T) {
	type cell struct {
		name string
		p    utility.Params
		q    float64
	}
	cells := []cell{{"fig8", utility.Default(), 0.01}, {"fig8", utility.Default(), 0.1}}
	for _, sc := range probeScenarios(t) {
		for _, q := range []float64{0.01, 0.1, 0.5} {
			cells = append(cells, cell{sc.Name, sc.Params, q})
		}
	}
	var scans, carried, evals, refEvals atomic.Uint64
	check := func(k int, cl cell) {
		m, err := New(cl.p)
		if err != nil {
			t.Error(err)
			return
		}
		ref, _ := New(cl.p)
		c, _ := m.Collateral(cl.q)
		q := cl.q
		fa, fb := c.FeasibleRatesAlice(), c.FeasibleRatesBob()
		wantA := hintFreeEngagement(ref, q, func(p float64) float64 { return ref.aliceContT1(p, q) - (p + q) })
		wantB := hintFreeEngagement(ref, q, func(p float64) float64 { return ref.bobContT1(p, q) - (ref.params.P0 + q) })
		if !sameBits(fa, wantA) || !sameBits(fb, wantB) {
			t.Errorf("cell #%d (%s, Q=%g): 𝒫^A %v, 𝒫^B %v; without hints %v, %v", k, cl.name, q, fa, fb, wantA, wantB)
		}
		if n := m.solve.regions.Evictions(); n != 0 {
			t.Errorf("cell #%d (%s, Q=%g): %d regions evicted before the check", k, cl.name, q, n)
		}
		m.solve.regions.Range(func(kappa float64, got mathx.IntervalSet) bool {
			if want := ref.unitRegion(kappa); !sameBits(got, want) {
				t.Errorf("cell #%d (%s, Q=%g), κ=%g: carried %v, direct %v", k, cl.name, q, kappa, got, want)
			}
			return true
		})
		_, misses := m.solve.regions.Stats()
		scans.Add(misses)
		carried.Add(m.solve.carried.Load())
		evals.Add(m.ScanEvals())
		refEvals.Add(ref.ScanEvals())
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				check(k, cells[k])
			}
		}()
	}
	for k := range cells {
		next <- k
	}
	close(next)
	wg.Wait()
	t.Logf("%d t2 scans under the engagement scans: %d carried, %d fell back; evaluations %d, direct %d",
		scans.Load(), carried.Load(), scans.Load()-carried.Load(), evals.Load(), refEvals.Load())
}
