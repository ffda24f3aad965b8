package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/mathx"
	"repro/internal/utility"
)

func TestUncertainConstruction(t *testing.T) {
	m := newDefaultModel(t)
	u := m.Uncertain()
	if !math.IsInf(u.Budget(), 1) {
		t.Errorf("unconstrained budget = %v, want +Inf", u.Budget())
	}
	ub, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatalf("UncertainWithBudget: %v", err)
	}
	if ub.Budget() != 5 {
		t.Errorf("budget = %v, want 5", ub.Budget())
	}
	// B's response table depends on the Model alone: every solver of the
	// Model shares the one built on first use.
	if u.response != ub.response || m.Uncertain().response != u.response {
		t.Error("Uncertain solvers of one Model built separate response tables")
	}
	for _, b := range []float64{0, -1, math.NaN()} {
		if _, err := m.UncertainWithBudget(b); !errors.Is(err, ErrBadParam) {
			t.Errorf("UncertainWithBudget(%v) err = %v, want ErrBadParam", b, err)
		}
	}
}

func TestUncertainCutoffT3(t *testing.T) {
	// Eq. 41: P̄_t3,x(X) = P̄_t3/X, with P̄_t3,x(0) = ∞.
	m := newDefaultModel(t)
	u := m.Uncertain()
	base, _ := m.CutoffT3(4)
	tests := []struct {
		x    float64
		want float64
	}{
		{1, base},
		{2, base / 2},
		{0.5, base * 2},
	}
	for _, tt := range tests {
		got, err := u.CutoffT3(tt.x, 4)
		if err != nil {
			t.Fatalf("CutoffT3(%v, 4): %v", tt.x, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CutoffT3(%v, 4) = %v, want %v", tt.x, got, tt.want)
		}
	}
	inf, err := u.CutoffT3(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inf, 1) {
		t.Errorf("CutoffT3(0, 4) = %v, want +Inf", inf)
	}
	if _, err := u.CutoffT3(-1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative X err = %v, want ErrBadParam", err)
	}
	if _, err := u.CutoffT3(1, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero amount err = %v, want ErrBadParam", err)
	}
}

func TestUncertainBobUtilityZeroLock(t *testing.T) {
	// Locking X = 0 is equivalent to stop: zero excess utility.
	m := newDefaultModel(t)
	u := m.Uncertain()
	got, err := u.BobExcessUtilityT2(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("BobExcessUtilityT2(0) = %v, want 0", got)
	}
}

func TestOptimalLockBIsOptimal(t *testing.T) {
	// The reported X* must (weakly) dominate a probe grid of alternatives.
	m := newDefaultModel(t)
	u := m.Uncertain()
	for _, y := range []float64{0.5, 1, 2, 4, 8} {
		xStar, val, err := u.OptimalLockB(y, 4)
		if err != nil {
			t.Fatalf("OptimalLockB(%v, 4): %v", y, err)
		}
		atStar, _ := u.BobExcessUtilityT2(xStar, y, 4)
		if !almostEqual(val, atStar, 1e-9) {
			t.Errorf("reported value %v != utility at X* %v", val, atStar)
		}
		for _, x := range []float64{0, 0.1, 0.5, 1, 2, 5, 10, 20} {
			alt, _ := u.BobExcessUtilityT2(x, y, 4)
			if alt > val+1e-6 {
				t.Errorf("y=%v: X=%v gives %v > optimum %v at X*=%v", y, x, alt, val, xStar)
			}
		}
	}
}

func TestUncertainHomogeneity(t *testing.T) {
	// The t2 price y and the commitment a drop out of Eqs. 41–44 in the
	// scaled amount z = X·y/a, so the unconstrained X*·y/a and B's optimal
	// value over a are the same at every (y, a), and A's excess utility
	// (Eq. 45) is linear in a — to rounding, since the response is solved
	// once. This is the structural fact behind DESIGN.md deviation 6.
	m := newDefaultModel(t)
	u := m.Uncertain()
	z0, g0, err := u.OptimalLockB(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{0.5, 1, 2, 3, 5} {
		for _, a := range []float64{1, 2, 4} {
			x, v, err := u.OptimalLockB(y, a)
			if err != nil {
				t.Fatal(err)
			}
			if relErr(x*y/a, z0) > 1e-12 || relErr(v/a, g0) > 1e-12 {
				t.Errorf("y=%v a=%v: X*·y/a = %.17g, value/a = %.17g; want %.17g, %.17g",
					y, a, x*y/a, v/a, z0, g0)
			}
		}
	}
	e1, err := u.AliceExcessUtilityT1(1)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := u.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(e4, 4*e1) > 1e-12 {
		t.Errorf("excess(4) = %.17g, want 4·excess(1) = %.17g", e4, 4*e1)
	}
}

func TestUncertainSuccessRateScaleInvariant(t *testing.T) {
	// Under the unconstrained best response, SR_x does not depend on a.
	m := newDefaultModel(t)
	u := m.Uncertain()
	sr1, err := u.SuccessRate(1)
	if err != nil {
		t.Fatal(err)
	}
	sr4, err := u.SuccessRate(4)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(sr1, sr4) > 1e-12 {
		t.Errorf("SR_x(1) = %.17g != SR_x(4) = %.17g; expected scale invariance", sr1, sr4)
	}
	if sr1 <= 0 || sr1 >= 1 {
		t.Errorf("SR_x = %v, want in (0,1)", sr1)
	}
}

func TestUncertainBoostsSuccessRate(t *testing.T) {
	// Fig. 11 / §V.A: dynamic amounts raise the success rate above the
	// basic game's optimum.
	m := newDefaultModel(t)
	u := m.Uncertain()
	srX, err := u.SuccessRate(2)
	if err != nil {
		t.Fatal(err)
	}
	_, srBasic, err := m.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	if srX <= srBasic {
		t.Errorf("SR_x = %v, want > basic optimum %v", srX, srBasic)
	}
}

func TestBudgetCapRespected(t *testing.T) {
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{0.3, 0.5, 1, 2, 4} {
		x, _, err := u.OptimalLockB(y, 8.91)
		if err != nil {
			t.Fatal(err)
		}
		if x > 5+1e-9 {
			t.Errorf("X*(%v) = %v exceeds budget 5", y, x)
		}
	}
}

func TestBudgetHumpShape(t *testing.T) {
	// Fig. 10a: with a budget, X* is zero at very low prices (even the whole
	// budget cannot deter A's withdrawal profitably), rises, then declines
	// like 1/P_t2.
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	const a = 8.91
	xLow, _, err := u.OptimalLockB(0.25, a)
	if err != nil {
		t.Fatal(err)
	}
	if xLow != 0 {
		t.Errorf("X*(0.25) = %v, want 0 at very low price", xLow)
	}
	xMid, _, err := u.OptimalLockB(2, a)
	if err != nil {
		t.Fatal(err)
	}
	if xMid <= 1 {
		t.Errorf("X*(2) = %v, want substantially positive", xMid)
	}
	xHigh, _, err := u.OptimalLockB(8, a)
	if err != nil {
		t.Fatal(err)
	}
	if !(xHigh < xMid && xHigh > 0) {
		t.Errorf("X*(8) = %v, want in (0, X*(2)=%v)", xHigh, xMid)
	}
}

func TestBudgetCreatesInteriorOptimumForAlice(t *testing.T) {
	// Fig. 10b: with a budget the excess utility has an interior maximum
	// and an upper break-even point.
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	aStar, exStar, err := u.OptimalLockA(14)
	if err != nil {
		t.Fatalf("OptimalLockA: %v", err)
	}
	if aStar <= 1 || aStar >= 13.5 {
		t.Errorf("a* = %v, want interior of (1, 13.5)", aStar)
	}
	if exStar <= 0 {
		t.Errorf("optimal excess = %v, want > 0", exStar)
	}
	rng, ok, err := u.BreakEvenRange(14)
	if err != nil {
		t.Fatalf("BreakEvenRange: %v", err)
	}
	if !ok {
		t.Fatal("no break-even range")
	}
	if rng.Hi >= 14-1e-9 {
		t.Errorf("upper break-even = %v, want interior (excess goes negative)", rng.Hi)
	}
	// Outside the upper break-even the excess utility is negative.
	ex, err := u.AliceExcessUtilityT1(rng.Hi * 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if ex >= 0 {
		t.Errorf("excess(%v) = %v, want < 0 beyond break-even", rng.Hi*1.1, ex)
	}
}

func TestBudgetSuccessRateDeclinesPastBudget(t *testing.T) {
	// Once a outgrows what B can match, the capped SR_x falls below the
	// unconstrained (scale-invariant) level.
	m := newDefaultModel(t)
	uCap, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	srSmall, err := uCap.SuccessRate(2)
	if err != nil {
		t.Fatal(err)
	}
	srLarge, err := uCap.SuccessRate(12)
	if err != nil {
		t.Fatal(err)
	}
	if srLarge >= srSmall {
		t.Errorf("SR_x(12) = %v, want < SR_x(2) = %v under budget", srLarge, srSmall)
	}
}

func TestUncertainValidation(t *testing.T) {
	m := newDefaultModel(t)
	u := m.Uncertain()
	cases := []func() (float64, error){
		func() (float64, error) { return u.AliceUtilityT2(-1, 2, 4) },
		func() (float64, error) { return u.AliceUtilityT2(1, -2, 4) },
		func() (float64, error) { return u.AliceUtilityT2(1, 2, 0) },
		func() (float64, error) { return u.BobExcessUtilityT2(math.Inf(1), 2, 4) },
		func() (float64, error) { return u.BobExcessUtilityT2(1, 0, 4) },
		func() (float64, error) { return u.AliceExcessUtilityT1(-1) },
		func() (float64, error) { return u.SuccessRate(0) },
	}
	for i, f := range cases {
		if _, err := f(); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: err = %v, want ErrBadParam", i, err)
		}
	}
	if _, _, err := u.OptimalLockB(0, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockB bad price err = %v", err)
	}
	if _, _, err := u.OptimalLockB(2, -4); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockB bad amount err = %v", err)
	}
	if _, _, err := u.OptimalLockA(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockA bad aMax err = %v", err)
	}
	if _, _, err := u.BreakEvenRange(-2); !errors.Is(err, ErrBadParam) {
		t.Errorf("BreakEvenRange bad aMax err = %v", err)
	}
}

func TestUncertainAliceT2ZeroLockIsDiscountedRefund(t *testing.T) {
	// If B locks nothing, A's utility is her refund discounted one stage.
	m := newDefaultModel(t)
	u := m.Uncertain()
	got, err := u.AliceUtilityT2(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	want := math.Exp(-p.Alice.R*p.Chains.TauB) *
		4 * math.Exp(-p.Alice.R*(p.Chains.EpsB+2*p.Chains.TauA))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("AliceUtilityT2(0) = %v, want %v", got, want)
	}
}

func TestOptimalLockAIncreasesWithRisingDrift(t *testing.T) {
	// A mild sanity cross-check: a strongly positive drift makes Token_b
	// more attractive for A, raising her willingness to commit.
	mLow, err := New(newDefaultModel(t).Params().WithMu(-0.01))
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := New(newDefaultModel(t).Params().WithMu(0.01))
	if err != nil {
		t.Fatal(err)
	}
	uLow, err := mLow.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	uHigh, err := mHigh.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	exLow, err := uLow.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	exHigh, err := uHigh.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	if exHigh <= exLow {
		t.Errorf("excess with µ=0.01 (%v) should exceed µ=-0.01 (%v)", exHigh, exLow)
	}
}

// perPriceUncertain is the reference the scaled response is checked
// against: printed Eqs. 41–43 transcribed from the parameters alone, with
// Eq. 44 searched afresh at every (P_t2, a) over log X on 160 panels
// spanning 25 e-folds below min(50·P̄_t3/P_t2 + 10, 1e9, budget).
type perPriceUncertain struct {
	p      utility.Params
	budget float64
}

// law is the t3 price law after t2 price y (Eq. 41's integrator).
func (r perPriceUncertain) law(y float64) dist.LogNormal {
	l, err := r.p.Price.Transition(y, r.p.Chains.TauB)
	if err != nil {
		panic(err)
	}
	return l
}

// cutoff is P̄_t3 of Eq. 18 at the committed amount a.
func (r perPriceUncertain) cutoff(a float64) float64 {
	al, c := r.p.Alice, r.p.Chains
	return math.Exp((al.R-r.p.Price.Mu)*c.TauB) * a * math.Exp(-al.R*(c.EpsB+2*c.TauA)) / (1 + al.Alpha)
}

// alice is U^A_t2,x(X) of Eq. 42.
func (r perPriceUncertain) alice(x, y, a float64) float64 {
	al, c, mu := r.p.Alice, r.p.Chains, r.p.Price.Mu
	refund := a * math.Exp(-al.R*(c.EpsB+2*c.TauA))
	if x <= 0 {
		return math.Exp(-al.R*c.TauB) * refund
	}
	pbar, tr := r.cutoff(a)/x, r.law(y)
	cont := x * (1 + al.Alpha) * math.Exp((mu-al.R)*c.TauB) * tr.PartialExpectationAbove(pbar)
	return math.Exp(-al.R*c.TauB) * (cont + tr.CDF(pbar)*refund)
}

// bob is U^B_t2,x(X) of Eq. 43.
func (r perPriceUncertain) bob(x, y, a float64) float64 {
	if x <= 0 {
		return 0
	}
	b, c, mu := r.p.Bob, r.p.Chains, r.p.Price.Mu
	pbar, tr := r.cutoff(a)/x, r.law(y)
	gross := tr.TailProb(pbar)*(1+b.Alpha)*a*math.Exp(-b.R*(c.EpsB+c.TauA)) +
		x*math.Exp(2*(mu-b.R)*c.TauB)*tr.PartialExpectationBelow(pbar)
	return math.Exp(-b.R*c.TauB)*gross - x*y
}

// optimal is Eq. 44 at one price: X* and B's value, X* = 0 when no lock
// pays. Every local maximum of the grid is refined by golden section, not
// only the best node: where B's discount is steep (asymmetric-discount) the
// positive part of U^B_t2,x is a bump narrower than a panel, and a
// near-zero negative value at the smallest X would outrank its nodes.
func (r perPriceUncertain) optimal(y, a float64) (x, v float64) {
	const panels = 160
	hi := math.Log(math.Min(math.Min(50*r.cutoff(a)/y+10, 1e9), r.budget))
	lo, h := hi-25, 25.0/panels
	obj := func(lx float64) float64 { return r.bob(math.Exp(lx), y, a) }
	var vals [panels + 1]float64
	for i := range vals {
		vals[i] = obj(lo + float64(i)*h)
	}
	lx, v := lo, vals[0]
	for i, vi := range vals {
		if (i > 0 && vals[i-1] > vi) || (i < panels && vals[i+1] > vi) {
			continue
		}
		l := mathx.GoldenMax(obj, math.Max(lo+float64(i-1)*h, lo), math.Min(lo+float64(i+1)*h, hi), 1e-10)
		li, fi := lo+float64(i)*h, vi
		if fl := obj(l); fl >= vi {
			li, fi = l, fl
		}
		if fi > v {
			lx, v = li, fi
		}
	}
	if v <= 0 {
		return 0, 0
	}
	return math.Exp(lx), v
}

// t1 returns Eq. 45 and Eq. 46 by 48-node Gauss–Hermite quadrature over
// P_t2 with the per-price optimum at every node.
func (r perPriceUncertain) t1(a float64) (excess, sr float64) {
	c := r.p.Chains
	tr, err := r.p.Price.Transition(r.p.P0, c.TauA)
	if err != nil {
		panic(err)
	}
	gh := mathx.SharedGaussHermite(48)
	xs := map[float64]float64{} // X* at each node, shared by both passes
	alice := gh.ExpectLogNormal(func(y float64) float64 {
		x, _ := r.optimal(y, a)
		xs[y] = x
		return r.alice(x, y, a)
	}, tr.Mu, tr.Sigma)
	sr = gh.ExpectLogNormal(func(y float64) float64 {
		x := xs[y]
		if x <= 0 {
			return 0
		}
		return r.law(y).TailProb(r.cutoff(a) / x)
	}, tr.Mu, tr.Sigma)
	return math.Exp(-r.p.Alice.R*c.TauA)*alice - a, mathx.Clamp(sr, 0, 1)
}

// TestScaledResponseMatchesPerPriceSearch pins the scaled response to the
// per-price search it replaces, on every preset and 64 universe cells, at
// budgets {+Inf, the scenario's, 1}, five commitments and 13 prices from
// 0.05 to 40. Eqs. 42–43 at the per-price X* and B's optimal value agree
// to 1e-12, B's relative to the larger of the value and X*·P_t2, the size
// of the terms Eq. 43 subtracts. X* and
// SR_x agree to 1e-7 relative, and Eq. 45 to 1e-7·a: value comparisons fix
// an argmax at a smooth maximum only to about the square root of the
// rounding error.
func TestScaledResponseMatchesPerPriceSearch(t *testing.T) {
	var worstV, worstX, worstSR, worstEx float64
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		budgets := []float64{math.Inf(1), 1}
		if sc.BobBudget > 0 {
			budgets = append(budgets, sc.BobBudget)
		}
		for _, budget := range budgets {
			u := m.Uncertain()
			if !math.IsInf(budget, 1) {
				if u, err = m.UncertainWithBudget(budget); err != nil {
					t.Fatal(err)
				}
			}
			ref := perPriceUncertain{p: sc.Params, budget: budget}
			for _, a := range []float64{0.02, 0.5, 2, 8.91, 12} {
				for i := 0; i <= 12; i++ {
					y := 0.05 * math.Pow(800, float64(i)/12)
					x, v, err := u.OptimalLockB(y, a)
					if err != nil {
						t.Fatal(err)
					}
					wantX, wantV := ref.optimal(y, a)
					scale := math.Max(math.Max(math.Abs(wantV), wantX*y), 1e-300)
					ua, errA := u.AliceUtilityT2(wantX, y, a)
					ub, errB := u.BobExcessUtilityT2(wantX, y, a)
					if errA != nil || errB != nil {
						t.Fatal(errA, errB)
					}
					if relErr(ua, ref.alice(wantX, y, a)) > 1e-12 || math.Abs(ub-wantV)/scale > 1e-12 {
						t.Errorf("#%d %s a=%g y=%.4g X=%.12g: Eqs. 42/43 %.15g, %.15g, per-price %.15g, %.15g",
							k, sc.Name, a, y, wantX, ua, ub, ref.alice(wantX, y, a), wantV)
					}
					ev := math.Abs(v-wantV) / scale
					ex := relErr(x, wantX)
					worstV, worstX = math.Max(worstV, ev), math.Max(worstX, ex)
					if ev > 1e-12 || ex > 1e-7 {
						t.Errorf("#%d %s budget %g a=%g y=%.4g: X*=%.12g value %.15g, per-price X*=%.12g value %.15g",
							k, sc.Name, budget, a, y, x, v, wantX, wantV)
					}
				}
				sr, err := u.SuccessRate(a)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := u.AliceExcessUtilityT1(a)
				if err != nil {
					t.Fatal(err)
				}
				wantEx, wantSR := ref.t1(a)
				esr, eex := relErr(sr, wantSR), math.Abs(ex-wantEx)/a
				worstSR, worstEx = math.Max(worstSR, esr), math.Max(worstEx, eex)
				if esr > 1e-7 || eex > 1e-7 {
					t.Errorf("#%d %s budget %g a=%g: SR_x %.12g Eq. 45 %.12g, per-price %.12g, %.12g",
						k, sc.Name, budget, a, sr, ex, wantSR, wantEx)
				}
			}
		}
	}
	t.Logf("worst: value %.2g, X* %.2g, SR_x %.2g, Eq. 45/a %.2g", worstV, worstX, worstSR, worstEx)
}
