package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gbm"
	"repro/internal/mathx"
	"repro/internal/timeline"
	"repro/internal/utility"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newDefaultModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(utility.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidatesParams(t *testing.T) {
	bad := utility.Default()
	bad.P0 = -1
	if _, err := New(bad); err == nil {
		t.Error("New with bad params should fail")
	}
	if m, err := New(utility.Default(), WithHermiteOrder(16), WithScanPoints(200)); err != nil || m == nil {
		t.Errorf("New with options failed: %v", err)
	}
}

func TestActionString(t *testing.T) {
	tests := []struct {
		a    Action
		want string
	}{
		{Stop, "stop"},
		{Cont, "cont"},
		{Action(0), "Action(0)"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCutoffT3MatchesEq18(t *testing.T) {
	// Eq. 18: P̄_t3 = e^{(rA−µ)τb − rA(εb+2τa)} · P*/(1+αA).
	m := newDefaultModel(t)
	tests := []struct {
		pstar float64
		want  float64
	}{
		{2, math.Exp((0.01-0.002)*4-0.01*7) * 2 / 1.3},
		{1.6, math.Exp((0.01-0.002)*4-0.01*7) * 1.6 / 1.3},
		{2.4, math.Exp((0.01-0.002)*4-0.01*7) * 2.4 / 1.3},
	}
	for _, tt := range tests {
		got, err := m.CutoffT3(tt.pstar)
		if err != nil {
			t.Fatalf("CutoffT3(%v): %v", tt.pstar, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CutoffT3(%v) = %.10f, want %.10f", tt.pstar, got, tt.want)
		}
	}
	// Reference value used throughout the paper's discussion: ≈ 1.481 at P*=2.
	got, err := m.CutoffT3(2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1.4811, 5e-4) {
		t.Errorf("CutoffT3(2) = %.4f, want ≈ 1.4811", got)
	}
}

func TestCutoffT3IncreasesWithRate(t *testing.T) {
	// "Clearly, P̄_t3 increases with P*" (§III.E.2).
	m := newDefaultModel(t)
	err := quick.Check(func(a, b float64) bool {
		p1 := 0.1 + math.Mod(math.Abs(a), 10)
		p2 := p1 + 0.1 + math.Mod(math.Abs(b), 10)
		c1, err1 := m.CutoffT3(p1)
		c2, err2 := m.CutoffT3(p2)
		return err1 == nil && err2 == nil && c1 < c2
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestCutoffT3Errors(t *testing.T) {
	m := newDefaultModel(t)
	for _, p := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := m.CutoffT3(p); !errors.Is(err, ErrBadParam) {
			t.Errorf("CutoffT3(%v) err = %v, want ErrBadParam", p, err)
		}
	}
}

func TestAliceUtilityT3Shapes(t *testing.T) {
	// Fig. 3: cont is linear increasing in P_t3, stop is flat; they cross at
	// the cut-off.
	m := newDefaultModel(t)
	const pstar = 2.0
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		t.Fatal(err)
	}
	uContLo, _ := m.AliceUtilityT3(Cont, cut/2, pstar)
	uContAt, _ := m.AliceUtilityT3(Cont, cut, pstar)
	uContHi, _ := m.AliceUtilityT3(Cont, cut*2, pstar)
	uStop, _ := m.AliceUtilityT3(Stop, cut, pstar)
	if !(uContLo < uContAt && uContAt < uContHi) {
		t.Errorf("cont utility not increasing: %v %v %v", uContLo, uContAt, uContHi)
	}
	if !almostEqual(uContAt, uStop, 1e-10) {
		t.Errorf("indifference at cut-off: cont=%v stop=%v", uContAt, uStop)
	}
	if uContLo >= uStop || uContHi <= uStop {
		t.Error("cut-off does not separate cont/stop preference")
	}
	// Stop utility equals Eq. 16 exactly.
	wantStop := pstar * math.Exp(-0.01*(1+6))
	if !almostEqual(uStop, wantStop, 1e-12) {
		t.Errorf("stop = %.12f, want %.12f", uStop, wantStop)
	}
}

func TestBobUtilityT3Values(t *testing.T) {
	m := newDefaultModel(t)
	const pstar, x = 2.0, 1.7
	// Eq. 15: (1+αB)·P*·e^{−rB(εb+τa)}.
	uCont, err := m.BobUtilityT3(Cont, x, pstar)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.3 * 2 * math.Exp(-0.01*4); !almostEqual(uCont, want, 1e-12) {
		t.Errorf("cont = %.12f, want %.12f", uCont, want)
	}
	// Eq. 17: x·e^{2(µ−rB)τb}.
	uStop, err := m.BobUtilityT3(Stop, x, pstar)
	if err != nil {
		t.Fatal(err)
	}
	if want := x * math.Exp(2*(0.002-0.01)*4); !almostEqual(uStop, want, 1e-12) {
		t.Errorf("stop = %.12f, want %.12f", uStop, want)
	}
}

func TestUtilityArgumentValidation(t *testing.T) {
	m := newDefaultModel(t)
	calls := []struct {
		name string
		f    func() (float64, error)
	}{
		{"AliceT3BadPrice", func() (float64, error) { return m.AliceUtilityT3(Cont, -1, 2) }},
		{"AliceT3BadRate", func() (float64, error) { return m.AliceUtilityT3(Cont, 1, 0) }},
		{"AliceT3BadAction", func() (float64, error) { return m.AliceUtilityT3(Action(9), 1, 2) }},
		{"BobT3BadPrice", func() (float64, error) { return m.BobUtilityT3(Stop, 0, 2) }},
		{"BobT3BadAction", func() (float64, error) { return m.BobUtilityT3(Action(0), 1, 2) }},
		{"AliceT2BadPrice", func() (float64, error) { return m.AliceUtilityT2(Cont, math.NaN(), 2) }},
		{"AliceT2BadAction", func() (float64, error) { return m.AliceUtilityT2(Action(3), 1, 2) }},
		{"BobT2BadRate", func() (float64, error) { return m.BobUtilityT2(Cont, 1, math.Inf(1)) }},
		{"BobT2BadAction", func() (float64, error) { return m.BobUtilityT2(Action(7), 1, 2) }},
		{"AliceT1BadRate", func() (float64, error) { return m.AliceUtilityT1(Cont, -2) }},
		{"AliceT1BadAction", func() (float64, error) { return m.AliceUtilityT1(Action(5), 2) }},
		{"BobT1BadRate", func() (float64, error) { return m.BobUtilityT1(Stop, 0) }},
		{"BobT1BadAction", func() (float64, error) { return m.BobUtilityT1(Action(4), 2) }},
		{"SuccessRateBadRate", func() (float64, error) { return m.SuccessRate(-1) }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.f(); !errors.Is(err, ErrBadParam) {
				t.Errorf("err = %v, want ErrBadParam", err)
			}
		})
	}
}

func TestBobUtilityT2MatchesQuadrature(t *testing.T) {
	// The closed-form U^B_t2(cont) must equal the direct numerical
	// evaluation of Eq. 21.
	m := newDefaultModel(t)
	gl := mathx.MustGaussLegendre(128)
	const pstar = 2.0
	cut, _ := m.CutoffT3(pstar)
	p := m.Params()
	tauB := p.Chains.TauB
	for _, y := range []float64{0.8, 1.5, 2.0, 2.8} {
		tr, err := p.Price.Transition(y, tauB)
		if err != nil {
			t.Fatal(err)
		}
		contT3, _ := m.BobUtilityT3(Cont, 1, pstar) // constant in price
		integral := gl.IntegratePanels(func(x float64) float64 {
			stopT3, _ := m.BobUtilityT3(Stop, x, pstar)
			return tr.PDF(x) * stopT3
		}, 1e-9, cut, 16)
		want := math.Exp(-p.Bob.R*tauB) * (tr.TailProb(cut)*contT3 + integral)
		got, err := m.BobUtilityT2(Cont, y, pstar)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want, 1e-8) {
			t.Errorf("y=%v: closed form %.10f, quadrature %.10f", y, got, want)
		}
	}
}

func TestAliceUtilityT2MatchesQuadrature(t *testing.T) {
	// Closed-form U^A_t2(cont) vs direct Eq. 20.
	m := newDefaultModel(t)
	gl := mathx.MustGaussLegendre(128)
	const pstar = 2.0
	cut, _ := m.CutoffT3(pstar)
	p := m.Params()
	tauB := p.Chains.TauB
	for _, y := range []float64{0.9, 2.0, 3.1} {
		tr, err := p.Price.Transition(y, tauB)
		if err != nil {
			t.Fatal(err)
		}
		stopT3, _ := m.AliceUtilityT3(Stop, 1, pstar)
		integral := gl.IntegratePanels(func(x float64) float64 {
			contT3, _ := m.AliceUtilityT3(Cont, x, pstar)
			return tr.PDF(x) * contT3
		}, cut, cut+40, 64)
		want := math.Exp(-p.Alice.R*tauB) * (integral + tr.CDF(cut)*stopT3)
		got, err := m.AliceUtilityT2(Cont, y, pstar)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want, 1e-6) {
			t.Errorf("y=%v: closed form %.10f, quadrature %.10f", y, got, want)
		}
	}
}

func TestContRangeT2DefaultParameters(t *testing.T) {
	// Fig. 4: a non-degenerate range exists for P* ∈ {1.6, 2, 2.4}, and it
	// "expands and shifts to the higher end with larger P*".
	m := newDefaultModel(t)
	var prev mathx.Interval
	for i, pstar := range []float64{1.6, 2.0, 2.4} {
		iv, ok, err := m.ContRangeT2(pstar)
		if err != nil {
			t.Fatalf("ContRangeT2(%v): %v", pstar, err)
		}
		if !ok {
			t.Fatalf("ContRangeT2(%v): no range", pstar)
		}
		if iv.Lo <= 0 || iv.Hi <= iv.Lo {
			t.Errorf("ContRangeT2(%v) = %v: malformed", pstar, iv)
		}
		if i > 0 {
			if iv.Lo <= prev.Lo || iv.Hi <= prev.Hi {
				t.Errorf("range must shift up with P*: %v then %v", prev, iv)
			}
			if iv.Len() <= prev.Len() {
				t.Errorf("range must expand with P*: %v then %v", prev, iv)
			}
		}
		prev = iv
	}
}

func TestContRangeT2Indifference(t *testing.T) {
	// At the bounds P̲_t2 and P̄_t2, B is indifferent: U^B_t2(cont) = P_t2.
	m := newDefaultModel(t)
	iv, ok, err := m.ContRangeT2(2)
	if err != nil || !ok {
		t.Fatalf("ContRangeT2: %v ok=%v", err, ok)
	}
	for _, y := range []float64{iv.Lo, iv.Hi} {
		cont, _ := m.BobUtilityT2(Cont, y, 2)
		stop, _ := m.BobUtilityT2(Stop, y, 2)
		if !almostEqual(cont, stop, 1e-6) {
			t.Errorf("at y=%v: cont=%v stop=%v, want indifference", y, cont, stop)
		}
	}
	// Strictly inside, cont must win; outside, stop must win.
	mid := math.Sqrt(iv.Lo * iv.Hi)
	cont, _ := m.BobUtilityT2(Cont, mid, 2)
	if cont <= mid {
		t.Errorf("inside range cont=%v <= stop=%v", cont, mid)
	}
	for _, y := range []float64{iv.Lo * 0.5, iv.Hi * 1.5} {
		cont, _ := m.BobUtilityT2(Cont, y, 2)
		if cont > y {
			t.Errorf("outside range at y=%v: cont=%v should not exceed stop", y, cont)
		}
	}
}

func TestContRangeT2VanishesForSmallAlphaB(t *testing.T) {
	// §III.E.3: "When αB is sufficiently small, U^B_t2(cont) < U^B_t2(stop)
	// for all P_t2 > 0, and the swap always fails."
	params := utility.Default().WithBobAlpha(0.001)
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := m.ContRangeT2(2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("expected empty continuation range for tiny αB")
	}
	sr, err := m.SuccessRate(2)
	if err != nil {
		t.Fatal(err)
	}
	if sr != 0 {
		t.Errorf("SR = %v, want 0 for tiny αB", sr)
	}
}

func TestFeasibleRateRangeMatchesEq29(t *testing.T) {
	// Eq. 29: (P̲*, P̄*) ≈ (1.5, 2.5) under Table III.
	m := newDefaultModel(t)
	rng, ok, err := m.FeasibleRateRange()
	if err != nil {
		t.Fatalf("FeasibleRateRange: %v", err)
	}
	if !ok {
		t.Fatal("no feasible range under default parameters")
	}
	if rng.Lo < 1.40 || rng.Lo > 1.65 {
		t.Errorf("P̲* = %.4f, want ≈ 1.5", rng.Lo)
	}
	if rng.Hi < 2.40 || rng.Hi > 2.65 {
		t.Errorf("P̄* = %.4f, want ≈ 2.5", rng.Hi)
	}
}

func TestAliceUtilityT1Indifference(t *testing.T) {
	// At the feasible-range boundary, U^A_t1(cont) = P* (Fig. 5).
	m := newDefaultModel(t)
	rng, ok, err := m.FeasibleRateRange()
	if err != nil || !ok {
		t.Fatalf("FeasibleRateRange: %v ok=%v", err, ok)
	}
	for _, p := range []float64{rng.Lo, rng.Hi} {
		cont, _ := m.AliceUtilityT1(Cont, p)
		if !almostEqual(cont, p, 1e-5) {
			t.Errorf("at P*=%v: cont=%v, want ≈ P*", p, cont)
		}
	}
	mid := 0.5 * (rng.Lo + rng.Hi)
	cont, _ := m.AliceUtilityT1(Cont, mid)
	if cont <= mid {
		t.Errorf("inside range: cont=%v <= stop=%v", cont, mid)
	}
	stop, _ := m.AliceUtilityT1(Stop, mid)
	if stop != mid {
		t.Errorf("stop = %v, want P* = %v", stop, mid)
	}
}

func TestBobUtilityT1(t *testing.T) {
	m := newDefaultModel(t)
	stop, err := m.BobUtilityT1(Stop, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stop != 2 {
		t.Errorf("stop = %v, want P0 = 2", stop)
	}
	// At a fair-ish rate B's cont utility must beat holding Token_b.
	cont, err := m.BobUtilityT1(Cont, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cont <= stop {
		t.Errorf("cont = %v should exceed stop = %v at P*=2", cont, stop)
	}
}

func TestSuccessRateShape(t *testing.T) {
	// §III.F: "the SR(P*) curve is always concave, with the SR-maximising
	// point residing between P̲* and P̄*."
	m := newDefaultModel(t)
	rng, ok, err := m.FeasibleRateRange()
	if err != nil || !ok {
		t.Fatal("no feasible range")
	}
	grid := mathx.LinSpace(rng.Lo, rng.Hi, 21)
	srs := make([]float64, len(grid))
	for i, p := range grid {
		sr, err := m.SuccessRate(p)
		if err != nil {
			t.Fatalf("SuccessRate(%v): %v", p, err)
		}
		if sr < 0 || sr > 1 {
			t.Fatalf("SR(%v) = %v out of [0,1]", p, sr)
		}
		srs[i] = sr
	}
	// Concavity: second differences non-positive (tolerance for quadrature).
	for i := 1; i+1 < len(srs); i++ {
		dd := srs[i+1] - 2*srs[i] + srs[i-1]
		if dd > 1e-4 {
			t.Errorf("SR not concave at %v: second difference %v", grid[i], dd)
		}
	}
	opt, srOpt, err := m.OptimalRate()
	if err != nil {
		t.Fatalf("OptimalRate: %v", err)
	}
	if opt <= rng.Lo || opt >= rng.Hi {
		t.Errorf("optimal rate %v outside feasible range %v", opt, rng)
	}
	for _, sr := range srs {
		if sr > srOpt+1e-6 {
			t.Errorf("grid SR %v exceeds reported optimum %v", sr, srOpt)
		}
	}
}

func TestSuccessRateSensitivities(t *testing.T) {
	// Fig. 6 directional claims, evaluated at the default-optimal rate.
	base := newDefaultModel(t)
	opt, srBase, err := base.OptimalRate()
	if err != nil {
		t.Fatalf("OptimalRate: %v", err)
	}
	mk := func(p utility.Params) *Model {
		m, err := New(p)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}
	sr := func(m *Model, pstar float64) float64 {
		v, err := m.SuccessRate(pstar)
		if err != nil {
			t.Fatalf("SuccessRate: %v", err)
		}
		return v
	}
	t.Run("alphaARaisesSR", func(t *testing.T) {
		if got := sr(mk(utility.Default().WithAliceAlpha(0.4)), opt); got <= srBase {
			t.Errorf("SR with αA=0.4 = %v, want > %v", got, srBase)
		}
	})
	t.Run("alphaBRaisesSR", func(t *testing.T) {
		if got := sr(mk(utility.Default().WithBobAlpha(0.4)), opt); got <= srBase {
			t.Errorf("SR with αB=0.4 = %v, want > %v", got, srBase)
		}
	})
	t.Run("muRaisesSR", func(t *testing.T) {
		if got := sr(mk(utility.Default().WithMu(0.004)), opt); got <= srBase {
			t.Errorf("SR with µ=0.004 = %v, want > %v", got, srBase)
		}
	})
	t.Run("sigmaLowersMaxSR", func(t *testing.T) {
		// σ=0.2 leaves no t1-viable rate at all (a □-marked value in
		// Fig. 6), so compare the unconditional maximum of the SR curve.
		m := mk(utility.Default().WithSigma(0.2))
		maxSR := 0.0
		for _, p := range mathx.LinSpace(0.5, 4, 36) {
			if got := sr(m, p); got > maxSR {
				maxSR = got
			}
		}
		if maxSR >= srBase {
			t.Errorf("max SR with σ=0.2 = %v, want < %v", maxSR, srBase)
		}
	})
	t.Run("shorterTauARaisesMaxSR", func(t *testing.T) {
		m := mk(utility.Default().WithTauA(1))
		_, srOpt, err := m.OptimalRate()
		if err != nil {
			t.Fatalf("OptimalRate: %v", err)
		}
		if srOpt <= srBase {
			t.Errorf("max SR with τa=1 = %v, want > %v", srOpt, srBase)
		}
	})
	t.Run("higherRNarrowsFeasibleRange", func(t *testing.T) {
		baseRng, ok, _ := base.FeasibleRateRange()
		if !ok {
			t.Fatal("no base range")
		}
		m := mk(utility.Default().WithAliceR(0.02).WithBobR(0.02))
		rng, ok, err := m.FeasibleRateRange()
		if err != nil {
			t.Fatal(err)
		}
		if ok && rng.Len() >= baseRng.Len() {
			t.Errorf("range with r=0.02 = %v, want narrower than %v", rng, baseRng)
		}
	})
}

func TestSuccessRateMatchesThresholdMonteCarlo(t *testing.T) {
	// Independent validation of Eq. 31: simulate the threshold strategies
	// over the GBM transition and compare the empirical rate.
	m := newDefaultModel(t)
	const pstar = 2.0
	strat, err := m.Strategy(pstar)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := m.SuccessRate(pstar)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))
	p := m.Params()
	const n = 400000
	success := 0
	for i := 0; i < n; i++ {
		pT2 := p.Price.Step(rng, p.P0, p.Chains.TauA)
		if !strat.BobContT2.Contains(pT2) {
			continue
		}
		pT3 := p.Price.Step(rng, pT2, p.Chains.TauB)
		if pT3 > strat.AliceCutoffT3 {
			success++
		}
	}
	got := float64(success) / n
	if !almostEqual(got, analytic, 0.005) {
		t.Errorf("Monte Carlo SR = %.4f, analytic = %.4f", got, analytic)
	}
}

func TestStrategy(t *testing.T) {
	m := newDefaultModel(t)
	rng, ok, err := m.FeasibleRateRange()
	if err != nil || !ok {
		t.Fatal("no feasible range")
	}
	tests := []struct {
		pstar        float64
		wantInitiate bool
	}{
		{0.5 * (rng.Lo + rng.Hi), true},
		{rng.Lo * 0.5, false},
		{rng.Hi * 1.5, false},
	}
	for _, tt := range tests {
		s, err := m.Strategy(tt.pstar)
		if err != nil {
			t.Fatalf("Strategy(%v): %v", tt.pstar, err)
		}
		if s.AliceInitiates != tt.wantInitiate {
			t.Errorf("Strategy(%v).AliceInitiates = %v, want %v", tt.pstar, s.AliceInitiates, tt.wantInitiate)
		}
		if s.PStar != tt.pstar {
			t.Errorf("PStar = %v, want %v", s.PStar, tt.pstar)
		}
	}
	if _, err := m.Strategy(-1); !errors.Is(err, ErrBadParam) {
		t.Errorf("Strategy(-1) err = %v, want ErrBadParam", err)
	}
}

func TestOptimalRateNotViable(t *testing.T) {
	// Exceedingly high discount rates make every exchange rate infeasible
	// (§III.F.2).
	params := utility.Default().WithAliceR(0.2).WithBobR(0.2)
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.OptimalRate(); !errors.Is(err, ErrNotViable) {
		t.Errorf("err = %v, want ErrNotViable", err)
	}
}

func TestScaleInvariance(t *testing.T) {
	// The game is homogeneous in the price level: multiplying P0 and P* by
	// λ scales every threshold by λ and leaves SR and the initiation
	// decision unchanged. The repeated-game engine's strategy cache relies
	// on this property.
	base := newDefaultModel(t)
	const lambda = 3.7
	scaled, err := New(utility.Default().WithP0(2 * lambda))
	if err != nil {
		t.Fatal(err)
	}
	for _, pstar := range []float64{1.7, 2.0, 2.3} {
		cut1, err := base.CutoffT3(pstar)
		if err != nil {
			t.Fatal(err)
		}
		cut2, err := scaled.CutoffT3(pstar * lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(cut2, lambda*cut1, 1e-9*cut2) {
			t.Errorf("cutoff not scale-invariant: %v vs λ·%v", cut2, cut1)
		}
		iv1, ok1, err := base.ContRangeT2(pstar)
		if err != nil {
			t.Fatal(err)
		}
		iv2, ok2, err := scaled.ContRangeT2(pstar * lambda)
		if err != nil {
			t.Fatal(err)
		}
		if ok1 != ok2 {
			t.Fatalf("viability differs under scaling")
		}
		if ok1 {
			if !almostEqual(iv2.Lo, lambda*iv1.Lo, 1e-5*iv2.Lo) ||
				!almostEqual(iv2.Hi, lambda*iv1.Hi, 1e-5*iv2.Hi) {
				t.Errorf("region not scale-invariant: %v vs λ·%v", iv2, iv1)
			}
		}
		sr1, err := base.SuccessRate(pstar)
		if err != nil {
			t.Fatal(err)
		}
		sr2, err := scaled.SuccessRate(pstar * lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(sr1, sr2, 1e-7) {
			t.Errorf("SR not scale-invariant: %v vs %v", sr1, sr2)
		}
	}
	// The optimal rate scales too.
	p1, s1, err := base.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, err := scaled.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p2, lambda*p1, 1e-3*p2) || !almostEqual(s1, s2, 1e-5) {
		t.Errorf("optimal rate not scale-invariant: (%v, %v) vs (λ·%v, %v)", p2, s2, p1, s1)
	}
}

func TestRandomParameterCrossValidation(t *testing.T) {
	// For randomised (seeded) parameter sets, the analytic SR must match a
	// threshold Monte Carlo over the same GBM transitions, and the solved
	// thresholds must be internally consistent. This is the solver's
	// safety net away from Table III.
	rng := rand.New(rand.NewSource(20260610))
	for trial := 0; trial < 6; trial++ {
		params := utility.Params{
			Alice: utility.AgentParams{
				Alpha: 0.15 + 0.4*rng.Float64(),
				R:     0.004 + 0.012*rng.Float64(),
			},
			Bob: utility.AgentParams{
				Alpha: 0.15 + 0.4*rng.Float64(),
				R:     0.004 + 0.012*rng.Float64(),
			},
			Chains: timeline.Chains{
				TauA: 1 + 4*rng.Float64(),
				TauB: 2 + 4*rng.Float64(),
				EpsB: 0.5,
			},
			Price: gbm.Process{
				Mu:    -0.003 + 0.006*rng.Float64(),
				Sigma: 0.06 + 0.08*rng.Float64(),
			},
			P0: 0.5 + 3*rng.Float64(),
		}
		m, err := New(params)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		pstar := params.P0 * (0.9 + 0.2*rng.Float64())
		strat, err := m.Strategy(pstar)
		if err != nil {
			t.Fatalf("trial %d: Strategy: %v", trial, err)
		}
		analytic, err := m.SuccessRate(pstar)
		if err != nil {
			t.Fatalf("trial %d: SuccessRate: %v", trial, err)
		}
		if analytic < 0 || analytic > 1 {
			t.Fatalf("trial %d: SR = %v out of [0,1]", trial, analytic)
		}
		// Threshold self-consistency: region endpoints are indifference
		// points of Bob's stage problem.
		for _, iv := range strat.BobContT2.Intervals() {
			for _, y := range []float64{iv.Lo, iv.Hi} {
				if y < 1e-4 { // scan floor, not an indifference point
					continue
				}
				cont, err := m.BobUtilityT2(Cont, y, pstar)
				if err != nil {
					t.Fatal(err)
				}
				if !almostEqual(cont, y, 1e-4*(1+y)) {
					t.Errorf("trial %d: endpoint %v not indifferent (cont=%v)", trial, y, cont)
				}
			}
		}
		// Monte Carlo over the transition thresholds.
		const n = 120000
		success := 0
		for i := 0; i < n; i++ {
			pT2 := params.Price.Step(rng, params.P0, params.Chains.TauA)
			if !strat.BobContT2.Contains(pT2) {
				continue
			}
			pT3 := params.Price.Step(rng, pT2, params.Chains.TauB)
			if pT3 > strat.AliceCutoffT3 {
				success++
			}
		}
		mc := float64(success) / n
		if math.Abs(mc-analytic) > 0.01 {
			t.Errorf("trial %d (params %+v, P*=%.3f): MC SR %.4f vs analytic %.4f",
				trial, params, pstar, mc, analytic)
		}
	}
}
