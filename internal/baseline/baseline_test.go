package baseline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/utility"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	bad := utility.Default()
	bad.P0 = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid params should fail")
	}
	m := newModel(t)
	if m.Params() != utility.Default() {
		t.Error("Params() mismatch")
	}
}

func TestCutoffMatchesFullGame(t *testing.T) {
	// A's t3 problem is the same in both models (Eq. 18).
	m := newModel(t)
	full, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, pstar := range []float64{1.6, 2, 2.4} {
		got, err := m.CutoffT3(pstar)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.CutoffT3(pstar)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("CutoffT3(%v) = %v, full game %v", pstar, got, want)
		}
	}
}

func TestOneSidedSRBoundsTwoSidedSR(t *testing.T) {
	// Removing B's withdrawal option can only raise the success rate; the
	// gap is the paper's headline observation.
	m := newModel(t)
	full, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, pstar := range []float64{1.6, 1.8, 2.0, 2.2, 2.4} {
		one, err := m.SuccessRate(pstar)
		if err != nil {
			t.Fatal(err)
		}
		two, err := full.SuccessRate(pstar)
		if err != nil {
			t.Fatal(err)
		}
		if one < two-1e-9 {
			t.Errorf("P*=%v: one-sided SR %v < two-sided %v", pstar, one, two)
		}
		if one <= 0 || one > 1 {
			t.Errorf("SR(%v) = %v out of range", pstar, one)
		}
	}
	// The gap must be strictly positive somewhere (B's risk is real).
	one, _ := m.SuccessRate(2.4)
	two, _ := full.SuccessRate(2.4)
	if one-two < 0.01 {
		t.Errorf("expected a visible gap at P*=2.4, got %v vs %v", one, two)
	}
}

func TestSuccessRateDecreasesWithRate(t *testing.T) {
	// One-sided SR is monotonically decreasing in P*: a higher strike only
	// makes A's abandonment more likely.
	m := newModel(t)
	prev := math.Inf(1)
	for _, pstar := range []float64{0.5, 1, 1.5, 2, 2.5, 3} {
		sr, err := m.SuccessRate(pstar)
		if err != nil {
			t.Fatal(err)
		}
		if sr > prev {
			t.Errorf("SR(%v) = %v increased", pstar, sr)
		}
		prev = sr
	}
}

func TestOptionPremiumProperties(t *testing.T) {
	m := newModel(t)
	prem, err := m.OptionPremium(2)
	if err != nil {
		t.Fatal(err)
	}
	if prem < 0 {
		t.Errorf("option premium %v must be non-negative", prem)
	}
	// The premium grows with volatility (vega of the abandonment option).
	highVol, err := New(utility.Default().WithSigma(0.2))
	if err != nil {
		t.Fatal(err)
	}
	premHigh, err := highVol.OptionPremium(2)
	if err != nil {
		t.Fatal(err)
	}
	if premHigh <= prem {
		t.Errorf("premium at σ=0.2 (%v) should exceed σ=0.1 (%v)", premHigh, prem)
	}
	// Option value decomposes consistently.
	ov, err := m.OptionValue(2)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := m.ForcedValue(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ov-fv-prem) > 1e-12 {
		t.Errorf("decomposition mismatch: %v − %v != %v", ov, fv, prem)
	}
}

func TestArgumentValidation(t *testing.T) {
	m := newModel(t)
	calls := []func() (float64, error){
		func() (float64, error) { return m.CutoffT3(0) },
		func() (float64, error) { return m.SuccessRate(-1) },
		func() (float64, error) { return m.OptionValue(math.NaN()) },
		func() (float64, error) { return m.ForcedValue(math.Inf(1)) },
		func() (float64, error) { return m.OptionPremium(0) },
	}
	for i, f := range calls {
		if _, err := f(); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: err = %v, want ErrBadParam", i, err)
		}
	}
}

func TestSimulateSRAgreesWithClosedForm(t *testing.T) {
	m := newModel(t)
	analytic, err := m.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := m.SimulateSR(2.0, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The sampler and the tail probability share only the GBM law; the
	// Wilson interval (with the repository's customary slack) must cover
	// the closed form.
	if analytic < prop.Lo-0.01 || analytic > prop.Hi+0.01 {
		t.Errorf("closed-form SR %.4f outside sampled interval [%.4f, %.4f]", analytic, prop.Lo, prop.Hi)
	}
}

func TestSimulateSRDeterministicPerSeed(t *testing.T) {
	m := newModel(t)
	a, err := m.SimulateSR(2.0, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.SimulateSR(2.0, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed drifted: %v vs %v", a, b)
	}
	c, err := m.SimulateSR(2.0, 500, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical proportions")
	}
}

// TestSimulateSRMatchesScalarLoop pins SimulateSR to the reference scalar
// loop: same rng stream (each path draws its t2 then its t3 increment),
// same success count, so every committed artifact keeps its bytes.
func TestSimulateSRMatchesScalarLoop(t *testing.T) {
	m := newModel(t)
	const (
		pstar = 2.0
		seed  = 17
	)
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range []int{1, 511, 512, 513, 2000} {
		rng := sweep.NewRand(seed)
		p := m.Params()
		want := 0
		for i := 0; i < runs; i++ {
			pT2 := p.Price.Step(rng, p.P0, p.Chains.TauA)
			if pT3 := p.Price.Step(rng, pT2, p.Chains.TauB); pT3 > cut {
				want++
			}
		}
		prop, err := m.SimulateSR(pstar, runs, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(math.Round(prop.P * float64(runs))); got != want {
			t.Errorf("runs=%d: SimulateSR successes %d, scalar reference %d", runs, got, want)
		}
	}
}

func TestSimulateSRRejectsBadArguments(t *testing.T) {
	m := newModel(t)
	if _, err := m.SimulateSR(0, 100, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad pstar err = %v, want ErrBadParam", err)
	}
	if _, err := m.SimulateSR(2.0, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero runs err = %v, want ErrBadParam", err)
	}
}
