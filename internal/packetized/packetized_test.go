package packetized

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/qmc"
	"repro/internal/utility"
)

func baseConfig() Config {
	return Config{
		Params: utility.Default(),
		PStar:  2.0,
		Runs:   20000,
		Seed:   9,
	}
}

// basePoint is the abort-on-failure point the tests read by default.
var basePoint = Point{Packets: 4}

// runPoint simulates one point: a one-point Sweep.
func runPoint(cfg Config, pt Point) (Result, error) {
	res, _, err := Sweep(cfg, []Point{pt})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config, *Point)
	}{
		{"badParams", func(c *Config, _ *Point) { c.Params.P0 = 0 }},
		{"zeroRate", func(c *Config, _ *Point) { c.PStar = 0 }},
		{"zeroPackets", func(_ *Config, pt *Point) { pt.Packets = 0 }},
		{"zeroRuns", func(c *Config, _ *Point) { c.Runs = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, pt := baseConfig(), basePoint
			tt.mutate(&cfg, &pt)
			if _, err := runPoint(cfg, pt); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestAmountInvarianceOfThresholds(t *testing.T) {
	// The premise of the packetized design: scaling both legs of the swap
	// leaves the price thresholds unchanged, so a 1/n packet plays the same
	// stage game. The solver sees only the rate P* (amounts are implicit),
	// so this is equivalent to checking that the solved thresholds depend
	// on amounts only through their ratio — asserted here by construction
	// of the model API: P* is that ratio.
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	// A packet swaps P*/n Token_a for 1/n Token_b: the rate is still 2.0.
	s2, err := m.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.AliceCutoffT3 != s2.AliceCutoffT3 || s1.BobContT2.TotalLen() != s2.BobContT2.TotalLen() {
		t.Error("thresholds must be amount-invariant")
	}
}

func TestSinglePacketMatchesAnalyticSR(t *testing.T) {
	// n = 1 is exactly the single-shot game: full completion ≈ SR(P*).
	cfg := baseConfig()
	cfg.Runs = 60000
	res, err := runPoint(cfg, Point{Packets: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := m.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if analytic < res.FullCompletion.Lo-0.01 || analytic > res.FullCompletion.Hi+0.01 {
		t.Errorf("analytic SR %.4f outside MC interval %v", analytic, res.FullCompletion)
	}
	if res.ExpectedFraction != res.FullCompletion.P {
		t.Errorf("with one packet, fraction %v must equal completion %v",
			res.ExpectedFraction, res.FullCompletion.P)
	}
	if res.ExposurePerRound != 2.0 {
		t.Errorf("exposure = %v, want full notional", res.ExposurePerRound)
	}
}

func TestFractionDominatesFullCompletion(t *testing.T) {
	// The completed fraction is ≥ the all-or-nothing indicator pointwise,
	// so its mean dominates the full-completion probability.
	for _, n := range []int{2, 4, 8} {
		res, err := runPoint(baseConfig(), Point{Packets: n})
		if err != nil {
			t.Fatal(err)
		}
		if res.ExpectedFraction < res.FullCompletion.P-1e-12 {
			t.Errorf("n=%d: fraction %v below completion %v",
				n, res.ExpectedFraction, res.FullCompletion.P)
		}
		if res.ExposurePerRound != 2.0/float64(n) {
			t.Errorf("n=%d: exposure %v, want %v", n, res.ExposurePerRound, 2.0/float64(n))
		}
		if res.MeanPacketsDone < 0 || res.MeanPacketsDone > float64(n) {
			t.Errorf("n=%d: mean packets %v out of range", n, res.MeanPacketsDone)
		}
	}
}

func TestFixedRateFullCompletionDecaysWithPackets(t *testing.T) {
	// With a fixed rate, more packets stretch the horizon and the drifting
	// price eventually exits the viable band: P(all complete) falls in n.
	var prev float64 = 1.1
	for _, n := range []int{1, 4, 16} {
		res, err := runPoint(baseConfig(), Point{Packets: n})
		if err != nil {
			t.Fatal(err)
		}
		if res.FullCompletion.P > prev+0.01 {
			t.Errorf("n=%d: completion %v rose above %v", n, res.FullCompletion.P, prev)
		}
		prev = res.FullCompletion.P
	}
}

func TestRequoteBeatsFixedRateOnFraction(t *testing.T) {
	// Re-quoting each packet at the prevailing price removes the drift
	// penalty: the expected completed fraction improves on the fixed-rate
	// protocol for multi-packet swaps.
	cfg := baseConfig()
	fixed, err := runPoint(cfg, Point{Packets: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Requote = true
	quoted, err := runPoint(cfg, Point{Packets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if quoted.ExpectedFraction <= fixed.ExpectedFraction {
		t.Errorf("requote fraction %v should beat fixed %v",
			quoted.ExpectedFraction, fixed.ExpectedFraction)
	}
}

func TestInfeasibleFixedRateNeverStarts(t *testing.T) {
	cfg := baseConfig()
	cfg.PStar = 5 // far outside the feasible band
	cfg.Runs = 2000
	res, err := runPoint(cfg, basePoint)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpectedFraction != 0 || res.FullCompletion.P != 0 {
		t.Errorf("infeasible rate should never start: %+v", res)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := runPoint(baseConfig(), basePoint)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(baseConfig(), basePoint)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpectedFraction != b.ExpectedFraction ||
		a.FullCompletion.Successes != b.FullCompletion.Successes {
		t.Error("same seed diverged")
	}
}

func TestFractionStdErrSensible(t *testing.T) {
	res, err := runPoint(baseConfig(), basePoint)
	if err != nil {
		t.Fatal(err)
	}
	if res.FractionStdErr <= 0 || res.FractionStdErr > 0.01 {
		t.Errorf("stderr = %v, want small positive", res.FractionStdErr)
	}
	if math.IsNaN(res.ExpectedFraction) {
		t.Error("NaN fraction")
	}
}

func TestContinueSemanticsKeepFractionNearPerPacketSR(t *testing.T) {
	// With continue-after-failure and per-packet re-quoting, each packet is
	// an independent optimal stage game: the expected completed fraction
	// stays near the stage-game optimum regardless of n.
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, srOpt, err := m.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8, 16} {
		cfg := baseConfig()
		cfg.Requote = true
		res, err := runPoint(cfg, Point{Packets: n, ContinueAfterFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ExpectedFraction-srOpt) > 0.03 {
			t.Errorf("n=%d: continue fraction %v, want ≈ stage optimum %v",
				n, res.ExpectedFraction, srOpt)
		}
	}
}

func TestContinueDominatesAbort(t *testing.T) {
	for _, n := range []int{4, 8} {
		cfg := baseConfig()
		cfg.Requote = true
		a, err := runPoint(cfg, Point{Packets: n})
		if err != nil {
			t.Fatal(err)
		}
		c, err := runPoint(cfg, Point{Packets: n, ContinueAfterFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		if c.ExpectedFraction < a.ExpectedFraction-1e-9 {
			t.Errorf("n=%d: continue fraction %v below abort %v",
				n, c.ExpectedFraction, a.ExpectedFraction)
		}
	}
}

func TestForceInitiateConditionsOnInitiation(t *testing.T) {
	// Doubled volatility empties A's feasible band at the fair rate: the
	// rational engagement never starts, so the completed fraction is zero …
	p := utility.Default()
	p.Price.Sigma = 0.2
	cfg := Config{Params: p, PStar: 2.0, Runs: 2000, Seed: 3}
	rational, err := runPoint(cfg, Point{Packets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rational.ExpectedFraction != 0 || rational.FullCompletion.P != 0 {
		t.Fatalf("non-viable rate still completed packets: %+v", rational)
	}
	// … while forcing initiation samples the basic game conditioned on
	// initiation, exactly what the analytic SR of Eq. 31 measures.
	cfg.ForceInitiate = true
	forced, err := runPoint(cfg, Point{Packets: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if want < forced.FullCompletion.Lo-0.01 || want > forced.FullCompletion.Hi+0.01 {
		t.Errorf("forced n=1 completion [%.4f, %.4f] should cover SR %.4f",
			forced.FullCompletion.Lo, forced.FullCompletion.Hi, want)
	}
}

// TestSamplerModesAgree runs the same experiment under every sampling
// mode: the variance-reduced estimator must land inside (a slightly
// widened) pseudo Wilson interval, and must be deterministic for a fixed
// seed. This also exercises the slab-fronted normal source (Sobol points
// first, per-run pseudo tail).
func TestSamplerModesAgree(t *testing.T) {
	base := baseConfig()
	base.Runs = 40000
	pseudo, err := runPoint(base, basePoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []qmc.Mode{qmc.ModeSobol} {
		cfg := base
		cfg.Sampler = mode
		res, err := runPoint(cfg, basePoint)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.FullCompletion.P < pseudo.FullCompletion.Lo-0.01 ||
			res.FullCompletion.P > pseudo.FullCompletion.Hi+0.01 {
			t.Errorf("%s full completion %.4f outside pseudo interval [%.4f, %.4f]",
				mode, res.FullCompletion.P, pseudo.FullCompletion.Lo, pseudo.FullCompletion.Hi)
		}
		if d := math.Abs(res.ExpectedFraction - pseudo.ExpectedFraction); d > 0.02 {
			t.Errorf("%s fraction %.4f vs pseudo %.4f (|delta| = %.4f)",
				mode, res.ExpectedFraction, pseudo.ExpectedFraction, d)
		}
		again, err := runPoint(cfg, basePoint)
		if err != nil {
			t.Fatalf("%s rerun: %v", mode, err)
		}
		if again != res {
			t.Errorf("%s not deterministic for a fixed seed:\n  %+v\n  %+v", mode, res, again)
		}
	}
}

// TestSamplerRequoteAndContinue drives the variance-reduced source
// through the requoting and continue-after-failure paths, where packet
// counts vary per run and the pseudo tail past the Sobol slab is hit.
func TestSamplerRequoteAndContinue(t *testing.T) {
	cfg := baseConfig()
	cfg.Runs = 8000
	cfg.Requote = true
	cfg.Sampler = qmc.ModeSobol
	pt := Point{Packets: 8, ContinueAfterFailure: true}
	sobol, err := runPoint(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sampler = qmc.ModePseudo
	pseudo, err := runPoint(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sobol.ExpectedFraction - pseudo.ExpectedFraction); d > 0.03 {
		t.Errorf("sobol requote fraction %.4f vs pseudo %.4f (|delta| = %.4f)",
			sobol.ExpectedFraction, pseudo.ExpectedFraction, d)
	}
}
