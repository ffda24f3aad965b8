package variant

import (
	"testing"

	"repro/internal/config"
	"repro/internal/scenario"
)

// crosscheckRuns sizes the per-preset Monte Carlo cross-checks: large
// enough for a ±2% Wilson interval, small enough to keep the preset loop
// interactive.
const crosscheckRuns = 4000

// TestPacketizedReducesToBasicAcrossPresets cross-checks the packetized
// engine against the closed-form solver on every preset through the n=1
// reduction: one forced-initiation packet is exactly the basic game
// conditioned on initiation, so the sampled completion probability must
// cover SR(P*) of Eq. 31. The engines share only the GBM law and the
// threshold strategies, so agreement validates the packet loop's
// sampling, not just its bookkeeping.
func TestPacketizedReducesToBasicAcrossPresets(t *testing.T) {
	g, err := Lookup("packetized")
	if err != nil {
		t.Fatal(err)
	}
	v := g.(MCValidator)
	for _, sc := range scenario.Registry() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			ctx := &Context{Opts: RunOpts{Runs: crosscheckRuns}}
			check, err := v.MCValidate(ctx, sc, Report{})
			if err != nil {
				t.Fatal(err)
			}
			if check == nil {
				t.Fatal("packetized validation should always apply")
			}
			if !check.Agrees {
				t.Errorf("analytic SR %.4f outside sampled interval [%.4f, %.4f]",
					check.Analytic, check.SR.Lo, check.SR.Hi)
			}
		})
	}
}

// TestPacketizedFailureSemanticsAcrossPresets pins the structural
// relations of the packetized report on every preset: per-round exposure
// is the notional over n, the completed fraction is a probability, and
// continuing after a failure can only complete more of the notional than
// aborting (up to Monte Carlo noise).
func TestPacketizedFailureSemanticsAcrossPresets(t *testing.T) {
	g, err := Lookup("packetized")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenario.Registry() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			r, err := g.Solve(&Context{Opts: RunOpts{Runs: crosscheckRuns}}, sc)
			if err != nil {
				t.Fatal(err)
			}
			exposure, _ := r.Value("exposurePerRound")
			if want := sc.PStar / DefaultPackets; exposure != want {
				t.Errorf("exposure per round = %v, want %v", exposure, want)
			}
			abortFrac := r.SR
			contFrac, _ := r.Value("continueFraction")
			if abortFrac < 0 || abortFrac > 1 || contFrac < 0 || contFrac > 1 {
				t.Errorf("fractions out of range: abort %v, continue %v", abortFrac, contFrac)
			}
			if contFrac < abortFrac-0.02 {
				t.Errorf("continue-after-failure fraction %.4f should not trail abort %.4f", contFrac, abortFrac)
			}
			full, _ := r.Value("fullCompletion")
			if full > abortFrac+0.02 {
				t.Errorf("full completion %.4f cannot exceed the expected fraction %.4f", full, abortFrac)
			}
		})
	}
}

// TestRepeatedMatchesAnalyticAcrossPresets cross-checks the repeated
// engagement against the quote solver on every preset: with static premia
// every initiated round is an independent draw of the re-quoted stage
// game, whose success probability is the analytic SR at the SR-maximising
// rate (price-level invariant by scale invariance). Presets with no
// viable quote must report a frozen market and skip the check.
func TestRepeatedMatchesAnalyticAcrossPresets(t *testing.T) {
	g, err := Lookup("repeated")
	if err != nil {
		t.Fatal(err)
	}
	v := g.(MCValidator)
	for _, sc := range scenario.Registry() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			// Long engagements tighten the Wilson interval to ±~2%.
			ctx := &Context{}
			r, err := repeatedGame{}.play(sc, 2000)
			if err != nil {
				t.Fatal(err)
			}
			r.Key = "repeated"
			check, err := v.MCValidate(ctx, sc, r)
			if err != nil {
				t.Fatal(err)
			}
			quotes, _ := r.Value("quotes")
			if quotes == 0 {
				if check != nil {
					t.Errorf("frozen market still produced a check: %+v", check)
				}
				if r.SR != 0 {
					t.Errorf("frozen market reports SR %v", r.SR)
				}
				return
			}
			if check == nil {
				t.Fatal("quoted engagement should validate")
			}
			if !check.Agrees {
				t.Errorf("analytic per-round SR %.4f outside sampled interval [%.4f, %.4f]",
					check.Analytic, check.SR.Lo, check.SR.Hi)
			}
			initiations, _ := r.Value("initiations")
			if initiations != quotes {
				t.Errorf("every quoted round initiates at the optimal rate: quotes %v, initiations %v", quotes, initiations)
			}
		})
	}
}

// TestBaselineBoundsBasicAcrossPresets pins the paper's §VI comparison on
// every preset: the one-sided SR (B assumed honest) bounds the two-sided
// SR from above, the gap is non-negative, the abandonment option cannot
// hurt, and the direct protocol sampler agrees with the closed form.
func TestBaselineBoundsBasicAcrossPresets(t *testing.T) {
	g, err := Lookup("baseline")
	if err != nil {
		t.Fatal(err)
	}
	v := g.(MCValidator)
	for _, sc := range scenario.Registry() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			ctx := &Context{Opts: RunOpts{Runs: crosscheckRuns}}
			r, err := g.Solve(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			if gap, _ := r.Value("twoSidedGap"); gap < -1e-12 {
				t.Errorf("one-sided SR must bound the two-sided SR from above, gap %v", gap)
			}
			if premium, _ := r.Value("optionPremium"); premium < -1e-9 {
				t.Errorf("abandonment-option premium %v must be non-negative", premium)
			}
			check, err := v.MCValidate(ctx, sc, r)
			if err != nil {
				t.Fatal(err)
			}
			if check == nil || !check.Agrees {
				t.Errorf("one-sided sampler disagrees with the closed form: %+v", check)
			}
		})
	}
}

// TestCollateralNarrowDensityAgreesWithMC pins the universe cell
// u-evm-doge-011 (btc,ltc,doge,evm, 128 samples, seed 1) at P* = 2 and
// Q = 0.1 under the collateral protocol check with 20000 paths. Its t1→t2
// density is narrow (σ√τa ≈ 0.015) inside a t2 region reaching down to 0;
// integrating that region on one quadrature panel reported SR_c = 0.9798
// where the protocol reads 1.0000 [0.9998, 1.0000].
func TestCollateralNarrowDensityAgreesWithMC(t *testing.T) {
	cells, err := config.UniverseSpec{Chains: []string{"btc", "ltc", "doge", "evm"}, Samples: 128, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range cells {
		if sc.Name != "u-evm-doge-011" {
			continue
		}
		sc.PStar, sc.Collateral = 2, 0.1
		g, err := Lookup("collateral")
		if err != nil {
			t.Fatal(err)
		}
		check, err := g.(MCValidator).MCValidate(&Context{Opts: RunOpts{Runs: 20000}}, sc, Report{})
		if err != nil {
			t.Fatal(err)
		}
		if !check.Agrees {
			t.Errorf("analytic SR_c %.6f outside sampled interval %.4f [%.4f, %.4f] (%d paths)",
				check.Analytic, check.SR.P, check.SR.Lo, check.SR.Hi, check.Runs)
		}
		return
	}
	t.Fatal("u-evm-doge-011 not in the universe")
}
