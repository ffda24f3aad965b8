package swapsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/sweep"
	"repro/internal/utility"
	"repro/internal/variant"
)

// equivalenceRuns is the per-case path count: small enough that the full
// preset × perturbation × worker matrix stays fast, large enough to hit
// every protocol stage a regime produces and to span several engine chunks
// with an uneven tail (2.5 × mc.ChunkSize), so the workers interleave.
const equivalenceRuns = 640

// protocolFor returns the protocol run the scenario's collateral variant
// plays (variant.ProtocolConfig; Q = 0 plays the basic game), initiating
// unconditionally because Eq. 31 conditions on initiation, under the given
// sampler mode.
func protocolFor(t *testing.T, sc scenario.Scenario, mode qmc.Mode) swapsim.Config {
	t.Helper()
	cfg, _, _, err := variant.ProtocolConfig("collateral", sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sampler = mode
	return cfg
}

// legacyMonteCarlo reproduces the pre-engine fixed-N driver semantics:
// path i runs on a freshly allocated stack (swapsim.Run) with the
// decorrelated seed sweep.Seed(base, i), outcomes tallied in run order.
func legacyMonteCarlo(t *testing.T, cfg swapsim.Config, runs int) (stages map[string]int, successes int) {
	t.Helper()
	stages = make(map[string]int)
	for i := 0; i < runs; i++ {
		run := cfg
		run.Seed = sweep.Seed(cfg.Seed, i)
		out, err := swapsim.Run(run)
		if err != nil {
			t.Fatalf("legacy run %d: %v", i, err)
		}
		stages[string(out.Stage)]++
		if out.Success {
			successes++
		}
	}
	return stages, successes
}

// perturbations derives 8 seeded variants of the Table III point —
// jittered volatility, rate, premium and an alternating deposit — so the
// equivalence check covers regimes no preset pins.
func perturbations() []scenario.Scenario {
	base, _ := scenario.Lookup("tableIII")
	rng := rand.New(rand.NewSource(42))
	out := make([]scenario.Scenario, 0, 8)
	for k := 0; k < 8; k++ {
		sc := base
		sc.Name = fmt.Sprintf("perturbed-%d", k)
		sc.Params = sc.Params.
			WithSigma(sc.Params.Price.Sigma * (0.7 + 0.6*rng.Float64())).
			WithBobAlpha(sc.Params.Bob.Alpha * (0.8 + 0.4*rng.Float64()))
		sc.PStar = 2.0 * (0.9 + 0.2*rng.Float64())
		if k%2 == 0 {
			sc.Collateral = 0
		} else {
			sc.Collateral = 0.05 + 0.3*rng.Float64()
		}
		sc.Seed = 1000 + int64(k)
		out = append(out, sc)
	}
	return out
}

// TestEngineEquivalentToLegacyMonteCarlo is the engine's ground-truth
// property: with adaptive mode off, the streaming engine (reused per-worker
// run state, chunked execution) reproduces the legacy per-path-allocation
// driver's per-seed outcomes — identical stage counts and success tallies —
// for every scenario preset and 8 seeded perturbations, at any worker
// count.
func TestEngineEquivalentToLegacyMonteCarlo(t *testing.T) {
	cases := append(scenario.Registry(), perturbations()...)
	workerCounts := []int{1, 3, 8}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			cfg := protocolFor(t, sc, "")
			wantStages, wantSucc := legacyMonteCarlo(t, cfg, equivalenceRuns)
			for _, workers := range workerCounts {
				res, err := swapsim.MonteCarlo(swapsim.MCConfig{
					Config:  cfg,
					Runs:    equivalenceRuns,
					Workers: workers,
				})
				if err != nil {
					t.Fatalf("engine workers=%d: %v", workers, err)
				}
				if res.Paths != equivalenceRuns {
					t.Fatalf("workers=%d: paths %d, want %d", workers, res.Paths, equivalenceRuns)
				}
				if res.SuccessRate.Successes != wantSucc {
					t.Errorf("workers=%d: successes %d, legacy %d", workers, res.SuccessRate.Successes, wantSucc)
				}
				if !reflect.DeepEqual(res.Stages, wantStages) {
					t.Errorf("workers=%d: stages %v, legacy %v", workers, res.Stages, wantStages)
				}
			}
		})
	}
}

// TestRunnerReuseMatchesFreshRun pins the reset contract at outcome
// granularity: a Runner reused across many seeded paths — including crash
// injection, which schedules per-path halt events — produces the exact
// Outcome a freshly allocated stack produces, field for field.
func TestRunnerReuseMatchesFreshRun(t *testing.T) {
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	strat, err := m.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  swapsim.Config
	}{
		{"basic", swapsim.Config{Params: utility.Default(), Strategy: strat}},
		{"collateral", swapsim.Config{Params: utility.Default(), Strategy: strat, Collateral: 0.1}},
		{"haltB", swapsim.Config{
			Params: utility.Default(), Strategy: strat,
			HaltB: swapsim.HaltWindow{From: 7.5, Until: 40},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runner, err := swapsim.NewRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 40; seed++ {
				reused, err := runner.RunOutcome(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				fresh := tc.cfg
				fresh.Seed = seed
				want, err := swapsim.Run(fresh)
				if err != nil {
					t.Fatalf("seed %d fresh: %v", seed, err)
				}
				// Compare before the next RunOutcome overwrites the reused
				// outcome's decision scratch. NaN-valued prices (stage never
				// reached) block a plain DeepEqual on the whole struct.
				if reused.Stage != want.Stage || reused.Success != want.Success || reused.Atomic != want.Atomic {
					t.Fatalf("seed %d: classification (%v,%v,%v) vs fresh (%v,%v,%v)",
						seed, reused.Stage, reused.Success, reused.Atomic, want.Stage, want.Success, want.Atomic)
				}
				if reused.EndTime != want.EndTime {
					t.Errorf("seed %d: end time %g vs %g", seed, reused.EndTime, want.EndTime)
				}
				deltas := func(o swapsim.Outcome) [6]float64 {
					return [6]float64{o.AliceDeltaA, o.AliceDeltaB, o.BobDeltaA, o.BobDeltaB,
						o.CollateralDeltaAlice, o.CollateralDeltaBob}
				}
				if deltas(reused) != deltas(want) {
					t.Errorf("seed %d: balance deltas %v vs %v", seed, deltas(reused), deltas(want))
				}
				eqNaN := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
				if !eqNaN(reused.PT2, want.PT2) || !eqNaN(reused.PT3, want.PT3) {
					t.Errorf("seed %d: prices (%g,%g) vs (%g,%g)", seed, reused.PT2, reused.PT3, want.PT2, want.PT3)
				}
				if !reflect.DeepEqual(reused.AliceDecisions, want.AliceDecisions) ||
					!reflect.DeepEqual(reused.BobDecisions, want.BobDecisions) {
					t.Errorf("seed %d: decision logs diverge", seed)
				}
			}
		})
	}
}
