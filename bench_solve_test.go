// Solve-engine benchmarks: the amortized quadrature/constant/memo layers
// behind every analytic artifact. `make bench-json` runs these alongside the
// BenchmarkMC_* suite and records the machine-readable BENCH_solve.json
// baseline that CI's bench-solve-regression gate checks; the PR 3 -> PR 8
// wall-time trajectory is recorded in EXPERIMENTS.md.
package repro_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/mathx"
	"repro/internal/packetized"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/utility"
	"repro/internal/variant"
)

// BenchmarkFiguresFull regenerates all 18 artifact groups with production
// defaults — the end-to-end cost of a full paper reproduction. It runs
// first in this file so a -benchtime=1x pass measures it on cold
// process-wide caches, exactly like a fresh `cmd/figures` run, and reports
// the group count so a silently shrinking registry cannot fake a speedup.
// `make bench-check` gates its absolute wall time at 1.0s (benchmc
// -max-wall); the PR 4 -> PR 8 trajectory is in EXPERIMENTS.md.
func BenchmarkFiguresFull(b *testing.B) {
	p := utility.Default()
	b.ReportAllocs()
	b.ResetTimer()
	groups := 0
	for i := 0; i < b.N; i++ {
		figs, timings, err := figures.GenerateTimed(p, "", figures.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 {
			b.Fatal("no figures")
		}
		groups = len(timings)
	}
	b.ReportMetric(float64(groups), "groups")
}

// BenchmarkSolve_ModelNew measures solver construction — with shared
// quadrature tables this is parameter validation plus the precomputed
// discount-factor family, not a Gauss–Legendre/Hermite Newton iteration.
func BenchmarkSolve_ModelNew(b *testing.B) {
	p := utility.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_ContSetCold measures B's t2 continuation-region scan on a
// fresh Model per iteration (no memo reuse): the per-cell cost of the
// hot root-finding primitive behind Eqs. 24/35.
func BenchmarkSolve_ContSetCold(b *testing.B) {
	p := utility.Default()
	var evals uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.New(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.ContRangeT2(2.0); err != nil {
			b.Fatal(err)
		}
		evals += m.ScanEvals()
	}
	reportEvals(b, evals)
}

// reportEvals reports the t2 region scans' utility-difference evaluations
// per op: the deterministic work behind a cold solve benchmark's ns/op,
// which `make bench-check` gates against any rise.
func reportEvals(b *testing.B, evals uint64) {
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkSolve_FeasibleRateRangeCold measures the t1 feasibility scan of
// Eq. 30 on a fresh Model per iteration: one unit-rate root scan, then
// several hundred probe evaluations of A's t1 utility. It runs on Table
// III and on the generated btc→evm cell u-btc-evm-001 (seed 1, a feasible
// one), the per-cell cost the atlas pays for every basic report.
func BenchmarkSolve_FeasibleRateRangeCold(b *testing.B) {
	tableIII, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	universe, err := config.UniverseSpec{Chains: []string{"btc", "evm"}, Samples: 2, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    utility.Params
	}{{"tableIII", tableIII.Params}, {"btc-evm", universe[1].Params}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := core.New(c.p)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := m.FeasibleRateRange(); err != nil || !ok {
					b.Fatalf("feasible range: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkSolve_UncertainCold measures one cold §IV.B cell as the
// uncertain variant solves it: a fresh Model and budget-capped solver
// (Table III, budget 5) per iteration, then SR_x (Eq. 46) and A's excess
// utility (Eq. 45) at the scenario's commitment — B's best response table
// plus two Gauss–Hermite passes over P_t2. The Model is fresh because it
// retains the response table across its solvers.
func BenchmarkSolve_UncertainCold(b *testing.B) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(sc.Params)
		if err != nil {
			b.Fatal(err)
		}
		u, err := m.UncertainWithBudget(sc.BobBudget)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.SuccessRate(sc.PStar); err != nil {
			b.Fatal(err)
		}
		if _, err := u.AliceExcessUtilityT1(sc.PStar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_Fig6Cold measures one Fig. 6 curve on a fresh Model per
// iteration: SR(P*) (Eq. 31) at the figure's 41 rates on Table III. Every
// rate's t2 region is the unit-rate region scaled by P*, so the curve costs
// one root scan plus 41 quadratures.
func BenchmarkSolve_Fig6Cold(b *testing.B) {
	p := utility.Default()
	grid := mathx.LinSpace(0.2, 3.2, 41)
	var evals uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.New(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, pstar := range grid {
			if _, err := m.SuccessRate(pstar); err != nil {
				b.Fatal(err)
			}
		}
		evals += m.ScanEvals()
	}
	reportEvals(b, evals)
}

// BenchmarkSolve_Fig8Cold measures Fig. 8's engagement scans on a fresh
// Table III Model per iteration: 𝒫^A and 𝒫^B of the collateral game at
// Q = 0.1, each a P* scan of t1 utilities. Every scanned rate has its own
// deposit ratio Q/P*, so each costs one t2 region scan.
func BenchmarkSolve_Fig8Cold(b *testing.B) {
	p := utility.Default()
	var evals uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.New(p)
		if err != nil {
			b.Fatal(err)
		}
		c, err := m.Collateral(0.1)
		if err != nil {
			b.Fatal(err)
		}
		if c.FeasibleRatesAlice().Empty() || c.FeasibleRatesBob().Empty() {
			b.Fatal("no engagement rates")
		}
		evals += m.ScanEvals()
	}
	reportEvals(b, evals)
}

// BenchmarkSolve_BayesianCold measures one curve of the uncertainty figure
// on a fresh Model and Bayesian solver per iteration: the
// incomplete-information SR at 29 rates, with A's premium known and a
// two-point prior αB ∈ {0.2, 0.4} over B's.
func BenchmarkSolve_BayesianCold(b *testing.B) {
	p := utility.Default()
	grid := mathx.LinSpace(1.4, 2.8, 29)
	prior := core.TypePrior{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}}
	var evals uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := core.New(p)
		if err != nil {
			b.Fatal(err)
		}
		bay, err := m.Bayesian(core.PointPrior(p.Alice.Alpha), prior)
		if err != nil {
			b.Fatal(err)
		}
		for _, pstar := range grid {
			if _, _, err := bay.SuccessRate(pstar); err != nil {
				b.Fatal(err)
			}
		}
		evals += m.ScanEvals()
	}
	reportEvals(b, evals)
}

// BenchmarkSolve_PacketizedFigure runs the packetized figure's two
// simulations on Table III, as figures.Packetized does: one
// packetized.Sweep per rate mode at 5000 sobol runs, the fixed rate read at
// n ∈ {1, 2, 4, 8, 16} under abort-on-failure, the re-quoted rate under
// both failure semantics. It reports the normal variates drawn as
// draws/op, deterministic per tree, which `make bench-check` gates against
// any rise.
func BenchmarkSolve_PacketizedFigure(b *testing.B) {
	p := utility.Default()
	var abort, both []packetized.Point
	for _, cont := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			both = append(both, packetized.Point{Packets: n, ContinueAfterFailure: cont})
		}
	}
	abort = both[:5]
	var draws int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for mode, points := range [][]packetized.Point{abort, both} {
			_, d, err := packetized.Sweep(packetized.Config{
				Params: p, PStar: 2.0, Requote: mode == 1, Runs: 5000, Seed: 77, Sampler: qmc.ModeSobol,
			}, points)
			if err != nil {
				b.Fatal(err)
			}
			draws += d
		}
	}
	b.ReportMetric(float64(draws)/float64(b.N), "draws/op")
}

// BenchmarkSolve_ContSetWarm measures a memoized solve hit: the same cell
// re-queried on a warm Model — the path every cross-artifact re-solve now
// takes.
func BenchmarkSolve_ContSetWarm(b *testing.B) {
	m, err := core.New(utility.Default())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := m.ContRangeT2(2.0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ContRangeT2(2.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_VariantMatrixAnalytic solves every registered variant of
// the Table III scenario without the Monte Carlo validations — the
// analytic (scenario × variant) cell cost the variant registry amortizes
// through the shared solve cache. The sampled variants (packetized,
// repeated) run their seeded experiments at a fixed size (256 packetized
// runs, the repeated game's 200 rounds) so the gated allocs/op stay
// deterministic.
func BenchmarkSolve_VariantMatrixAnalytic(b *testing.B) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := variant.Run(sc, variant.RunOpts{Runs: 256, Variants: "all", SkipMC: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(row.Reports) != len(variant.Keys()) {
			b.Fatalf("solved %d variants", len(row.Reports))
		}
	}
}

// BenchmarkSolve_VariantPacketized runs one full packetized cell — the
// seeded two-semantics experiment plus the n=1 cross-validation — the
// unit of work the scenario batch fans out per packetized preset.
func BenchmarkSolve_VariantPacketized(b *testing.B) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variant.Run(sc, variant.RunOpts{Runs: 256, Variants: "packetized"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_VariantRepeated runs one full repeated cell — the
// variant's 200-round engagement through the process-wide quote memo plus
// its static-premia validation.
func BenchmarkSolve_VariantRepeated(b *testing.B) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variant.Run(sc, variant.RunOpts{Variants: "repeated"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_ScenarioSolves runs the analytic half of a scenario report
// (thresholds, ranges, optimal rate, collateral and uncertain SRs) on a
// fresh Model each iteration — the unit of work the solve cache amortizes
// across the preset batch.
func BenchmarkSolve_ScenarioSolves(b *testing.B) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(sc.Params)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.ContRangeT2(sc.PStar); err != nil {
			b.Fatal(err)
		}
		if _, err := m.SuccessRate(sc.PStar); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.OptimalRate(); err != nil {
			b.Fatal(err)
		}
	}
}
