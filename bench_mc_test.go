// Monte Carlo engine benchmarks: the per-path cost of the legacy
// allocate-everything-per-run driver vs the reusable-state Runner, and the
// end-to-end throughput of the streaming engine in fixed-N and adaptive
// mode. `make bench-json` runs these and records the machine-readable
// BENCH_mc.json baseline that CI's regression gate checks (>2x allocs/op
// fails the build); paths/sec for the Table III preset is recorded in
// EXPERIMENTS.md.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/qmc"
	"repro/internal/swapsim"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// mcBenchConfig solves the Table III strategy once and caches the
// simulator configuration every MC benchmark shares.
var mcBenchConfig = sync.OnceValues(func() (swapsim.Config, error) {
	m, err := core.New(utility.Default())
	if err != nil {
		return swapsim.Config{}, err
	}
	strat, err := m.Strategy(2.0)
	if err != nil {
		return swapsim.Config{}, err
	}
	return swapsim.Config{Params: utility.Default(), Strategy: strat, Seed: 1}, nil
})

func mcConfig(b *testing.B) swapsim.Config {
	b.Helper()
	cfg, err := mcBenchConfig()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkMC_PathLegacyAlloc is the pre-engine baseline: every path
// builds a fresh scheduler, two chains, price feed and agents
// (swapsim.Run), so allocs/op is the per-path allocation bill the
// streaming engine retires.
func BenchmarkMC_PathLegacyAlloc(b *testing.B) {
	cfg := mcConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg
		run.Seed = sweep.Seed(cfg.Seed, i)
		if _, err := swapsim.Run(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMC_PathReused runs the same paths on one reusable Runner —
// preallocated stack reset between paths — isolating the win the engine's
// per-worker state reuse delivers.
func BenchmarkMC_PathReused(b *testing.B) {
	runner, err := swapsim.NewRunner(mcConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunOutcome(sweep.Seed(1, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine measures end-to-end engine throughput: each iteration is a
// complete MonteCarlo estimate; paths/sec reports the aggregate sampling
// rate.
func benchEngine(b *testing.B, mcCfg swapsim.MCConfig) {
	b.Helper()
	mcCfg.Config = mcConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	paths := 0
	for i := 0; i < b.N; i++ {
		res, err := swapsim.MonteCarlo(mcCfg)
		if err != nil {
			b.Fatal(err)
		}
		paths += res.Paths
	}
	b.ReportMetric(float64(paths)/b.Elapsed().Seconds(), "paths/s")
}

// BenchmarkMC_EngineFixedN1Worker is the sequential engine throughput on
// the Table III preset (chunked, reused state, one worker).
func BenchmarkMC_EngineFixedN1Worker(b *testing.B) {
	benchEngine(b, swapsim.MCConfig{Runs: 2048, Workers: 1})
}

// BenchmarkMC_EngineFixedNAllWorkers adds the worker pool; output is
// bit-identical to the 1-worker run.
func BenchmarkMC_EngineFixedNAllWorkers(b *testing.B) {
	benchEngine(b, swapsim.MCConfig{Runs: 2048, Workers: 0})
}

// BenchmarkMC_EngineAdaptive measures adaptive-precision sampling: stop at
// a 0.02 Wilson half-width under a 20k cap.
func BenchmarkMC_EngineAdaptive(b *testing.B) {
	benchEngine(b, swapsim.MCConfig{Runs: 20000, Workers: 0, CIWidth: 0.02})
}

// convergenceConfig is the shared precision every convergence benchmark
// runs to: a 0.01 estimator half-width under a 200k cap, re-evaluated at
// every engine chunk boundary.
func convergenceConfig() swapsim.MCConfig {
	return swapsim.MCConfig{Runs: 200000, Workers: 0, CIWidth: 0.01}
}

// convergencePseudoPaths runs the pseudo sampler once to the shared
// precision target and caches the path count the variance-reduced modes
// are normalized against. The adaptive stop is deterministic per seed, so
// this is a constant of the preset, not a measurement.
var convergencePseudoPaths = sync.OnceValues(func() (int, error) {
	cfg, err := mcBenchConfig()
	if err != nil {
		return 0, err
	}
	mcCfg := convergenceConfig()
	mcCfg.Config = cfg
	res, err := swapsim.MonteCarlo(mcCfg)
	if err != nil {
		return 0, err
	}
	return res.Paths, nil
})

// benchConvergence measures precision-normalized throughput for one
// sampling mode: each iteration runs to the shared half-width target.
// Three metrics land in BENCH_mc.json:
//
//   - paths/s: raw sampling rate, as in the engine benchmarks.
//   - pathsratio: paths this mode needs / paths pseudo needs for the
//     same precision — the convergence figure of merit (< 1 means the
//     mode reaches the target with less work; deterministic per seed, so
//     `make bench-check` gates it with -max-paths-ratio).
//   - effpaths/s: pseudo-equivalent paths per second — the raw rate
//     divided by pathsratio, i.e. how fast a pseudo sampler would have
//     to run to match this mode's time-to-precision.
func benchConvergence(b *testing.B, mode qmc.Mode) {
	basePaths, err := convergencePseudoPaths()
	if err != nil {
		b.Fatal(err)
	}
	mcCfg := convergenceConfig()
	mcCfg.Config = mcConfig(b)
	mcCfg.Config.Sampler = mode
	b.ReportAllocs()
	b.ResetTimer()
	paths := 0
	modePaths := 0
	for i := 0; i < b.N; i++ {
		res, err := swapsim.MonteCarlo(mcCfg)
		if err != nil {
			b.Fatal(err)
		}
		paths += res.Paths
		modePaths = res.Paths
	}
	elapsed := b.Elapsed().Seconds()
	b.ReportMetric(float64(paths)/elapsed, "paths/s")
	b.ReportMetric(float64(basePaths)*float64(b.N)/elapsed, "effpaths/s")
	b.ReportMetric(float64(modePaths)/float64(basePaths), "pathsratio")
}

// BenchmarkMC_ConvergencePseudo is the convergence reference: pathsratio
// is 1 by construction and effpaths/s equals paths/s.
func BenchmarkMC_ConvergencePseudo(b *testing.B) {
	benchConvergence(b, qmc.ModePseudo)
}

// BenchmarkMC_ConvergenceSobol measures the scrambled-Sobol sequence,
// the mode that delivers the headline precision win (~0.17x the pseudo
// paths at Table III).
func BenchmarkMC_ConvergenceSobol(b *testing.B) {
	benchConvergence(b, qmc.ModeSobol)
}
