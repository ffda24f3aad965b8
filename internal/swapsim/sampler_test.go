package swapsim_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mc"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/sweep"
)

// samplerRuns sizes the per-preset equivalence samples: large enough that
// the SR comparison resolves shifts of ≈ 0.03 and the KS statistic
// resolves real distributional shifts, small enough that preset × mode
// stays fast.
const samplerRuns = 4000

// srAlpha is the family-wise false-failure rate of the success-rate
// comparison across every preset.
const srAlpha = 0.001

// twoProportionZ is the pooled two-proportion z statistic of a and b: the
// difference of the estimates over its standard error under the
// hypothesis that both sample one success rate. Two identical degenerate
// samples (both all-success or all-failure) have z = 0.
func twoProportionZ(a, b mc.Result) float64 {
	pa := float64(a.SuccessRate.Successes) / float64(a.SuccessRate.N)
	pb := float64(b.SuccessRate.Successes) / float64(b.SuccessRate.N)
	pooled := float64(a.SuccessRate.Successes+b.SuccessRate.Successes) / float64(a.SuccessRate.N+b.SuccessRate.N)
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(a.SuccessRate.N) + 1/float64(b.SuccessRate.N)))
	if se == 0 {
		return 0
	}
	return (pa - pb) / se
}

// mcFor runs a fixed-N estimate for the scenario under the given mode.
func mcFor(t *testing.T, sc scenario.Scenario, mode qmc.Mode, runs int) mc.Result {
	t.Helper()
	res, err := swapsim.MonteCarlo(swapsim.MCConfig{
		Config: protocolFor(t, sc, mode),
		Runs:   runs,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.Name, mode, err)
	}
	return res
}

// ksStatistic computes the two-sample Kolmogorov–Smirnov statistic
// sup|F_a − F_b| over the pooled sample (ties are fine: the statistic is
// evaluated at every pooled value, which is conservative for the
// lattice-valued durations the simulator produces).
func ksStatistic(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		// Advance both samples past the current pooled value before
		// evaluating, so the ECDFs are compared at the value's right
		// limit — with heavy ties, stopping mid-run inflates the
		// statistic to 1 on identical samples.
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb))); diff > d {
			d = diff
		}
	}
	return d
}

// durations collects per-path end times for the scenario under the mode,
// replaying the engine's exact seeding on a single runner.
func durations(t *testing.T, sc scenario.Scenario, mode qmc.Mode, runs int) []float64 {
	t.Helper()
	r, err := swapsim.NewRunner(protocolFor(t, sc, mode))
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.Name, mode, err)
	}
	out := make([]float64, runs)
	for i := 0; i < runs; i++ {
		p, err := r.RunPath(i, sweep.Seed(sc.Seed, i))
		if err != nil {
			t.Fatalf("%s/%s path %d: %v", sc.Name, mode, i, err)
		}
		out[i] = p.Duration
	}
	return out
}

// TestSamplerEquivalentInDistribution is the correctness pin for the
// variance-reduced mode on the real protocol workload: on every scenario
// preset, sobol sampling must estimate the same success rate as pseudo
// sampling (a two-proportion z-test), produce the same support of terminal
// stages within sampling noise, and draw end-time samples from the same
// distribution (two-sample KS). The mode changes only the joint law across
// paths — every marginal is untouched. The SR test runs at family-wise
// level srAlpha, Bonferroni-split over the presets; it uses the i.i.d.
// variance, which overstates sobol's, so a correct sampler fails it with
// probability below srAlpha over the choice of seeds.
func TestSamplerEquivalentInDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full preset sweep in -short mode")
	}
	// KS acceptance at α = 0.001 for two samples of samplerRuns each:
	// c(α)·sqrt((n+m)/(n·m)) with c(0.001) = 1.949.
	ksCrit := 1.949 * math.Sqrt(2/float64(samplerRuns))
	presets := scenario.Registry()
	// Two-sided per-preset level srAlpha/len(presets): z = Φ⁻¹(1 − α/2m).
	zCrit := math.Sqrt2 * math.Erfinv(1-srAlpha/float64(len(presets)))
	for _, sc := range presets {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			pseudo := mcFor(t, sc, qmc.ModePseudo, samplerRuns)
			durPseudo := durations(t, sc, qmc.ModePseudo, samplerRuns)
			for _, mode := range []qmc.Mode{qmc.ModeSobol} {
				res := mcFor(t, sc, mode, samplerRuns)
				if res.Sampler != mode {
					t.Errorf("%s: result reports sampler %q", mode, res.Sampler)
				}
				if res.Violations != 0 {
					t.Errorf("%s: %d atomicity violations without failure injection", mode, res.Violations)
				}
				if z := twoProportionZ(res, pseudo); math.Abs(z) > zCrit {
					t.Errorf("%s: SR %.4f vs pseudo %.4f — |z| = %.2f exceeds %.2f",
						mode, res.SuccessRate.P, pseudo.SuccessRate.P, math.Abs(z), zCrit)
				}
				// Stage histogram: same support up to rare stages, with
				// every common stage's proportion within CLT noise.
				for stage, n := range res.Stages {
					p := float64(n) / float64(res.Paths)
					q := float64(pseudo.Stages[stage]) / float64(pseudo.Paths)
					tol := 4*math.Sqrt(q*(1-q)/float64(samplerRuns)) + 4.0/float64(samplerRuns)
					if math.Abs(p-q) > tol {
						t.Errorf("%s: stage %s proportion %.4f vs pseudo %.4f (tol %.4f)", mode, stage, p, q, tol)
					}
				}
				if d := ksStatistic(durations(t, sc, mode, samplerRuns), durPseudo); d > ksCrit {
					t.Errorf("%s: duration KS statistic %.4f exceeds %.4f", mode, d, ksCrit)
				}
			}
		})
	}
}

// TestSamplerDefaultByteIdentical pins the golden default: the zero-value
// sampler and an explicit "pseudo" produce the same result object as a
// config that predates the sampler field entirely.
func TestSamplerDefaultByteIdentical(t *testing.T) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	base := swapsim.MCConfig{Config: protocolFor(t, sc, ""), Runs: 600}
	want, err := swapsim.MonteCarlo(base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Config.Sampler = qmc.ModePseudo
	got, err := swapsim.MonteCarlo(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("explicit pseudo diverged from zero-value default:\n%+v\n%+v", got, want)
	}
}

// TestSamplerRejectsUnknownMode pins config validation at the runner
// boundary, where both Run and the engine's NewRunner funnel through.
func TestSamplerRejectsUnknownMode(t *testing.T) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swapsim.NewRunner(protocolFor(t, sc, "halton")); err == nil {
		t.Fatal("unknown sampler mode accepted")
	}
}

// TestSamplerDeterministicAcrossWorkers extends the engine determinism
// contract to the real protocol runner in the variance-reduced mode.
func TestSamplerDeterministicAcrossWorkers(t *testing.T) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []qmc.Mode{qmc.ModeSobol} {
		cfg := swapsim.MCConfig{
			Config: protocolFor(t, sc, mode),
			Runs:   1200,
		}
		var want mc.Result
		for i, workers := range []int{1, 3, 8} {
			cfg.Workers = workers
			res, err := swapsim.MonteCarlo(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: workers=%d diverged from workers=1", mode, workers)
			}
		}
	}
}

// TestSamplerConvergenceTableIII is the headline acceptance check: at the
// Table III point, Sobol must reach the 0.01 estimator half-width in at
// most half the Wilson-stopped pseudo baseline's paths (measured: ≈0.17×).
func TestSamplerConvergenceTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive convergence sweep in -short mode")
	}
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode qmc.Mode) mc.Result {
		res, err := swapsim.MonteCarlo(swapsim.MCConfig{
			Config:  protocolFor(t, sc, mode),
			Runs:    200000,
			CIWidth: 0.01,
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Stopped {
			t.Fatalf("%s: never reached half-width 0.01 (%d paths)", mode, res.Paths)
		}
		return res
	}
	pseudo := run(qmc.ModePseudo)
	sobol := run(qmc.ModeSobol)
	t.Logf("paths to ±0.01: pseudo=%d sobol=%d (%.2fx)",
		pseudo.Paths, sobol.Paths, float64(sobol.Paths)/float64(pseudo.Paths))
	if math.Abs(sobol.SuccessRate.P-pseudo.SuccessRate.P) > 0.03 {
		t.Errorf("sobol stopped at SR %.4f, pseudo at %.4f", sobol.SuccessRate.P, pseudo.SuccessRate.P)
	}
	if 2*sobol.Paths > pseudo.Paths {
		t.Errorf("sobol needed %d paths vs pseudo %d — want ≤ 0.5x", sobol.Paths, pseudo.Paths)
	}
}
