// Ablation benchmarks for the numerical design choices called out in
// DESIGN.md: threshold-scan resolution and the grid-DP
// resolution of the cross-check engine. Each benchmark reports the accuracy
// impact of the cheaper configuration as a custom metric (deviation from
// the reference configuration ×1e9, reported as "err_1e9") alongside its
// speed, so the speed/accuracy trade-off is visible in one run.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/packetized"
	"repro/internal/repeated"
	"repro/internal/utility"
)

// referenceSR computes SR(2.0) at a deliberately lavish configuration.
func referenceSR(b *testing.B) float64 {
	b.Helper()
	m, err := core.New(utility.Default(), core.WithScanPoints(4000))
	if err != nil {
		b.Fatal(err)
	}
	sr, err := m.SuccessRate(2.0)
	if err != nil {
		b.Fatal(err)
	}
	return sr
}

// benchSolverConfig measures one solver configuration against the reference.
func benchSolverConfig(b *testing.B, opts ...core.Option) {
	b.Helper()
	ref := referenceSR(b)
	var sr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(utility.Default(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if sr, err = m.SuccessRate(2.0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(math.Abs(sr-ref)*1e9, "err_1e9")
}

// BenchmarkAblation_ScanPoints150 .. 2400: panels in the threshold
// root-scan (default 600).
func BenchmarkAblation_ScanPoints150(b *testing.B) {
	benchSolverConfig(b, core.WithScanPoints(150))
}

func BenchmarkAblation_ScanPoints600(b *testing.B) {
	benchSolverConfig(b, core.WithScanPoints(600))
}

func BenchmarkAblation_ScanPoints2400(b *testing.B) {
	benchSolverConfig(b, core.WithScanPoints(2400))
}

// benchGridDP measures the grid-DP cross-check at a given resolution,
// reporting the t3-threshold deviation from the closed form.
func benchGridDP(b *testing.B, gridN int) {
	b.Helper()
	params := utility.Default()
	m, err := core.New(params)
	if err != nil {
		b.Fatal(err)
	}
	cut, err := m.CutoffT3(2.0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := game.SwapGame(params, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	var dev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid := game.DefaultGrid(params, gridN, 10)
		sol, err := g.Solve(grid)
		if err != nil {
			b.Fatal(err)
		}
		t3, err := sol.StageByName("t3")
		if err != nil {
			b.Fatal(err)
		}
		for j, cont := range t3.PolicyCont {
			if cont {
				dev = math.Abs(grid[j]-cut) / cut
				break
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(dev*1e9, "err_1e9")
}

// BenchmarkAblation_GridDP200 .. 1600: state-grid resolution of the DP
// engine (the cross-check tests use 1200).
func BenchmarkAblation_GridDP200(b *testing.B) { benchGridDP(b, 200) }

func BenchmarkAblation_GridDP400(b *testing.B) { benchGridDP(b, 400) }

func BenchmarkAblation_GridDP800(b *testing.B) { benchGridDP(b, 800) }

func BenchmarkAblation_GridDP1600(b *testing.B) { benchGridDP(b, 1600) }

// BenchmarkAblation_HermiteOrder compares the Gauss–Hermite order used by
// the uncertain-amount extension (default 48), reporting the SR_x deviation.
func benchHermite(b *testing.B, n int) {
	b.Helper()
	mRef, err := core.New(utility.Default(), core.WithHermiteOrder(128))
	if err != nil {
		b.Fatal(err)
	}
	uRef, err := mRef.UncertainWithBudget(5)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := uRef.SuccessRate(4)
	if err != nil {
		b.Fatal(err)
	}
	var sr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(utility.Default(), core.WithHermiteOrder(n))
		if err != nil {
			b.Fatal(err)
		}
		u, err := m.UncertainWithBudget(5)
		if err != nil {
			b.Fatal(err)
		}
		if sr, err = u.SuccessRate(4); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(math.Abs(sr-ref)*1e9, "err_1e9")
}

func BenchmarkAblation_Hermite16(b *testing.B) { benchHermite(b, 16) }

func BenchmarkAblation_Hermite48(b *testing.B) { benchHermite(b, 48) }

func BenchmarkAblation_Hermite96(b *testing.B) { benchHermite(b, 96) }

// BenchmarkExtension_BayesianSolve measures the incomplete-information
// success rate with a two-point prior on each side.
func BenchmarkExtension_BayesianSolve(b *testing.B) {
	m, err := core.New(utility.Default())
	if err != nil {
		b.Fatal(err)
	}
	bay, err := m.Bayesian(
		core.TypePrior{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}},
		core.TypePrior{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bay.SuccessRate(2.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_RepeatedGame measures a 150-round repeated engagement
// with reputation dynamics (strategy cache included).
func BenchmarkExtension_RepeatedGame(b *testing.B) {
	cfg := repeated.Config{
		Params:         utility.Default(),
		Rounds:         150,
		GapHours:       24,
		ReputationGain: 0.02,
		ReputationLoss: 0.2,
		IdleRecovery:   0.15,
		AlphaMax:       0.6,
		Seed:           11,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repeated.Play(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rounds) == 0 {
			b.Fatal("no rounds")
		}
	}
}

// BenchmarkExtension_Packetized measures an 8-packet packetized-swap Monte
// Carlo (2000 runs per iteration).
func BenchmarkExtension_Packetized(b *testing.B) {
	cfg := packetized.Config{
		Params:  utility.Default(),
		PStar:   2.0,
		Requote: true,
		Runs:    2000,
		Seed:    77,
	}
	points := []packetized.Point{{Packets: 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := packetized.Sweep(cfg, points)
		if err != nil {
			b.Fatal(err)
		}
		if res[0].FullCompletion.N != 2000 {
			b.Fatal("short run")
		}
	}
}
