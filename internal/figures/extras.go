package figures

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/packetized"
	"repro/internal/plot"
	"repro/internal/qmc"
	"repro/internal/repeated"
	"repro/internal/solvecache"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// Uncertainty quantifies the incomplete-information variant announced in
// the paper's contribution list (§I.B, "we study the game with uncertainty
// in counterparties' success premium"): SR(P*) under mean-preserving
// spreads of Alice's belief about αB.
func Uncertainty(p utility.Params, o Opts) ([]Figure, error) {
	m, err := solvecache.SharedModel(p)
	if err != nil {
		return nil, err
	}
	grid := mathx.LinSpace(1.4, 2.8, 29)
	spreads := []struct {
		name  string
		prior core.TypePrior
	}{
		{"known αB=0.3", core.PointPrior(0.3)},
		{"αB∈{0.2,0.4}", core.TypePrior{Values: []float64{0.2, 0.4}, Probs: []float64{0.5, 0.5}}},
		{"αB∈{0.1,0.5}", core.TypePrior{Values: []float64{0.1, 0.5}, Probs: []float64{0.5, 0.5}}},
		{"αB∈{0.05,0.55}", core.TypePrior{Values: []float64{0.05, 0.55}, Probs: []float64{0.5, 0.5}}},
	}
	fig := Figure{
		ID:     "uncertainty",
		Title:  "Extension: SR under uncertainty about Bob's success premium (mean fixed at 0.3)",
		XLabel: "Exchange rate P*",
		YLabel: "SR (conditional on initiation)",
	}
	for _, sp := range spreads {
		b, err := m.Bayesian(core.PointPrior(p.Alice.Alpha), sp.prior)
		if err != nil {
			return nil, err
		}
		ys, err := scanTiled(o, grid, func(pstar float64) (float64, error) {
			sr, ok, err := b.SuccessRate(pstar)
			if err != nil || !ok {
				return 0, err
			}
			return sr, nil
		})
		if err != nil {
			return nil, err
		}
		atFair := ys[len(grid)/2]
		fig.Series = append(fig.Series, plot.Series{Name: sp.name, X: grid, Y: ys})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: SR at mid-grid = %.4f", sp.name, atFair))
	}
	return []Figure{fig}, nil
}

// Reputation traces the repeated-game extension (§V.B): per-round quoting
// and success under three reputation regimes with a shared price path.
func Reputation(p utility.Params, _ Opts) ([]Figure, error) {
	regimes := []struct {
		name string
		cfg  repeated.Config
	}{
		{"static", repeated.Config{Params: p, Rounds: 150, GapHours: 24, Seed: 11}},
		{"fragile", repeated.Config{Params: p, Rounds: 150, GapHours: 24, Seed: 11,
			ReputationLoss: 0.2, AlphaMax: 0.6}},
		{"forgiving", repeated.Config{Params: p, Rounds: 150, GapHours: 24, Seed: 11,
			ReputationLoss: 0.2, ReputationGain: 0.02, IdleRecovery: 0.15, AlphaMax: 0.6}},
	}
	fig := Figure{
		ID:     "reputation",
		Title:  "Extension: Alice's reputation αA over repeated swaps (150 rounds)",
		XLabel: "Round",
		YLabel: "αA entering the round",
	}
	for _, reg := range regimes {
		res, err := repeated.Play(reg.cfg)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(res.Rounds))
		ys := make([]float64, len(res.Rounds))
		for i, r := range res.Rounds {
			xs[i] = float64(r.Index)
			ys[i] = r.AlphaA
		}
		fig.Series = append(fig.Series, plot.Series{Name: reg.name, X: xs, Y: ys})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s", reg.name, res.CooperationSummary()))
	}
	return []Figure{fig}, nil
}

// Packetized compares the single-shot HTLC swap against the packetized
// protocol of the authors' companion work ([20] in §II): expected completed
// fraction and full-completion probability versus the number of packets,
// with and without per-packet re-quoting.
func Packetized(p utility.Params, o Opts) ([]Figure, error) {
	ns := []float64{1, 2, 4, 8, 16}
	// The sobol sampler at 5000 runs covers the plotted precision (two
	// decimal places at chart resolution, four in the notes) with a
	// conservative i.i.d. standard error under 0.004.
	const runs = 5000
	fig := Figure{
		ID:     "packetized",
		Title:  "Related work [20]: packetized payments vs single-shot HTLC swap (P*=2)",
		XLabel: "Packets n",
		YLabel: "Probability / fraction",
	}
	kinds := []struct {
		name      string
		requote   bool
		continue_ bool
		metric    func(packetized.Result) float64
	}{
		{"expected fraction (fixed rate, abort)", false, false, func(r packetized.Result) float64 { return r.ExpectedFraction }},
		{"full completion (fixed rate, abort)", false, false, func(r packetized.Result) float64 { return r.FullCompletion.P }},
		{"expected fraction (re-quoted, abort)", true, false, func(r packetized.Result) float64 { return r.ExpectedFraction }},
		{"expected fraction (re-quoted, continue)", true, true, func(r packetized.Result) float64 { return r.ExpectedFraction }},
	}
	// The four plotted series read three (requote, continue) curves, and
	// each rate mode is simulated once: packetized.Sweep reads every packet
	// count and failure semantics from the same Sobol path per run. Only the
	// re-quoted mode asks for continue-after-failure, so the fixed-rate runs
	// stop at their first failure.
	semantics := [][]bool{{false}, {false, true}} // by rate mode: fixed, re-quoted
	results, err := sweep.Map(context.Background(), len(semantics), o.Workers,
		func(mode int) ([]packetized.Result, error) {
			var points []packetized.Point
			for _, cont := range semantics[mode] {
				for _, n := range ns {
					points = append(points, packetized.Point{Packets: int(n), ContinueAfterFailure: cont})
				}
			}
			res, _, err := packetized.Sweep(packetized.Config{
				Params:  p,
				PStar:   2.0,
				Requote: mode == 1,
				Runs:    runs,
				Seed:    77,
				Sampler: qmc.ModeSobol,
			}, points)
			return res, err
		})
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		mode, offset := 0, 0
		if k.requote {
			mode = 1
		}
		if k.continue_ {
			offset = len(ns)
		}
		ys := make([]float64, len(ns))
		for i := range ns {
			ys[i] = k.metric(results[mode][offset+i])
		}
		fig.Series = append(fig.Series, plot.Series{Name: k.name, X: ns, Y: ys})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s at n=16: %.4f", k.name, ys[len(ys)-1]))
	}
	fig.Notes = append(fig.Notes, "per-round exposure falls as P*/n: 2.0 → 0.125 across the axis")
	fig.Notes = append(fig.Notes, fmt.Sprintf("sampler: sobol (%d runs per config)", runs))
	return []Figure{fig}, nil
}
