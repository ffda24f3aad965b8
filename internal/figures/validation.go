package figures

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/mathx"
	"repro/internal/plot"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/swapsim"
	"repro/internal/sweep"
	"repro/internal/utility"
	"repro/internal/variant"
)

// mcCIWidth is the validation artifact's adaptive-stop target: each row
// stops once its 95% half-width is at most this, capped at its run count.
const mcCIWidth = 0.01

// MCValidation cross-checks the analytic success rate (Eq. 31 / Eq. 40)
// against Monte Carlo execution of the full protocol on the ledger
// simulator — the repository's end-to-end validation artifact (not a paper
// figure; the paper's analysis is purely numerical). Each row plays the
// protocol run variant.ProtocolConfig resolves, initiated because both SRs
// condition on initiation, and is judged by variant.Agrees. Every row runs
// the sobol sampler, whose replicate-t half-width reaches mcCIWidth within
// a small fraction of the runs cap (see DESIGN.md, "Sampling modes").
func MCValidation(p utility.Params, runs int, o Opts) ([]Figure, error) {
	type config struct {
		label string
		pstar float64
		q     float64
	}
	configs := []config{
		{"basic P*=1.8", 1.8, 0},
		{"basic P*=2.0", 2.0, 0},
		{"basic P*=2.2", 2.2, 0},
		{"collateral Q=0.01 P*=2.0", 2.0, 0.01},
		{"collateral Q=0.1 P*=2.0", 2.0, 0.1},
	}
	fig := Figure{
		ID:    "montecarlo",
		Title: fmt.Sprintf("Validation: analytic SR vs protocol Monte Carlo (adaptive, ±%g target, cap %d runs)", mcCIWidth, runs),
		TableHeader: []string{
			"Configuration", "Analytic SR", "MC SR", "Wilson 95% CI", "Agrees",
		},
	}
	sawViolation := false
	for i, cfg := range configs {
		// The collateral protocol at Q = 0 is the basic game's.
		run, analytic, _, err := variant.ProtocolConfig("collateral", scenario.Scenario{
			Params: p, PStar: cfg.pstar, Collateral: cfg.q, Seed: 9000 + int64(i)*100000,
		})
		if err != nil {
			return nil, err
		}
		run.Sampler = qmc.ModeSobol
		res, err := swapsim.MonteCarlo(swapsim.MCConfig{
			Config:  run,
			Runs:    runs,
			Workers: o.Workers,
			CIWidth: mcCIWidth,
		})
		if err != nil {
			return nil, err
		}
		fig.TableRows = append(fig.TableRows, []string{
			cfg.label,
			fmt.Sprintf("%.4f", analytic),
			fmt.Sprintf("%.4f", res.SuccessRate.P),
			fmt.Sprintf("[%.4f, %.4f]", res.SuccessRate.Lo, res.SuccessRate.Hi),
			fmt.Sprintf("%v", variant.Agrees(analytic, res.SuccessRate)),
		})
		if res.Stopped {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: adaptive stop after %d paths (CI half-width target %g)", cfg.label, res.Paths, mcCIWidth))
		}
		if res.Violations > 0 {
			sawViolation = true
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %d atomicity violations (unexpected!)", cfg.label, res.Violations))
		}
	}
	if !sawViolation {
		fig.Notes = append(fig.Notes, "no atomicity violations in any run (expected without failure injection)")
	}
	fig.Notes = append(fig.Notes, "sampler: sobol")
	return []Figure{fig}, nil
}

// BaselineComparison contrasts the paper's two-sided success rate with the
// related-work one-sided (initiator-only optionality) model of §II: the
// vertical gap is the failure risk added by B's rationality, the paper's
// headline observation.
func BaselineComparison(p utility.Params, o Opts) ([]Figure, error) {
	m, err := solvecache.SharedModel(p)
	if err != nil {
		return nil, err
	}
	bl, err := baseline.New(p)
	if err != nil {
		return nil, err
	}
	grid := mathx.LinSpace(0.2, 3.2, 41)
	type point struct {
		two, one float64
	}
	pts, err := sweep.Map(context.Background(), len(grid), o.Workers, func(i int) (point, error) {
		var pt point
		var err error
		if pt.two, err = m.SuccessRate(grid[i]); err != nil {
			return pt, err
		}
		if pt.one, err = bl.SuccessRate(grid[i]); err != nil {
			return pt, err
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	twoSided := make([]float64, len(pts))
	oneSided := make([]float64, len(pts))
	maxGap := 0.0
	for i, pt := range pts {
		twoSided[i], oneSided[i] = pt.two, pt.one
		if gap := pt.one - pt.two; gap > maxGap {
			maxGap = gap
		}
	}
	prem, err := bl.OptionPremium(2.0)
	if err != nil {
		return nil, err
	}
	oneFair, err := bl.SuccessRate(2.0)
	if err != nil {
		return nil, err
	}
	twoFair, err := m.SuccessRate(2.0)
	if err != nil {
		return nil, err
	}
	fig := Figure{
		ID:     "baseline",
		Title:  "Related work: one-sided optionality (Han et al.) vs this paper's two-sided game",
		XLabel: "Exchange rate P*",
		YLabel: "SR",
		Series: []plot.Series{
			{Name: "two-sided game (this paper, Eq. 31)", X: grid, Y: twoSided},
			{Name: "one-sided baseline (B always locks)", X: grid, Y: oneSided},
		},
		Notes: []string{
			fmt.Sprintf("SR at the fair rate P*=2: one-sided %.3f vs two-sided %.3f (gap %.3f is B's withdrawal risk)",
				oneFair, twoFair, oneFair-twoFair),
			fmt.Sprintf("max SR gap across rates = %.3f (at rates where B never locks, the one-sided model still predicts near-certain success)", maxGap),
			fmt.Sprintf("A's abandonment-option premium at P*=2 (Han et al.'s 'free American option') = %.4f Token_a", prem),
		},
	}
	return []Figure{fig}, nil
}
