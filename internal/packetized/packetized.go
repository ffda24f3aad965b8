// Package packetized implements the packetized-payments comparator from the
// authors' companion work (Dubovitskaya, Ackerer and Xu, "A Game-Theoretic
// Analysis of Cross-ledger Swaps with Packetized Payments", cited as [20]
// in §II of the HTLC paper): instead of one all-or-nothing HTLC swap, the
// parties split the trade into n equal packets, each executed as its own
// HTLC round, aborting the remainder on the first withdrawal.
//
// Because the stage utilities are linear in the traded amounts, scaling
// both legs by 1/n leaves the *price* thresholds of each round identical to
// the full game's (amount invariance, test-enforced via internal/core).
// What changes is the exposure profile: the value at risk in any single
// round drops by the factor n, at the cost of a longer horizon. Two
// failure semantics are modelled:
//
//   - abort-on-failure (trust is broken): the completed fraction compounds
//     like a geometric series, q(1−q^n)/(n(1−q)) for per-packet success q,
//     so throughput *falls* with n — packetization buys bounded exposure,
//     not completion probability;
//   - continue-after-failure (a rational withdrawal is not malice): each
//     packet is an independent opportunity and the expected completed
//     fraction stays near the per-packet success rate regardless of n,
//     while exposure still shrinks by n — the companion protocol's case.
//
// With a fixed exchange rate, later packets face drifted prices and every
// metric decays; per-packet re-quoting (scale invariance makes this a cheap
// rescaling) removes the drift penalty.
package packetized

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gbm"
	"repro/internal/qmc"
	"repro/internal/solvecache"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/utility"
)

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("packetized: invalid configuration")

// Config parameterises a packetized-swap experiment.
type Config struct {
	// Params is the market/preference configuration.
	Params utility.Params
	// PStar is the agreed exchange rate (total Token_a per total Token_b).
	PStar float64
	// Packets is the number of equal packets n ≥ 1.
	Packets int
	// Requote re-solves the SR-maximising rate for each packet at its
	// opening price instead of keeping PStar fixed.
	Requote bool
	// ContinueAfterFailure keeps trading the remaining packets after a
	// withdrawal instead of aborting the engagement.
	ContinueAfterFailure bool
	// ForceInitiate starts the engagement even when the fixed rate lies
	// outside A's feasible band, so the completion estimate conditions on
	// initiation exactly as the analytic SR of Eq. 31 does — the mode the
	// variant layer's Monte Carlo cross-validation runs in.
	ForceInitiate bool
	// Runs is the number of Monte Carlo executions.
	Runs int
	// Seed drives the price paths.
	Seed int64
	// Sampler selects how price increments are drawn (internal/qmc).
	// Pseudo — the zero value — keeps the historical single sequential
	// stream byte-for-byte. Sobol draws each run's first qmc.MaxDim
	// increments from a scrambled Sobol point (replicate-striped like the
	// MC engine) padded by a per-run pseudo tail, so runs with many
	// packets stay unbiased. Under sobol FractionStdErr is still the
	// i.i.d. formula and overstates the error — a conservative bound.
	Sampler qmc.Mode
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("packetized: %w", err)
	}
	if c.PStar <= 0 {
		return fmt.Errorf("%w: PStar=%g", ErrBadConfig, c.PStar)
	}
	if c.Packets < 1 {
		return fmt.Errorf("%w: packets=%d", ErrBadConfig, c.Packets)
	}
	if c.Runs < 1 {
		return fmt.Errorf("%w: runs=%d", ErrBadConfig, c.Runs)
	}
	if _, err := c.Sampler.Canon(); err != nil {
		return fmt.Errorf("packetized: %w", err)
	}
	return nil
}

// Result aggregates the Monte Carlo estimate.
type Result struct {
	// FullCompletion estimates P(all n packets complete).
	FullCompletion stats.Proportion
	// ExpectedFraction is the mean completed fraction of the notional.
	ExpectedFraction float64
	// FractionStdErr is the standard error of ExpectedFraction.
	FractionStdErr float64
	// MeanPacketsDone is the mean number of completed packets.
	MeanPacketsDone float64
	// ExposurePerRound is the Token_a notional at risk in any single round
	// (PStar / n) — the companion protocol's headline reduction.
	ExposurePerRound float64
}

// Run executes the Monte Carlo experiment. Each run walks the packets in
// sequence: packet k opens at the price where packet k−1 settled (one full
// protocol cycle later), plays the basic game's threshold strategies (the
// price thresholds are amount-invariant), and a withdrawal aborts the rest.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	tl, err := timeline.Idealized(cfg.Params.Chains)
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	// A packet cycle spans initiation to the later of the two receipts.
	cycle := tl.TA
	if tl.TB > cycle {
		cycle = tl.TB
	}

	// The stage solves route through the process-wide solve cache: the same
	// parameter set solved by the figures, the scenario batch or another
	// packet count shares one model and its memoized cells.
	m, err := solvecache.SharedModel(cfg.Params)
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	// Fixed-rate strategy solved once; re-quoting reuses scale invariance:
	// the optimal rate and thresholds at price p are the P0-solution scaled
	// by p/P0.
	fixed, err := m.Strategy(cfg.PStar)
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	var quoted core.Strategy
	var quotedViable bool
	if cfg.Requote {
		if pstar, _, err := m.OptimalRate(); err == nil {
			quotedViable = true
			if quoted, err = m.Strategy(pstar); err != nil {
				return Result{}, fmt.Errorf("packetized: %w", err)
			}
		} else if !errors.Is(err, core.ErrNotViable) {
			return Result{}, fmt.Errorf("packetized: %w", err)
		}
	}

	mode, err := cfg.Sampler.Canon()
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	// src is the active normal source for the run: the shared sequential
	// stream in pseudo mode, the slab-fronted source repositioned per run
	// in sobol mode.
	var (
		src  gbm.NormalSource
		norm *qmc.SlabNormals
	)
	if mode == qmc.ModeSobol {
		if norm, err = qmc.NewSlabNormals(cfg.Seed); err != nil {
			return Result{}, fmt.Errorf("packetized: %w", err)
		}
		src = norm
	} else {
		src = rand.New(rand.NewSource(cfg.Seed))
	}
	full := 0
	var fracSum, fracSq, packetsSum float64
	for run := 0; run < cfg.Runs; run++ {
		if norm != nil {
			norm.Reset(run, sweep.Seed(cfg.Seed, run))
		}
		price := cfg.Params.P0
		done := 0
		for k := 0; k < cfg.Packets; k++ {
			strat := fixed
			if cfg.Requote {
				if !quotedViable {
					break
				}
				scale := price / cfg.Params.P0
				strat = core.Strategy{
					PStar:          quoted.PStar * scale,
					AliceInitiates: true,
					BobContT2:      quoted.BobContT2.Scale(scale),
					AliceCutoffT3:  quoted.AliceCutoffT3 * scale,
				}
			} else if !strat.AliceInitiates && !cfg.ForceInitiate && k == 0 {
				// A fixed rate outside the feasible band never starts.
				break
			}
			pT2 := cfg.Params.Price.Step(src, price, cfg.Params.Chains.TauA)
			success := strat.BobContT2.Contains(pT2)
			var pEnd float64
			if success {
				pT3 := cfg.Params.Price.Step(src, pT2, cfg.Params.Chains.TauB)
				success = pT3 > strat.AliceCutoffT3
				pEnd = pT3
			} else {
				pEnd = pT2
			}
			if success {
				done++
			} else if !cfg.ContinueAfterFailure {
				break
			}
			// The next packet opens after the remainder of the cycle.
			elapsed := cfg.Params.Chains.TauA
			if pEnd != pT2 {
				elapsed += cfg.Params.Chains.TauB
			}
			if rest := cycle - elapsed; rest > 0 {
				price = cfg.Params.Price.Step(src, pEnd, rest)
			} else {
				price = pEnd
			}
		}
		frac := float64(done) / float64(cfg.Packets)
		fracSum += frac
		fracSq += frac * frac
		packetsSum += float64(done)
		if done == cfg.Packets {
			full++
		}
	}

	prop, err := stats.NewProportion(full, cfg.Runs)
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	n := float64(cfg.Runs)
	mean := fracSum / n
	variance := fracSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Result{
		FullCompletion:   prop,
		ExpectedFraction: mean,
		FractionStdErr:   sqrtOverN(variance, n),
		MeanPacketsDone:  packetsSum / n,
		ExposurePerRound: cfg.PStar / float64(cfg.Packets),
	}, nil
}

func sqrtOverN(variance, n float64) float64 {
	if n <= 1 || variance <= 0 {
		return 0
	}
	return math.Sqrt(variance / n)
}
