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
	// Requote re-solves the SR-maximising rate for each packet at its
	// opening price instead of keeping PStar fixed.
	Requote bool
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
	// Pseudo — the zero value — draws each run from the PCG stream of
	// the run's seed. Sobol draws each run's first qmc.MaxDim increments
	// from a scrambled Sobol point (replicate-striped like the MC engine)
	// padded by a per-run pseudo tail, so runs with many packets stay
	// unbiased. Under sobol FractionStdErr is still the i.i.d. formula and
	// overstates the error — a conservative bound.
	Sampler qmc.Mode
}

// validate checks the simulation's fields; the packet counts are checked
// per point by newPlan.
func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("packetized: %w", err)
	}
	if c.PStar <= 0 {
		return fmt.Errorf("%w: PStar=%g", ErrBadConfig, c.PStar)
	}
	if c.Runs < 1 {
		return fmt.Errorf("%w: runs=%d", ErrBadConfig, c.Runs)
	}
	if _, err := c.Sampler.Canon(); err != nil {
		return fmt.Errorf("packetized: %w", err)
	}
	return nil
}

// Point names one result a simulation reads: a packet count and a failure
// semantics.
type Point struct {
	// Packets is the number of equal packets n ≥ 1.
	Packets int
	// ContinueAfterFailure keeps trading the remaining packets after a
	// withdrawal instead of aborting the engagement.
	ContinueAfterFailure bool
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

// Sweep executes the Monte Carlo experiment: it simulates cfg's rate mode
// once and reads every point from the same runs. Each run walks the
// packets in sequence: packet k opens at the price where packet k−1
// settled (one full protocol cycle later) and plays the basic game's
// threshold strategies (the price thresholds are amount-invariant); a
// withdrawal aborts the rest unless the point continues after failure.
//
// results[i] is bit-identical to a one-point Sweep of points[i]. Under
// either sampler each draw is a pure function of (seed, run, draw index),
// and no per-packet decision reads the packet count, so the first n
// packets of a longer run are the n-packet run and an abort-on-failure run
// is the continue-after-failure run up to its first failure. draws counts
// the standard normals the simulation drew.
func Sweep(cfg Config, points []Point) (results []Result, draws int, err error) {
	pl, err := newPlan(cfg, points)
	if err != nil {
		return nil, 0, err
	}
	// Each run restarts its draws at run seed sweep.Seed(cfg.Seed, run):
	// the pseudo sampler reseeds the PCG stream, the sobol sampler
	// repositions the slab-fronted source at the run's Sobol point and
	// pseudo tail.
	if mode, _ := cfg.Sampler.Canon(); mode != qmc.ModeSobol {
		rng := sweep.NewRand(0)
		return pl.run(rng, func(run int) { rng.Seed(sweep.Seed(cfg.Seed, run)) })
	}
	norm, err := qmc.NewSlabNormals(cfg.Seed)
	if err != nil {
		return nil, 0, fmt.Errorf("packetized: %w", err)
	}
	return pl.run(norm, func(run int) { norm.Reset(run, sweep.Seed(cfg.Seed, run)) })
}

// plan is a validated configuration with its stage strategies solved and
// the points its simulation reads.
type plan struct {
	cfg    Config
	points []Point
	// cycle spans a packet's initiation to the later of the two receipts.
	cycle float64
	// fixed plays every packet at cfg.PStar; quoted at the optimal rate,
	// rescaled to each packet's opening price when quotedViable.
	fixed, quoted core.Strategy
	quotedViable  bool
}

func newPlan(cfg Config, points []Point) (*plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadConfig)
	}
	for _, pt := range points {
		if pt.Packets < 1 {
			return nil, fmt.Errorf("%w: packets=%d", ErrBadConfig, pt.Packets)
		}
	}
	tl, err := timeline.Idealized(cfg.Params.Chains)
	if err != nil {
		return nil, fmt.Errorf("packetized: %w", err)
	}
	pl := &plan{cfg: cfg, points: points, cycle: max(tl.TA, tl.TB)}

	// The stage solves route through the process-wide solve cache: the same
	// parameter set solved by the figures, the scenario batch or another
	// packet count shares one model and its memoized cells.
	m, err := solvecache.SharedModel(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("packetized: %w", err)
	}
	// Fixed-rate strategy solved once; re-quoting reuses scale invariance:
	// the optimal rate and thresholds at price p are the P0-solution scaled
	// by p/P0.
	if pl.fixed, err = m.Strategy(cfg.PStar); err != nil {
		return nil, fmt.Errorf("packetized: %w", err)
	}
	if cfg.Requote {
		if pstar, _, err := m.OptimalRate(); err == nil {
			pl.quotedViable = true
			if pl.quoted, err = m.Strategy(pstar); err != nil {
				return nil, fmt.Errorf("packetized: %w", err)
			}
		} else if !errors.Is(err, core.ErrNotViable) {
			return nil, fmt.Errorf("packetized: %w", err)
		}
	}
	return pl, nil
}

// run is the one per-run loop: reset positions src at the start of each
// run, which walks its packets up to the largest requested count and folds
// into every point's tally, in run order. It stops a run at its first
// failure unless a point continues after failure, and draws the rest of
// the cycle between packets. draws counts the standard normals drawn.
func (pl *plan) run(src gbm.NormalSource, reset func(run int)) (results []Result, draws int, err error) {
	cfg, price0 := pl.cfg, pl.cfg.Params.P0
	tauA, tauB := cfg.Params.Chains.TauA, cfg.Params.Chains.TauB
	maxN, anyContinue := 0, false
	for _, pt := range pl.points {
		maxN = max(maxN, pt.Packets)
		anyContinue = anyContinue || pt.ContinueAfterFailure
	}
	tallies := make([]tally, len(pl.points))
	// done[k] counts the successes among a run's first k packets.
	done := make([]int, maxN+1)
	for run := 0; run < cfg.Runs; run++ {
		reset(run)
		price := price0
		// played counts the packets walked, streak the successes before the
		// first failure.
		played, streak := 0, 0
		for k := 0; k < maxN; k++ {
			// B's region is tested scaled in place (scale 1 at the fixed
			// rate) rather than built as a scaled copy per packet.
			region, scale, cutoff := pl.fixed.BobContT2, 1.0, pl.fixed.AliceCutoffT3
			if cfg.Requote {
				if !pl.quotedViable {
					break
				}
				scale = price / price0
				region, cutoff = pl.quoted.BobContT2, pl.quoted.AliceCutoffT3*scale
			} else if !pl.fixed.AliceInitiates && !cfg.ForceInitiate && k == 0 {
				// A fixed rate outside the feasible band never starts.
				break
			}
			pT2 := cfg.Params.Price.Step(src, price, tauA)
			draws++
			success := region.ContainsScaled(pT2, scale)
			// The branch, not a comparison of prices, says whether the T3
			// step happened: a draw whose exponent rounds to 0 settles at
			// exactly pT2.
			pEnd, elapsed := pT2, tauA
			if success {
				pEnd = cfg.Params.Price.Step(src, pT2, tauB)
				draws++
				elapsed += tauB
				success = pEnd > cutoff
			}
			played = k + 1
			done[played] = done[k]
			if success {
				done[played]++
				if streak == k {
					streak++
				}
			} else if !anyContinue {
				break
			}
			if k == maxN-1 {
				break
			}
			// The next packet opens after the remainder of the cycle.
			if rest := pl.cycle - elapsed; rest > 0 {
				price = cfg.Params.Price.Step(src, pEnd, rest)
				draws++
			} else {
				price = pEnd
			}
		}
		for i, pt := range pl.points {
			d := min(pt.Packets, streak)
			if pt.ContinueAfterFailure {
				d = done[min(pt.Packets, played)]
			}
			tallies[i].add(d, pt.Packets)
		}
	}
	results = make([]Result, len(pl.points))
	for i, pt := range pl.points {
		if results[i], err = tallies[i].result(cfg.Runs, cfg.PStar, pt.Packets); err != nil {
			return nil, 0, err
		}
	}
	return results, draws, nil
}

// tally accumulates one point's runs.
type tally struct {
	full                        int
	fracSum, fracSq, packetsSum float64
}

func (t *tally) add(done, packets int) {
	frac := float64(done) / float64(packets)
	t.fracSum += frac
	t.fracSq += frac * frac
	t.packetsSum += float64(done)
	if done == packets {
		t.full++
	}
}

func (t *tally) result(runs int, pstar float64, packets int) (Result, error) {
	prop, err := stats.NewProportion(t.full, runs)
	if err != nil {
		return Result{}, fmt.Errorf("packetized: %w", err)
	}
	n := float64(runs)
	mean := t.fracSum / n
	variance := t.fracSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Result{
		FullCompletion:   prop,
		ExpectedFraction: mean,
		FractionStdErr:   sqrtOverN(variance, n),
		MeanPacketsDone:  t.packetsSum / n,
		ExposurePerRound: pstar / float64(packets),
	}, nil
}

func sqrtOverN(variance, n float64) float64 {
	if n <= 1 || variance <= 0 {
		return 0
	}
	return math.Sqrt(variance / n)
}
