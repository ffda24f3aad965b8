// Package repeated implements the repeated-game extension sketched in the
// paper's future work (§V.B: "Our model can also be extended to consider
// repeated games…"). The same two agents trade round after round; the
// reputation component of the success premium α (§III.F.1: α captures "the
// utility of guarding his/her reputation") becomes endogenous: a completed
// swap rebuilds reputation, a withdrawal burns it. Between rounds the
// market price evolves under the GBM, and each round the agents re-quote
// the SR-maximising exchange rate for the prevailing price — the "dynamic
// adjustment" the paper's conclusion recommends.
//
// The stage game is solved exactly each round by internal/core; the round
// outcome is sampled from the solved threshold strategies over the price
// transition. The package thus shows when reputation dynamics sustain
// long-run cooperation and when a withdrawal spiral freezes the market
// (no viable rate ⇒ no trade until reputation recovers).
package repeated

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/memo"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("repeated: invalid configuration")

// Config parameterises a repeated engagement.
type Config struct {
	// Params is the market/preference configuration; the premia are the
	// agents' *initial* reputations.
	Params utility.Params
	// Rounds is the number of swap opportunities.
	Rounds int
	// GapHours is the market time between consecutive opportunities.
	GapHours float64
	// ReputationGain is added to an agent's premium after a completed swap.
	ReputationGain float64
	// ReputationLoss is subtracted from the withdrawing agent's premium
	// after a stop at t2 (B) or t3 (A).
	ReputationLoss float64
	// AlphaMin and AlphaMax clamp the premium. AlphaMax defaults to 1.
	AlphaMin, AlphaMax float64
	// IdleRecovery pulls both premia toward their initial values by this
	// fraction per round in which no swap was initiated — the fading memory
	// of past defections. Zero disables recovery, in which case the premium
	// cap creates a ratchet: at the cap, successes cannot raise reputation
	// further while withdrawals still burn it, so long engagements drift
	// toward a frozen market.
	IdleRecovery float64
	// Seed drives the price path and outcome sampling.
	Seed int64
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("repeated: %w", err)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("%w: rounds=%d", ErrBadConfig, c.Rounds)
	}
	if c.GapHours <= 0 {
		return fmt.Errorf("%w: gap=%g hours", ErrBadConfig, c.GapHours)
	}
	if c.ReputationGain < 0 || c.ReputationLoss < 0 {
		return fmt.Errorf("%w: reputation gain/loss (%g, %g) must be >= 0",
			ErrBadConfig, c.ReputationGain, c.ReputationLoss)
	}
	if c.AlphaMin < 0 || (c.AlphaMax != 0 && c.AlphaMax < c.AlphaMin) {
		return fmt.Errorf("%w: premium bounds [%g, %g]", ErrBadConfig, c.AlphaMin, c.AlphaMax)
	}
	if c.IdleRecovery < 0 || c.IdleRecovery > 1 {
		return fmt.Errorf("%w: idle recovery %g must be in [0, 1]", ErrBadConfig, c.IdleRecovery)
	}
	return nil
}

// Round records one swap opportunity.
type Round struct {
	// Index is the round number (0-based).
	Index int
	// Price is the Token_b price when the round opens.
	Price float64
	// AlphaA and AlphaB are the premia entering the round.
	AlphaA, AlphaB float64
	// Quoted reports whether a viable exchange rate existed.
	Quoted bool
	// PStar is the quoted SR-maximising rate (zero when not quoted).
	PStar float64
	// Initiated, Success report the protocol outcome.
	Initiated, Success bool
	// WithdrewA and WithdrewB mark who walked away mid-protocol.
	WithdrewA, WithdrewB bool
}

// Result aggregates a repeated engagement.
type Result struct {
	// Rounds holds the per-round records.
	Rounds []Round
	// Quotes, Initiations, Successes count round outcomes.
	Quotes, Initiations, Successes int
	// FinalAlphaA and FinalAlphaB are the premia after the last round.
	FinalAlphaA, FinalAlphaB float64
}

// SuccessRate returns successes over initiations (0 when never initiated).
func (r Result) SuccessRate() float64 {
	if r.Initiations == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Initiations)
}

// cachedQuote is a solved stage game at the reference price, reusable at
// any price level through the game's scale invariance: multiplying P0 and
// P* by λ scales every threshold by λ and leaves the success rate and the
// initiation decision unchanged.
type cachedQuote struct {
	viable bool
	// sr is the success rate at the SR-maximising rate; scale invariance
	// makes it price-level independent, so it doubles as the analytic
	// success probability of every re-quoted round.
	sr float64
	// Normalised by the reference price:
	pstarOverP0  float64
	cutoffOverP0 float64
	regionOverP0 mathx.IntervalSet
}

// quoteResult carries a solved quote through the process-wide memo; a
// deterministic solve error is cached alongside (it is a pure function of
// the key, so re-solving could only fail the same way).
type quoteResult struct {
	q   cachedQuote
	err error
}

// quotes is the process-wide quote cache, keyed by the complete quantised
// parameter set of the stage solve. It replaces the per-Play private map:
// concurrent engagements under the sweep pool share one solve per distinct
// premium pair (memo.Map serialises first computes), and a repeated
// trajectory revisiting a premium pair in a later Play hits the cache.
// Values are pure functions of the key, so the cache can never go stale.
// It holds at most maxQuotes quotes and flushes when full.
//
// The stage models are built directly rather than through
// solvecache.SharedModel because they run lighter numerics (GL-32
// quadrature, a 200-panel scan) than the shared default models, and only
// the rescaled quote is retained: the model is dropped once its optimum
// and strategy are read.
var quotes = memo.Map[utility.Params, quoteResult]{Max: maxQuotes}

// maxQuotes bounds the quote cache, above the 151 distinct quotes the
// figure suite solves.
const maxQuotes = 256

// Play runs the repeated engagement. Stage games are solved once per
// distinct premium pair (at the reference price) and rescaled to the
// prevailing price, which keeps thousand-round engagements fast.
func Play(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	alphaMax := cfg.AlphaMax
	if alphaMax == 0 {
		alphaMax = 1
	}
	rng := sweep.NewRand(cfg.Seed)
	price := cfg.Params.P0
	alpha0A := cfg.Params.Alice.Alpha
	alpha0B := cfg.Params.Bob.Alpha
	alphaA, alphaB := alpha0A, alpha0B
	refP := cfg.Params.P0

	res := Result{Rounds: make([]Round, 0, cfg.Rounds)}
	for i := 0; i < cfg.Rounds; i++ {
		round := Round{Index: i, Price: price, AlphaA: alphaA, AlphaB: alphaB}

		quote, err := solveQuote(cfg.Params, refP, alphaA, alphaB)
		if err != nil {
			return Result{}, fmt.Errorf("repeated: round %d: %w", i, err)
		}
		if quote.viable {
			scale := price / refP
			round.Quoted = true
			round.PStar = quote.pstarOverP0 * refP * scale
			res.Quotes++
			// At the SR-maximising rate A always initiates (the optimum
			// lies inside her feasible range).
			round.Initiated = true
			res.Initiations++
			// B's region is tested scaled in place rather than built as a
			// scaled copy per round.
			playRound(rng, cfg.Params, quote.regionOverP0, refP*scale, quote.cutoffOverP0*refP*scale, &round)
		}

		// Reputation dynamics.
		switch {
		case round.Success:
			alphaA = mathx.Clamp(alphaA+cfg.ReputationGain, cfg.AlphaMin, alphaMax)
			alphaB = mathx.Clamp(alphaB+cfg.ReputationGain, cfg.AlphaMin, alphaMax)
			res.Successes++
		case round.WithdrewA:
			alphaA = mathx.Clamp(alphaA-cfg.ReputationLoss, cfg.AlphaMin, alphaMax)
		case round.WithdrewB:
			alphaB = mathx.Clamp(alphaB-cfg.ReputationLoss, cfg.AlphaMin, alphaMax)
		default:
			if cfg.IdleRecovery > 0 && !round.Initiated {
				alphaA += cfg.IdleRecovery * (alpha0A - alphaA)
				alphaB += cfg.IdleRecovery * (alpha0B - alphaB)
			}
		}

		res.Rounds = append(res.Rounds, round)
		// Market moves on between opportunities. A long engagement under
		// negative drift can underflow the float price to exactly 0 — the
		// GBM's absorbing boundary — after which the market stays at 0; the
		// draw is still consumed so the stream stays aligned with
		// trajectories that never absorb.
		z := rng.NormFloat64()
		if price > 0 {
			price = cfg.Params.Price.StepZ(price, cfg.GapHours, z)
		}
	}
	res.FinalAlphaA = alphaA
	res.FinalAlphaB = alphaB
	return res, nil
}

// solveQuote solves (or retrieves) the stage game for a premium pair at the
// reference price. Premia are quantised to 1e-3 — strategy thresholds move
// negligibly below that resolution — and the game is solved *at* the
// quantised premia, so cached and fresh results are always consistent. The
// key is the full quantised parameter set: the process-wide cache is shared
// across engagements and across goroutines.
func solveQuote(params utility.Params, refP, alphaA, alphaB float64) (cachedQuote, error) {
	params.Alice.Alpha = roundKey(alphaA)
	params.Bob.Alpha = roundKey(alphaB)
	params.P0 = refP
	res := quotes.Do(params, func() quoteResult {
		// The lighter scan: repeated-game trajectories visit dozens of
		// premium pairs, and threshold errors far below the premium
		// quantum do not change sampled outcomes.
		m, err := core.New(params, core.WithScanPoints(200))
		if err != nil {
			return quoteResult{err: err}
		}
		pstar, sr, err := m.OptimalRate()
		switch {
		case err == nil:
			strat, err := m.Strategy(pstar)
			if err != nil {
				return quoteResult{err: err}
			}
			return quoteResult{q: cachedQuote{
				viable:       true,
				sr:           sr,
				pstarOverP0:  pstar / refP,
				cutoffOverP0: strat.AliceCutoffT3 / refP,
				regionOverP0: strat.BobContT2.Scale(1 / refP),
			}}
		case errors.Is(err, core.ErrNotViable):
			return quoteResult{}
		default:
			return quoteResult{err: err}
		}
	})
	return res.q, res.err
}

// QuoteAt exposes the quote solver to the variant layer: the SR-maximising
// rate and its success rate for the given premium pair at the scenario's
// reference price. viable is false when no exchange rate sustains the swap
// (core.ErrNotViable), which is an outcome, not an error. By the game's
// scale invariance the returned sr is also the per-round success
// probability of a re-quoted engagement at any price level.
func QuoteAt(params utility.Params, alphaA, alphaB float64) (pstar, sr float64, viable bool, err error) {
	if err := params.Validate(); err != nil {
		return 0, 0, false, fmt.Errorf("repeated: %w", err)
	}
	q, err := solveQuote(params, params.P0, alphaA, alphaB)
	if err != nil {
		return 0, 0, false, fmt.Errorf("repeated: %w", err)
	}
	if !q.viable {
		return 0, 0, false, nil
	}
	return q.pstarOverP0 * params.P0, q.sr, true, nil
}

func roundKey(a float64) float64 {
	const quantum = 1e-3
	return float64(int64(a/quantum+0.5)) * quantum
}

// playRound samples the stage-game outcome from the threshold strategies —
// B continues at t2 inside region scaled by k, A reveals at t3 above
// cutoff — over the price transitions (the same sampling the analytic SR
// of Eq. 31 integrates in closed form).
func playRound(rng *sweep.Rand, params utility.Params, region mathx.IntervalSet, k, cutoff float64, round *Round) {
	// An absorbed (underflowed-to-0) market price stays at 0 through both
	// legs; the draws are still consumed to keep the stream aligned.
	step := func(p, tau float64) float64 {
		z := rng.NormFloat64()
		if p > 0 {
			return params.Price.StepZ(p, tau, z)
		}
		return 0
	}
	pT2 := step(round.Price, params.Chains.TauA)
	if !region.ContainsScaled(pT2, k) {
		round.WithdrewB = true
		return
	}
	pT3 := step(pT2, params.Chains.TauB)
	if pT3 <= cutoff {
		round.WithdrewA = true
		return
	}
	round.Success = true
}

// CooperationSummary reports how often the market stayed open: the fraction
// of rounds with a viable quote, a useful diagnostic for reputation-spiral
// experiments.
func (r Result) CooperationSummary() string {
	n := len(r.Rounds)
	if n == 0 {
		return "no rounds"
	}
	return fmt.Sprintf("%d rounds: %.0f%% quoted, %.0f%% initiated, %.0f%% of initiations succeeded, final α = (%.3f, %.3f)",
		n,
		100*float64(r.Quotes)/float64(n),
		100*float64(r.Initiations)/float64(n),
		100*r.SuccessRate(),
		r.FinalAlphaA, r.FinalAlphaB)
}
