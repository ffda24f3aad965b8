// Package swapsim executes complete atomic swaps on the simulated ledgers:
// it wires together the event scheduler, the two chains, the GBM price feed,
// the strategy-driven agents and (optionally) the collateral Oracle, runs
// the protocol to quiescence, and classifies the outcome. Its Monte Carlo
// driver estimates the empirical success rate, which the tests and
// EXPERIMENTS.md compare against the analytic SR of internal/core — the
// repository's end-to-end validation of the paper's central quantity.
package swapsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/oracle"
	"repro/internal/qmc"
	"repro/internal/sim"
	"repro/internal/utility"
)

// Errors returned by the simulator.
var (
	// ErrBadConfig reports invalid run configuration.
	ErrBadConfig = errors.New("swapsim: invalid configuration")
)

// Account names used by the simulator.
const (
	// AliceAccount is agent A's address on both chains.
	AliceAccount = "alice"
	// BobAccount is agent B's address on both chains.
	BobAccount = "bob"
)

// Stage classifies where the protocol ended.
type Stage string

// Protocol end stages.
const (
	// StageNotInitiated: A stopped at t1; nothing happened on-chain.
	StageNotInitiated Stage = "t1-stop"
	// StageBobStopped: B stopped at t2; A refunded at t8.
	StageBobStopped Stage = "t2-stop"
	// StageAliceStopped: A stopped at t3; both refunded.
	StageAliceStopped Stage = "t3-stop"
	// StageCompleted: both claims confirmed; assets swapped per Table I.
	StageCompleted Stage = "completed"
	// StageViolated: a non-atomic outcome (one side lost assets), possible
	// only under failure injection.
	StageViolated Stage = "atomicity-violated"
	// StageExpired: both sides unwound even though A revealed — a claim
	// missed its expiry (crash failures without a profiteering claimant).
	StageExpired Stage = "expired-unwound"
)

// Config parameterises a single protocol run.
type Config struct {
	// Params is the market/preference configuration (Table III defaults).
	Params utility.Params
	// Strategy holds the agents' thresholds (from internal/core solvers, or
	// the honest/adversarial presets in internal/agent).
	Strategy core.Strategy
	// Collateral is the per-agent deposit Q; zero plays the basic game.
	Collateral float64
	// Seed drives the price path (the only randomness in a run).
	Seed int64
	// HaltA and HaltB inject crash failures on the respective chain: from
	// HaltWindow.From, the chain confirms nothing until HaltWindow.Until.
	// A zero window means no failure.
	HaltA, HaltB HaltWindow
	// Sampler selects how the price increments are drawn (see
	// internal/qmc). The zero value is pseudo — the historical stream every
	// committed golden pins byte-for-byte. Sobol mode changes only the
	// increments' joint distribution across paths; each path's marginal
	// law is unchanged.
	Sampler qmc.Mode
}

// Outcome reports a finished run.
type Outcome struct {
	// Stage classifies the end state.
	Stage Stage
	// Success reports a completed swap (Stage == StageCompleted).
	Success bool
	// Atomic reports whether the outcome was all-or-nothing.
	Atomic bool
	// AliceDeltaA/B and BobDeltaA/B are net balance changes per chain,
	// inclusive of escrows, exclusive of collateral.
	AliceDeltaA, AliceDeltaB, BobDeltaA, BobDeltaB float64
	// CollateralDeltaAlice/Bob are net collateral gains (+) or losses (−).
	CollateralDeltaAlice, CollateralDeltaBob float64
	// PT2 and PT3 are the prices observed at the decision points
	// (NaN when the stage was never reached).
	PT2, PT3 float64
	// EndTime is the simulated time when the last event fired.
	EndTime float64
	// AliceDecisions and BobDecisions are the agents' decision logs.
	AliceDecisions, BobDecisions []agent.Decision
}

// Run executes one swap and classifies the outcome. It builds a one-shot
// Runner, so a single run and a Monte Carlo path with the same seed are
// the same computation.
func Run(cfg Config) (Outcome, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Outcome{}, err
	}
	return r.RunOutcome(cfg.Seed)
}

// HaltWindow describes a crash-failure injection: the chain stops
// confirming at From and recovers at Until.
type HaltWindow struct {
	// From is when the crash begins.
	From float64
	// Until is when the chain recovers. Zero disables the window.
	Until float64
}

// haltCall is armHalt's scheduler-call adapter (see
// sim.Scheduler.ScheduleCall): it starts the window's crash on the chain.
func haltCall(c, w any) { c.(*chain.Chain).Halt(w.(*HaltWindow).Until) }

// armHalt schedules a crash window on a chain. The window is passed by
// pointer so scheduling it boxes nothing; it must outlive the run.
func armHalt(sched *sim.Scheduler, c *chain.Chain, w *HaltWindow) error {
	if w.Until <= 0 {
		return nil
	}
	if w.Until <= w.From {
		return fmt.Errorf("%w: halt window %+v", ErrBadConfig, *w)
	}
	return sched.ScheduleCall(w.From, sim.PriorityDefault, haltCall, c, w)
}

// escrowPaidTo sums confirmed escrow transfers to an account, iterating
// in place (this runs twice per collateral Monte Carlo path).
func escrowPaidTo(c *chain.Chain, account string) float64 {
	var sum float64
	c.EachTransaction(func(tx *chain.Tx) bool {
		if tx.Kind == chain.TxTransfer && tx.Status == chain.TxConfirmed {
			from, to, amt := tx.Parties()
			if from == oracle.EscrowAccount && to == account {
				sum += amt
			}
		}
		return true
	})
	return sum
}

// classify determines the end stage and atomicity from balance deltas.
func classify(cfg *Config, out *Outcome) (Stage, bool, bool) {
	pstar := cfg.Strategy.PStar
	eq := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	swapped := eq(out.AliceDeltaA, -pstar) && eq(out.AliceDeltaB, 1) &&
		eq(out.BobDeltaA, pstar) && eq(out.BobDeltaB, -1)
	unwound := eq(out.AliceDeltaA, 0) && eq(out.AliceDeltaB, 0) &&
		eq(out.BobDeltaA, 0) && eq(out.BobDeltaB, 0)

	switch {
	case swapped:
		return StageCompleted, true, true
	case unwound:
		return failStage(out), false, true
	default:
		return StageViolated, false, false
	}
}

// failStage reads the decision logs to name the first stop.
func failStage(out *Outcome) Stage {
	for _, d := range out.AliceDecisions {
		if d.Stage == "t1" && d.Action == core.Stop {
			return StageNotInitiated
		}
	}
	for _, d := range out.BobDecisions {
		if d.Stage == "t2" && d.Action == core.Stop {
			return StageBobStopped
		}
	}
	for _, d := range out.AliceDecisions {
		if d.Stage == "t3" && d.Action == core.Cont {
			// A revealed yet the swap unwound: claims expired under injected
			// failures without anyone profiting.
			return StageExpired
		}
	}
	return StageAliceStopped
}

// MCConfig parameterises a Monte Carlo estimate.
type MCConfig struct {
	// Config is the per-run configuration; run i is seeded with
	// sweep.Seed(Seed, i), a decorrelated stream per run.
	Config
	// Runs is the number of independent protocol executions in fixed-N
	// mode, and the hard cap in adaptive mode.
	Runs int
	// Workers bounds concurrency; 0 uses all CPUs (see internal/sweep).
	// The worker count never affects the result.
	Workers int
	// CIWidth, when > 0, enables adaptive precision: sampling stops at the
	// first chunk boundary where the Wilson 95% half-width of the success
	// rate is <= CIWidth, capped at Runs.
	CIWidth float64
	// OnProgress, when non-nil, receives the engine's merged-prefix
	// snapshots in chunk order (see mc.Config.OnProgress) — the stream the
	// RPC daemon's swap.simulate subscription forwards to clients.
	OnProgress func(mc.Progress)
}

// MonteCarlo estimates the success rate through the streaming engine of
// internal/mc: chunked execution over the sweep worker pool with reusable
// per-worker Runners, path i seeded with sweep.Seed(Seed, i), and chunk
// aggregates merged in chunk order — so the result, including the
// floating-point duration moments, is identical for every worker count.
// With CIWidth == 0 it runs exactly cfg.Runs paths, reproducing the
// legacy fixed-N driver's per-seed outcomes. The result is the engine's:
// Stages is keyed by the end Stage's string and Duration holds the
// completion times in hours.
func MonteCarlo(cfg MCConfig) (mc.Result, error) {
	return MonteCarloCtx(context.Background(), cfg)
}

// MonteCarloCtx is MonteCarlo under a caller context: cancelling ctx stops
// the engine between chunks with ctx's error — the cancellation path of
// the RPC daemon's streaming simulations and their per-request budgets.
func MonteCarloCtx(ctx context.Context, cfg MCConfig) (mc.Result, error) {
	if cfg.Runs <= 0 {
		return mc.Result{}, fmt.Errorf("%w: runs=%d", ErrBadConfig, cfg.Runs)
	}
	res, err := mc.Run(ctx, mc.Config{
		Seed:       cfg.Seed,
		MaxPaths:   cfg.Runs,
		CIWidth:    cfg.CIWidth,
		Workers:    cfg.Workers,
		NewRunner:  func() (mc.Runner, error) { return NewRunner(cfg.Config) },
		Sampler:    cfg.Sampler,
		OnProgress: cfg.OnProgress,
	})
	if err != nil {
		return mc.Result{}, fmt.Errorf("swapsim: %w", err)
	}
	return res, nil
}
