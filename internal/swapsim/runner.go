package swapsim

import (
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/chain"
	"repro/internal/gbm"
	"repro/internal/htlc"
	"repro/internal/mc"
	"repro/internal/oracle"
	"repro/internal/qmc"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/timeline"
)

// balanceScale sizes the agents' funding relative to what the swap needs.
const balanceScale = 2

// secretStreamSalt decorrelates the secret-byte stream from the price
// stream: both are reseeded per path from the same path seed, the price
// source directly, the secret reader with the seed XORed with an arbitrary
// constant — a different generator on a different seed.
const secretStreamSalt = 0x5eC2e7B17e50F

// Runner executes protocol paths with a preallocated simulation stack —
// scheduler, both chains, price feed, agents and (with collateral) the
// Oracle are built once and reset between paths instead of reallocated.
// It implements mc.Runner for the streaming Monte Carlo engine.
//
// A Runner is not safe for concurrent use: the engine gives each worker
// slot its own. RunOutcome(seed) is a pure function of seed — resetting
// restores exactly the state a fresh stack would have, so a reused Runner
// reproduces the outcomes of the one-shot Run path for path.
type Runner struct {
	cfg Config
	tl  timeline.Timeline

	sched  *sim.Scheduler
	chainA *chain.Chain
	chainB *chain.Chain
	// rng drives the price path: the PCG stream reseeded in O(1) with
	// each path's seed.
	rng *sweep.Rand
	// secrets is the preallocated reseedable splitmix64 source behind
	// Alice's per-path preimages (deterministic, allocation- and
	// syscall-free; secret bytes never influence an outcome).
	secrets *sweep.SplitMix
	// norm is the slab-fronted normal source the feed draws from in sobol
	// mode (nil in pseudo mode, where the feed holds rng directly).
	norm  *qmc.SlabNormals
	feed  *agent.PriceFeed
	alice *agent.Alice
	bob   *agent.Bob
	orc   *oracle.Oracle

	// hasher hashes the path's secret at Alice's draw and checks both
	// chains' claims against it, so a path computes one SHA-256.
	hasher *htlc.Hasher
	// events counts the scheduler events fired over every path run.
	events int

	fundAliceA, fundBobB, fundBobA float64

	// out is the last path's outcome; aliceLog and bobLog are its
	// per-path decision scratch, reused across paths, which out (and the
	// copy RunOutcome returns) aliases.
	out              Outcome
	aliceLog, bobLog []agent.Decision
}

// NewRunner validates the configuration and preallocates the simulation
// stack. cfg.Seed is ignored; each RunOutcome call takes its own seed.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	if cfg.Strategy.PStar <= 0 {
		return nil, fmt.Errorf("%w: strategy PStar=%g", ErrBadConfig, cfg.Strategy.PStar)
	}
	if cfg.Collateral < 0 || math.IsNaN(cfg.Collateral) {
		return nil, fmt.Errorf("%w: collateral %g", ErrBadConfig, cfg.Collateral)
	}
	mode, err := cfg.Sampler.Canon()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	r := &Runner{cfg: cfg, hasher: &htlc.Hasher{}}

	if r.tl, err = timeline.Idealized(cfg.Params.Chains); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	r.sched = sim.NewScheduler()
	if r.chainA, err = chain.New(chain.Config{
		Name: "chain_a", Asset: "TokenA",
		Tau: cfg.Params.Chains.TauA, Eps: 0, Hasher: r.hasher,
	}, r.sched); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	if r.chainB, err = chain.New(chain.Config{
		Name: "chain_b", Asset: "TokenB",
		Tau: cfg.Params.Chains.TauB, Eps: cfg.Params.Chains.EpsB, Hasher: r.hasher,
	}, r.sched); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}

	// Funding: A needs P* Token_a (+ collateral), B needs 1 Token_b and
	// collateral in Token_a.
	r.fundAliceA = balanceScale * (cfg.Strategy.PStar + cfg.Collateral)
	r.fundBobB = balanceScale * 1
	r.fundBobA = balanceScale * cfg.Collateral

	r.rng = sweep.NewRand(cfg.Seed)
	r.secrets = sweep.NewSplitMix(cfg.Seed ^ secretStreamSalt)
	// Pseudo mode hands the feed the PCG stream itself, while sobol mode
	// interposes the slab-fronted source.
	var feedSrc gbm.NormalSource = r.rng
	if mode == qmc.ModeSobol {
		if r.norm, err = qmc.NewSlabNormals(cfg.Seed); err != nil {
			return nil, fmt.Errorf("swapsim: %w", err)
		}
		feedSrc = r.norm
	}
	if r.feed, err = agent.NewPriceFeed(cfg.Params.Price, cfg.Params.P0, feedSrc); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	env := agent.Env{Sched: r.sched, ChainA: r.chainA, ChainB: r.chainB, Feed: r.feed, Timeline: r.tl, Hasher: r.hasher}
	if r.alice, err = agent.NewAlice(env, AliceAccount, BobAccount, cfg.Strategy, 1, r.secrets); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	if r.bob, err = agent.NewBob(env, BobAccount, AliceAccount, cfg.Strategy, 1); err != nil {
		return nil, fmt.Errorf("swapsim: %w", err)
	}
	if cfg.Collateral > 0 {
		if r.orc, err = oracle.New(r.sched, r.chainA, r.chainB, r.tl, cfg.Collateral, AliceAccount, BobAccount); err != nil {
			return nil, fmt.Errorf("swapsim: %w", err)
		}
	}
	return r, nil
}

// RunOutcome executes one path seeded with seed, resetting the
// preallocated stack first, and classifies the outcome. It is the
// index-0 case of RunOutcomeIndexed — identical to it in pseudo mode,
// where the index is immaterial.
func (r *Runner) RunOutcome(seed int64) (Outcome, error) {
	return r.RunOutcomeIndexed(0, seed)
}

// RunOutcomeIndexed executes the path at global stream index with the
// given seed, applying the runner's sampler mode: sobol paths draw the
// leading increments from point SobolPoint(index) of replicate
// SobolReplicate(index)'s scrambled sequence, falling back to the seeded
// pseudo stream past qmc.MaxDim draws. In pseudo mode the index is
// ignored and the path draws the PCG stream of seed.
// The returned Outcome's decision logs alias scratch buffers that the
// next run overwrites; callers that keep a path's log must copy it.
func (r *Runner) RunOutcomeIndexed(index int, seed int64) (Outcome, error) {
	if err := r.run(index, seed); err != nil {
		return Outcome{}, err
	}
	return r.out, nil
}

// Hashes returns the SHA-256 computations of every path the runner ran.
func (r *Runner) Hashes() int { return r.hasher.Hashes() }

// Events returns the scheduler events fired over every path the runner
// ran.
func (r *Runner) Events() int { return r.events }

// run executes the path at index with seed into r.out (see
// RunOutcomeIndexed).
func (r *Runner) run(index int, seed int64) error {
	if r.norm != nil {
		r.norm.Reset(index, seed)
	}
	// The reset sequence replays the construction order of a fresh stack:
	// scheduler and chains first, then halt windows, funding, price path,
	// agents, and the oracle's deposits — so every per-path observable
	// (balances, observers, pending events) matches a from-scratch run.
	r.sched.Reset()
	r.chainA.Reset()
	r.chainB.Reset()
	if err := armHalt(r.sched, r.chainA, &r.cfg.HaltA); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	if err := armHalt(r.sched, r.chainB, &r.cfg.HaltB); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	if err := r.chainA.Mint(AliceAccount, r.fundAliceA); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	if err := r.chainB.Mint(BobAccount, r.fundBobB); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	if r.fundBobA > 0 {
		if err := r.chainA.Mint(BobAccount, r.fundBobA); err != nil {
			return fmt.Errorf("swapsim: %w", err)
		}
	}
	r.rng.Seed(seed)
	r.secrets.Seed(seed ^ secretStreamSalt)
	if err := r.feed.Reset(r.cfg.Params.P0); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	r.alice.Reset()
	r.bob.Reset()
	if r.orc != nil {
		r.orc.Reset()
		if err := r.orc.CollectDeposits(); err != nil {
			return fmt.Errorf("swapsim: %w", err)
		}
	}

	balA0Alice := r.chainA.Balance(AliceAccount)
	balA0Bob := r.chainA.Balance(BobAccount)
	balB0Alice := r.chainB.Balance(AliceAccount)
	balB0Bob := r.chainB.Balance(BobAccount)

	if err := r.alice.Start(); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	if err := r.bob.Start(); err != nil {
		return fmt.Errorf("swapsim: %w", err)
	}
	r.events += r.sched.Run()

	r.aliceLog = r.alice.AppendDecisions(r.aliceLog[:0])
	r.bobLog = r.bob.AppendDecisions(r.bobLog[:0])
	out := &r.out
	*out = Outcome{
		EndTime:        r.sched.Now(),
		PT2:            math.NaN(),
		PT3:            math.NaN(),
		AliceDecisions: r.aliceLog,
		BobDecisions:   r.bobLog,
	}
	out.AliceDeltaA = r.chainA.Balance(AliceAccount) - balA0Alice
	out.AliceDeltaB = r.chainB.Balance(AliceAccount) - balB0Alice
	out.BobDeltaA = r.chainA.Balance(BobAccount) - balA0Bob
	out.BobDeltaB = r.chainB.Balance(BobAccount) - balB0Bob
	if r.cfg.Collateral > 0 {
		// Everything paid out of the oracle escrow is collateral flow; net
		// it out of the chain-a deltas so Table I comparisons stay clean.
		// Deposits were debited before the balances were captured, so an
		// agent who recovers their deposit shows +Q in the raw delta.
		collA := escrowPaidTo(r.chainA, AliceAccount)
		collB := escrowPaidTo(r.chainA, BobAccount)
		out.CollateralDeltaAlice = collA - r.cfg.Collateral
		out.CollateralDeltaBob = collB - r.cfg.Collateral
		out.AliceDeltaA -= collA
		out.BobDeltaA -= collB
	}

	for _, d := range out.AliceDecisions {
		if d.Stage == "t3" && d.Price > 0 {
			out.PT3 = d.Price
		}
	}
	for _, d := range out.BobDecisions {
		if d.Stage == "t2" && d.Price > 0 {
			out.PT2 = d.Price
		}
	}

	out.Stage, out.Success, out.Atomic = classify(&r.cfg, out)
	return nil
}

// RunPath implements mc.Runner: one reused-state path, reduced to the
// engine's streaming aggregate.
func (r *Runner) RunPath(index int, seed int64) (mc.Path, error) {
	if err := r.run(index, seed); err != nil {
		return mc.Path{}, err
	}
	out := &r.out
	return mc.Path{
		Success:  out.Success,
		Atomic:   out.Atomic,
		Stage:    string(out.Stage),
		Duration: out.EndTime,
	}, nil
}
