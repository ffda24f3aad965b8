package agent

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// ErrBadAgent reports invalid agent configuration.
var ErrBadAgent = errors.New("agent: invalid configuration")

// Decision records one choice made at a decision point, for post-run
// analysis and tests.
type Decision struct {
	// Stage is the decision point ("t1", "t2", "t3", "t4").
	Stage string
	// Time is the simulated time of the decision.
	Time float64
	// Price is the observed Token_b price (0 when not price-driven).
	Price float64
	// Action is the choice taken.
	Action core.Action
	// Reason explains the choice ("price>cutoff", "counterparty-missing"…).
	Reason string
}

// Env bundles the shared simulation environment the agents act in.
type Env struct {
	// Sched drives simulated time.
	Sched *sim.Scheduler
	// ChainA hosts Token_a; ChainB hosts Token_b.
	ChainA, ChainB *chain.Chain
	// Feed is the shared market price of Token_b in Token_a.
	Feed *PriceFeed
	// Timeline fixes the idealized decision times (Eq. 13).
	Timeline timeline.Timeline
	// Hasher hashes Alice's secret at its draw; the chains' claims share
	// it (chain.Config.Hasher). Nil hashes with htlc.HashOf.
	Hasher *htlc.Hasher
}

func (e Env) validate() error {
	if e.Sched == nil || e.ChainA == nil || e.ChainB == nil || e.Feed == nil {
		return fmt.Errorf("%w: nil environment component", ErrBadAgent)
	}
	return nil
}

// Alice is the swap initiator: she generates the secret, locks P* Token_a
// on Chain_a at t1, and decides at t3 whether to reveal on Chain_b.
type Alice struct {
	// Account is Alice's address on both chains.
	Account string
	// Counterparty is Bob's address.
	Counterparty string
	// Strategy holds the solved thresholds.
	Strategy core.Strategy
	// TokenBAmount is the Token_b quantity expected from Bob (1 in the
	// basic game).
	TokenBAmount float64
	// SecretSource feeds secret generation; nil uses crypto/rand.
	SecretSource io.Reader

	env        Env
	secret     htlc.Secret
	hash       htlc.Hash
	contractA  string // Alice's lock on Chain_a
	contractB  string // Bob's lock on Chain_b, discovered at t3
	claimTxB   string
	decisions  []Decision
	cutoffEval func(p float64) bool

	// secretStore backs the per-path secret so a reused Alice draws every
	// path's preimage into the same buffer; findBobLock is the t3 contract
	// predicate, built once so the per-path search captures no closure.
	secretStore [htlc.SecretSize]byte
	findBobLock func(*htlc.Contract) bool
}

// NewAlice validates and binds an Alice agent to the environment.
func NewAlice(env Env, account, counterparty string, strat core.Strategy, tokenB float64, secretSource io.Reader) (*Alice, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if account == "" || counterparty == "" || account == counterparty {
		return nil, fmt.Errorf("%w: accounts %q/%q", ErrBadAgent, account, counterparty)
	}
	if tokenB <= 0 {
		return nil, fmt.Errorf("%w: tokenB amount %g", ErrBadAgent, tokenB)
	}
	a := &Alice{
		Account:      account,
		Counterparty: counterparty,
		Strategy:     strat,
		TokenBAmount: tokenB,
		SecretSource: secretSource,
		env:          env,
	}
	a.cutoffEval = func(p float64) bool { return p > strat.AliceCutoffT3 }
	a.findBobLock = func(c *htlc.Contract) bool {
		return c.Lock == a.hash &&
			c.Recipient == a.Account &&
			c.State() == htlc.Locked &&
			c.Amount >= a.TokenBAmount &&
			c.Expiry >= a.env.Timeline.TB
	}
	return a, nil
}

// Scheduler-call adapters: package-level functions with the agent passed
// as an interface word, so per-path scheduling allocates neither a closure
// nor a method value (see sim.Scheduler.ScheduleCall).
func aliceT1Call(a, _ any)     { a.(*Alice).actT1() }
func aliceT3Call(a, _ any)     { a.(*Alice).actT3() }
func aliceRefundCall(a, _ any) { a.(*Alice).refund() }
func bobT2Call(b, _ any)       { b.(*Bob).actT2() }
func bobRefundCall(b, _ any)   { b.(*Bob).refund() }

// Reset clears Alice's per-run state (secret, contract bindings, decision
// log) so the agent can be restarted on a reset environment, keeping its
// strategy and the decision-log capacity. Start re-arms the protocol.
func (a *Alice) Reset() {
	a.secret = nil
	a.hash = htlc.Hash{}
	a.contractA, a.contractB, a.claimTxB = "", "", ""
	a.decisions = a.decisions[:0]
}

// Decisions returns the decision log in order.
func (a *Alice) Decisions() []Decision {
	out := make([]Decision, len(a.decisions))
	copy(out, a.decisions)
	return out
}

// AppendDecisions appends the decision log to dst without allocating a
// fresh slice per call — the reusable-state Monte Carlo runner's
// alternative to Decisions.
func (a *Alice) AppendDecisions(dst []Decision) []Decision {
	return append(dst, a.decisions...)
}

// ContractA returns the ID of Alice's lock on Chain_a ("" before t1).
func (a *Alice) ContractA() string { return a.contractA }

// Secret exposes the generated secret (tests only need its existence).
func (a *Alice) Secret() htlc.Secret { return append(htlc.Secret(nil), a.secret...) }

// Start schedules Alice's protocol actions.
func (a *Alice) Start() error {
	return a.env.Sched.ScheduleCall(a.env.Timeline.T1, sim.PriorityDefault, aliceT1Call, a, nil)
}

func (a *Alice) record(stage string, price float64, action core.Action, reason string) {
	a.decisions = append(a.decisions, Decision{
		Stage:  stage,
		Time:   a.env.Sched.Now(),
		Price:  price,
		Action: action,
		Reason: reason,
	})
}

// actT1 initiates the swap when the strategy says so (Eq. 30).
func (a *Alice) actT1() {
	if !a.Strategy.AliceInitiates {
		a.record("t1", 0, core.Stop, "rate-outside-feasible-range")
		return
	}
	hash, err := htlc.FillSecret(a.secretStore[:], a.SecretSource, a.env.Hasher)
	if err != nil {
		a.record("t1", 0, core.Stop, "secret-generation-failed: "+err.Error())
		return
	}
	a.secret, a.hash = a.secretStore[:], hash
	_, ctID, err := a.env.ChainA.SubmitLock(a.Account, a.Counterparty, a.Strategy.PStar, hash, a.env.Timeline.TA)
	if err != nil {
		a.record("t1", 0, core.Stop, "lock-submission-failed: "+err.Error())
		return
	}
	a.contractA = ctID
	a.record("t1", 0, core.Cont, "initiate")
	// t3 decision and the safety refund at expiry.
	if err := a.env.Sched.ScheduleCall(a.env.Timeline.T3, sim.PriorityDefault, aliceT3Call, a, nil); err != nil {
		a.record("t3", 0, core.Stop, "scheduling-failed: "+err.Error())
	}
	if err := a.env.Sched.ScheduleCall(a.env.Timeline.TA, sim.PriorityDefault, aliceRefundCall, a, nil); err != nil {
		a.record("t8", 0, core.Stop, "scheduling-failed: "+err.Error())
	}
}

// actT3 verifies Bob's contract and applies the cut-off rule (Eq. 19).
func (a *Alice) actT3() {
	ct, ok := a.env.ChainB.FindContract(a.findBobLock)
	if !ok {
		a.record("t3", 0, core.Stop, "counterparty-contract-missing")
		return
	}
	a.contractB = ct.ID
	price, err := a.env.Feed.At(a.env.Sched.Now())
	if err != nil {
		a.record("t3", 0, core.Stop, "price-feed-failed: "+err.Error())
		return
	}
	if !a.cutoffEval(price) {
		a.record("t3", price, core.Stop, "price<=cutoff")
		return
	}
	if tx, err := a.env.ChainB.SubmitClaim(a.contractB, a.secret); err != nil {
		a.record("t3", price, core.Stop, "claim-submission-failed: "+err.Error())
	} else {
		a.claimTxB = tx
		a.record("t3", price, core.Cont, "reveal-secret")
	}
}

// refund reclaims Alice's escrow if her contract is still locked at expiry.
func (a *Alice) refund() {
	if reason := retryRefund(a.env.Sched, a.env.ChainA, a.contractA, aliceRefundCall, a); reason != "" {
		a.record("t8", 0, core.Stop, reason)
	}
}

// Bob is the responder: he verifies Alice's lock at t2, decides by the
// continuation region whether to lock 1 Token_b, and claims Token_a the
// moment the secret appears in Chain_b's mempool (t4, §III.E.1).
type Bob struct {
	// Account is Bob's address on both chains.
	Account string
	// Counterparty is Alice's address.
	Counterparty string
	// Strategy holds the solved thresholds.
	Strategy core.Strategy
	// TokenBAmount is the Token_b quantity Bob locks (1 in the basic game).
	TokenBAmount float64

	env       Env
	contractA string // Alice's lock, verified at t2
	contractB string // Bob's own lock
	claimed   bool
	decisions []Decision

	// onSecretFn and findAliceLock are built once at construction so the
	// per-path mempool watch and contract search capture no closure.
	onSecretFn    chain.SecretObserver
	findAliceLock func(*htlc.Contract) bool
}

// NewBob validates and binds a Bob agent to the environment.
func NewBob(env Env, account, counterparty string, strat core.Strategy, tokenB float64) (*Bob, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if account == "" || counterparty == "" || account == counterparty {
		return nil, fmt.Errorf("%w: accounts %q/%q", ErrBadAgent, account, counterparty)
	}
	if tokenB <= 0 {
		return nil, fmt.Errorf("%w: tokenB amount %g", ErrBadAgent, tokenB)
	}
	b := &Bob{
		Account:      account,
		Counterparty: counterparty,
		Strategy:     strat,
		TokenBAmount: tokenB,
		env:          env,
	}
	b.onSecretFn = b.onSecret
	b.findAliceLock = func(c *htlc.Contract) bool {
		return c.Recipient == b.Account &&
			c.State() == htlc.Locked &&
			c.Amount >= b.Strategy.PStar-1e-12 &&
			c.Expiry >= b.env.Timeline.TA-1e-12
	}
	return b, nil
}

// Reset clears Bob's per-run state so the agent can be restarted on a
// reset environment, keeping its strategy and the decision-log capacity.
// Start re-arms the protocol (including the mempool watch, which a chain
// reset drops).
func (b *Bob) Reset() {
	b.contractA, b.contractB = "", ""
	b.claimed = false
	b.decisions = b.decisions[:0]
}

// Decisions returns the decision log in order.
func (b *Bob) Decisions() []Decision {
	out := make([]Decision, len(b.decisions))
	copy(out, b.decisions)
	return out
}

// AppendDecisions appends the decision log to dst without allocating a
// fresh slice per call (see Alice.AppendDecisions).
func (b *Bob) AppendDecisions(dst []Decision) []Decision {
	return append(dst, b.decisions...)
}

// ContractB returns the ID of Bob's lock on Chain_b ("" if he never locked).
func (b *Bob) ContractB() string { return b.contractB }

// Start schedules Bob's protocol actions and mempool watching.
func (b *Bob) Start() error {
	b.env.ChainB.WatchSecrets(b.onSecretFn)
	return b.env.Sched.ScheduleCall(b.env.Timeline.T2, sim.PriorityDefault, bobT2Call, b, nil)
}

func (b *Bob) record(stage string, price float64, action core.Action, reason string) {
	b.decisions = append(b.decisions, Decision{
		Stage:  stage,
		Time:   b.env.Sched.Now(),
		Price:  price,
		Action: action,
		Reason: reason,
	})
}

// actT2 verifies Alice's contract and applies the continuation region
// (Eq. 24).
func (b *Bob) actT2() {
	ct, ok := b.env.ChainA.FindContract(b.findAliceLock)
	if !ok {
		b.record("t2", 0, core.Stop, "initiator-contract-missing")
		return
	}
	b.contractA = ct.ID
	price, err := b.env.Feed.At(b.env.Sched.Now())
	if err != nil {
		b.record("t2", 0, core.Stop, "price-feed-failed: "+err.Error())
		return
	}
	if !b.Strategy.BobContT2.Contains(price) {
		b.record("t2", price, core.Stop, "price-outside-cont-region")
		return
	}
	_, ctID, err := b.env.ChainB.SubmitLock(b.Account, b.Counterparty, b.TokenBAmount, ct.Lock, b.env.Timeline.TB)
	if err != nil {
		b.record("t2", price, core.Stop, "lock-submission-failed: "+err.Error())
		return
	}
	b.contractB = ctID
	b.record("t2", price, core.Cont, "lock-token-b")
	if err := b.env.Sched.ScheduleCall(b.env.Timeline.TB, sim.PriorityDefault, bobRefundCall, b, nil); err != nil {
		b.record("t7", 0, core.Stop, "scheduling-failed: "+err.Error())
	}
}

// onSecret claims Token_a as soon as the preimage is visible (t4): "B
// chooses to continue with certainty" (§III.E.1).
func (b *Bob) onSecret(contractID string, secret htlc.Secret) {
	if b.claimed || contractID != b.contractB || b.contractA == "" {
		return
	}
	b.claimed = true
	if _, err := b.env.ChainA.SubmitClaim(b.contractA, secret); err != nil {
		b.record("t4", 0, core.Stop, "claim-submission-failed: "+err.Error())
		return
	}
	b.record("t4", 0, core.Cont, "claim-with-revealed-secret")
}

// refund reclaims Bob's escrow if his contract is still locked at expiry.
func (b *Bob) refund() {
	if reason := retryRefund(b.env.Sched, b.env.ChainB, b.contractB, bobRefundCall, b); reason != "" {
		b.record("t7", 0, core.Stop, reason)
	}
}

// retryRefund submits a refund for a still-locked contract. When the lock
// has not even executed yet (a halted chain creates the escrow only after
// recovery), it schedules retry(self, nil) — the agent's own refund
// adapter — for the end of the crash window. It returns the failure
// reason to record, or "".
func retryRefund(sched *sim.Scheduler, c *chain.Chain, contractID string, retry func(self, _ any), self any) string {
	if contractID == "" {
		return ""
	}
	ct, err := c.Contract(contractID)
	if err != nil {
		// Lock not yet executed. If the chain is down, check again at
		// recovery; otherwise the lock failed and there is nothing to do.
		if until := c.HaltedUntil(); until > sched.Now() {
			if err := sched.ScheduleCall(until, sim.PriorityDefault, retry, self, nil); err != nil {
				return "refund-retry-scheduling-failed: " + err.Error()
			}
		}
		return ""
	}
	if ct.State() != htlc.Locked {
		return ""
	}
	if _, err := c.SubmitRefund(contractID); err != nil {
		return "refund-submission-failed: " + err.Error()
	}
	return ""
}

// HonestStrategy returns thresholds that always continue: Alice reveals at
// any price and Bob locks at any price — the protocol-following behaviour
// against which rational deviations are measured.
func HonestStrategy(pstar float64) core.Strategy {
	return core.Strategy{
		PStar:          pstar,
		AliceInitiates: true,
		BobContT2:      fullPriceRange(),
		AliceCutoffT3:  0,
	}
}

// WithdrawingAliceStrategy returns thresholds where Alice initiates but
// never reveals the secret (the "free option" abandonment).
func WithdrawingAliceStrategy(pstar float64) core.Strategy {
	return core.Strategy{
		PStar:          pstar,
		AliceInitiates: true,
		BobContT2:      fullPriceRange(),
		AliceCutoffT3:  math.Inf(1),
	}
}

// WithdrawingBobStrategy returns thresholds where Bob never locks,
// leaving Alice to wait for her refund.
func WithdrawingBobStrategy(pstar float64) core.Strategy {
	return core.Strategy{
		PStar:          pstar,
		AliceInitiates: true,
		AliceCutoffT3:  0,
		// BobContT2 left empty: stop at every price.
	}
}

func fullPriceRange() mathx.IntervalSet {
	return mathx.NewIntervalSet(mathx.Interval{Lo: 0, Hi: math.Inf(1)})
}
