// Package oracle implements the trusted collateral escrow of §IV.A: before
// the swap both agents deposit Q Token_a with a smart contract on Chain_a;
// an Oracle that observes both chains releases each deposit when the owner
// has fulfilled their obligations and forfeits it to the counterparty on a
// stop. The paper notes no such Oracle service exists in production
// ("this setup is theoretical"); here it is an omniscient observer of the
// simulated ledgers, applying §IV.A's rules verbatim:
//
//   - t3 (B's lock deadline): B's HTLC confirmed on Chain_b → release B's
//     deposit (received at t3+τa). B stopped → both deposits, 2Q, to A.
//   - t4 (A's reveal deadline, t3+εb): secret visible in Chain_b's mempool →
//     release A's deposit (received at t4+τa). A stopped → her deposit to B.
//   - A never initiated: both deposits returned at t2.
package oracle

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/htlc"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// Errors returned by the oracle.
var (
	// ErrBadConfig reports invalid construction parameters.
	ErrBadConfig = errors.New("oracle: invalid configuration")
	// ErrDeposit reports a failed deposit collection.
	ErrDeposit = errors.New("oracle: deposit failed")
)

// EscrowAccount is the Chain_a account holding the deposits.
const EscrowAccount = "oracle-escrow"

// Oracle watches both chains and settles the collateral.
type Oracle struct {
	sched  *sim.Scheduler
	chainA *chain.Chain
	chainB *chain.Chain
	tl     timeline.Timeline
	q      float64
	alice  string
	bob    string

	secretSeenAt float64 // 0 = not seen
	settledA     bool
	settledB     bool

	// Built once so per-path re-arming captures no closures (the chains'
	// observer lists are cleared on every reset).
	onSecretFn    chain.SecretObserver
	aliceLivePred func(*htlc.Contract) bool
	bobLivePred   func(*htlc.Contract) bool
}

// Scheduler-call adapters (see sim.Scheduler.ScheduleCall): package-level
// functions so arming the three settlement checks allocates nothing.
func checkInitiationCall(o, _ any)  { o.(*Oracle).checkInitiation() }
func checkBobLockCall(o, _ any)     { o.(*Oracle).checkBobLock() }
func checkAliceRevealCall(o, _ any) { o.(*Oracle).checkAliceReveal() }

// New creates the oracle. q is the per-agent deposit in Token_a.
func New(sched *sim.Scheduler, chainA, chainB *chain.Chain, tl timeline.Timeline, q float64, alice, bob string) (*Oracle, error) {
	switch {
	case sched == nil || chainA == nil || chainB == nil:
		return nil, fmt.Errorf("%w: nil component", ErrBadConfig)
	case q <= 0:
		return nil, fmt.Errorf("%w: deposit q=%g must be > 0", ErrBadConfig, q)
	case alice == "" || bob == "" || alice == bob:
		return nil, fmt.Errorf("%w: parties %q/%q", ErrBadConfig, alice, bob)
	}
	o := &Oracle{
		sched:  sched,
		chainA: chainA,
		chainB: chainB,
		tl:     tl,
		q:      q,
		alice:  alice,
		bob:    bob,
	}
	o.onSecretFn = func(contractID string, secret htlc.Secret) {
		if o.secretSeenAt == 0 {
			o.secretSeenAt = o.sched.Now()
		}
	}
	o.aliceLivePred = func(c *htlc.Contract) bool { return c.Recipient == o.bob }
	o.bobLivePred = func(c *htlc.Contract) bool { return c.Recipient == o.alice }
	return o, nil
}

// Reset clears the oracle's per-run settlement state (secret sighting,
// settlement flags) so it can be re-armed with CollectDeposits on a reset
// chain pair.
func (o *Oracle) Reset() {
	o.secretSeenAt = 0
	o.settledA, o.settledB = false, false
}

// CollectDeposits debits Q from each agent into the escrow account
// immediately (the paper's assumption 1: deposits are in place before the
// swap starts) and arms the settlement checks.
func (o *Oracle) CollectDeposits() error {
	for _, acct := range []string{o.alice, o.bob} {
		if o.chainA.Balance(acct) < o.q {
			return fmt.Errorf("%w: %s has %g, needs %g", ErrDeposit, acct, o.chainA.Balance(acct), o.q)
		}
	}
	// Deposits are modelled as instantaneous at t0: the smart contract
	// already holds the allowance (§IV.A assumption 1).
	if err := o.debit(o.alice); err != nil {
		return err
	}
	if err := o.debit(o.bob); err != nil {
		return err
	}
	o.chainB.WatchSecrets(o.onSecretFn)
	if err := o.sched.ScheduleCall(o.tl.T2, sim.PriorityDefault, checkInitiationCall, o, nil); err != nil {
		return fmt.Errorf("oracle: arming t2 check: %w", err)
	}
	if err := o.sched.ScheduleCall(o.tl.T3, sim.PriorityDefault, checkBobLockCall, o, nil); err != nil {
		return fmt.Errorf("oracle: arming t3 check: %w", err)
	}
	if err := o.sched.ScheduleCall(o.tl.T4, sim.PriorityDefault, checkAliceRevealCall, o, nil); err != nil {
		return fmt.Errorf("oracle: arming t4 check: %w", err)
	}
	return nil
}

func (o *Oracle) debit(acct string) error {
	// Direct balance manipulation models the pre-approved allowance pull;
	// Mint(-) is not available, so transfer instantly via the chain's
	// bookkeeping primitives.
	if o.chainA.Balance(acct) < o.q {
		return fmt.Errorf("%w: %s", ErrDeposit, acct)
	}
	if err := o.chainA.Mint(EscrowAccount, o.q); err != nil {
		return fmt.Errorf("oracle: escrow credit: %w", err)
	}
	if err := o.chainA.Burn(acct, o.q); err != nil {
		return fmt.Errorf("oracle: deposit debit: %w", err)
	}
	return nil
}

// release pays amount from escrow to acct via an on-chain transfer, which
// confirms τa later — matching the paper's receipt delays (t3+τa, t4+τa).
// A failed submission leaves the deposit in escrow.
func (o *Oracle) release(acct string, amount float64) {
	if amount <= 0 {
		return
	}
	_, _ = o.chainA.SubmitTransfer(EscrowAccount, acct, amount)
}

// aliceInitiated reports whether Alice's HTLC is live on Chain_a.
func (o *Oracle) aliceInitiated() bool {
	_, ok := o.chainA.FindContract(o.aliceLivePred)
	return ok
}

// bobLocked reports whether Bob's HTLC is live on Chain_b.
func (o *Oracle) bobLocked() bool {
	_, ok := o.chainB.FindContract(o.bobLivePred)
	return ok
}

// checkInitiation returns both deposits if the swap never started
// (Eqs. 38–39: on a t1 stop each agent keeps token and deposit).
func (o *Oracle) checkInitiation() {
	if o.aliceInitiated() {
		return
	}
	o.settledA, o.settledB = true, true
	o.release(o.alice, o.q)
	o.release(o.bob, o.q)
}

// checkBobLock settles B's deposit at t3: released if he locked, forfeited
// to A (together with A's own deposit exposure staying armed) otherwise.
func (o *Oracle) checkBobLock() {
	if o.settledB {
		return
	}
	o.settledB = true
	if o.bobLocked() {
		o.release(o.bob, o.q)
		return
	}
	// B stopped at t2: both deposits to A (§IV.A.3 stop branch).
	o.settledA = true
	o.release(o.alice, 2*o.q)
}

// checkAliceReveal settles A's deposit at t4 = t3+εb: released if the
// secret is visible in Chain_b's mempool, forfeited to B otherwise.
func (o *Oracle) checkAliceReveal() {
	if o.settledA {
		return
	}
	o.settledA = true
	if o.secretSeenAt > 0 && o.secretSeenAt <= o.tl.T4 {
		o.release(o.alice, o.q)
		return
	}
	o.release(o.bob, o.q)
}
