package oracle

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/htlc"
	"repro/internal/sim"
	"repro/internal/timeline"
)

type fixture struct {
	sched  *sim.Scheduler
	chainA *chain.Chain
	chainB *chain.Chain
	tl     timeline.Timeline
	orc    *Oracle
}

func newFixture(t *testing.T, q float64) *fixture {
	t.Helper()
	sched := sim.NewScheduler()
	tl, err := timeline.Idealized(timeline.Chains{TauA: 3, TauB: 4, EpsB: 1})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := chain.New(chain.Config{Name: "chain_a", Asset: "TokenA", Tau: 3, Eps: 0}, sched)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := chain.New(chain.Config{Name: "chain_b", Asset: "TokenB", Tau: 4, Eps: 1}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Mint("alice", 10); err != nil {
		t.Fatal(err)
	}
	if err := ca.Mint("bob", 10); err != nil {
		t.Fatal(err)
	}
	if err := cb.Mint("bob", 2); err != nil {
		t.Fatal(err)
	}
	orc, err := New(sched, ca, cb, tl, q, "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sched: sched, chainA: ca, chainB: cb, tl: tl, orc: orc}
}

// payout is one confirmed transfer out of the escrow account.
type payout struct {
	To     string
	Amount float64
}

// payouts lists chain_a's confirmed escrow transfers in submission order:
// the oracle's settlement decisions as the ledger records them.
func payouts(c *chain.Chain) []payout {
	var out []payout
	c.EachTransaction(func(tx *chain.Tx) bool {
		if tx.Kind == chain.TxTransfer && tx.Status == chain.TxConfirmed {
			if from, to, amt := tx.Parties(); from == EscrowAccount {
				out = append(out, payout{to, amt})
			}
		}
		return true
	})
	return out
}

// wantPayouts fails the test unless the escrow paid exactly want.
func wantPayouts(t *testing.T, c *chain.Chain, want ...payout) {
	t.Helper()
	if got := payouts(c); !reflect.DeepEqual(got, want) {
		t.Errorf("escrow payouts = %v, want %v", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 0.1)
	tests := []struct {
		name string
		make func() (*Oracle, error)
	}{
		{"nilSched", func() (*Oracle, error) { return New(nil, f.chainA, f.chainB, f.tl, 0.1, "a", "b") }},
		{"nilChain", func() (*Oracle, error) { return New(f.sched, nil, f.chainB, f.tl, 0.1, "a", "b") }},
		{"zeroQ", func() (*Oracle, error) { return New(f.sched, f.chainA, f.chainB, f.tl, 0, "a", "b") }},
		{"sameParty", func() (*Oracle, error) { return New(f.sched, f.chainA, f.chainB, f.tl, 0.1, "a", "a") }},
		{"emptyParty", func() (*Oracle, error) { return New(f.sched, f.chainA, f.chainB, f.tl, 0.1, "", "b") }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.make(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestCollectDepositsDebitsBoth(t *testing.T) {
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatalf("CollectDeposits: %v", err)
	}
	if got := f.chainA.Balance("alice"); got != 9.5 {
		t.Errorf("alice balance = %v, want 9.5", got)
	}
	if got := f.chainA.Balance("bob"); got != 9.5 {
		t.Errorf("bob balance = %v, want 9.5", got)
	}
	if got := f.chainA.Balance(EscrowAccount); got != 1.0 {
		t.Errorf("escrow = %v, want 1.0", got)
	}
}

func TestCollectDepositsInsufficientFunds(t *testing.T) {
	f := newFixture(t, 100)
	if err := f.orc.CollectDeposits(); !errors.Is(err, ErrDeposit) {
		t.Errorf("err = %v, want ErrDeposit", err)
	}
}

func TestNoSwapReturnsBothDeposits(t *testing.T) {
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	// Nothing happened on-chain: both deposits returned at t2, received τa
	// later.
	if got := f.chainA.Balance("alice"); got != 10 {
		t.Errorf("alice balance = %v, want 10", got)
	}
	if got := f.chainA.Balance("bob"); got != 10 {
		t.Errorf("bob balance = %v, want 10", got)
	}
	if got := f.chainA.Balance(EscrowAccount); got != 0 {
		t.Errorf("escrow = %v, want 0", got)
	}
}

// runSwap drives the chains through the protocol steps directly (without
// the agent package, to isolate oracle behaviour).
func runSwap(t *testing.T, f *fixture, bobLocks, aliceReveals bool) {
	t.Helper()
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	// t1 = 0: Alice locks on chain_a.
	if _, _, err := f.chainA.SubmitLock("alice", "bob", 2, hash, f.tl.TA); err != nil {
		t.Fatal(err)
	}
	if bobLocks {
		if err := f.sched.ScheduleCall(f.tl.T2, sim.PriorityDefault, func(_, _ any) {
			if _, ctID, err := f.chainB.SubmitLock("bob", "alice", 1, hash, f.tl.TB); err != nil {
				t.Errorf("bob lock: %v", err)
			} else if aliceReveals {
				if err := f.sched.ScheduleCall(f.tl.T3, sim.PriorityDefault, func(_, _ any) {
					if _, err := f.chainB.SubmitClaim(ctID, secret); err != nil {
						t.Errorf("alice claim: %v", err)
					}
				}, nil, nil); err != nil {
					t.Error(err)
				}
			}
		}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.sched.Run()
}

func TestSuccessfulSwapReturnsDeposits(t *testing.T) {
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	runSwap(t, f, true, true)
	// Both fulfilled: each gets their own deposit back.
	// Alice: 10 − 0.5 (deposit) − 2 (locked) + 0.5 (returned) = 8.
	if got := f.chainA.Balance("alice"); got != 8 {
		t.Errorf("alice TokenA = %v, want 8", got)
	}
	// Bob: 10 − 0.5 + 0.5 = 10 … but he also claimed? (no claim in this
	// fixture: Alice revealed, Bob's chain_a claim is out of oracle scope).
	if got := f.chainA.Balance("bob"); got != 10 {
		t.Errorf("bob TokenA = %v, want 10", got)
	}
	if got := f.chainA.Balance(EscrowAccount); got != 0 {
		t.Errorf("escrow = %v, want 0", got)
	}
	// B's deposit is released at t3, A's at t4: each to its owner.
	wantPayouts(t, f.chainA, payout{"bob", 0.5}, payout{"alice", 0.5})
}

func TestBobStopForfeitsDepositToAlice(t *testing.T) {
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	runSwap(t, f, false, false)
	// B never locked: A receives both deposits (2Q = 1.0) at t3+τa. Her own
	// 2 TokenA stay escrowed here because runSwap does not exercise the
	// HTLC refund path (covered by TestRefundsCompleteTheUnwind):
	// 10 − 0.5 (deposit) − 2 (locked) + 1.0 (both deposits) = 8.5.
	if got := f.chainA.Balance("alice"); got != 8.5 {
		t.Errorf("alice TokenA = %v, want 8.5", got)
	}
	if got := f.chainA.Balance("bob"); got != 9.5 {
		t.Errorf("bob TokenA = %v, want 9.5 (deposit forfeited)", got)
	}
	// One transfer of both deposits, 2Q, to A; nothing is left to settle
	// at t4.
	wantPayouts(t, f.chainA, payout{"alice", 1.0})
}

func TestAliceStopForfeitsDepositToBob(t *testing.T) {
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	runSwap(t, f, true, false)
	// B fulfilled (deposit back); A never revealed (deposit to B). Her
	// locked 2 TokenA stay escrowed (no refund step in this fixture):
	// 10 − 0.5 (deposit) − 2 (locked) = 7.5.
	if got := f.chainA.Balance("alice"); got != 7.5 {
		t.Errorf("alice TokenA = %v, want 7.5", got)
	}
	// Bob: 10 − 0.5 + 0.5 (own back) + 0.5 (Alice's) = 10.5; his Token_b is
	// refunded on chain_b at t7.
	if got := f.chainA.Balance("bob"); got != 10.5 {
		t.Errorf("bob TokenA = %v, want 10.5", got)
	}
	// B's own deposit back at t3, then A's forfeited Q to B at t4.
	wantPayouts(t, f.chainA, payout{"bob", 0.5}, payout{"bob", 0.5})
}

func TestRefundsCompleteTheUnwind(t *testing.T) {
	// Companion to TestBobStopForfeits…: Alice's escrowed 2 TokenA are
	// refunded via the HTLC path at t8; schedule that refund explicitly.
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = secret
	_, ctID, err := f.chainA.SubmitLock("alice", "bob", 2, hash, f.tl.TA)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sched.ScheduleCall(f.tl.TA, sim.PriorityDefault, func(_, _ any) {
		if _, err := f.chainA.SubmitRefund(ctID); err != nil {
			t.Errorf("refund: %v", err)
		}
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if got := f.chainA.Balance("alice"); got != 10.5 {
		t.Errorf("alice TokenA = %v, want 10.5 (refund + both deposits)", got)
	}
}

func TestResetReArmsAcrossRuns(t *testing.T) {
	// First run: no swap happens, so both deposits come back at t2.
	f := newFixture(t, 0.5)
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	first := payouts(f.chainA)
	if want := []payout{{"alice", 0.5}, {"bob", 0.5}}; !reflect.DeepEqual(first, want) {
		t.Fatalf("first run paid %v, want %v", first, want)
	}
	aliceAfterFirst := f.chainA.Balance("alice")

	// Reset the whole stack and replay: the reused oracle must settle the
	// second run exactly like the first.
	f.sched.Reset()
	f.chainA.Reset()
	f.chainB.Reset()
	if err := f.chainA.Mint("alice", 10); err != nil {
		t.Fatal(err)
	}
	if err := f.chainA.Mint("bob", 10); err != nil {
		t.Fatal(err)
	}
	f.orc.Reset()
	if err := f.orc.CollectDeposits(); err != nil {
		t.Fatalf("CollectDeposits after reset: %v", err)
	}
	f.sched.Run()
	if got := f.chainA.Balance("alice"); got != aliceAfterFirst {
		t.Errorf("second run left alice with %g, first run %g", got, aliceAfterFirst)
	}
	wantPayouts(t, f.chainA, first...)
}
