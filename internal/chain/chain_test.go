package chain

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/htlc"
	"repro/internal/sim"
)

func newTestChain(t *testing.T) (*Chain, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	c, err := New(Config{Name: "chain_b", Asset: "TokenB", Tau: 4, Eps: 1}, s)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, s
}

func TestNewValidation(t *testing.T) {
	s := sim.NewScheduler()
	tests := []struct {
		name string
		cfg  Config
		s    *sim.Scheduler
	}{
		{"nilScheduler", Config{Name: "c", Asset: "T", Tau: 1}, nil},
		{"emptyName", Config{Asset: "T", Tau: 1}, s},
		{"emptyAsset", Config{Name: "c", Tau: 1}, s},
		{"zeroTau", Config{Name: "c", Asset: "T"}, s},
		{"epsBeyondTau", Config{Name: "c", Asset: "T", Tau: 1, Eps: 2}, s},
		{"negativeEps", Config{Name: "c", Asset: "T", Tau: 1, Eps: -0.1}, s},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg, tt.s); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	c, err := New(Config{Name: "x", Asset: "T", Tau: 2, Eps: 0.5}, s)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if c.Name() != "x" || c.Asset() != "T" || c.Tau() != 2 || c.Eps() != 0.5 {
		t.Error("accessors disagree with config")
	}
}

func TestMintAndBalance(t *testing.T) {
	c, _ := newTestChain(t)
	if err := c.Mint("alice", 10); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if got := c.Balance("alice"); got != 10 {
		t.Errorf("Balance = %v, want 10", got)
	}
	if got := c.Balance("nobody"); got != 0 {
		t.Errorf("unknown account balance = %v, want 0", got)
	}
	// A refused debit of an account that never held funds leaves it at 0.
	if err := c.Burn("nobody", 1); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("burn from unknown account err = %v, want ErrInsufficientFunds", err)
	}
	if got := c.Balance("nobody"); got != 0 {
		t.Errorf("unknown account balance after refused burn = %v, want 0", got)
	}
	if err := c.Mint("", 1); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("empty account err = %v", err)
	}
	if err := c.Mint("a", -1); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("negative amount err = %v", err)
	}
}

func TestTransferConfirmsAfterTau(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("alice", 5); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitTransfer("alice", "bob", 3)
	if err != nil {
		t.Fatalf("SubmitTransfer: %v", err)
	}
	tx, err := c.TxByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Status != TxPending {
		t.Errorf("status before run = %v, want pending", tx.Status)
	}
	s.RunUntil(3.999)
	if c.Balance("bob") != 0 {
		t.Error("transfer applied before confirmation time")
	}
	s.RunUntil(4)
	if c.Balance("bob") != 3 || c.Balance("alice") != 2 {
		t.Errorf("balances after confirm: alice=%v bob=%v", c.Balance("alice"), c.Balance("bob"))
	}
	if tx.Status != TxConfirmed || tx.ConfirmedAt != 4 {
		t.Errorf("tx = %+v, want confirmed at 4", tx)
	}
}

func TestTransferInsufficientFunds(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("alice", 1); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitTransfer("alice", "bob", 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tx, _ := c.TxByID(id)
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrInsufficientFunds) {
		t.Errorf("tx = %+v, want failed with ErrInsufficientFunds", tx)
	}
	if c.Balance("alice") != 1 || c.Balance("bob") != 0 {
		t.Error("failed transfer must not move funds")
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := newTestChain(t)
	if _, err := c.SubmitTransfer("", "b", 1); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.SubmitTransfer("a", "b", 0); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := c.SubmitLock("", "b", 1, htlc.Hash{}, 5); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := c.SubmitLock("a", "b", 1, htlc.Hash{}, 0); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("expiry in past err = %v", err)
	}
	if _, err := c.SubmitClaim("", htlc.Secret("s")); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.SubmitClaim("c", nil); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.SubmitRefund(""); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.TxByID("nope"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Contract("nope"); !errors.Is(err, ErrUnknownContract) {
		t.Errorf("err = %v", err)
	}
}

func TestHTLCLifecycleOnChain(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("bob", 1); err != nil {
		t.Fatal(err)
	}
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ctID, err := c.SubmitLock("bob", "alice", 1, hash, 11)
	if err != nil {
		t.Fatalf("SubmitLock: %v", err)
	}
	s.RunUntil(4) // lock confirms at τ = 4
	ct, err := c.Contract(ctID)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if ct.State() != htlc.Locked {
		t.Fatalf("state %v, want locked", ct.State())
	}
	if c.Balance("bob") != 0 {
		t.Errorf("escrow must debit sender, balance = %v", c.Balance("bob"))
	}

	// Alice claims at t=4; secret visible at 5 (ε=1); confirmed at 8 (τ=4).
	var observed htlc.Secret
	var observedAt float64
	c.WatchSecrets(func(id string, sec htlc.Secret) {
		if id == ctID {
			observed = sec
			observedAt = s.Now()
		}
	})
	if _, err := c.SubmitClaim(ctID, secret); err != nil {
		t.Fatalf("SubmitClaim: %v", err)
	}
	s.RunUntil(5)
	if observed == nil || observedAt != 5 {
		t.Fatalf("secret not observed in mempool at 5 (got at %v)", observedAt)
	}
	if !bytes.Equal(observed, secret) {
		t.Error("observed secret mismatch")
	}
	if ct.State() != htlc.Locked {
		t.Error("claim applied before confirmation")
	}
	s.RunUntil(8)
	if ct.State() != htlc.Claimed {
		t.Fatalf("state %v, want claimed at t=8", ct.State())
	}
	if c.Balance("alice") != 1 {
		t.Errorf("alice balance = %v, want 1", c.Balance("alice"))
	}
}

func TestRefundPath(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("bob", 1); err != nil {
		t.Fatal(err)
	}
	_, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ctID, err := c.SubmitLock("bob", "alice", 1, hash, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(11) // expiry reached, nobody claimed
	if _, err := c.SubmitRefund(ctID); err != nil {
		t.Fatalf("SubmitRefund: %v", err)
	}
	s.Run()
	ct, _ := c.Contract(ctID)
	if ct.State() != htlc.Refunded {
		t.Fatalf("state %v, want refunded", ct.State())
	}
	if c.Balance("bob") != 1 {
		t.Errorf("bob balance = %v, want 1 (refund at t7 = tb + τb)", c.Balance("bob"))
	}
	if s.Now() != 15 {
		t.Errorf("refund confirmed at %v, want 15 (= 11 + τb)", s.Now())
	}
}

func TestClaimFailsAfterExpiry(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("bob", 1); err != nil {
		t.Fatal(err)
	}
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ctID, err := c.SubmitLock("bob", "alice", 1, hash, 6)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(5)
	// Claim submitted at 5 confirms at 9 > expiry 6: must fail.
	id, err := c.SubmitClaim(ctID, secret)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tx, _ := c.TxByID(id)
	if tx.Status != TxFailed || !errors.Is(tx.Err, htlc.ErrExpired) {
		t.Errorf("tx = status %v err %v, want failed/ErrExpired", tx.Status, tx.Err)
	}
	if c.Balance("alice") != 0 {
		t.Error("failed claim must not credit recipient")
	}
}

func TestHaltDelaysConfirmationButNotMempool(t *testing.T) {
	// Crash-failure injection: the chain halts, the claim's secret is still
	// gossiped, and execution resumes only after recovery.
	c, s := newTestChain(t)
	if err := c.Mint("bob", 1); err != nil {
		t.Fatal(err)
	}
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ctID, err := c.SubmitLock("bob", "alice", 1, hash, 30)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(4)

	c.Halt(20)
	if c.HaltedUntil() != 20 {
		t.Errorf("HaltedUntil = %v, want 20", c.HaltedUntil())
	}
	var seenAt float64
	c.WatchSecrets(func(id string, sec htlc.Secret) { seenAt = s.Now() })
	id, err := c.SubmitClaim(ctID, secret)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	if seenAt != 5 {
		t.Errorf("secret seen at %v, want 5 (mempool unaffected by halt)", seenAt)
	}
	tx, _ := c.TxByID(id)
	if tx.Status != TxPending {
		t.Errorf("status during halt = %v, want pending", tx.Status)
	}
	s.Run()
	if tx.Status != TxConfirmed {
		t.Fatalf("status after recovery = %v err=%v, want confirmed", tx.Status, tx.Err)
	}
	if tx.ConfirmedAt != 20 {
		t.Errorf("confirmed at %v, want 20 (halt end)", tx.ConfirmedAt)
	}
	// A shorter subsequent halt must not shrink the window.
	c.Halt(15)
	if c.HaltedUntil() != 20 {
		t.Errorf("Halt(15) shrank window to %v", c.HaltedUntil())
	}
}

func TestTransactionsOrderAndKinds(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTransfer("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	_, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitLock("a", "b", 1, hash, 9); err != nil {
		t.Fatal(err)
	}
	s.Run()
	txs := c.Transactions()
	if len(txs) != 2 {
		t.Fatalf("got %d txs, want 2", len(txs))
	}
	if txs[0].Kind != TxTransfer || txs[1].Kind != TxLock {
		t.Errorf("kinds = %v, %v", txs[0].Kind, txs[1].Kind)
	}
	// Kind and status strings.
	if TxTransfer.String() != "transfer" || TxLock.String() != "lock" ||
		TxClaim.String() != "claim" || TxRefund.String() != "refund" ||
		TxKind(99).String() != "TxKind(99)" {
		t.Error("TxKind.String mismatch")
	}
	if TxPending.String() != "pending" || TxConfirmed.String() != "confirmed" ||
		TxFailed.String() != "failed" || TxStatus(99).String() != "TxStatus(99)" {
		t.Error("TxStatus.String mismatch")
	}
}

func TestClaimUnknownContractFails(t *testing.T) {
	c, s := newTestChain(t)
	id, err := c.SubmitClaim("ghost", htlc.Secret("secret"))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tx, _ := c.TxByID(id)
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrUnknownContract) {
		t.Errorf("tx err = %v, want ErrUnknownContract", tx.Err)
	}
	id2, err := c.SubmitRefund("ghost")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tx2, _ := c.TxByID(id2)
	if tx2.Status != TxFailed || !errors.Is(tx2.Err, ErrUnknownContract) {
		t.Errorf("refund err = %v, want ErrUnknownContract", tx2.Err)
	}
}

func TestLockInsufficientFundsFails(t *testing.T) {
	c, s := newTestChain(t)
	_, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	txID, _, err := c.SubmitLock("pauper", "b", 5, hash, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tx, _ := c.TxByID(txID)
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds", tx.Err)
	}
}

func TestResetClearsAllChainState(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("alice", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTransfer("alice", "bob", 3); err != nil {
		t.Fatal(err)
	}
	notified := 0
	c.WatchSecrets(func(string, htlc.Secret) { notified++ })
	c.Halt(100)
	s.Run()

	s.Reset()
	c.Reset()
	if got := c.Balance("alice"); got != 0 {
		t.Errorf("balance after reset = %g, want 0", got)
	}
	if txs := c.Transactions(); len(txs) != 0 {
		t.Errorf("transactions after reset = %d, want 0", len(txs))
	}
	if c.HaltedUntil() != 0 {
		t.Errorf("halt window survived reset: %g", c.HaltedUntil())
	}
	// The observer list is dropped: a visible claim no longer notifies.
	if err := c.Mint("alice", 5); err != nil {
		t.Fatal(err)
	}
	secret, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitLock("alice", "bob", 2, hash, 50); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	ct, ok := c.FindContract(func(*htlc.Contract) bool { return true })
	if !ok {
		t.Fatal("lock did not confirm after reset")
	}
	if _, err := c.SubmitClaim(ct.ID, secret); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if notified != 0 {
		t.Errorf("pre-reset observer notified %d times after reset", notified)
	}
	// Transaction and contract IDs restart from 1, matching a fresh chain.
	txs := c.Transactions()
	if len(txs) == 0 || txs[0].ID != "chain_b-tx0001" {
		t.Errorf("post-reset tx IDs did not restart: %v", txs[0].ID)
	}
}

// lockAndConfirm submits a lock for amount from alice to bob and runs the
// scheduler until it confirms, returning the contract ID.
func lockAndConfirm(t *testing.T, c *Chain, s *sim.Scheduler, amount float64) string {
	t.Helper()
	_, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, id, err := c.SubmitLock("alice", "bob", amount, hash, s.Now()+50)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + c.Tau())
	if _, err := c.Contract(id); err != nil {
		t.Fatalf("lock %s did not confirm: %v", id, err)
	}
	return id
}

func TestResetForgetsRecycledContracts(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("alice", 10); err != nil {
		t.Fatal(err)
	}
	first := lockAndConfirm(t, c, s, 1)
	second := lockAndConfirm(t, c, s, 2)
	if first == second {
		t.Fatalf("sequential locks share ID %s", first)
	}
	old1, _ := c.Contract(first)
	old2, _ := c.Contract(second)

	s.Reset()
	c.Reset()
	for _, id := range []string{first, second} {
		if _, err := c.Contract(id); !errors.Is(err, ErrUnknownContract) {
			t.Errorf("Contract(%s) after Reset err = %v, want ErrUnknownContract", id, err)
		}
	}
	if _, ok := c.FindContract(func(*htlc.Contract) bool { return true }); ok {
		t.Error("FindContract found a contract after Reset")
	}

	// The next run recycles a pooled contract object under the first ID;
	// the object that carried the second ID stays unreachable by it.
	if err := c.Mint("alice", 10); err != nil {
		t.Fatal(err)
	}
	if id := lockAndConfirm(t, c, s, 3); id != first {
		t.Fatalf("first post-reset lock ID = %s, want %s", id, first)
	}
	ct, _ := c.Contract(first)
	if ct != old1 && ct != old2 {
		t.Error("post-reset lock did not reuse a pooled contract")
	}
	if ct.Amount != 3 {
		t.Errorf("recycled contract amount = %v, want 3", ct.Amount)
	}
	if _, err := c.Contract(second); !errors.Is(err, ErrUnknownContract) {
		t.Errorf("recycled contract found by its old ID %s: err = %v", second, err)
	}
}

func TestReplayedPathRegeneratesIDs(t *testing.T) {
	// path runs a transfer, a lock, a claim on it and a refund attempt,
	// returning every transaction ID and the contract ID in order.
	path := func(c *Chain, s *sim.Scheduler) []string {
		if err := c.Mint("alice", 10); err != nil {
			t.Fatal(err)
		}
		transfer, err := c.SubmitTransfer("alice", "bob", 1)
		if err != nil {
			t.Fatal(err)
		}
		id := lockAndConfirm(t, c, s, 2)
		claim, err := c.SubmitClaim(id, htlc.Secret("not-the-preimage"))
		if err != nil {
			t.Fatal(err)
		}
		refund, err := c.SubmitRefund(id)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		ids := []string{transfer, claim, refund, id}
		for _, tx := range c.Transactions() {
			ids = append(ids, tx.ID)
			if got, err := c.TxByID(tx.ID); err != nil || got != tx {
				t.Errorf("TxByID(%s) = %v, %v", tx.ID, got, err)
			}
		}
		return ids
	}
	c, s := newTestChain(t)
	want := path(c, s)
	for run := 0; run < 3; run++ {
		s.Reset()
		c.Reset()
		got := path(c, s)
		if len(got) != len(want) {
			t.Fatalf("replay %d: %d IDs, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("replay %d: ID %d = %s, want %s", run, i, got[i], want[i])
			}
		}
	}
	if want[3] != "chain_b-htlc0001" || want[0] != "chain_b-tx0001" {
		t.Errorf("fresh IDs = %v", want)
	}
	if _, err := c.TxByID("chain_b-tx0099"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("TxByID of unsubmitted ID err = %v, want ErrUnknownTx", err)
	}
}

// TestReplacedContractReturnsToThePool checks the pool under a replaced
// contract: two locks submitted before either confirms share an ID, and
// the later replaces the earlier. A third lock on the recycled pool must
// get an object of its own, not the one hosted under the shared ID.
func TestReplacedContractReturnsToThePool(t *testing.T) {
	c, s := newTestChain(t)
	if err := c.Mint("alice", 100); err != nil {
		t.Fatal(err)
	}
	lockAndConfirm(t, c, s, 1)
	lockAndConfirm(t, c, s, 1)
	s.Reset()
	c.Reset()
	if err := c.Mint("alice", 100); err != nil {
		t.Fatal(err)
	}
	_, hash, err := htlc.NewSecret(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, shared, err := c.SubmitLock("alice", "bob", 2, hash, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, again, err := c.SubmitLock("alice", "bob", 3, hash, 50); err != nil || again != shared {
		t.Fatalf("second pending lock ID = %s, %v; want the shared %s", again, err, shared)
	}
	s.RunUntil(c.Tau())
	third := lockAndConfirm(t, c, s, 4)
	if third == shared {
		t.Fatalf("third lock reused the shared ID %s", shared)
	}
	replaced, err := c.Contract(shared)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.Contract(third)
	if err != nil {
		t.Fatal(err)
	}
	if ct == replaced {
		t.Fatal("the third lock's contract is the object hosted under the shared ID")
	}
	if replaced.Amount != 3 || ct.Amount != 4 {
		t.Errorf("amounts = %v under %s, %v under %s; want 3 and 4", replaced.Amount, shared, ct.Amount, third)
	}
}
