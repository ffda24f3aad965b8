// Package chain simulates a single ledger ("Chain_a" or "Chain_b" of the
// paper) on top of the discrete-event kernel: accounts with balances, a
// mempool in which submitted transactions become discoverable after ε hours
// (Table II's εb), and deterministic confirmation τ hours after submission
// (the paper's Assumption 1 of constant confirmation time). It hosts HTLC
// escrows and supports crash-failure injection (a halted chain keeps its
// mempool visible but confirms nothing), which reproduces the atomicity
// violation scenario discussed by Zakhary et al. and cited in §II.
package chain

import (
	"errors"
	"fmt"

	"repro/internal/htlc"
	"repro/internal/sim"
)

// Errors returned by chain operations.
var (
	// ErrBadConfig reports invalid chain construction parameters.
	ErrBadConfig = errors.New("chain: invalid configuration")
	// ErrUnknownTx reports a lookup of a transaction that was never
	// submitted.
	ErrUnknownTx = errors.New("chain: unknown transaction")
	// ErrUnknownContract reports a lookup of a non-existent contract.
	ErrUnknownContract = errors.New("chain: unknown contract")
	// ErrInsufficientFunds reports a debit beyond the available balance.
	ErrInsufficientFunds = errors.New("chain: insufficient funds")
	// ErrBadSubmission reports invalid transaction parameters at submission.
	ErrBadSubmission = errors.New("chain: invalid submission")
)

// TxKind enumerates the supported transaction types.
type TxKind int

const (
	// TxTransfer moves balance between accounts.
	TxTransfer TxKind = iota + 1
	// TxLock deploys an HTLC escrow.
	TxLock
	// TxClaim settles an HTLC to its recipient with the secret.
	TxClaim
	// TxRefund returns an expired HTLC escrow to its sender.
	TxRefund
)

// String names the transaction kind.
func (k TxKind) String() string {
	switch k {
	case TxTransfer:
		return "transfer"
	case TxLock:
		return "lock"
	case TxClaim:
		return "claim"
	case TxRefund:
		return "refund"
	default:
		return fmt.Sprintf("TxKind(%d)", int(k))
	}
}

// TxStatus is a transaction's lifecycle state.
type TxStatus int

const (
	// TxPending means submitted but not yet executed.
	TxPending TxStatus = iota + 1
	// TxConfirmed means executed successfully.
	TxConfirmed
	// TxFailed means executed and rejected (reason in Tx.Err).
	TxFailed
)

// String names the status.
func (s TxStatus) String() string {
	switch s {
	case TxPending:
		return "pending"
	case TxConfirmed:
		return "confirmed"
	case TxFailed:
		return "failed"
	default:
		return fmt.Sprintf("TxStatus(%d)", int(s))
	}
}

// Tx records a submitted transaction.
type Tx struct {
	// ID is the chain-local transaction identifier.
	ID string
	// Kind is the transaction type.
	Kind TxKind
	// SubmittedAt is the submission time.
	SubmittedAt float64
	// VisibleAt is when the transaction appears in the mempool.
	VisibleAt float64
	// ConfirmedAt is the execution time (set once executed).
	ConfirmedAt float64
	// Status is the lifecycle state.
	Status TxStatus
	// Err is the rejection reason for failed transactions.
	Err error
	// ContractID links HTLC transactions to their contract.
	ContractID string

	from, to string
	amount   float64
	lock     htlc.Hash
	expiry   float64
	secret   htlc.Secret
}

// SecretObserver is notified when a claim transaction carrying a secret
// becomes visible in the mempool — the channel through which B learns the
// preimage at t4 (and through which the collateral Oracle monitors A).
type SecretObserver func(contractID string, secret htlc.Secret)

// Chain is one simulated ledger. Construct with New.
type Chain struct {
	name  string
	asset string
	tau   float64
	eps   float64
	sched *sim.Scheduler
	// hasher checks claims against their locks (nil: htlc.HashOf).
	hasher *htlc.Hasher

	// Ledger state lives in slices scanned linearly (a run touches a few
	// accounts and contracts), so Reset only truncates. Contract n in
	// creation order has ID htlcID(n), transaction n in order txID(n).
	// contracts and order are also the reuse pools of the Monte Carlo hot
	// path: the pointers past their length are recycled objects (zeroed
	// transactions, contracts Init re-arms), and newTx and newContract
	// take the next one before allocating.
	balances    []balance
	contracts   []*htlc.Contract
	order       []*Tx
	haltedUntil float64
	observers   []SecretObserver

	// The deterministic ID strings, cached: a pure function of the chain
	// name and a counter that restarts at every Reset, so each run
	// regenerates the same strings.
	txIDs   []string // txIDs[n-1] = "<name>-tx%04d" for counter n
	htlcIDs []string // "<name>-htlc%04d"
}

// Config holds chain construction parameters.
type Config struct {
	// Name labels the chain ("chain_a").
	Name string
	// Asset is the native token symbol ("TokenA").
	Asset string
	// Tau is the confirmation time in hours (> 0).
	Tau float64
	// Eps is the mempool discoverability delay in hours (0 <= Eps <= Tau).
	Eps float64
	// Hasher hashes claimed preimages; the two chains of one swap share
	// their runner's, so a revealed secret is hashed once for both claims.
	// Nil hashes every claim afresh (htlc.HashOf).
	Hasher *htlc.Hasher
}

// New creates a chain bound to the scheduler.
func New(cfg Config, sched *sim.Scheduler) (*Chain, error) {
	switch {
	case sched == nil:
		return nil, fmt.Errorf("%w: nil scheduler", ErrBadConfig)
	case cfg.Name == "" || cfg.Asset == "":
		return nil, fmt.Errorf("%w: empty name or asset", ErrBadConfig)
	case cfg.Tau <= 0:
		return nil, fmt.Errorf("%w: tau=%g must be > 0", ErrBadConfig, cfg.Tau)
	case cfg.Eps < 0 || cfg.Eps > cfg.Tau:
		return nil, fmt.Errorf("%w: eps=%g must be in [0, tau=%g]", ErrBadConfig, cfg.Eps, cfg.Tau)
	}
	return &Chain{name: cfg.Name, asset: cfg.Asset, tau: cfg.Tau, eps: cfg.Eps, sched: sched, hasher: cfg.Hasher}, nil
}

// balance is one account's available funds.
type balance struct {
	account string
	amount  float64
}

// slot returns the balance slot for account, appending an empty one for
// an account not seen since the last Reset.
func (c *Chain) slot(account string) *float64 {
	for i := range c.balances {
		if c.balances[i].account == account {
			return &c.balances[i].amount
		}
	}
	c.balances = append(c.balances, balance{account: account})
	return &c.balances[len(c.balances)-1].amount
}

// Reset rewinds the chain to its freshly constructed state — no balances,
// contracts, transactions, observers or halt window — while keeping the
// allocated slice capacity for reuse: every transaction is zeroed and,
// with every contract, stays past its slice's length for newTx and
// newContract to recycle. The caller must reset the shared scheduler in
// the same breath: pending events referencing the old run would otherwise
// fire against the cleared state.
func (c *Chain) Reset() {
	c.balances = c.balances[:0]
	for _, tx := range c.order {
		*tx = Tx{secret: tx.secret[:0]}
	}
	c.order = c.order[:0]
	c.contracts = c.contracts[:0]
	c.haltedUntil = 0
	c.observers = c.observers[:0]
}

// newTx returns the zeroed transaction past order's length, or a fresh
// one; submit appends it to order at once, into the slot it came from.
func (c *Chain) newTx() *Tx {
	if n := len(c.order); n < cap(c.order) {
		if tx := c.order[:n+1][n]; tx != nil {
			return tx
		}
	}
	return &Tx{}
}

// newContract returns the recycled contract past contracts' length, or a
// fresh one; the caller re-arms it with Init, and addContract takes it
// into the slot it came from.
func (c *Chain) newContract() *htlc.Contract {
	if n := len(c.contracts); n < cap(c.contracts) {
		if ct := c.contracts[:n+1][n]; ct != nil {
			return ct
		}
	}
	return &htlc.Contract{}
}

// txID returns the cached ID for transaction counter n (1-based),
// formatting it on first use. Counters restart at Reset, so across Monte
// Carlo paths every ID is served from the cache.
func (c *Chain) txID(n int) string {
	for len(c.txIDs) < n {
		c.txIDs = append(c.txIDs, fmt.Sprintf("%s-tx%04d", c.name, len(c.txIDs)+1))
	}
	return c.txIDs[n-1]
}

// htlcID returns the cached contract ID for contract counter n (1-based).
func (c *Chain) htlcID(n int) string {
	for len(c.htlcIDs) < n {
		c.htlcIDs = append(c.htlcIDs, fmt.Sprintf("%s-htlc%04d", c.name, len(c.htlcIDs)+1))
	}
	return c.htlcIDs[n-1]
}

// Name returns the chain's label.
func (c *Chain) Name() string { return c.name }

// Asset returns the native token symbol.
func (c *Chain) Asset() string { return c.asset }

// Tau returns the confirmation time.
func (c *Chain) Tau() float64 { return c.tau }

// Eps returns the mempool discoverability delay.
func (c *Chain) Eps() float64 { return c.eps }

// Mint credits amount to an account outside consensus (test/setup fixture).
func (c *Chain) Mint(account string, amount float64) error {
	if account == "" || amount < 0 {
		return fmt.Errorf("%w: mint %g to %q", ErrBadSubmission, amount, account)
	}
	*c.slot(account) += amount
	return nil
}

// Balance returns an account's available (non-escrowed) balance.
func (c *Chain) Balance(account string) float64 {
	for _, b := range c.balances {
		if b.account == account {
			return b.amount
		}
	}
	return 0
}

// Contract returns a hosted HTLC by ID.
func (c *Chain) Contract(id string) (*htlc.Contract, error) {
	for _, ct := range c.contracts {
		if ct.ID == id {
			return ct, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownContract, id)
}

// TxByID returns a submitted transaction.
func (c *Chain) TxByID(id string) (*Tx, error) {
	for _, tx := range c.order {
		if tx.ID == id {
			return tx, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTx, id)
}

// Transactions returns all transactions in submission order.
func (c *Chain) Transactions() []*Tx { return append([]*Tx(nil), c.order...) }

// EachTransaction calls fn for every transaction in submission order until
// fn returns false — Transactions without the slice allocation, for audit
// passes on the Monte Carlo hot path.
func (c *Chain) EachTransaction(fn func(*Tx) bool) {
	for _, tx := range c.order {
		if !fn(tx) {
			return
		}
	}
}

// WatchSecrets registers an observer for secrets appearing in the mempool.
func (c *Chain) WatchSecrets(obs SecretObserver) {
	if obs != nil {
		c.observers = append(c.observers, obs)
	}
}

// Halt injects a crash failure: no transaction executes before the given
// absolute time. The mempool stays visible (gossip is not consensus), which
// is precisely the condition under which HTLC atomicity can break.
func (c *Chain) Halt(until float64) {
	if until > c.haltedUntil {
		c.haltedUntil = until
	}
}

// HaltedUntil returns the end of the current halt (zero if none).
func (c *Chain) HaltedUntil() float64 { return c.haltedUntil }

// notifyCall and executeCall adapt the chain's event handlers to the
// scheduler's allocation-free calling convention: package-level function
// values with the chain and transaction passed as interface words, so
// scheduling a per-path event captures no closure.
func notifyCall(c, tx any)  { c.(*Chain).notify(tx.(*Tx)) }
func executeCall(c, tx any) { c.(*Chain).execute(tx.(*Tx)) }

// submit registers a transaction and schedules its mempool-visibility and
// execution events.
func (c *Chain) submit(tx *Tx) (string, error) {
	c.order = append(c.order, tx)
	tx.ID = c.txID(len(c.order))
	tx.SubmittedAt = c.sched.Now()
	tx.VisibleAt = tx.SubmittedAt + c.eps
	tx.Status = TxPending

	if tx.Kind == TxClaim {
		if err := c.sched.ScheduleCall(tx.VisibleAt, sim.PriorityMempool, notifyCall, c, tx); err != nil {
			return "", fmt.Errorf("chain %s: scheduling visibility: %w", c.name, err)
		}
	}
	if err := c.sched.ScheduleCall(tx.SubmittedAt+c.tau, sim.PriorityConsensus, executeCall, c, tx); err != nil {
		return "", fmt.Errorf("chain %s: scheduling execution: %w", c.name, err)
	}
	return tx.ID, nil
}

// notify fans a newly visible secret out to the observers. The secret
// slice is the transaction's own buffer: observers must not retain or
// mutate it past the callback (both in-tree observers immediately copy —
// Bob's claim submission into a pooled transaction, the Oracle not at
// all).
func (c *Chain) notify(tx *Tx) {
	for _, obs := range c.observers {
		obs(tx.ContractID, tx.secret)
	}
}

// execute applies a transaction at its confirmation time, deferring while
// the chain is halted.
func (c *Chain) execute(tx *Tx) {
	now := c.sched.Now()
	if now < c.haltedUntil {
		// Crash failure: retry once the chain recovers.
		if err := c.sched.ScheduleCall(c.haltedUntil, sim.PriorityConsensus, executeCall, c, tx); err != nil {
			tx.Status = TxFailed
			tx.Err = err
		}
		return
	}
	if err := c.apply(tx, now); err != nil {
		tx.Status = TxFailed
		tx.Err = err
		return
	}
	tx.Status = TxConfirmed
	tx.ConfirmedAt = now
}

// apply performs the state transition for a transaction.
func (c *Chain) apply(tx *Tx, now float64) error {
	switch tx.Kind {
	case TxTransfer:
		if err := c.debit(tx.from, tx.amount); err != nil {
			return err
		}
		*c.slot(tx.to) += tx.amount
		return nil
	case TxLock:
		if have := c.Balance(tx.from); have < tx.amount {
			return fmt.Errorf("%w: %s has %g, needs %g", ErrInsufficientFunds, tx.from, have, tx.amount)
		}
		ct := c.newContract()
		if err := ct.Init(tx.ContractID, tx.from, tx.to, c.asset, tx.amount, tx.lock, tx.expiry); err != nil {
			return err
		}
		*c.slot(tx.from) -= tx.amount
		c.addContract(ct)
		return nil
	case TxClaim:
		ct, err := c.Contract(tx.ContractID)
		if err != nil {
			return err
		}
		if err := ct.ClaimWith(c.hasher, tx.secret, now); err != nil {
			return err
		}
		*c.slot(ct.Recipient) += ct.Amount
		return nil
	case TxRefund:
		ct, err := c.Contract(tx.ContractID)
		if err != nil {
			return err
		}
		if err := ct.Refund(now); err != nil {
			return err
		}
		*c.slot(ct.Sender) += ct.Amount
		return nil
	default:
		return fmt.Errorf("%w: kind %v", ErrBadSubmission, tx.Kind)
	}
}

// SubmitTransfer submits a balance transfer.
func (c *Chain) SubmitTransfer(from, to string, amount float64) (string, error) {
	if from == "" || to == "" || amount <= 0 {
		return "", fmt.Errorf("%w: transfer %g from %q to %q", ErrBadSubmission, amount, from, to)
	}
	tx := c.newTx()
	tx.Kind, tx.from, tx.to, tx.amount = TxTransfer, from, to, amount
	return c.submit(tx)
}

// SubmitLock submits an HTLC deployment escrowing amount from sender to
// recipient under the hash lock, expiring at the absolute time expiry.
// The contract ID is assigned now so counterparties can reference it before
// confirmation.
func (c *Chain) SubmitLock(sender, recipient string, amount float64, lock htlc.Hash, expiry float64) (txID, contractID string, err error) {
	if sender == "" || recipient == "" || amount <= 0 {
		return "", "", fmt.Errorf("%w: lock %g from %q to %q", ErrBadSubmission, amount, sender, recipient)
	}
	if expiry <= c.sched.Now() {
		return "", "", fmt.Errorf("%w: expiry %g not in the future (now %g)", ErrBadSubmission, expiry, c.sched.Now())
	}
	contractID = c.htlcID(len(c.contracts) + 1)
	tx := c.newTx()
	tx.Kind, tx.from, tx.to = TxLock, sender, recipient
	tx.amount, tx.lock, tx.expiry = amount, lock, expiry
	tx.ContractID = contractID
	txID, err = c.submit(tx)
	if err != nil {
		return "", "", err
	}
	return txID, contractID, nil
}

// SubmitClaim submits a claim revealing the secret for a contract. The
// secret becomes mempool-visible after ε hours regardless of whether the
// claim ultimately confirms.
func (c *Chain) SubmitClaim(contractID string, secret htlc.Secret) (string, error) {
	if contractID == "" || len(secret) == 0 {
		return "", fmt.Errorf("%w: claim on %q", ErrBadSubmission, contractID)
	}
	tx := c.newTx()
	tx.Kind, tx.ContractID = TxClaim, contractID
	tx.secret = append(tx.secret[:0], secret...)
	return c.submit(tx)
}

// SubmitRefund submits a refund for an expired contract.
func (c *Chain) SubmitRefund(contractID string) (string, error) {
	if contractID == "" {
		return "", fmt.Errorf("%w: refund on %q", ErrBadSubmission, contractID)
	}
	tx := c.newTx()
	tx.Kind, tx.ContractID = TxRefund, contractID
	return c.submit(tx)
}

// FindContract returns the first hosted contract satisfying the predicate,
// in creation order. It is how counterparties discover each other's HTLCs
// by inspecting the public chain state.
func (c *Chain) FindContract(pred func(*htlc.Contract) bool) (*htlc.Contract, bool) {
	// Contract IDs embed a creation counter, so scan transactions in
	// submission order for deterministic discovery.
	for _, tx := range c.order {
		if tx.Kind != TxLock || tx.Status != TxConfirmed {
			continue
		}
		if ct, err := c.Contract(tx.ContractID); err == nil && pred(ct) {
			return ct, true
		}
	}
	return nil, false
}

// Burn debits amount from an account outside consensus — the mirror of Mint,
// used to model pre-approved allowance pulls (the collateral escrow of
// §IV.A collects deposits before the swap's first on-chain step).
func (c *Chain) Burn(account string, amount float64) error {
	if account == "" || amount < 0 {
		return fmt.Errorf("%w: burn %g from %q", ErrBadSubmission, amount, account)
	}
	return c.debit(account, amount)
}

// debit takes amount from an account's balance, refusing an overdraft.
func (c *Chain) debit(account string, amount float64) error {
	bal := c.slot(account)
	if *bal < amount {
		return fmt.Errorf("%w: %s has %g, needs %g", ErrInsufficientFunds, account, *bal, amount)
	}
	*bal -= amount
	return nil
}

// addContract hosts a new contract from newContract. A lock submitted
// before an earlier one confirmed shares its ID; the later contract then
// replaces the earlier, which takes the later one's place in the pool, so
// no pooled pointer is hosted twice.
func (c *Chain) addContract(ct *htlc.Contract) {
	for i, old := range c.contracts {
		if old.ID == ct.ID {
			c.contracts[i] = ct
			if n := len(c.contracts); n < cap(c.contracts) {
				c.contracts[:n+1][n] = old
			}
			return
		}
	}
	c.contracts = append(c.contracts, ct)
}

// Parties exposes a transaction's endpoints and amount for audit tooling
// (the Monte Carlo driver separates collateral flows from swap flows by
// inspecting escrow transfers).
func (t *Tx) Parties() (from, to string, amount float64) {
	return t.from, t.to, t.amount
}
