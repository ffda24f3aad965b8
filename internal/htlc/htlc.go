// Package htlc implements the hash time lock contract of the paper's Fig. 1:
// assets are locked under the SHA-256 hash of a secret and an absolute
// expiry time. Before expiry the designated recipient can claim by revealing
// the preimage; at or after expiry the sender can reclaim the assets. The
// contract is a pure state machine — escrow accounting and timing live in
// internal/chain.
package htlc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Errors returned by contract operations.
var (
	// ErrBadSecret reports a preimage that does not hash to the lock.
	ErrBadSecret = errors.New("htlc: secret does not match hash lock")
	// ErrExpired reports a claim at or after the expiry time.
	ErrExpired = errors.New("htlc: contract expired")
	// ErrNotExpired reports a refund before the expiry time.
	ErrNotExpired = errors.New("htlc: contract not yet expired")
	// ErrNotLocked reports an operation on a settled contract.
	ErrNotLocked = errors.New("htlc: contract is not locked")
	// ErrBadContract reports invalid construction parameters.
	ErrBadContract = errors.New("htlc: invalid contract parameters")
)

// SecretSize is the byte length of generated secrets.
const SecretSize = 32

// Secret is the preimage that unlocks a contract.
type Secret []byte

// Hash is the SHA-256 hash lock.
type Hash [sha256.Size]byte

// NewSecret draws a random secret from r (crypto/rand.Reader in production;
// tests may pass a deterministic reader) and returns it with its hash.
func NewSecret(r io.Reader) (Secret, Hash, error) {
	s := make(Secret, SecretSize)
	h, err := FillSecret(s, r, nil)
	if err != nil {
		return nil, Hash{}, err
	}
	return s, h, nil
}

// FillSecret draws a fresh secret from r into buf — which must be
// SecretSize bytes — and returns its hash as hs computes it (nil hs:
// HashOf). It is NewSecret without the allocation: the simulator's
// reusable agents draw every path's secret into one preallocated buffer,
// and hand the path's Hasher the digest the claims will check.
func FillSecret(buf Secret, r io.Reader, hs *Hasher) (Hash, error) {
	if len(buf) != SecretSize {
		return Hash{}, fmt.Errorf("%w: secret buffer of %d bytes, want %d", ErrBadContract, len(buf), SecretSize)
	}
	if r == nil {
		r = rand.Reader
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return Hash{}, fmt.Errorf("htlc: generating secret: %w", err)
	}
	return hs.Sum(buf), nil
}

// HashOf returns the hash lock of a secret.
func HashOf(s Secret) Hash { return sha256.Sum256(s) }

// Verify reports whether the secret is the preimage of the hash, in
// constant time.
func (h Hash) Verify(s Secret) bool { return h.matches(HashOf(s)) }

// matches compares a digest with the lock in constant time.
func (h Hash) matches(got Hash) bool { return equal32(got[:], h[:]) }

// equal32 reports whether two 32-byte strings are equal, in constant time:
// subtle.ConstantTimeCompare a word at a time, ORing the XORs of the four
// words so the time does not depend on where the strings differ.
func equal32(a, b []byte) bool {
	_, _ = a[31], b[31]
	var d uint64
	for i := 0; i < 32; i += 8 {
		d |= binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
	}
	return d == 0
}

// Hasher computes hash locks and remembers the last SecretSize-byte
// preimage it hashed with that preimage's digest, so one swap — whose
// contracts on both chains share the lock H(s), and whose claims reveal
// the same s — hashes its secret once: at the draw, not again at every
// claim. A preimage that differs from the remembered one in any byte (the
// comparison is constant-time) or in length is hashed afresh, so Sum is
// always sha256.Sum256 and the set of accepted claims is unchanged. A nil
// *Hasher is valid: it hashes every preimage (HashOf) and counts nothing.
// Not safe for concurrent use.
type Hasher struct {
	last   [SecretSize]byte
	sum    Hash
	primed bool
	hashes int
}

// Sum returns the SHA-256 digest of s.
func (hs *Hasher) Sum(s Secret) Hash {
	if hs == nil {
		return HashOf(s)
	}
	if len(s) == SecretSize && hs.primed && equal32(s, hs.last[:]) {
		return hs.sum
	}
	hs.hashes++
	sum := HashOf(s)
	if len(s) == SecretSize {
		copy(hs.last[:], s)
		hs.sum, hs.primed = sum, true
	}
	return sum
}

// Hashes returns the number of SHA-256 computations Sum has made.
func (hs *Hasher) Hashes() int {
	if hs == nil {
		return 0
	}
	return hs.hashes
}

// State is the lifecycle state of a contract.
type State int

const (
	// Locked means assets are escrowed and claimable.
	Locked State = iota + 1
	// Claimed means the recipient revealed the secret and took the assets.
	Claimed
	// Refunded means the contract expired and the sender reclaimed.
	Refunded
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case Locked:
		return "locked"
	case Claimed:
		return "claimed"
	case Refunded:
		return "refunded"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Contract is a hash time locked escrow of Amount units of Asset from
// Sender to Recipient, expiring at Expiry (simulated hours).
type Contract struct {
	// ID identifies the contract on its host chain.
	ID string
	// Sender funds the contract and may refund after expiry.
	Sender string
	// Recipient may claim with the secret before expiry.
	Recipient string
	// Asset is the token symbol being escrowed.
	Asset string
	// Amount is the escrowed quantity.
	Amount float64
	// Lock is the SHA-256 hash lock.
	Lock Hash
	// Expiry is the absolute expiry time in simulated hours.
	Expiry float64

	state  State
	secret Secret
}

// New validates and creates a locked contract.
func New(id, sender, recipient, asset string, amount float64, lock Hash, expiry float64) (*Contract, error) {
	ct := &Contract{}
	if err := ct.Init(id, sender, recipient, asset, amount, lock, expiry); err != nil {
		return nil, err
	}
	return ct, nil
}

// Init validates the parameters and re-arms the contract value in place as
// a fresh locked escrow, reusing the revealed-secret buffer's storage. It
// is the pooled alternative to New: the chain simulator's reusable
// transaction arena re-initialises recycled contracts instead of
// allocating new ones on every Monte Carlo path.
func (c *Contract) Init(id, sender, recipient, asset string, amount float64, lock Hash, expiry float64) error {
	switch {
	case id == "":
		return fmt.Errorf("%w: empty id", ErrBadContract)
	case sender == "" || recipient == "":
		return fmt.Errorf("%w: empty party", ErrBadContract)
	case sender == recipient:
		return fmt.Errorf("%w: sender and recipient are the same account %q", ErrBadContract, sender)
	case asset == "":
		return fmt.Errorf("%w: empty asset", ErrBadContract)
	case amount <= 0:
		return fmt.Errorf("%w: amount %g must be > 0", ErrBadContract, amount)
	case expiry <= 0:
		return fmt.Errorf("%w: expiry %g must be > 0", ErrBadContract, expiry)
	}
	// Every field is assigned in place: a struct literal would be built
	// in a temporary and copied over c on every Monte Carlo lock.
	c.ID, c.Sender, c.Recipient, c.Asset = id, sender, recipient, asset
	c.Amount, c.Lock, c.Expiry = amount, lock, expiry
	c.state, c.secret = Locked, c.secret[:0]
	return nil
}

// State returns the contract's lifecycle state.
func (c *Contract) State() State { return c.state }

// Secret returns the revealed preimage after a successful claim, or nil.
func (c *Contract) Secret() Secret {
	if c.state != Claimed {
		return nil
	}
	out := make(Secret, len(c.secret))
	copy(out, c.secret)
	return out
}

// Claim settles the contract to the recipient if the secret matches and the
// contract has not expired (claims are valid up to and including the expiry
// instant, matching t5 ≤ tb of Eq. 8). It is ClaimWith with a nil Hasher.
func (c *Contract) Claim(secret Secret, now float64) error {
	return c.ClaimWith(nil, secret, now)
}

// ClaimWith is Claim with the preimage hashed by hs: the simulator's chains
// share their swap's Hasher, so a claim revealing the secret it already
// hashed costs a constant-time comparison instead of a SHA-256.
func (c *Contract) ClaimWith(hs *Hasher, secret Secret, now float64) error {
	if c.state != Locked {
		return fmt.Errorf("%w: state %v", ErrNotLocked, c.state)
	}
	if now > c.Expiry {
		return fmt.Errorf("%w: now=%g > expiry=%g", ErrExpired, now, c.Expiry)
	}
	if !c.Lock.matches(hs.Sum(secret)) {
		return ErrBadSecret
	}
	// Reuse the buffer's storage (recycled contracts already carry one):
	// Secret() hands out copies, so the stored preimage never escapes.
	c.secret = append(c.secret[:0], secret...)
	c.state = Claimed
	return nil
}

// Refund returns the escrow to the sender once the expiry has passed.
func (c *Contract) Refund(now float64) error {
	if c.state != Locked {
		return fmt.Errorf("%w: state %v", ErrNotLocked, c.state)
	}
	if now <= c.Expiry {
		return fmt.Errorf("%w: now=%g <= expiry=%g", ErrNotExpired, now, c.Expiry)
	}
	c.state = Refunded
	return nil
}
