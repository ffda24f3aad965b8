package htlc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// primedHasher returns a Hasher that has hashed s, with s's contract: a
// fresh escrow locked under H(s).
func primedHasher(t *testing.T, s Secret) (*Hasher, *Contract) {
	t.Helper()
	hs := &Hasher{}
	lock := hs.Sum(s)
	if lock != sha256.Sum256(s) {
		t.Fatal("Sum of the first preimage differs from sha256.Sum256")
	}
	return hs, mustContract(t, lock, 11)
}

// TestHasherRehashesEveryOtherPreimage checks the remembered preimage's
// edges: a preimage differing from it in any one byte, or in length, is
// hashed afresh (Sum equals sha256.Sum256) and cannot claim the lock.
func TestHasherRehashesEveryOtherPreimage(t *testing.T) {
	s, _ := mustSecret(t)
	var others []Secret
	for i := range s {
		flip := append(Secret(nil), s...)
		flip[i] ^= 0x01
		others = append(others, flip)
	}
	others = append(others, s[:SecretSize-1], append(append(Secret(nil), s...), 0))
	for i, other := range others {
		hs, c := primedHasher(t, s)
		before := hs.Hashes()
		if got := hs.Sum(other); got != sha256.Sum256(other) {
			t.Fatalf("preimage %d (%d bytes): Sum differs from sha256.Sum256", i, len(other))
		}
		if hs.Hashes() != before+1 {
			t.Errorf("preimage %d: %d hashes, want a fresh one", i, hs.Hashes()-before)
		}
		// Re-arm the remembered preimage, then claim with the other one.
		hs.Sum(s)
		if err := c.ClaimWith(hs, other, 5); !errors.Is(err, ErrBadSecret) {
			t.Errorf("preimage %d: claim err = %v, want ErrBadSecret", i, err)
		}
		if c.State() != Locked {
			t.Errorf("preimage %d: state %v after a bad claim, want locked", i, c.State())
		}
	}
}

// TestHasherExactPreimageClaims checks the cached path: the remembered
// preimage claims its lock without another SHA-256.
func TestHasherExactPreimageClaims(t *testing.T) {
	s, _ := mustSecret(t)
	hs, c := primedHasher(t, s)
	if err := c.ClaimWith(hs, append(Secret(nil), s...), 5); err != nil {
		t.Fatalf("ClaimWith: %v", err)
	}
	if !bytes.Equal(c.Secret(), s) {
		t.Error("revealed secret mismatch")
	}
	if n := hs.Hashes(); n != 1 {
		t.Errorf("%d hashes for a draw and its claim, want 1", n)
	}
	var nilHasher *Hasher
	if nilHasher.Sum(s) != HashOf(s) || nilHasher.Hashes() != 0 {
		t.Error("a nil Hasher is not HashOf")
	}
}

// FuzzHasher feeds one Hasher a sequence of preimages cut from data (each
// a length byte, then up to 40 bytes) and checks that Sum is always
// sha256.Sum256 and that a claim on a contract locked under the first
// preimage's digest succeeds exactly when the claimed preimage hashes to
// it.
func FuzzHasher(f *testing.F) {
	s := bytes.Repeat([]byte{7}, SecretSize)
	flip := append([]byte(nil), s...)
	flip[31] ^= 0x80
	chunk := func(p []byte) []byte { return append([]byte{byte(len(p))}, p...) }
	f.Add(bytes.Join([][]byte{chunk(s), chunk(s), chunk(flip), chunk(s)}, nil))
	f.Add(bytes.Join([][]byte{chunk(s), chunk(s[:31]), chunk(append(s, 1)), chunk(nil)}, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var preimages []Secret
		for len(data) > 0 {
			n := int(data[0]) % 41
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			preimages = append(preimages, Secret(data[:n]))
			data = data[n:]
		}
		if len(preimages) == 0 {
			return
		}
		hs := &Hasher{}
		lock := sha256.Sum256(preimages[0])
		for i, p := range preimages {
			want := sha256.Sum256(p)
			if got := hs.Sum(p); got != want {
				t.Fatalf("preimage %d (%x): Sum %x, want %x", i, p, got, want)
			}
			c := mustContract(t, lock, 11)
			err := c.ClaimWith(hs, p, 5)
			if ok := want == lock; (err == nil) != ok {
				t.Fatalf("preimage %d (%x): claim err = %v, digest matches lock: %v", i, p, err, ok)
			}
		}
	})
}
