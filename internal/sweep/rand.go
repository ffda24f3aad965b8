package sweep

import "math/rand/v2"

// golden is splitmix64's state increment, 2⁶⁴ divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finaliser (Steele, Lea & Flood, OOPSLA 2014)
// behind both Seed and SplitMix.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Seed derives a deterministic per-shard RNG seed from a base seed and a
// shard index via the splitmix64 finaliser, so neighbouring shards get
// decorrelated streams and the mapping is stable across worker counts.
func Seed(base int64, shard int) int64 {
	return int64(mix64(uint64(base) + uint64(shard)*golden))
}

// SplitMix is a preallocated, reseedable splitmix64 generator. The Monte
// Carlo runner uses one per worker as its secret source: reseeding is a
// single store, Read fills a preimage buffer without allocating, and the
// stream is a pure function of the seed — so secret generation stays
// deterministic per path without crypto/rand's per-path allocation and
// syscall. It implements io.Reader. Not safe for concurrent use.
type SplitMix struct {
	state uint64
}

// NewSplitMix returns a generator seeded with seed.
func NewSplitMix(seed int64) *SplitMix {
	return &SplitMix{state: uint64(seed)}
}

// Seed resets the stream. It is O(1): splitmix64 has no warm-up.
func (s *SplitMix) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next value of the stream.
func (s *SplitMix) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Read fills p with pseudorandom bytes (io.Reader; never fails).
func (s *SplitMix) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) >= 8 {
		v := s.Uint64()
		for i := 0; i < 8; i++ {
			p[i] = byte(v >> (8 * i))
		}
		p = p[8:]
	}
	if len(p) > 0 {
		v := s.Uint64()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
	return n, nil
}

// pcgStream is the second seed word of every Rand: the stream is chosen by
// the seed alone.
const pcgStream = 0x5851F42D4C957F2D

// Rand is the repository's one pseudo-random stream: math/rand/v2's PCG
// seeded with (seed, pcgStream), whose reseed is O(1), so a simulator can
// restart it per path or run without allocating. Not safe for concurrent
// use.
type Rand struct {
	*rand.Rand
	pcg rand.PCG
}

// NewRand returns the stream of seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.Rand = rand.New(&r.pcg)
	r.Seed(seed)
	return r
}

// Seed restarts r at the stream of seed.
func (r *Rand) Seed(seed int64) { r.pcg.Seed(uint64(seed), pcgStream) }
