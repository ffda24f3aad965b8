package sweep

import (
	"math/rand/v2"
	"testing"
)

// TestSplitMixMatchesSweepSeed pins the shared finaliser: the first value
// of stream(base) equals Seed(base, 1) as uint64 — both advance the state
// by the golden-ratio increment and finalise.
func TestSplitMixMatchesSweepSeed(t *testing.T) {
	for _, base := range []int64{0, 1, -7, 123456789} {
		s := NewSplitMix(base)
		if got, want := s.Uint64(), uint64(Seed(base, 1)); got != want {
			t.Fatalf("base %d: SplitMix first draw %#x != Seed %#x", base, got, want)
		}
	}
}

func TestSplitMixSeedResets(t *testing.T) {
	s := NewSplitMix(9)
	a, b := s.Uint64(), s.Uint64()
	if a == b {
		t.Fatal("stream repeated immediately")
	}
	s.Seed(9)
	if got := s.Uint64(); got != a {
		t.Fatalf("reseeded stream starts at %#x, want %#x", got, a)
	}
}

func TestSplitMixReadDeterministic(t *testing.T) {
	s := NewSplitMix(4)
	buf1 := make([]byte, 32)
	if n, err := s.Read(buf1); n != 32 || err != nil {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	s.Seed(4)
	buf2 := make([]byte, 32)
	s.Read(buf2)
	if string(buf1) != string(buf2) {
		t.Fatal("reseeded Read differs")
	}
	// Odd-length tail path.
	tail := make([]byte, 5)
	if n, err := s.Read(tail); n != 5 || err != nil {
		t.Fatalf("odd Read = (%d, %v)", n, err)
	}
	var zero int
	for _, b := range tail {
		if b == 0 {
			zero++
		}
	}
	if zero == len(tail) {
		t.Fatal("tail bytes all zero")
	}
}

// TestRandIsStdlibPCG pins what Rand is: the stdlib PCG seeded with
// (seed, pcgStream), drawn through rand.New — the way the simulators
// consume it.
func TestRandIsStdlibPCG(t *testing.T) {
	for _, seed := range []int64{0, 3, -1, 1234567891234} {
		ref := rand.New(rand.NewPCG(uint64(seed), pcgStream))
		r := NewRand(seed)
		for j := 0; j < 100; j++ {
			if got, want := r.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, j, got, want)
			}
		}
	}
}

// TestRandReseedRestartsTheStream checks that Seed is equivalent to a
// fresh stream — the per-path reseed contract of the Monte Carlo runner —
// and allocates nothing.
func TestRandReseedRestartsTheStream(t *testing.T) {
	r := NewRand(5)
	first := make([]uint64, 8)
	for i := range first {
		first[i] = r.Uint64()
	}
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	r.Seed(5)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed: %#x != first pass %#x", i, got, first[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Seed(6); r.NormFloat64() }); n != 0 {
		t.Fatalf("reseed and draw allocate %v times", n)
	}
}
