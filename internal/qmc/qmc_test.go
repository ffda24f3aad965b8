package qmc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModePseudo, true},
		{"pseudo", ModePseudo, true},
		{"sobol", ModeSobol, true},
		{"antithetic", "", false},
		{"halton", "", false},
		{"Sobol", "", false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseMode(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseMode(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Mode("").String() != "pseudo" {
		t.Errorf("zero Mode renders %q, want pseudo", Mode("").String())
	}
}

// unscrambled returns a Sobol randomization with the digital shift
// zeroed, exposing the raw canonical sequence for pinning tests.
func unscrambled(t *testing.T, dim int) *Sobol {
	t.Helper()
	s, err := NewSobol(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.shift = [MaxDim]uint32{}
	return s
}

// TestSobolCanonicalPrefix pins the generator to the canonical sequence
// where the values are independently derivable: the full first-8-point
// prefix of dimensions 1 and 2 (the textbook van der Corput and s=1
// columns), and the point-2 coordinate of every dimension, which is
// 0.75 when the vendored m₂ is 1 and 0.25 when it is 3 (x = v₀ ⊕ v₁).
func TestSobolCanonicalPrefix(t *testing.T) {
	s := unscrambled(t, MaxDim)
	const offset = 0.5 / (1 << 32)
	u := make([]float64, MaxDim)

	dim12 := [][2]float64{
		{0, 0}, {0.5, 0.5}, {0.75, 0.25}, {0.25, 0.75},
		{0.375, 0.375}, {0.875, 0.875}, {0.625, 0.125}, {0.125, 0.625},
	}
	for i, row := range dim12 {
		s.Point(uint32(i), u)
		for d, w := range row {
			if got := u[d] - offset; math.Abs(got-w) > 1e-12 {
				t.Errorf("point %d dim %d = %.12f, want %.12f", i, d+1, got, w)
			}
		}
	}

	// Point 2 (Gray code 11b) of dimension d is m₁<<31 ⊕ m₂<<30.
	point2 := []float64{0.75, 0.25, 0.25, 0.25, 0.75, 0.75, 0.25, 0.75}
	s.Point(2, u)
	for d, w := range point2 {
		if got := u[d] - offset; math.Abs(got-w) > 1e-12 {
			t.Errorf("point 2 dim %d = %.12f, want %.12f", d+1, got, w)
		}
	}
}

// TestSobolMatchesIterativeConstruction cross-checks the random-access
// generator against an independently coded classic recurrence
// x_{k+1} = x_k ⊕ v_{ctz(k+1)} over the same direction numbers: the two
// code paths must agree on every point of a long prefix in every
// dimension.
func TestSobolMatchesIterativeConstruction(t *testing.T) {
	s := unscrambled(t, MaxDim)
	const n = 1 << 10
	var x [MaxDim]uint32
	u := make([]float64, MaxDim)
	const scale = 1.0 / (1 << 32)
	for k := 0; k < n; k++ {
		s.Point(uint32(k), u)
		for d := 0; d < MaxDim; d++ {
			if want := (float64(x[d]) + 0.5) * scale; u[d] != want {
				t.Fatalf("point %d dim %d: random access %v != iterative %v", k, d+1, u[d], want)
			}
		}
		// Advance the recurrence: XOR in v[ctz(k+1)] per dimension.
		c := 0
		for m := k + 1; m&1 == 0; m >>= 1 {
			c++
		}
		for d := 0; d < MaxDim; d++ {
			x[d] ^= directions[d][c]
		}
	}
}

// TestSobolStratified checks the defining net property on a dyadic
// prefix, which the digital shift preserves: among the first 2^m points,
// every dimension puts exactly one point in each interval [i/2^m,
// (i+1)/2^m).
func TestSobolStratified(t *testing.T) {
	const m = 8
	const n = 1 << m
	for _, seed := range []int64{0, 1, 42, -7} {
		s, err := NewSobol(MaxDim, seed)
		if err != nil {
			t.Fatal(err)
		}
		var u [MaxDim]float64
		for d := 0; d < MaxDim; d++ {
			var hits [n]int
			for i := 0; i < n; i++ {
				s.Point(uint32(i), u[:])
				hits[int(u[d]*n)]++
			}
			for cell, c := range hits {
				if c != 1 {
					t.Fatalf("seed %d dim %d: cell %d/%d holds %d points, want 1", seed, d+1, cell, n, c)
				}
			}
		}
	}
}

// TestSobolRange checks coordinates stay inside (0, 1) across seeds and
// a spread of indices, including the extremes of the 32-bit index space.
func TestSobolRange(t *testing.T) {
	idxs := []uint32{0, 1, 2, 3, 255, 1 << 16, 1<<32 - 2, 1<<32 - 1}
	var u [MaxDim]float64
	for _, seed := range []int64{0, 5, 123456789} {
		s, err := NewSobol(MaxDim, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idxs {
			s.Point(i, u[:])
			for d, x := range u {
				if !(x > 0 && x < 1) {
					t.Errorf("seed %d point %d dim %d = %v out of (0,1)", seed, i, d+1, x)
				}
			}
		}
	}
}

// TestSobolDistinctIndices checks injectivity of the first dimension:
// distinct indices map to distinct coordinates (the generator matrix is
// invertible, and the digital shift is a bijection).
func TestSobolDistinctIndices(t *testing.T) {
	s, err := NewSobol(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]uint32, 1<<12)
	var u [1]float64
	for i := uint32(0); i < 1<<12; i++ {
		s.Point(i, u[:])
		if prev, dup := seen[u[0]]; dup {
			t.Fatalf("indices %d and %d collide at %v", prev, i, u[0])
		}
		seen[u[0]] = i
	}
}

// TestSobolSeedsDiffer checks that distinct scramble seeds produce
// different randomizations (the replicate CI is degenerate otherwise).
func TestSobolSeedsDiffer(t *testing.T) {
	a, err := NewSobol(MaxDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSobol(MaxDim, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ua, ub [MaxDim]float64
	a.Point(7, ua[:])
	b.Point(7, ub[:])
	if ua == ub {
		t.Error("seeds 1 and 2 produced identical shifted points")
	}
}

func TestSobolDimValidation(t *testing.T) {
	for _, dim := range []int{0, -1, MaxDim + 1} {
		if _, err := NewSobol(dim, 1); err == nil {
			t.Errorf("NewSobol(%d) accepted an out-of-range dimension", dim)
		}
	}
	s, err := NewSobol(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 3 {
		t.Errorf("Dim() = %d, want 3", s.Dim())
	}
}

// TestNormalsMatchQuantile checks Normals is exactly the quantile map of
// Point, and that the values are finite standard-normal-ish.
func TestNormalsMatchQuantile(t *testing.T) {
	s, err := NewSobol(MaxDim, 3)
	if err != nil {
		t.Fatal(err)
	}
	var u, z [MaxDim]float64
	for i := uint32(0); i < 64; i++ {
		s.Point(i, u[:])
		s.Normals(i, z[:])
		for d := range u {
			want := math.Sqrt2 * math.Erfinv(2*u[d]-1)
			if z[d] != want {
				t.Fatalf("point %d dim %d: Normals %v != Φ⁻¹(Point) %v", i, d+1, z[d], want)
			}
			if math.IsNaN(z[d]) || math.IsInf(z[d], 0) {
				t.Fatalf("point %d dim %d: non-finite normal %v", i, d+1, z[d])
			}
		}
	}
}

// TestSobolIntegrationBeatsMC compares integration error on a smooth
// test integrand against plain Monte Carlo at the same sample size: the
// low-discrepancy estimate must land at least 4x closer across
// replicated randomizations. The integrand is Π(1 + (u_d − ½)) over 4
// dims, exact integral 1.
func TestSobolIntegrationBeatsMC(t *testing.T) {
	const (
		dim  = 4
		n    = 1 << 11
		reps = 8
	)
	integrand := func(u []float64) float64 {
		f := 1.0
		for d := 0; d < dim; d++ {
			f *= 1 + (u[d] - 0.5)
		}
		return f
	}
	var qmcErr, mcErr float64
	u := make([]float64, dim)
	for r := 0; r < reps; r++ {
		s, err := NewSobol(dim, int64(r+1))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := 0; i < n; i++ {
			s.Point(uint32(i), u)
			sum += integrand(u)
		}
		qmcErr += math.Abs(sum/n - 1)

		rng := rand.New(rand.NewSource(int64(1000 + r)))
		sum = 0
		for i := 0; i < n; i++ {
			for d := range u {
				u[d] = rng.Float64()
			}
			sum += integrand(u)
		}
		mcErr += math.Abs(sum/n - 1)
	}
	if qmcErr*4 > mcErr {
		t.Errorf("mean |error|: sobol %.3g vs MC %.3g — expected ≥4x improvement", qmcErr/reps, mcErr/reps)
	}
}

// TestSlabNormalsMatchesSobolNormals pins the source's draw order bit for
// bit: for path indices on both sides of replicate and point boundaries, a
// path that draws d = 1..MaxDim normals before the next Reset gets the
// first d of Sobol.Normals at its replicate's point, the path after it
// starts again at coordinate 0, and draws past MaxDim come from a pseudo
// stream seeded with the path seed — so a path is a pure function of
// (index, seed), however many coordinates the previous path drew.
func TestSlabNormalsMatchesSobolNormals(t *testing.T) {
	const seed = 29
	n, err := NewSlabNormals(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, index := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1<<20 - 1, 1 << 20, 3<<24 + 5} {
		s, err := NewSobol(MaxDim, sweep.Seed(seed, sobolScrambleShard+SobolReplicate(index)))
		if err != nil {
			t.Fatal(err)
		}
		var want [MaxDim]float64
		s.Normals(SobolPoint(index), want[:])
		for draws := 1; draws <= MaxDim; draws++ {
			pathSeed := int64(7*index + draws)
			n.Reset(index, pathSeed)
			for d := 0; d < draws; d++ {
				if got := n.NormFloat64(); math.Float64bits(got) != math.Float64bits(want[d]) {
					t.Fatalf("index %d, %d draws: draw %d = %v, want %v", index, draws, d, got, want[d])
				}
			}
			if draws < MaxDim {
				continue
			}
			tail := sweep.NewRand(pathSeed)
			for k := 0; k < 4; k++ {
				if got, w := n.NormFloat64(), tail.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("index %d tail draw %d = %v, want %v", index, k, got, w)
				}
			}
		}
	}
}
