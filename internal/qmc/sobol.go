package qmc

import (
	"fmt"
	"math"

	"repro/internal/sweep"
)

// MaxDim is the largest supported Sobol dimension: one dimension per
// price increment of a simulated path, with generous headroom over the
// two to three increments a protocol path actually consumes.
const MaxDim = 8

// sobolBits is the point-index resolution: indices are 32-bit, matching
// the vendored direction-number tables.
const sobolBits = 32

// joeKuo holds the vendored direction-number parameters of dimensions
// 2..MaxDim — the (s, a, m) rows of Joe & Kuo's new-joe-kuo-6.21201
// table (https://web.maths.unsw.edu.au/~fkuo/sobol/, BSD-licensed data;
// vendored so the package stays stdlib-only). Dimension 1 is the van der
// Corput sequence and needs no parameters.
var joeKuo = []struct {
	s uint // degree of the primitive polynomial
	a uint // polynomial coefficient bits a_1..a_{s-1}
	m []uint32
}{
	{1, 0, []uint32{1}},
	{2, 1, []uint32{1, 3}},
	{3, 1, []uint32{1, 3, 1}},
	{3, 2, []uint32{1, 1, 1}},
	{4, 1, []uint32{1, 1, 3, 3}},
	{4, 4, []uint32{1, 3, 5, 13}},
	{5, 2, []uint32{1, 1, 5, 5, 17}},
}

// directions precomputes the 32 direction numbers of every supported
// dimension once at init (MaxDim × 32 uint32s).
var directions [MaxDim][sobolBits]uint32

func init() {
	// Dimension 1: v_j = 2^(31-j), the van der Corput radical inverse.
	for j := 0; j < sobolBits; j++ {
		directions[0][j] = 1 << (31 - j)
	}
	for d, p := range joeKuo {
		v := &directions[d+1]
		s := int(p.s)
		for j := 0; j < s && j < sobolBits; j++ {
			v[j] = p.m[j] << (31 - j)
		}
		for j := s; j < sobolBits; j++ {
			v[j] = v[j-s] ^ (v[j-s] >> s)
			for k := 1; k < s; k++ {
				if (p.a>>(s-1-k))&1 == 1 {
					v[j] ^= v[j-k]
				}
			}
		}
	}
}

// Sobol is one randomization of the Sobol sequence: the deterministic
// digital net XORed with a per-dimension random digital shift derived
// from the scramble seed. Distinct seeds give independent randomizations
// whose estimates can be averaged and error-estimated (the engine's
// replicate CI); seed 0 is a valid shift like any other. Point access is
// random-access by index, so workers need no shared iterator state.
// A Sobol value is immutable after construction and safe for concurrent
// readers.
type Sobol struct {
	dim   int
	shift [MaxDim]uint32
}

// NewSobol builds a dim-dimensional randomization with the given
// scramble seed. dim must be in [1, MaxDim].
func NewSobol(dim int, scrambleSeed int64) (*Sobol, error) {
	if dim < 1 || dim > MaxDim {
		return nil, fmt.Errorf("qmc: sobol dimension %d out of range [1, %d]", dim, MaxDim)
	}
	s := &Sobol{dim: dim}
	mix := sweep.NewSplitMix(scrambleSeed)
	for d := 0; d < dim; d++ {
		s.shift[d] = uint32(mix.Uint64() >> 32)
	}
	return s, nil
}

// Dim returns the point dimension.
func (s *Sobol) Dim() int { return s.dim }

// Point fills u[:Dim()] with the shifted point at the given index, each
// coordinate in (0, 1): the raw 32-bit digits are offset by half an ulp
// so the normal quantile map never sees an endpoint. Indices follow the
// canonical Gray-code ordering (the sequence the iterative x ^= v[ctz]
// construction produces), so every dyadic prefix is the published net.
// u must have at least Dim() capacity.
func (s *Sobol) Point(index uint32, u []float64) {
	gray := index ^ (index >> 1)
	u = u[:s.dim]
	for d := range u {
		u[d] = s.coord(gray, d)
	}
}

// coord is coordinate d of the shifted point with Gray-code index gray.
func (s *Sobol) coord(gray uint32, d int) float64 {
	const scale = 1.0 / (1 << sobolBits)
	var x uint32
	v := &directions[d]
	for j, k := 0, gray; k != 0; j, k = j+1, k>>1 {
		if k&1 == 1 {
			x ^= v[j]
		}
	}
	return (float64(x^s.shift[d]) + 0.5) * scale
}

// Normals fills z[:Dim()] with the point at index mapped through the
// standard normal quantile Φ⁻¹ — the slab of increments a batched GBM
// path consumes. z must have at least Dim() capacity.
func (s *Sobol) Normals(index uint32, z []float64) {
	s.Point(index, z[:s.dim])
	for d, u := range z[:s.dim] {
		z[d] = normal(u)
	}
}

// normal maps u in (0, 1) through the standard normal quantile Φ⁻¹.
func normal(u float64) float64 { return math.Sqrt2 * math.Erfinv(2*u-1) }

// sobolScrambleShard offsets the per-replicate scramble seeds into a
// seed-stream region no path index reaches (path seeds use
// sweep.Seed(seed, i) for i < MaxPaths), so the replicates' digital shifts
// are decorrelated from every path's pseudo tail.
const sobolScrambleShard = 1 << 30

// SlabNormals is the standard-normal source of a sobol-mode simulation.
// Each path first draws the MaxDim normals of its Sobol point, at
// SobolPoint(index) of replicate SobolReplicate(index)'s randomization,
// then falls back to a pseudo tail seeded with the path seed, so paths
// that consume more than MaxDim increments stay unbiased. A coordinate is
// computed only when the path draws it: most paths draw far fewer.
// The tail rides one PCG stream (sweep.Rand, reseeded in O(1)), so
// repositioning per path costs nothing. It implements gbm.NormalSource and
// is not safe for concurrent use.
type SlabNormals struct {
	sobols [SobolReplicates]*Sobol
	sobol  *Sobol // the path's replicate
	gray   uint32 // the path's Gray-code point index
	k      int    // coordinates drawn
	tail   *sweep.Rand
}

// NewSlabNormals builds the source of a run with base seed seed: one
// scrambled sequence per replicate, replicate r shifted by
// sweep.Seed(seed, sobolScrambleShard+r).
func NewSlabNormals(seed int64) (*SlabNormals, error) {
	n := &SlabNormals{tail: sweep.NewRand(0)}
	for r := range n.sobols {
		s, err := NewSobol(MaxDim, sweep.Seed(seed, sobolScrambleShard+r))
		if err != nil {
			return nil, err
		}
		n.sobols[r] = s
	}
	return n, nil
}

// Reset positions the source at the start of the path with the given
// global index and path seed: the draws restart at the path's Sobol point
// and the pseudo tail reseeds.
func (n *SlabNormals) Reset(index int, pathSeed int64) {
	p := SobolPoint(index)
	n.sobol, n.gray, n.k = n.sobols[SobolReplicate(index)], p^(p>>1), 0
	n.tail.Seed(pathSeed)
}

// NormFloat64 returns the path's next standard normal: the next
// coordinate of its Sobol point, then the pseudo tail.
func (n *SlabNormals) NormFloat64() float64 {
	if n.k < MaxDim {
		n.k++
		return normal(n.sobol.coord(n.gray, n.k-1))
	}
	return n.tail.NormFloat64()
}
