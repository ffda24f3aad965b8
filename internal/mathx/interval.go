package mathx

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
)

// Interval is a closed interval [Lo, Hi] on the real line. Intervals with
// Hi < Lo are considered empty.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

// Len returns the length of the interval (zero if empty).
func (iv Interval) Len() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// String formats the interval as "[lo, hi]".
func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// IntervalSet is a finite union of disjoint, sorted intervals. The zero
// value is the empty set. Construct with NewIntervalSet to normalise
// arbitrary input intervals.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a normalised set from arbitrary intervals: empties
// are dropped, overlapping or touching intervals are merged, and the result
// is sorted.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	var nonEmpty []Interval
	for _, iv := range ivs {
		if !iv.Empty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return nonEmpty[i].Lo < nonEmpty[j].Lo })
	var merged []Interval
	for _, iv := range nonEmpty {
		if n := len(merged); n > 0 && iv.Lo <= merged[n-1].Hi {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return IntervalSet{ivs: merged}
}

// Intervals returns a copy of the disjoint intervals in increasing order.
func (s IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// All iterates over the disjoint intervals in increasing order without
// copying them, for hot loops that only read the set.
func (s IntervalSet) All() iter.Seq[Interval] {
	return func(yield func(Interval) bool) {
		for _, iv := range s.ivs {
			if !yield(iv) {
				return
			}
		}
	}
}

// Empty reports whether the set contains no points.
func (s IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Contains reports whether x lies in the set.
func (s IntervalSet) Contains(x float64) bool {
	// Binary search for the first interval with Lo > x, then check its
	// predecessor.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Lo > x })
	return i > 0 && s.ivs[i-1].Contains(x)
}

// ContainsScaled reports whether x lies in s.Scale(k) without building
// the scaled set: it compares x against the same products Lo·k and Hi·k,
// so it answers exactly as s.Scale(k).Contains(x) does.
func (s IntervalSet) ContainsScaled(x, k float64) bool {
	if k <= 0 {
		return false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Lo*k > x })
	return i > 0 && x >= s.ivs[i-1].Lo*k && x <= s.ivs[i-1].Hi*k
}

// LogEdges returns the logarithms of the set's positive endpoints in
// increasing order: for a set FromSignChanges built from 0, the roots it
// was built from, in log coordinates.
func (s IntervalSet) LogEdges() []float64 {
	var out []float64
	for _, iv := range s.ivs {
		for _, x := range [2]float64{iv.Lo, iv.Hi} {
			if x > 0 {
				out = append(out, math.Log(x))
			}
		}
	}
	return out
}

// TotalLen returns the sum of the interval lengths.
func (s IntervalSet) TotalLen() float64 {
	var sum float64
	for _, iv := range s.ivs {
		sum += iv.Len()
	}
	return sum
}

// Bounds returns the smallest interval covering the set. It returns an
// empty interval for the empty set.
func (s IntervalSet) Bounds() Interval {
	if s.Empty() {
		return Interval{Lo: 1, Hi: 0}
	}
	return Interval{Lo: s.ivs[0].Lo, Hi: s.ivs[len(s.ivs)-1].Hi}
}

// Union returns the union of s and t.
func (s IntervalSet) Union(t IntervalSet) IntervalSet {
	all := make([]Interval, 0, len(s.ivs)+len(t.ivs))
	all = append(all, s.ivs...)
	all = append(all, t.ivs...)
	return NewIntervalSet(all...)
}

// Intersect returns the intersection of s and t.
func (s IntervalSet) Intersect(t IntervalSet) IntervalSet {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(t.ivs) {
		a, b := s.ivs[i], t.ivs[j]
		lo := math.Max(a.Lo, b.Lo)
		hi := math.Min(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Interval{Lo: lo, Hi: hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return NewIntervalSet(out...)
}

// String formats the set as a union of intervals, or "∅" when empty.
func (s IntervalSet) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

// FromSignChanges builds the set {x in [a,b] : f(x) > 0} for a function
// whose sign changes only at the supplied sorted roots. The membership of
// each panel between consecutive roots is decided by evaluating f at the
// panel midpoint.
func FromSignChanges(f Func1, a, b float64, roots []float64) IntervalSet {
	edges := make([]float64, 0, len(roots)+2)
	edges = append(edges, a)
	for _, r := range roots {
		if r > a && r < b {
			edges = append(edges, r)
		}
	}
	edges = append(edges, b)
	var out []Interval
	for i := 0; i+1 < len(edges); i++ {
		mid := 0.5 * (edges[i] + edges[i+1])
		if f(mid) > 0 {
			out = append(out, Interval{Lo: edges[i], Hi: edges[i+1]})
		}
	}
	return NewIntervalSet(out...)
}

// Scale returns the set with every endpoint multiplied by k > 0. It is the
// geometry behind the swap game's price-scale invariance: thresholds and
// continuation regions scale linearly with the price level.
func (s IntervalSet) Scale(k float64) IntervalSet {
	if k <= 0 {
		return IntervalSet{}
	}
	scaled := make([]Interval, len(s.ivs))
	for i, iv := range s.ivs {
		scaled[i] = Interval{Lo: iv.Lo * k, Hi: iv.Hi * k}
	}
	return IntervalSet{ivs: scaled}
}
