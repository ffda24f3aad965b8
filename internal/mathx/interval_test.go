package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if got := iv.Len(); got != 2 {
		t.Errorf("Len = %v, want 2", got)
	}
	if !iv.Contains(1) || !iv.Contains(3) || !iv.Contains(2) {
		t.Error("Contains should include endpoints and interior")
	}
	if iv.Contains(0.999) || iv.Contains(3.001) {
		t.Error("Contains should exclude exterior points")
	}
	empty := Interval{Lo: 2, Hi: 1}
	if !empty.Empty() || empty.Len() != 0 {
		t.Error("inverted interval should be empty with zero length")
	}
	if got := iv.String(); got != "[1, 3]" {
		t.Errorf("String = %q", got)
	}
}

func TestNewIntervalSetMerges(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{
			name: "disjointSorted",
			in:   []Interval{{0, 1}, {2, 3}},
			want: []Interval{{0, 1}, {2, 3}},
		},
		{
			name: "overlapMerge",
			in:   []Interval{{0, 2}, {1, 3}},
			want: []Interval{{0, 3}},
		},
		{
			name: "touchMerge",
			in:   []Interval{{0, 1}, {1, 2}},
			want: []Interval{{0, 2}},
		},
		{
			name: "unsortedWithEmpties",
			in:   []Interval{{5, 6}, {3, 1}, {0, 1}, {0.5, 0.7}},
			want: []Interval{{0, 1}, {5, 6}},
		},
		{
			name: "nested",
			in:   []Interval{{0, 10}, {2, 3}},
			want: []Interval{{0, 10}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewIntervalSet(tt.in...).Intervals()
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("interval[%d] = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestIntervalSetContains(t *testing.T) {
	s := NewIntervalSet(Interval{0, 1}, Interval{2, 3}, Interval{10, 20})
	tests := []struct {
		x    float64
		want bool
	}{
		{-1, false}, {0, true}, {0.5, true}, {1, true}, {1.5, false},
		{2, true}, {3, true}, {5, false}, {15, true}, {20, true}, {21, false},
	}
	for _, tt := range tests {
		if got := s.Contains(tt.x); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestIntervalSetUnionIntersect(t *testing.T) {
	a := NewIntervalSet(Interval{0, 2}, Interval{4, 6})
	b := NewIntervalSet(Interval{1, 5})

	union := a.Union(b).Intervals()
	if len(union) != 1 || union[0] != (Interval{0, 6}) {
		t.Errorf("Union = %v, want [[0,6]]", union)
	}

	inter := a.Intersect(b).Intervals()
	want := []Interval{{1, 2}, {4, 5}}
	if len(inter) != len(want) {
		t.Fatalf("Intersect = %v, want %v", inter, want)
	}
	for i := range want {
		if inter[i] != want[i] {
			t.Errorf("Intersect[%d] = %v, want %v", i, inter[i], want[i])
		}
	}

	if !a.Intersect(IntervalSet{}).Empty() {
		t.Error("intersection with empty set should be empty")
	}
}

func TestIntervalSetBoundsAndLen(t *testing.T) {
	s := NewIntervalSet(Interval{1, 2}, Interval{5, 7})
	if got := s.TotalLen(); got != 3 {
		t.Errorf("TotalLen = %v, want 3", got)
	}
	if got := s.Bounds(); got != (Interval{1, 7}) {
		t.Errorf("Bounds = %v, want [1,7]", got)
	}
	if !NewIntervalSet().Bounds().Empty() {
		t.Error("Bounds of empty set should be empty")
	}
	if got := s.String(); got != "[1, 2] ∪ [5, 7]" {
		t.Errorf("String = %q", got)
	}
	if got := NewIntervalSet().String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
}

func TestFromSignChanges(t *testing.T) {
	// f > 0 on (1,2) and (3,4) within [0,5].
	f := func(x float64) float64 { return -(x - 1) * (x - 2) * (x - 3) * (x - 4) }
	s := FromSignChanges(f, 0, 5, []float64{1, 2, 3, 4})
	want := []Interval{{1, 2}, {3, 4}}
	got := s.Intervals()
	if len(got) != len(want) {
		t.Fatalf("FromSignChanges = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i].Lo-want[i].Lo) > 1e-12 || math.Abs(got[i].Hi-want[i].Hi) > 1e-12 {
			t.Errorf("interval[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Roots outside the window are ignored.
	s2 := FromSignChanges(func(x float64) float64 { return 1 }, 0, 1, []float64{-5, 9})
	if got := s2.Intervals(); len(got) != 1 || got[0] != (Interval{0, 1}) {
		t.Errorf("window-only = %v, want [[0,1]]", got)
	}
}

func TestIntervalSetProperties(t *testing.T) {
	// Property: for random pairs of intervals, union and intersection
	// lengths obey inclusion-exclusion.
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(a1, a2, b1, b2 float64) bool {
		norm := func(x, y float64) Interval {
			lo := math.Min(math.Mod(math.Abs(x), 10), math.Mod(math.Abs(y), 10))
			hi := math.Max(math.Mod(math.Abs(x), 10), math.Mod(math.Abs(y), 10))
			return Interval{Lo: lo, Hi: hi}
		}
		A := NewIntervalSet(norm(a1, a2))
		B := NewIntervalSet(norm(b1, b2))
		u := A.Union(B)
		i := A.Intersect(B)
		lhs := u.TotalLen() + i.TotalLen()
		rhs := A.TotalLen() + B.TotalLen()
		return math.Abs(lhs-rhs) <= 1e-9
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestIntervalSetScale(t *testing.T) {
	s := NewIntervalSet(Interval{1, 2}, Interval{4, 8})
	got := s.Scale(2.5).Intervals()
	want := []Interval{{2.5, 5}, {10, 20}}
	if len(got) != len(want) {
		t.Fatalf("Scale = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scale[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !s.Scale(-1).Empty() {
		t.Error("non-positive factor should give the empty set")
	}
	if got := s.Scale(1).TotalLen(); got != s.TotalLen() {
		t.Errorf("identity scale changed length: %v", got)
	}
	// ContainsScaled answers exactly as the scaled copy's Contains, at the
	// endpoints' own products too.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		k := []float64{-1, 0, 1, 0.37, 2.5, 1e-3}[i%6]
		x := 25 * rng.Float64()
		if i%4 == 0 {
			x = s.ivs[i%2].Hi * k
		}
		if got, want := s.ContainsScaled(x, k), s.Scale(k).Contains(x); got != want {
			t.Errorf("ContainsScaled(%v, %v) = %v, Scale(%v).Contains = %v", x, k, got, k, want)
		}
	}
}
