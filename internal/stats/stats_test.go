package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.Var, 32.0/7, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if !almostEqual(s.StdErr, s.SD/math.Sqrt(8), 1e-12) {
		t.Errorf("StdErr = %v", s.StdErr)
	}
}

func TestSummarizeSingleAndEmpty(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.Mean != 3 || s.Var != 0 || s.SD != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty err = %v, want ErrBadInput", err)
	}
}

func TestNewProportion(t *testing.T) {
	p, err := NewProportion(714, 1000)
	if err != nil {
		t.Fatalf("NewProportion: %v", err)
	}
	if !almostEqual(p.P, 0.714, 1e-12) {
		t.Errorf("P = %v", p.P)
	}
	if !(p.Lo < 0.714 && 0.714 < p.Hi) {
		t.Errorf("interval [%v, %v] does not contain the point estimate", p.Lo, p.Hi)
	}
	// Wilson 95% width for n=1000, p≈0.71 is about ±0.028.
	if p.Hi-p.Lo < 0.04 || p.Hi-p.Lo > 0.07 {
		t.Errorf("interval width = %v, want ≈ 0.056", p.Hi-p.Lo)
	}
	if !p.Contains(0.72) || p.Contains(0.9) {
		t.Error("Contains misbehaves")
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestNewProportionEdges(t *testing.T) {
	p0, err := NewProportion(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Lo != 0 || p0.P != 0 {
		t.Errorf("zero-successes: %+v", p0)
	}
	p1, err := NewProportion(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hi != 1 || p1.P != 1 {
		t.Errorf("all-successes: %+v", p1)
	}
	for _, bad := range [][2]int{{-1, 10}, {11, 10}, {0, 0}} {
		if _, err := NewProportion(bad[0], bad[1]); !errors.Is(err, ErrBadInput) {
			t.Errorf("NewProportion(%v) err = %v", bad, err)
		}
	}
}

func TestProportionCoverageProperty(t *testing.T) {
	// Wilson intervals for the same p narrow as n grows.
	err := quick.Check(func(seed uint8) bool {
		n1 := 100 + int(seed)
		n2 := n1 * 10
		k1 := n1 * 7 / 10
		k2 := n2 * 7 / 10
		p1, err1 := NewProportion(k1, n1)
		p2, err2 := NewProportion(k2, n2)
		return err1 == nil && err2 == nil && (p2.Hi-p2.Lo) < (p1.Hi-p1.Lo)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, x := range []float64{0.5, 1.5, 1.6, 9.9, -5, 15} {
		h.Add(x)
	}
	if h.Total != 6 {
		t.Errorf("Total = %d, want 6", h.Total)
	}
	if h.Counts[0] != 2 { // 0.5 and clamped -5
		t.Errorf("Counts[0] = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("Counts[1] = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 15
		t.Errorf("Counts[9] = %d, want 2", h.Counts[9])
	}
	q, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0 || q > 10 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if _, err := h.Quantile(-0.1); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad quantile err = %v", err)
	}
	if _, err := NewHistogram(1, 0, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("inverted range err = %v", err)
	}
	if _, err := NewHistogram(0, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero bins err = %v", err)
	}
}

func TestHistogramQuantileNearestRank(t *testing.T) {
	// A single sample in the last bin: every quantile, including q=0, must
	// land on that bin's midpoint. The former float-cumulative implementation
	// satisfied cum >= target vacuously at q=0 and returned the midpoint of
	// the empty leading bin (0.5).
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	h.Add(9.2)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", q, err)
		}
		if got != 9.5 {
			t.Errorf("Quantile(%g) = %v, want 9.5 (midpoint of the only occupied bin)", q, got)
		}
	}

	// Occupied first and last bins with empty interior: q=0 picks the first
	// sample's bin, q=1 the last's, matching the nearest-rank Quantiles
	// estimator on raw samples.
	h2, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, x := range []float64{0.3, 0.4, 9.8} {
		h2.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 0.5},    // 1st of 3 samples → bin [0,1)
		{0.5, 0.5},  // ceil(1.5)=2nd sample → still bin [0,1)
		{0.67, 9.5}, // ceil(2.01)=3rd sample → bin [9,10)
		{1, 9.5},    // last sample's bin, not h.Hi
	}
	for _, c := range cases {
		got, err := h2.Quantile(c.q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}

	// Empty histogram still errors.
	h3, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if _, err := h3.Quantile(0.5); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty histogram err = %v", err)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	qs, err := Quantiles(xs, 0, 0.5, 1)
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("Quantiles = %v, want [1 3 5]", qs)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantiles sorted the caller's slice")
	}
	// Nearest rank: the q-quantile of n values is the ceil(q·n)-th smallest
	// (1-based). seq(n) holds n, …, 1, so once sorted value k sits at rank k.
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		n    int
		q    float64
		want float64
	}{
		{"q=0 is the minimum", 3, 0, 1},
		{"n=1 p99", 1, 0.99, 1},
		{"n=10 p50 exact", 10, 0.50, 5},
		{"n=10 p90 exact", 10, 0.90, 9},
		{"n=100 p99 exact", 100, 0.99, 99},
		{"n=10 p99 rounds up", 10, 0.99, 10},    // ceil(9.9) = 10, not 9
		{"n=150 p99 rounds up", 150, 0.99, 149}, // ceil(148.5) = 149, not 148
		{"q=1 is the maximum", 1000, 1, 1000},
	} {
		got, err := Quantiles(seq(tc.n), tc.q)
		if err != nil || got[0] != tc.want {
			t.Errorf("%s: Quantiles(n=%d, q=%v) = %v, %v; want %v", tc.name, tc.n, tc.q, got, err, tc.want)
		}
	}
	if _, err := Quantiles(nil, 0.5); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Quantiles(xs, 1.5); !errors.Is(err, ErrBadInput) {
		t.Errorf("out-of-range q err = %v", err)
	}
}

func TestWelfordMatchesBatchMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
		w.Add(xs[i])
	}
	want, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Mean-want.Mean) > 1e-12 {
		t.Errorf("mean %v, want %v", w.Mean, want.Mean)
	}
	if w.N != want.N {
		t.Errorf("n %d, want %d", w.N, want.N)
	}
	if math.Abs(w.Var()-want.Var) > 1e-9 {
		t.Errorf("var %v, want %v", w.Var(), want.Var)
	}
	if math.Abs(w.SD()-want.SD) > 1e-9 {
		t.Errorf("sd %v, want %v", w.SD(), want.SD)
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Welford
	var parts []Welford
	part := Welford{}
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		whole.Add(x)
		part.Add(x)
		if (i+1)%37 == 0 {
			parts = append(parts, part)
			part = Welford{}
		}
	}
	parts = append(parts, part)
	var merged Welford
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.N != whole.N {
		t.Fatalf("merged N %d, want %d", merged.N, whole.N)
	}
	if math.Abs(merged.Mean-whole.Mean) > 1e-12 || math.Abs(merged.Var()-whole.Var()) > 1e-9 {
		t.Errorf("merged (%v, %v), sequential (%v, %v)", merged.Mean, merged.Var(), whole.Mean, whole.Var())
	}
	// Merging into/from empty accumulators is the identity.
	var empty Welford
	before := merged
	merged.Merge(empty)
	if merged != before {
		t.Error("merging an empty accumulator changed the state")
	}
	empty.Merge(before)
	if empty != before {
		t.Error("merging into an empty accumulator did not copy")
	}
	if (Welford{N: 1, Mean: 3}).Var() != 0 {
		t.Error("variance of a single observation should be 0")
	}
}
