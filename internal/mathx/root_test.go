package mathx

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBrent(t *testing.T) {
	tests := []struct {
		name string
		f    Func1
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 3 }, 0, 5, 1.5},
		{"cos", math.Cos, 0, 3, math.Pi / 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 2 }, 0, 2, math.Ln2},
		{"flatish", func(x float64) float64 { return math.Pow(x-1, 3) }, 0, 3, 1},
		{"endpointA", func(x float64) float64 { return x }, 0, 1, 0},
		{"endpointB", func(x float64) float64 { return x - 1 }, 0.5, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Brent(tt.f, tt.a, tt.b, 1e-13)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-7) {
				t.Errorf("Brent = %.12f, want %.12f", got, tt.want)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 + x*x }, -2, 2, 1e-10)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("error = %v, want ErrNoBracket", err)
	}
}

func TestBrentFindsLinearRootExactly(t *testing.T) {
	// Property: for random lines with a sign change, Brent recovers the root.
	err := quick.Check(func(m, c float64) bool {
		slope := 1 + math.Abs(m) // keep slope away from zero
		root := c
		f := func(x float64) float64 { return slope * (x - root) }
		lo, hi := root-5, root+7
		got, err := Brent(f, lo, hi, 1e-13)
		return err == nil && math.Abs(got-root) < 1e-7
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestFindAllRoots(t *testing.T) {
	tests := []struct {
		name string
		f    Func1
		a, b float64
		n    int
		want []float64
	}{
		{
			name: "cubicThreeRoots",
			f:    func(x float64) float64 { return (x - 1) * (x - 2) * (x - 3) },
			a:    0, b: 4, n: 100,
			want: []float64{1, 2, 3},
		},
		{
			name: "sine",
			f:    math.Sin,
			a:    0.5, b: 7, n: 200,
			want: []float64{math.Pi, 2 * math.Pi},
		},
		{
			name: "noRoots",
			f:    func(x float64) float64 { return x*x + 1 },
			a:    -3, b: 3, n: 50,
			want: nil,
		},
		{
			name: "singleRoot",
			f:    func(x float64) float64 { return x - 0.25 },
			a:    0, b: 1, n: 10,
			want: []float64{0.25},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FindAllRoots(tt.f, tt.a, tt.b, tt.n, 1e-12)
			if len(got) != len(tt.want) {
				t.Fatalf("found %d roots %v, want %d %v", len(got), got, len(tt.want), tt.want)
			}
			for i := range got {
				if !almostEqual(got[i], tt.want[i], 1e-7) {
					t.Errorf("root[%d] = %.12f, want %.12f", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestFindAllRootsDegenerateInput(t *testing.T) {
	if got := FindAllRoots(math.Sin, 1, 0, 10, 1e-10); got != nil {
		t.Errorf("reversed interval: got %v, want nil", got)
	}
	if got := FindAllRoots(math.Sin, 0, 1, 0, 1e-10); got != nil {
		t.Errorf("zero panels: got %v, want nil", got)
	}
}

// refinedScan is FindRootsNear's scan of the window [lo, hi], the
// reference its carried roots must equal bit for bit.
func refinedScan(f Func1, a, b float64, n int, lo, hi, tol float64) []float64 {
	first, last := window(a, b, n, lo, hi)
	return scanRoots(f, a, b, n, first, last, tol, true)
}

// TestRefinedScanFindsSubPanelRegion pins the near-touch search: a
// Lorentzian bump 2/(1+((x−c)/w)²) − 1, positive exactly on (c−w, c+w) and
// five times narrower than one panel, is dropped by FindAllRoots and found
// by FindRootsNear's scan of the whole grid, for a bump and for the
// mirrored dip. A touch without a crossing stays rootless.
func TestRefinedScanFindsSubPanelRegion(t *testing.T) {
	inf := math.Inf(1)
	const c, w = 0.537, 0.01
	bump := func(x float64) float64 { z := (x - c) / w; return 2/(1+z*z) - 1 }
	dip := func(x float64) float64 { return -bump(x) }
	for name, f := range map[string]Func1{"bump": bump, "dip": dip} {
		if got := FindAllRoots(f, 0, 1, 10, 1e-13); got != nil {
			t.Fatalf("%s: FindAllRoots found %v, want nil (the region is inside one panel)", name, got)
		}
		got, _ := FindRootsNear(f, 0, 1, 10, -inf, inf, 1e-13, nil, 3)
		if len(got) != 2 || !almostEqual(got[0], c-w, 1e-10) || !almostEqual(got[1], c+w, 1e-10) {
			t.Errorf("%s: FindRootsNear = %v, want [%v %v]", name, got, c-w, c+w)
		}
	}
	touch := func(x float64) float64 { return -(x - c) * (x - c) }
	if got, _ := FindRootsNear(touch, 0, 1, 10, -inf, inf, 1e-13, nil, 3); got != nil {
		t.Errorf("touch: FindRootsNear = %v, want nil", got)
	}
}

// TestRefinedScanKeepsCrossings checks that the near-touch refinement
// leaves every well-separated crossing exactly where FindAllRoots puts it.
func TestRefinedScanKeepsCrossings(t *testing.T) {
	for _, f := range []Func1{
		func(x float64) float64 { return (x - 1) * (x - 2) * (x - 3) },
		math.Sin,
		func(x float64) float64 { return x*x + 1 },
	} {
		want := FindAllRoots(f, 0.5, 7, 200, 1e-12)
		got := refinedScan(f, 0.5, 7, 200, math.Inf(-1), math.Inf(1), 1e-12)
		if len(got) != len(want) {
			t.Fatalf("refined %v, plain %v", got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("root[%d]: refined %v, plain %v", i, got[i], want[i])
			}
		}
	}
}

// TestWindowedScanMatchesFullScan checks FindRootsNear's windowed scan on
// a cubic with three crossings plus a region narrower than one panel:
// f > 0 on [0, 0.9] and f < 0 on [4.1, 8], so every settled range inside
// those returns the full refined scan's roots bit for bit, while
// evaluating f only within two panels of the unsettled range, and ranges
// reaching past the domain scan the full grid. A range that wrongly
// settles a root loses it.
func TestWindowedScanMatchesFullScan(t *testing.T) {
	const a, b, n, tol = 0.0, 8.0, 200, 1e-12
	f := func(x float64) float64 {
		z := (x - 1.7) / 0.005
		return -(x-1)*(x-2.5)*(x-4) + 3/(1+z*z)
	}
	want := refinedScan(f, a, b, n, math.Inf(-1), math.Inf(1), tol)
	if len(want) != 5 {
		t.Fatalf("full scan found %v, want 5 roots", want)
	}
	same := func(got []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	const h = (b - a) / n
	for _, lo := range []float64{math.Inf(-1), -1, a, 0.013, 0.3, 0.57, 0.9} {
		for _, hi := range []float64{4.1, 4.37, 6, 7.99, b, 9, math.Inf(1)} {
			minX, maxX := math.Inf(1), math.Inf(-1)
			got, _ := FindRootsNear(func(x float64) float64 {
				minX, maxX = math.Min(minX, x), math.Max(maxX, x)
				return f(x)
			}, a, b, n, lo, hi, tol, nil, 3)
			if !same(got) {
				t.Fatalf("settled outside [%g, %g]: %v, full scan %v", lo, hi, got, want)
			}
			if minX < math.Max(a, lo-3*h) || maxX > math.Min(b, hi+3*h) {
				t.Errorf("settled outside [%g, %g]: evaluated f on [%g, %g]", lo, hi, minX, maxX)
			}
		}
	}
	if got, _ := FindRootsNear(f, a, b, n, 1.2, math.Inf(1), tol, nil, 3); same(got) {
		t.Errorf("a range settling the root at 1 still returned %v", got)
	}
}

// TestFindRootsNearMatchesScan carries roots along families of functions
// with at most three roots and checks every result against its windowed
// scan (refinedScan) bit for bit: a drifting cubic (carried after
// the first member), a pair dying inside one panel and being born again,
// a hint that jumped too far, and hints whose count or signs do not fit
// f (all scanned).
func TestFindRootsNearMatchesScan(t *testing.T) {
	const a, b, n, tol = 0.0, 8.0, 200, 1e-12
	lo, hi := 0.5, 7.5
	same := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	run := func(name string, f Func1, prev []float64, wantCarried bool) []float64 {
		t.Helper()
		want := refinedScan(f, a, b, n, lo, hi, tol)
		got, carried := FindRootsNear(f, a, b, n, lo, hi, tol, prev, 3)
		if !same(got, want) {
			t.Errorf("%s: carried %v from %v, scan %v", name, got, prev, want)
		}
		if carried != wantCarried {
			t.Errorf("%s: carried = %v, want %v (prev %v, roots %v)", name, carried, wantCarried, prev, want)
		}
		return got
	}
	// Three roots drifting right by 1.25 panels per member.
	var prev []float64
	for k := 0; k <= 40; k++ {
		c := 0.05 * float64(k)
		f := func(x float64) float64 { return -(x - 1.013 - c) * (x - 2.507 - c/2) * (x - 4.011 - c) }
		prev = run(fmt.Sprintf("drift c=%g", c), f, prev, k > 0)
	}
	// The pair around 3 shrinks into one panel (found by the scan's
	// near-touch search), vanishes, and comes back.
	prev = nil
	carries := 0
	for k := 0; k <= 60; k++ {
		d := math.Abs(0.6 - 0.0203*float64(k)) // half-width of the pair
		f := func(x float64) float64 { return -(x - 1.013) * ((x-3.007)*(x-3.007) - d*d + 1e-3) }
		want := refinedScan(f, a, b, n, lo, hi, tol)
		got, carried := FindRootsNear(f, a, b, n, lo, hi, tol, prev, 3)
		if !same(got, want) {
			t.Errorf("pair d=%g: carried %v from %v, scan %v", d, got, prev, want)
		}
		if carried {
			carries++
			if prev[2]-prev[1] < carryMinGap*(b-a)/n {
				t.Errorf("pair d=%g: carried %v, a pair within %d panels", d, prev, carryMinGap)
			}
		}
		prev = got
	}
	if carries == 0 {
		t.Error("the pair family never carried its roots")
	}
	t.Logf("the pair family carried %d of 61 members", carries)
	cubic := func(x float64) float64 { return -(x - 1.013) * (x - 2.507) * (x - 4.011) }
	run("jump of 20 panels", cubic, []float64{1.8, 3.3, 4.8}, false)
	run("one-root hint", cubic, []float64{2.5}, false)
	run("three-root hint, one root", func(x float64) float64 { return 2.013 - x }, []float64{1, 2.5, 4}, false)
	run("three-root hint, flipped signs", func(x float64) float64 { return -cubic(x) }, []float64{1, 2.5, 4}, true)
	run("no hint", cubic, nil, false)
}

func TestLinSpace(t *testing.T) {
	got := LinSpace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-15) {
			t.Errorf("LinSpace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if LinSpace(0, 1, 1) != nil {
		t.Error("LinSpace with n<2 should be nil")
	}
}
