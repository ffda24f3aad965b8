package mathx

import (
	"errors"
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

// TestFindAllRootsRefinedFindsSubPanelRegion pins the near-touch search: a
// Lorentzian bump 2/(1+((x−c)/w)²) − 1, positive exactly on (c−w, c+w) and
// five times narrower than one panel, is dropped by FindAllRoots and found
// by FindAllRootsRefined, for a bump and for the mirrored dip. A touch
// without a crossing stays rootless.
func TestFindAllRootsRefinedFindsSubPanelRegion(t *testing.T) {
	const c, w = 0.537, 0.01
	bump := func(x float64) float64 { z := (x - c) / w; return 2/(1+z*z) - 1 }
	dip := func(x float64) float64 { return -bump(x) }
	for name, f := range map[string]Func1{"bump": bump, "dip": dip} {
		if got := FindAllRoots(f, 0, 1, 10, 1e-13); got != nil {
			t.Fatalf("%s: FindAllRoots found %v, want nil (the region is inside one panel)", name, got)
		}
		got := FindAllRootsRefined(f, 0, 1, 10, 1e-13)
		if len(got) != 2 || !almostEqual(got[0], c-w, 1e-10) || !almostEqual(got[1], c+w, 1e-10) {
			t.Errorf("%s: FindAllRootsRefined = %v, want [%v %v]", name, got, c-w, c+w)
		}
	}
	touch := func(x float64) float64 { return -(x - c) * (x - c) }
	if got := FindAllRootsRefined(touch, 0, 1, 10, 1e-13); got != nil {
		t.Errorf("touch: FindAllRootsRefined = %v, want nil", got)
	}
}

// TestFindAllRootsRefinedKeepsCrossings checks that the refinement leaves
// every well-separated crossing exactly where FindAllRoots puts it.
func TestFindAllRootsRefinedKeepsCrossings(t *testing.T) {
	for _, f := range []Func1{
		func(x float64) float64 { return (x - 1) * (x - 2) * (x - 3) },
		math.Sin,
		func(x float64) float64 { return x*x + 1 },
	} {
		want := FindAllRoots(f, 0.5, 7, 200, 1e-12)
		got := FindAllRootsRefined(f, 0.5, 7, 200, 1e-12)
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
