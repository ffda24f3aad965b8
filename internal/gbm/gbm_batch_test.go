package gbm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestStepZMatchesStep pins the batched core to the per-event sampler:
// StepZ with a pre-drawn normal is bit-identical to Step consuming the
// same draw.
func TestStepZMatchesStep(t *testing.T) {
	g := Process{Mu: 0.01, Sigma: 0.1}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	p := 2.0
	for i := 0; i < 100; i++ {
		want := g.Step(a, p, 0.5)
		if got := g.StepZ(p, 0.5, b.NormFloat64()); got != want {
			t.Fatalf("step %d: StepZ %v != Step %v", i, got, want)
		}
		p = want
	}
}

// TestFillNormalsOrder pins the slab fill to the per-event draw order.
func TestFillNormalsOrder(t *testing.T) {
	a := rand.New(rand.NewSource(11))
	b := rand.New(rand.NewSource(11))
	z := make([]float64, 64)
	FillNormals(a, z)
	for i, zi := range z {
		if want := b.NormFloat64(); zi != want {
			t.Fatalf("slab[%d] = %v, want %v", i, zi, want)
		}
	}
}

// TestStepBatchMatchesScalar pins the vector step to the scalar one,
// including with out aliasing p.
func TestStepBatchMatchesScalar(t *testing.T) {
	g := Process{Mu: -0.02, Sigma: 0.3}
	rng := rand.New(rand.NewSource(3))
	const n = 257
	p := make([]float64, n)
	z := make([]float64, n)
	for i := range p {
		p[i] = 0.5 + rng.Float64()*4
		z[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	for i := range p {
		want[i] = g.StepZ(p[i], 1.5, z[i])
	}
	out := make([]float64, n)
	if err := g.StepBatch(out, p, z, 1.5); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Aliased: out == p.
	if err := g.StepBatch(p, p, z, 1.5); err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("aliased out[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestStepBatchValidation(t *testing.T) {
	g := Process{Mu: 0, Sigma: 0.2}
	out, p, z := make([]float64, 2), []float64{1, 2}, make([]float64, 2)
	if err := g.StepBatch(out, p, z[:1], 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("mismatched lengths: err = %v, want ErrBadParam", err)
	}
	for _, tau := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := g.StepBatch(out, p, z, tau); !errors.Is(err, ErrBadParam) {
			t.Errorf("tau=%v: err = %v, want ErrBadParam", tau, err)
		}
	}
	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if err := g.StepBatch(out, []float64{1, bad}, z, 1); !errors.Is(err, ErrBadParam) {
			t.Errorf("p=%v: err = %v, want ErrBadParam", bad, err)
		}
	}
}

// TestHotPathValidation pins the package-wide convention: the cheap
// hot-path methods panic on invalid (p, tau) exactly like PDF/CDF, instead
// of silently emitting NaN-tainted prices or garbage expectations.
func TestHotPathValidation(t *testing.T) {
	g := Process{Mu: 0.01, Sigma: 0.2}
	rng := rand.New(rand.NewSource(5))
	bad := []struct {
		name   string
		p, tau float64
	}{
		{"tau=0", 2, 0},
		{"tau<0", 2, -1},
		{"tau=NaN", 2, math.NaN()},
		{"tau=+Inf", 2, math.Inf(1)},
		{"p=0", 0, 1},
		{"p<0", -2, 1},
		{"p=NaN", math.NaN(), 1},
		{"p=+Inf", math.Inf(1), 1},
	}
	for _, c := range bad {
		for name, call := range map[string]func(){
			"Step":  func() { g.Step(rng, c.p, c.tau) },
			"StepZ": func() { g.StepZ(c.p, c.tau, 0.1) },
			"E":     func() { g.E(c.p, c.tau) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with %s did not panic", name, c.name)
					}
				}()
				call()
			}()
		}
	}
	// Valid inputs must not panic and must stay finite.
	if x := g.Step(rng, 2, 0.5); math.IsNaN(x) || x <= 0 {
		t.Errorf("Step(2, 0.5) = %v, want positive finite", x)
	}
	if x := g.E(2, 0.5); math.IsNaN(x) || x <= 0 {
		t.Errorf("E(2, 0.5) = %v, want positive finite", x)
	}
}
