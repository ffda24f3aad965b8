package gbm

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepZMatchesStep pins the pre-drawn core to the per-event sampler:
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
