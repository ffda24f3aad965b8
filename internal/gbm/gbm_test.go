package gbm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// defaultProc matches Table III: µ = 0.002/hour, σ = 0.1/sqrt(hour).
func defaultProc() Process { return Process{Mu: 0.002, Sigma: 0.1} }

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name      string
		mu, sigma float64
		wantErr   bool
	}{
		{"tableIII", 0.002, 0.1, false},
		{"negativeDrift", -0.002, 0.1, false},
		{"zeroDrift", 0, 0.1, false},
		{"zeroSigma", 0.002, 0, true},
		{"negativeSigma", 0.002, -0.1, true},
		{"nanMu", math.NaN(), 0.1, true},
		{"infSigma", 0, math.Inf(1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.mu, tt.sigma)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%v,%v) err = %v, wantErr %v", tt.mu, tt.sigma, err, tt.wantErr)
			}
		})
	}
}

func TestTransitionValidation(t *testing.T) {
	g := defaultProc()
	if _, err := g.Transition(0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("p=0 should fail, got %v", err)
	}
	if _, err := g.Transition(2, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("tau=0 should fail, got %v", err)
	}
	l, err := g.Transition(2, 4)
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	wantMu := math.Log(2) + (0.002-0.005)*4
	if !almostEqual(l.Mu, wantMu, 1e-15) {
		t.Errorf("Mu = %v, want %v", l.Mu, wantMu)
	}
	if !almostEqual(l.Sigma, 0.2, 1e-15) {
		t.Errorf("Sigma = %v, want 0.2", l.Sigma)
	}
}

func TestExpectationMatchesPaper(t *testing.T) {
	// E(P_t, τ) = P_t e^{µτ} per §III.A.
	g := defaultProc()
	tests := []struct {
		p, tau float64
	}{
		{2, 4}, {2, 3}, {1.5, 1}, {0.1, 10},
	}
	for _, tt := range tests {
		want := tt.p * math.Exp(g.Mu*tt.tau)
		if got := g.E(tt.p, tt.tau); !almostEqual(got, want, 1e-14) {
			t.Errorf("E(%v,%v) = %v, want %v", tt.p, tt.tau, got, want)
		}
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	g := defaultProc()
	gl := mathx.MustGaussLegendre(64)
	got := gl.IntegratePanels(func(x float64) float64 { return g.PDF(x, 2, 4) }, 1e-9, 10, 32)
	if !almostEqual(got, 1, 1e-9) {
		t.Errorf("∫PDF = %.12f, want 1", got)
	}
}

func TestPDFIsDensityOfCDF(t *testing.T) {
	g := defaultProc()
	const p, tau = 2.0, 4.0
	for _, x := range []float64{1.0, 1.8, 2.0, 2.5, 3.5} {
		h := 1e-6
		numDeriv := (g.CDF(x+h, p, tau) - g.CDF(x-h, p, tau)) / (2 * h)
		if got := g.PDF(x, p, tau); !almostEqual(got, numDeriv, 1e-5) {
			t.Errorf("PDF(%v) = %.10f, dCDF/dx ≈ %.10f", x, got, numDeriv)
		}
	}
}

func TestMeanConsistentWithPDF(t *testing.T) {
	// ∫ x·PDF = E: the density and the closed-form expectation must agree.
	g := Process{Mu: 0.004, Sigma: 0.15}
	gl := mathx.MustGaussLegendre(80)
	const p, tau = 2.0, 5.0
	got := gl.IntegratePanels(func(x float64) float64 { return x * g.PDF(x, p, tau) }, 1e-9, 20, 40)
	if want := g.E(p, tau); !almostEqual(got, want, 1e-8) {
		t.Errorf("∫x·PDF = %.12f, want E = %.12f", got, want)
	}
}

func TestTailProbComplementsCDF(t *testing.T) {
	g := defaultProc()
	err := quick.Check(func(a float64) bool {
		x := 0.01 + math.Mod(math.Abs(a), 10)
		return math.Abs(g.CDF(x, 2, 4)+g.TailProb(x, 2, 4)-1) < 1e-12
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestPartialExpectationsSplitMean(t *testing.T) {
	g := defaultProc()
	const p, tau = 2.0, 4.0
	for _, k := range []float64{0.5, 1.48, 2, 3.7} {
		sum := g.PartialExpectationAbove(k, p, tau) + g.PartialExpectationBelow(k, p, tau)
		if want := g.E(p, tau); !almostEqual(sum, want, 1e-12) {
			t.Errorf("partials at k=%v sum to %v, want %v", k, sum, want)
		}
	}
}

func TestQuantileRoundTrip(t *testing.T) {
	g := defaultProc()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		x, err := g.Quantile(q, 2, 4)
		if err != nil {
			t.Fatalf("Quantile: %v", err)
		}
		if got := g.CDF(x, 2, 4); !almostEqual(got, q, 1e-10) {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	if _, err := g.Quantile(0.5, -1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative price should fail, got %v", err)
	}
}

func TestStepMatchesTransitionMoments(t *testing.T) {
	g := defaultProc()
	rng := rand.New(rand.NewSource(7))
	const p, tau, n = 2.0, 4.0, 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Step(rng, p, tau)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	if want := g.E(p, tau); !almostEqual(mean, want, 0.01) {
		t.Errorf("sample mean = %v, want ≈ %v", mean, want)
	}
	l, err := g.Transition(p, tau)
	if err != nil {
		t.Fatal(err)
	}
	variance := sumSq/n - mean*mean
	if want := l.Variance(); math.Abs(variance-want)/want > 0.05 {
		t.Errorf("sample variance = %v, want ≈ %v", variance, want)
	}
}

func TestPath(t *testing.T) {
	g := defaultProc()
	rng := rand.New(rand.NewSource(3))
	path, err := g.Path(rng, 2, 0.5, 10)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(path) != 11 {
		t.Fatalf("len = %d, want 11", len(path))
	}
	if _, err := g.Path(rng, 2, -1, 10); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative dt should fail, got %v", err)
	}
}

func TestCalibrateRecoversParameters(t *testing.T) {
	want := Process{Mu: 0.004, Sigma: 0.12}
	rng := rand.New(rand.NewSource(99))
	const dt = 1.0
	path, err := want.Path(rng, 2, dt, 200000)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	got, err := Calibrate(path, dt)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if math.Abs(got.Sigma-want.Sigma)/want.Sigma > 0.01 {
		t.Errorf("Sigma = %v, want ≈ %v", got.Sigma, want.Sigma)
	}
	// Drift is notoriously noisy; just require the right ballpark.
	if math.Abs(got.Mu-want.Mu) > 0.002 {
		t.Errorf("Mu = %v, want ≈ %v", got.Mu, want.Mu)
	}
}

func TestCalibrateErrors(t *testing.T) {
	tests := []struct {
		name   string
		prices []float64
		dt     float64
	}{
		{"tooShort", []float64{1, 2}, 1},
		{"badDT", []float64{1, 2, 3}, 0},
		{"nonPositive", []float64{1, -2, 3}, 1},
		{"constant", []float64{2, 2, 2, 2}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Calibrate(tt.prices, tt.dt); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestMartingaleProperty(t *testing.T) {
	// Property: discounted at µ, the expectation is invariant over horizons
	// (tower property of the GBM expectation).
	g := Process{Mu: 0.01, Sigma: 0.2}
	err := quick.Check(func(a, b float64) bool {
		p := 0.1 + math.Mod(math.Abs(a), 10)
		tau1 := 0.1 + math.Mod(math.Abs(b), 5)
		tau2 := tau1 + 2
		lhs := g.E(g.E(p, tau1), tau2-tau1)
		rhs := g.E(p, tau2)
		return math.Abs(lhs-rhs) < 1e-9*rhs
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
