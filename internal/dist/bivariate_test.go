package dist

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// bvnCorrelations straddles every branch edge of Genz's algorithm (0.3,
// 0.75, 0.925) on both sides of zero and reaches ±0.99.
var bvnCorrelations = []float64{
	-0.99, -0.93, -0.92, -0.76, -0.74, -0.31, -0.29, 0,
	0.29, 0.31, 0.74, 0.76, 0.92, 0.93, 0.956, 0.99,
}

// bvnLimits are the (h, k) pairs the property tests visit: the centre,
// both tails, mixed signs and the deep tails the solver's rectangles reach.
var bvnLimits = [][2]float64{
	{0, 0}, {-2, -1}, {0.5, -0.3}, {1.3, 2.1}, {-3, 2.5}, {2, 2},
	{4, -4}, {-1.7, -1.7}, {-6, -5.5}, {7, 6.5}, {0.2, 5}, {-0.8, 0.05},
}

// bvnQuadrature is Φ₂(h, k; ρ) by 2-D Gauss–Legendre quadrature of the
// bivariate normal density, written as φ(x) times the conditional density
// of Y given X = x, N(ρx, 1−ρ²). Both coordinates are clipped to 12
// standard deviations (the mass beyond is below 1e-32) and split into
// panels of at most two of the integrand's standard deviations, on each of
// which the 20-point rule is exact to rounding.
func bvnQuadrature(h, k, rho float64) float64 {
	gl := mathx.MustGaussLegendre(20)
	s := math.Sqrt((1 - rho) * (1 + rho))
	panels := func(a, b, width float64) int { return int(math.Ceil((b-a)/width)) + 1 }
	inner := func(x float64) float64 {
		lo, hi := rho*x-12*s, math.Min(k, rho*x+12*s)
		if hi <= lo {
			return 0
		}
		cond := func(y float64) float64 { z := (y - rho*x) / s; return invSqrt2Pi / s * math.Exp(-z*z/2) }
		return gl.IntegratePanels(cond, lo, hi, panels(lo, hi, 2*s))
	}
	lo, hi := -12.0, math.Min(h, 12)
	if hi <= lo {
		return 0
	}
	outer := func(x float64) float64 { return invSqrt2Pi * math.Exp(-x*x/2) * inner(x) }
	return gl.IntegratePanels(outer, lo, hi, panels(lo, hi, 2*math.Min(1, s/math.Abs(rho))))
}

// TestBivariateNormalMatchesQuadrature checks Φ₂ against the 2-D
// quadrature reference to 1e-14 absolute at every correlation and limit
// pair, and logs the worst gap.
func TestBivariateNormalMatchesQuadrature(t *testing.T) {
	var worst float64
	for _, rho := range bvnCorrelations {
		b := NewBivariateNormal(rho)
		for _, hk := range bvnLimits {
			got, want := b.CDF(hk[0], hk[1]), bvnQuadrature(hk[0], hk[1], rho)
			worst = math.Max(worst, math.Abs(got-want))
			if math.Abs(got-want) > 1e-14 {
				t.Errorf("Φ₂(%g, %g; %g) = %.17g, quadrature %.17g (gap %.2g)", hk[0], hk[1], rho, got, want, math.Abs(got-want))
			}
		}
	}
	t.Logf("worst absolute gap %.2g", worst)
}

// TestBivariateNormalSymmetric checks Φ₂(h, k; ρ) = Φ₂(k, h; ρ), the
// reflection Φ₂(h, k; ρ) + Φ₂(h, −k; −ρ) = Φ(h), and that Neg's shared
// tables give the law at −ρ bit for bit.
func TestBivariateNormalSymmetric(t *testing.T) {
	for _, rho := range bvnCorrelations {
		neg := NewBivariateNormal(rho).Neg()
		for _, hk := range bvnLimits {
			h, k := hk[0], hk[1]
			if a, b := neg.CDF(h, k), BivariateNormalCDF(h, k, -rho); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("ρ=%g: Neg().CDF(%g, %g) = %v, law at −ρ %v", rho, h, k, a, b)
			}
			if a, b := BivariateNormalCDF(h, k, rho), BivariateNormalCDF(k, h, rho); math.Abs(a-b) > 1e-16 {
				t.Errorf("ρ=%g: Φ₂(%g, %g) = %v, Φ₂(%g, %g) = %v", rho, h, k, a, k, h, b)
			}
			sum := BivariateNormalCDF(h, k, rho) + BivariateNormalCDF(h, -k, -rho)
			if math.Abs(sum-stdNormCDF(h)) > 1e-15 {
				t.Errorf("ρ=%g, (%g, %g): Φ₂(h, k; ρ) + Φ₂(h, −k; −ρ) = %v, Φ(h) = %v", rho, h, k, sum, stdNormCDF(h))
			}
		}
	}
}

// TestBivariateNormalRect checks Rect against differences of CDF values,
// and that an interval in either tail of X keeps its relative precision,
// where the difference of two CDF values near 0 or 1 would cancel.
func TestBivariateNormalRect(t *testing.T) {
	for _, rho := range bvnCorrelations {
		b := NewBivariateNormal(rho)
		for _, hk := range bvnLimits {
			lo, hi, k := math.Min(hk[0], hk[1]), math.Max(hk[0], hk[1]), hk[0]+hk[1]
			if got, want := b.Rect(lo, hi, k), b.CDF(hi, k)-b.CDF(lo, k); math.Abs(got-want) > 1e-15 {
				t.Errorf("ρ=%g: Rect(%g, %g, %g) = %v, CDF difference %v", rho, lo, hi, k, got, want)
			}
		}
		for _, iv := range [][2]float64{{6, 7}, {-7, -6}} {
			want := stdNormCDF(-6) - stdNormCDF(-7)
			if got := b.Rect(iv[0], iv[1], math.Inf(1)); relativeGap(got, want) > 1e-14 {
				t.Errorf("ρ=%g: Rect(%g, %g, ∞) = %v, want %v", rho, iv[0], iv[1], got, want)
			}
		}
	}
}

// relativeGap is |got − want| relative to |want|.
func relativeGap(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestBivariateNormalIndependent checks Φ₂(h, k; 0) = Φ(h)Φ(k), and that a
// correlation just off zero stays within its first-order term.
func TestBivariateNormalIndependent(t *testing.T) {
	for _, hk := range bvnLimits {
		h, k := hk[0], hk[1]
		want := stdNormCDF(h) * stdNormCDF(k)
		if got := BivariateNormalCDF(h, k, 0); got != want {
			t.Errorf("Φ₂(%g, %g; 0) = %v, Φ(h)Φ(k) = %v", h, k, got, want)
		}
		// ∂Φ₂/∂ρ = φ₂(h, k; ρ) ≤ 1/(2π√(1−ρ²)) < 1/6 near ρ = 0.
		if got := BivariateNormalCDF(h, k, 1e-9); math.Abs(got-want) > 1e-9/6 {
			t.Errorf("Φ₂(%g, %g; 1e-9) = %v, Φ(h)Φ(k) = %v", h, k, got, want)
		}
	}
}

// TestBivariateNormalPerfectCorrelation checks the limits: Φ₂(h, k; 1) =
// Φ(min(h, k)) and Φ₂(h, k; −1) = max(0, Φ(h) − Φ(−k)), exactly at ρ = ±1
// and to 1e-6 at ρ = ±(1 − 1e-12), where the gap is O(√(1−ρ²)).
func TestBivariateNormalPerfectCorrelation(t *testing.T) {
	for _, hk := range bvnLimits {
		h, k := hk[0], hk[1]
		plus := stdNormCDF(math.Min(h, k))
		minus := math.Max(0, stdNormCDF(h)-stdNormCDF(-k))
		for _, c := range []struct {
			rho, want, tol float64
		}{{1, plus, 1e-16}, {-1, minus, 1e-16}, {1 - 1e-12, plus, 1e-6}, {-(1 - 1e-12), minus, 1e-6}} {
			if got := BivariateNormalCDF(h, k, c.rho); math.Abs(got-c.want) > c.tol {
				t.Errorf("Φ₂(%g, %g; %v) = %v, want %v", h, k, c.rho, got, c.want)
			}
		}
	}
}

// TestBivariateNormalEdges checks the infinite limits, the marginals and
// the invalid inputs.
func TestBivariateNormalEdges(t *testing.T) {
	inf := math.Inf(1)
	for _, rho := range bvnCorrelations {
		b := NewBivariateNormal(rho)
		for _, x := range []float64{-3, 0, 0.7, 2.5} {
			if got := b.CDF(x, inf); got != stdNormCDF(x) {
				t.Errorf("ρ=%g: Φ₂(%g, ∞) = %v, Φ = %v", rho, x, got, stdNormCDF(x))
			}
			if got := b.CDF(inf, x); got != stdNormCDF(x) {
				t.Errorf("ρ=%g: Φ₂(∞, %g) = %v, Φ = %v", rho, x, got, stdNormCDF(x))
			}
			if b.CDF(x, -inf) != 0 || b.CDF(-inf, x) != 0 {
				t.Errorf("ρ=%g: a −∞ limit at %g is not 0", rho, x)
			}
		}
		if b.CDF(inf, inf) != 1 || !math.IsNaN(b.CDF(math.NaN(), 0)) {
			t.Errorf("ρ=%g: Φ₂(∞, ∞) = %v, Φ₂(NaN, 0) = %v", rho, b.CDF(inf, inf), b.CDF(math.NaN(), 0))
		}
	}
	for _, rho := range []float64{1.0000001, -2, math.NaN()} {
		if got := BivariateNormalCDF(0, 0, rho); !math.IsNaN(got) {
			t.Errorf("Φ₂(0, 0; %v) = %v, want NaN", rho, got)
		}
	}
}
