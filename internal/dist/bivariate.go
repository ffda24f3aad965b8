package dist

import (
	"math"

	"repro/internal/mathx"
)

// BivariateNormal is the standard bivariate normal law with correlation ρ.
// Its CDF Φ₂(h, k; ρ) = P[X ≤ h, Y ≤ k] follows Genz's algorithm (A. Genz,
// "Numerical computation of rectangular bivariate and trivariate normal
// probabilities", Statistics and Computing 14:251–260, 2004), accurate to
// about 1e-15 absolute for every ρ in [−1, 1]:
//
//   - |ρ| < 0.925: Φ(h)Φ(k) plus the integral of the density over the
//     correlation, after r = sin θ, by a 6-, 12- or 20-point
//     Gauss–Legendre rule for |ρ| < 0.3, < 0.75 and above;
//   - |ρ| ≥ 0.925: the limit law at ρ = ±1 plus a correction in √(1−ρ²):
//     its singular part in series, the rest by the 20-point rule.
//
// What depends on |ρ| alone — the rule and, per node, sin θ and 1/cos²θ
// or the expansion's abscissae — is computed once by NewBivariateNormal
// and shared with Neg's law.
type BivariateNormal struct {
	rho  float64
	rule *bvnRule
}

// bvnRule is the |ρ|-only part of a BivariateNormal.
type bvnRule struct {
	n       int
	w, u, v [20]float64 // per node: weight; sin θ and 1/cos²θ, or xs and √(1−xs)
	c       float64     // asin(|ρ|)/(4π), or 1−ρ² from 0.925 on
}

// genzRules are Genz's 6-, 12- and 20-point Gauss–Legendre rules.
var genzRules = [3]*mathx.GaussLegendre{mathx.MustGaussLegendre(6), mathx.MustGaussLegendre(12), mathx.MustGaussLegendre(20)}

// NewBivariateNormal returns the law at correlation rho; a rho outside
// [−1, 1] gives a law whose CDF is NaN.
func NewBivariateNormal(rho float64) BivariateNormal {
	r := math.Abs(rho)
	if !(r <= 1) {
		return BivariateNormal{rho: math.NaN()}
	}
	gl := genzRules[2]
	if r < 0.3 {
		gl = genzRules[0]
	} else if r < 0.75 {
		gl = genzRules[1]
	}
	t, asr := &bvnRule{n: gl.N(), c: (1 - r) * (1 + r)}, math.Asin(r)
	for i := range t.n {
		x, w := gl.Node(i)
		t.w[i] = w
		if r < 0.925 {
			sn := math.Sin(asr * (1 + x) / 2)
			t.u[i], t.v[i] = sn, 1/((1-sn)*(1+sn))
		} else {
			t.u[i] = t.c * (1 + x) * (1 + x) / 4
			t.v[i] = math.Sqrt(1 - t.u[i])
		}
	}
	if r < 0.925 {
		t.c = asr / (4 * math.Pi)
	}
	return BivariateNormal{rho: rho, rule: t}
}

// Neg returns the law at −ρ, the law of (X, −Y), sharing the tables.
func (b BivariateNormal) Neg() BivariateNormal { return BivariateNormal{rho: -b.rho, rule: b.rule} }

// BivariateNormalCDF returns Φ₂(h, k; rho) (see BivariateNormal.CDF).
func BivariateNormalCDF(h, k, rho float64) float64 { return NewBivariateNormal(rho).CDF(h, k) }

// CDF returns Φ₂(h, k; ρ) = P[X ≤ h, Y ≤ k]. Infinite limits are exact, as
// are limits beyond 39 standard deviations, whose tails underflow to 0; a
// NaN argument yields NaN.
func (b BivariateNormal) CDF(h, k float64) float64 { return b.upper(-h, -k, stdNormCDF(k)) }

// Rect returns P[lo < X ≤ hi, Y ≤ k] for lo ≤ hi: a difference of two CDF
// values, taken on the side of X's mean the interval leans to, so an
// interval in either tail of X does not cancel.
func (b BivariateNormal) Rect(lo, hi, k float64) float64 {
	pk := stdNormCDF(k)
	if lo+hi > 0 { // P[X > lo, Y ≤ k] − P[X > hi, Y ≤ k], through (X, −Y) at −ρ
		n := b.Neg()
		return n.upper(lo, -k, pk) - n.upper(hi, -k, pk)
	}
	return b.upper(-hi, -k, pk) - b.upper(-lo, -k, pk)
}

// upper returns P[X > h, Y > k], Genz's BVNU, given pk = Φ(−k).
func (b BivariateNormal) upper(h, k, pk float64) float64 {
	switch {
	case math.IsNaN(h) || math.IsNaN(k) || math.IsNaN(b.rho):
		return math.NaN()
	case h > 39 || k > 39:
		return 0
	case h < -39:
		return pk
	case k < -39:
		return stdNormCDF(-h)
	case b.rho == 0:
		return stdNormCDF(-h) * pk
	}
	t, hk := b.rule, h*k
	if math.Abs(b.rho) < 0.925 {
		c := t.c // sin θ is odd in ρ: −ρ negates hk and the prefactor
		if b.rho < 0 {
			hk, c = -hk, -c
		}
		hs, sum := (h*h+k*k)/2, 0.0
		for i := range t.n {
			sum += t.w[i] * math.Exp((t.u[i]*hk-hs)*t.v[i])
		}
		return clamp01(sum*c + stdNormCDF(-h)*pk)
	}
	if b.rho < 0 {
		k, hk = -k, -hk
	}
	var bvn float64
	if as := t.c; as > 0 {
		a, bs := math.Sqrt(as), (h-k)*(h-k)
		c, d := (4-hk)/8, (12-hk)/16
		bvn = a * math.Exp(-(bs/as+hk)/2) * (1 - c*(bs-as)*(1-d*bs/5)/3 + c*d*as*as/5)
		if hk > -160 {
			sb := math.Sqrt(bs)
			bvn -= math.Exp(-hk/2) * math.Sqrt(2*math.Pi) * stdNormCDF(-sb/a) * sb * (1 - c*bs*(1-d*bs/5)/3)
		}
		var sum float64
		for i := range t.n {
			xs, rs := t.u[i], t.v[i]
			sum += t.w[i] * (math.Exp(-bs/(2*xs)-hk/(1+rs))/rs - math.Exp(-(bs/xs+hk)/2)*(1+c*xs*(1+d*xs)))
		}
		bvn = -(bvn + a/2*sum) / (2 * math.Pi)
	}
	if b.rho > 0 {
		return clamp01(bvn + stdNormCDF(-math.Max(h, k)))
	}
	// ρ < 0, k negated: the band Φ(−h) − Φ(−k), taken on the side of 0
	// where it does not cancel, less the correction.
	band := stdNormCDF(-h) - stdNormCDF(-k)
	if h < 0 {
		band = stdNormCDF(k) - stdNormCDF(h)
	}
	return clamp01(math.Max(band, 0) - bvn)
}

// clamp01 clamps a probability to [0, 1].
func clamp01(p float64) float64 { return math.Min(math.Max(p, 0), 1) }
