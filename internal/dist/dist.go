// Package dist provides the lognormal distribution underlying the paper's
// price model (Assumption 4 of arXiv:2011.11325): if the log-price is
// Gaussian, the price P is lognormal, and every stage integral of §III–§IV
// that is affine in the future price reduces to the truncated first moments
// E[P·1{P ≤ k}] and E[P·1{P > k}] exposed here in closed form.
//
// All formulas route through erfc rather than 1−Φ so that deep-tail
// probabilities and truncated moments are computed without cancellation.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParam reports an invalid argument (such as a quantile level outside
// the open unit interval).
var ErrBadParam = errors.New("dist: invalid parameter")

// invSqrt2Pi is 1/sqrt(2π), the Gaussian density normaliser.
const invSqrt2Pi = 0.3989422804014326779399461

// LogNormal is the law of exp(Z) for Z ~ N(Mu, Sigma²). Sigma must be
// strictly positive; the zero value is not a valid distribution.
type LogNormal struct {
	// Mu is the mean of the underlying normal (the mean log-price).
	Mu float64
	// Sigma is the standard deviation of the underlying normal.
	Sigma float64
}

// stdNormCDF evaluates Φ(z) through erfc, exact in both tails.
func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// score returns the standardised log-coordinate (ln x − Mu)/Sigma.
func (l LogNormal) score(x float64) float64 {
	return (math.Log(x) - l.Mu) / l.Sigma
}

// PDF returns the density at x; it is zero for x ≤ 0.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := l.score(x)
	return invSqrt2Pi / (x * l.Sigma) * math.Exp(-0.5*z*z)
}

// CDF returns P[X ≤ x]; it is zero for x ≤ 0.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return stdNormCDF(l.score(x))
}

// TailProb returns P[X > x] = 1 − CDF(x), evaluated through the
// complementary error function so the deep upper tail does not cancel.
func (l LogNormal) TailProb(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return stdNormCDF(-l.score(x))
}

// Mean returns E[X] = exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + 0.5*l.Sigma*l.Sigma)
}

// Variance returns Var[X] = (exp(Sigma²) − 1)·exp(2Mu + Sigma²).
func (l LogNormal) Variance() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Expm1(s2) * math.Exp(2*l.Mu+s2)
}

// PartialExpectationBelow returns the lower truncated first moment
// E[X·1{X ≤ k}] = E[X]·Φ((ln k − Mu)/Sigma − Sigma); it is zero for k ≤ 0.
// Together with PartialExpectationAbove it splits the mean exactly.
func (l LogNormal) PartialExpectationBelow(k float64) float64 {
	if k <= 0 {
		return 0
	}
	return l.Mean() * stdNormCDF(l.score(k)-l.Sigma)
}

// PartialExpectationAbove returns the upper truncated first moment
// E[X·1{X > k}] = E[X]·Φ(Sigma − (ln k − Mu)/Sigma); it is the full mean
// for k ≤ 0.
func (l LogNormal) PartialExpectationAbove(k float64) float64 {
	if k <= 0 {
		return l.Mean()
	}
	return l.Mean() * stdNormCDF(l.Sigma-l.score(k))
}

// The AtLog variants below take the threshold (or evaluation point) twice:
// as x and as logx, which must equal math.Log(x). They exist for the solve
// engine's hot loops, where one fixed threshold is evaluated against many
// distributions: the caller hoists the logarithm out of the loop and every
// variant reproduces its plain counterpart bit for bit, because score(x)
// uses math.Log(x) and nothing else about x.

// CDFAtLog is CDF with the threshold's logarithm precomputed.
func (l LogNormal) CDFAtLog(x, logx float64) float64 {
	if x <= 0 {
		return 0
	}
	return stdNormCDF((logx - l.Mu) / l.Sigma)
}

// TailProbAtLog is TailProb with the threshold's logarithm precomputed.
func (l LogNormal) TailProbAtLog(x, logx float64) float64 {
	if x <= 0 {
		return 1
	}
	return stdNormCDF(-((logx - l.Mu) / l.Sigma))
}

// PartialExpectationBelowAtLog is PartialExpectationBelow with the
// threshold's logarithm precomputed.
func (l LogNormal) PartialExpectationBelowAtLog(k, logk float64) float64 {
	if k <= 0 {
		return 0
	}
	return l.Mean() * stdNormCDF((logk-l.Mu)/l.Sigma-l.Sigma)
}

// PartialExpectationAboveAtLog is PartialExpectationAbove with the
// threshold's logarithm precomputed.
func (l LogNormal) PartialExpectationAboveAtLog(k, logk float64) float64 {
	if k <= 0 {
		return l.Mean()
	}
	return l.Mean() * stdNormCDF(l.Sigma-(logk-l.Mu)/l.Sigma)
}

// Quantile returns the q-quantile exp(Mu + Sigma·Φ⁻¹(q)) for q in (0, 1).
func (l LogNormal) Quantile(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("%w: quantile level q=%g must be in (0, 1)", ErrBadParam, q)
	}
	return math.Exp(l.Mu + l.Sigma*math.Sqrt2*math.Erfinv(2*q-1)), nil
}
