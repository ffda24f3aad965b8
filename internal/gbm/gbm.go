// Package gbm models Token_b's price (denominated in Token_a) as the
// geometric Brownian motion of the paper's Assumption 4 (Eq. 1 of
// arXiv:2011.11325):
//
//	ln(P_{t+τ}/P_t) = (µ − σ²/2)τ + σ(W_{t+τ} − W_t)
//
// It exposes the paper's E(P_t, τ), P(x, P_t, τ) and C(x, P_t, τ) notation
// (expectation, transition density and transition CDF), exact lognormal path
// sampling for the Monte Carlo protocol simulator, and maximum-likelihood
// calibration from an observed price series (the "real market data" future
// direction of §V.B, exercised on synthetic data).
package gbm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
)

// Errors returned by this package.
var (
	// ErrBadParam reports invalid process parameters.
	ErrBadParam = errors.New("gbm: invalid parameter")
	// ErrBadSeries reports a price series unsuitable for calibration.
	ErrBadSeries = errors.New("gbm: invalid price series")
)

// Process is a geometric Brownian motion with drift Mu (per hour) and
// volatility Sigma (per sqrt-hour), matching the units of Table III.
type Process struct {
	Mu    float64
	Sigma float64
}

// New validates the parameters and returns the process. Sigma must be
// strictly positive; Mu may take any finite sign (§III.F.4 explores µ < 0).
func New(mu, sigma float64) (Process, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return Process{}, fmt.Errorf("%w: sigma=%g must be > 0", ErrBadParam, sigma)
	}
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return Process{}, fmt.Errorf("%w: mu=%g must be finite", ErrBadParam, mu)
	}
	return Process{Mu: mu, Sigma: sigma}, nil
}

// Transition returns the lognormal law of P_{t+tau} given P_t = p.
// tau must be positive and p must be positive.
func (g Process) Transition(p, tau float64) (dist.LogNormal, error) {
	if p <= 0 {
		return dist.LogNormal{}, fmt.Errorf("%w: price p=%g must be > 0", ErrBadParam, p)
	}
	if tau <= 0 {
		return dist.LogNormal{}, fmt.Errorf("%w: horizon tau=%g must be > 0", ErrBadParam, tau)
	}
	return dist.LogNormal{
		Mu:    math.Log(p) + (g.Mu-g.Sigma*g.Sigma/2)*tau,
		Sigma: g.Sigma * math.Sqrt(tau),
	}, nil
}

// mustTransition is Transition for internal call sites that have already
// validated p > 0 and tau > 0.
func (g Process) mustTransition(p, tau float64) dist.LogNormal {
	l, err := g.Transition(p, tau)
	if err != nil {
		panic(err)
	}
	return l
}

// mustArgs panics unless p and tau are finite and strictly positive — the
// same convention mustTransition enforces for PDF/CDF, applied to the cheap
// hot-path methods so a tau <= 0 (or NaN) can never leak a silently
// NaN-tainted price into a simulation.
func mustArgs(p, tau float64) {
	if !(p > 0) || !(tau > 0) || math.IsInf(p, 0) || math.IsInf(tau, 0) {
		panic(fmt.Errorf("%w: price p=%g and horizon tau=%g must be finite and > 0", ErrBadParam, p, tau))
	}
}

// E returns E[P_{t+tau} | P_t = p] = p·e^{µτ}, the paper's E(P_t, τ).
func (g Process) E(p, tau float64) float64 {
	mustArgs(p, tau)
	return p * math.Exp(g.Mu*tau)
}

// PDF returns the transition density P(x, P_t, τ) of the paper: the density
// of P_{t+tau} at x given P_t = p. It is zero for x <= 0.
func (g Process) PDF(x, p, tau float64) float64 {
	return g.mustTransition(p, tau).PDF(x)
}

// CDF returns the transition CDF C(x, P_t, τ): P[P_{t+tau} <= x | P_t = p].
func (g Process) CDF(x, p, tau float64) float64 {
	return g.mustTransition(p, tau).CDF(x)
}

// TailProb returns P[P_{t+tau} > x | P_t = p] = 1 − C(x, P_t, τ), computed
// without cancellation in the deep tail.
func (g Process) TailProb(x, p, tau float64) float64 {
	return g.mustTransition(p, tau).TailProb(x)
}

// PartialExpectationAbove returns E[P_{t+tau} · 1{P_{t+tau} > k} | P_t = p],
// the truncated moment used to evaluate the stage utilities in closed form.
func (g Process) PartialExpectationAbove(k, p, tau float64) float64 {
	return g.mustTransition(p, tau).PartialExpectationAbove(k)
}

// PartialExpectationBelow returns E[P_{t+tau} · 1{P_{t+tau} <= k} | P_t = p].
func (g Process) PartialExpectationBelow(k, p, tau float64) float64 {
	return g.mustTransition(p, tau).PartialExpectationBelow(k)
}

// Quantile returns the q-quantile of P_{t+tau} given P_t = p.
func (g Process) Quantile(q, p, tau float64) (float64, error) {
	l, err := g.Transition(p, tau)
	if err != nil {
		return 0, err
	}
	return l.Quantile(q)
}

// NormalSource yields independent standard-normal variates. *rand.Rand and
// the simulator's lazily seeded replica satisfy it, as does
// qmc.SlabNormals, which feeds low-discrepancy increments to the same
// price process.
type NormalSource interface {
	NormFloat64() float64
}

// Step samples P_{t+tau} given P_t = p with the exact lognormal increment.
// Like PDF and CDF it panics on non-positive or non-finite (p, tau).
func (g Process) Step(src NormalSource, p, tau float64) float64 {
	return g.StepZ(p, tau, src.NormFloat64())
}

// StepZ is Step with the standard normal increment z supplied by the
// caller — the deterministic core shared by every sampler mode. Step is
// StepZ of the source's next draw, so a pre-drawn increment is
// bit-identical to a per-event one.
func (g Process) StepZ(p, tau, z float64) float64 {
	mustArgs(p, tau)
	return p * math.Exp((g.Mu-g.Sigma*g.Sigma/2)*tau+g.Sigma*math.Sqrt(tau)*z)
}

// Path samples n equally spaced steps of size dt starting from p0,
// returning n+1 prices including the start.
func (g Process) Path(src NormalSource, p0, dt float64, n int) ([]float64, error) {
	if n < 0 || dt <= 0 || p0 <= 0 {
		return nil, fmt.Errorf("%w: path(p0=%g, dt=%g, n=%d)", ErrBadParam, p0, dt, n)
	}
	out := make([]float64, n+1)
	out[0] = p0
	for i := 1; i <= n; i++ {
		out[i] = g.Step(src, out[i-1], dt)
	}
	return out, nil
}

// Calibrate estimates (Mu, Sigma) by maximum likelihood from a price series
// sampled at uniform interval dt. The series must contain at least three
// positive prices so the variance estimate is defined.
func Calibrate(prices []float64, dt float64) (Process, error) {
	if dt <= 0 {
		return Process{}, fmt.Errorf("%w: dt=%g must be > 0", ErrBadParam, dt)
	}
	if len(prices) < 3 {
		return Process{}, fmt.Errorf("%w: need >= 3 prices, got %d", ErrBadSeries, len(prices))
	}
	n := len(prices) - 1
	rets := make([]float64, n)
	for i := 0; i < n; i++ {
		if prices[i] <= 0 || prices[i+1] <= 0 {
			return Process{}, fmt.Errorf("%w: non-positive price at index %d", ErrBadSeries, i)
		}
		rets[i] = math.Log(prices[i+1] / prices[i])
	}
	var mean float64
	for _, r := range rets {
		mean += r
	}
	mean /= float64(n)
	var ss float64
	for _, r := range rets {
		d := r - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	if variance <= 0 {
		return Process{}, fmt.Errorf("%w: zero return variance", ErrBadSeries)
	}
	sigma := math.Sqrt(variance / dt)
	mu := mean/dt + sigma*sigma/2
	return Process{Mu: mu, Sigma: sigma}, nil
}
