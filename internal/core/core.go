// Package core implements the paper's primary contribution: backward
// induction over the HTLC atomic-swap game of Xu, Ackerer and Dubovitskaya
// (arXiv:2011.11325, ICDCS 2021).
//
// Three solvers are provided:
//
//   - Model: the basic game of §III — stage utilities at t3/t2/t1
//     (Eqs. 14–28), the cut-off price P̄_t3 (Eq. 18), the continuation range
//     (P̲_t2, P̄_t2) (Eq. 24), the feasible exchange-rate range (P̲*, P̄*)
//     (Eqs. 29–30), and the success rate SR(P*) (Eq. 31).
//   - Collateral: the escrowed-collateral extension of §IV.A (Eqs. 32–40),
//     where the t2 continuation region 𝒫_t2 may be a union of intervals.
//   - Uncertain: the uncertain-exchange-rate extension of §IV.B
//     (Eqs. 41–46), where B picks the amount X* to lock and A picks the
//     amount P* to commit.
//
// The stage integrals are evaluated in closed form through the truncated
// lognormal moments of internal/dist wherever the integrand is affine in the
// future price, and by Gauss–Legendre or Gauss–Hermite quadrature otherwise.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/mathx"
	"repro/internal/memo"
	"repro/internal/utility"
)

// Errors returned by the solvers.
var (
	// ErrBadParam reports an invalid model parameter or argument.
	ErrBadParam = errors.New("core: invalid parameter")
	// ErrNotViable reports that no viable configuration exists (for example
	// OptimalRate when no exchange rate makes A initiate).
	ErrNotViable = errors.New("core: no viable configuration")
)

// Action is a decision in the two-element action set {cont, stop} of §III.C.
type Action int

const (
	// Stop withdraws from the swap at the current decision point.
	Stop Action = iota + 1
	// Cont continues the protocol at the current decision point.
	Cont
)

// String returns the paper's name for the action.
func (a Action) String() string {
	switch a {
	case Stop:
		return "stop"
	case Cont:
		return "cont"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Model solves the basic swap game for a fixed parameter set.
// Construct with New; the zero value is not usable.
//
// A Model is safe for concurrent use: its parameters, quadrature tables and
// precomputed constants are immutable after New, and the solve memo behind
// the expensive entry points (ContRangeT2, SuccessRate, FeasibleRateRange,
// …) is concurrency-safe. Repeated solves of the same cell —
// the same (query, collateral) under this Model's parameters and quadrature
// options — are computed once and shared.
type Model struct {
	params utility.Params
	gl     *mathx.GaussLegendre
	gh     *mathx.GaussHermite
	scanN  int
	tol    float64

	// k holds the parameter-only discount/transition constants of
	// Eqs. 14–46, precomputed once at New (see consts).
	k consts

	// solve memoizes the solve cells; held by pointer so that a Model is
	// never copied with live memo state (Bayesian.typedModel's copies
	// carry none).
	solve *solveMemo
}

// consts is the precomputed `exp((r−µ)τ)` discount-factor family of the
// stage utilities, plus the lognormal transition constants for the two
// decision horizons. Every field stores the bit-exact value of the
// subexpression it replaces (same math.Exp/math.Sqrt argument expressions
// as the original equations), so routing through consts cannot move any
// result by even one ULP. None of the fields depend on the premia α, which
// is what allows Bayesian's typed clones to share them.
type consts struct {
	// Alice's discount family.
	refundT3    float64 // exp(−rA(εb+2τa)): t8 refund seen from t3 (Eq. 16)
	qReturnA    float64 // exp(−rA(εb+τa)): A's returned deposit (Eq. 33/34)
	cutoffScale float64 // exp((rA−µ)τb): the cut-off scale of Eq. 18
	growthA     float64 // exp((µ−rA)τb): A's t3 cont growth (Eq. 14)
	discATauB   float64 // exp(−rA·τb): one-stage discount at t2 (Eq. 20)
	stopT2A     float64 // exp(−rA(τb+εb+2τa)): t8 refund seen from t2 (Eq. 22)
	discATauA   float64 // exp(−rA·τa): one-stage discount at t1 (Eq. 25)
	collStopA   float64 // exp(−rA(τb+τa)): forfeited deposits at t1 (Eq. 36)
	// Bob's discount family.
	bankB     float64 // exp(−rB(εb+τa)): B banks Token_a at t6 (Eq. 15)
	growth2B  float64 // exp(2(µ−rB)τb): B's two-stage growth (Eq. 17)
	discBTauA float64 // exp(−rB·τa): one-stage discount at t1 (Eq. 26)
	discBTauB float64 // exp(−rB·τb): one-stage discount at t2 (Eq. 21)
	// Lognormal transition constants: transition(p, τ) is
	// LogNormal{Mu: log(p) + drift, Sigma: sig} for each horizon.
	driftTauA, sigTauA float64
	driftTauB, sigTauB float64
}

// computeConsts evaluates the discount family for a validated parameter
// set, preserving the exact argument expressions of the stage utilities.
func computeConsts(p utility.Params) consts {
	a, b, c, pr := p.Alice, p.Bob, p.Chains, p.Price
	return consts{
		refundT3:    math.Exp(-a.R * (c.EpsB + 2*c.TauA)),
		qReturnA:    math.Exp(-a.R * (c.EpsB + c.TauA)),
		cutoffScale: math.Exp((a.R - pr.Mu) * c.TauB),
		growthA:     math.Exp((pr.Mu - a.R) * c.TauB),
		discATauB:   math.Exp(-a.R * c.TauB),
		stopT2A:     math.Exp(-a.R * (c.TauB + c.EpsB + 2*c.TauA)),
		discATauA:   math.Exp(-a.R * c.TauA),
		collStopA:   math.Exp(-a.R * (c.TauB + c.TauA)),
		bankB:       math.Exp(-b.R * (c.EpsB + c.TauA)),
		growth2B:    math.Exp(2 * (pr.Mu - b.R) * c.TauB),
		discBTauA:   math.Exp(-b.R * c.TauA),
		discBTauB:   math.Exp(-b.R * c.TauB),
		driftTauA:   (pr.Mu - pr.Sigma*pr.Sigma/2) * c.TauA,
		sigTauA:     pr.Sigma * math.Sqrt(c.TauA),
		driftTauB:   (pr.Mu - pr.Sigma*pr.Sigma/2) * c.TauB,
		sigTauB:     pr.Sigma * math.Sqrt(c.TauB),
	}
}

// solveKey identifies one solve cell under a fixed Model: the exchange
// rate and the collateral Q (0 in the basic game).
type solveKey struct {
	x, q float64
}

// rangeKind enumerates the memoized range computations.
type rangeKind struct {
	kind byte // 'F' feasible basic, 'A'/'B' collateral engagement
	q    float64
}

// solveMemoMax bounds each of the Model's solve memos. It covers the
// largest single-model sweep of the figure suite (under a thousand rates)
// without a flush, while a client sweeping one parameter set's exchange
// rate without end flushes instead of growing memory.
const solveMemoMax = 1024

// solveMemo is the Model's concurrency-safe solve cache. Every entry is a
// pure function of (Model parameters, quadrature options, key), so sharing
// across goroutines and artifacts cannot change any result. Only the cells
// that are revisited are memoized: B's unit-rate t2 region per deposit
// ratio κ = Q/P* (every rate and deposit with that ratio shares it, and
// the basic game is κ = 0), the success rate per (P*, Q), the scan-sized
// range searches, and the uncertain game's z-table, which every rate
// shares. A t1 continuation value or an uncertain-game expectation is one
// quadrature pass that the figure suite repeats in under 5% of its calls,
// so it is recomputed, not retained.
type solveMemo struct {
	regions memo.Map[float64, mathx.IntervalSet]   // unitRegion(κ)
	sr      memo.Map[solveKey, float64]            // successRate(pstar, q)
	ranges  memo.Map[rangeKind, mathx.IntervalSet] // feasible/engagement sets

	scanEvals atomic.Uint64 // utility-difference evaluations of the t2 region scans
	carried   atomic.Uint64 // t2 region scans that carried a nearby κ's roots
	respOnce  sync.Once
	resp      *response // newResponse, the uncertain game's z-table
}

// newSolveMemo returns an empty solve memo with every map bounded by
// solveMemoMax.
func newSolveMemo() *solveMemo {
	return &solveMemo{
		regions: memo.Map[float64, mathx.IntervalSet]{Max: solveMemoMax},
		sr:      memo.Map[solveKey, float64]{Max: solveMemoMax},
		ranges:  memo.Map[rangeKind, mathx.IntervalSet]{Max: solveMemoMax},
	}
}

// MemoStats reports the Model's cumulative solve-cache hits and misses
// across all memoized entry points.
func (m *Model) MemoStats() (hits, misses uint64) {
	add := func(h, mi uint64) { hits += h; misses += mi }
	add(m.solve.regions.Stats())
	add(m.solve.sr.Stats())
	add(m.solve.ranges.Stats())
	return
}

// ScanEvals reports how often the t2 region scans of the Model and its
// Bayesian solvers have evaluated B's utility difference: their work.
func (m *Model) ScanEvals() uint64 { return m.solve.scanEvals.Load() }

// Option configures a Model.
type Option func(*Model)

// WithQuadOrder sets the Gauss–Legendre order used for the finite-interval
// stage integrals (default 64). The node table comes from the process-wide
// shared cache.
func WithQuadOrder(n int) Option {
	return func(m *Model) {
		m.gl = mathx.SharedGaussLegendre(n)
	}
}

// WithHermiteOrder sets the Gauss–Hermite order used for full-line
// expectations in the uncertain-amount extension (default 48). The node
// table comes from the process-wide shared cache.
func WithHermiteOrder(n int) Option {
	return func(m *Model) {
		m.gh = mathx.SharedGaussHermite(n)
	}
}

// WithScanPoints sets the number of panels used when scanning for utility
// crossings (default 600).
func WithScanPoints(n int) Option {
	return func(m *Model) {
		m.scanN = n
	}
}

// New validates the parameters and returns a solver.
func New(p utility.Params, opts ...Option) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{
		params: p,
		gl:     mathx.SharedGaussLegendre(64),
		gh:     mathx.SharedGaussHermite(48),
		scanN:  600,
		tol:    1e-11,
		k:      computeConsts(p),
		solve:  newSolveMemo(),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m, nil
}

// Params returns the model's parameter set.
func (m *Model) Params() utility.Params { return m.params }

// transition returns the lognormal law of the price tau hours ahead of
// price p. p and tau are validated by construction at every call site.
func (m *Model) transition(p, tau float64) dist.LogNormal {
	l, err := m.params.Price.Transition(p, tau)
	if err != nil {
		// Unreachable for validated prices; fail loudly in development.
		panic(err)
	}
	return l
}

// transitionTauA is transition(p, Chains.TauA) through the precomputed
// drift/volatility constants — bit-identical to the validated path for
// p > 0, which every call site guarantees.
func (m *Model) transitionTauA(p float64) dist.LogNormal {
	return dist.LogNormal{Mu: math.Log(p) + m.k.driftTauA, Sigma: m.k.sigTauA}
}

// transitionTauBAtLog is transition(p, Chains.TauB) for a caller that has
// already computed logp = math.Log(p); see transitionTauA.
func (m *Model) transitionTauBAtLog(logp float64) dist.LogNormal {
	return dist.LogNormal{Mu: logp + m.k.driftTauB, Sigma: m.k.sigTauB}
}

// checkRate validates an exchange-rate (or locked-amount) argument.
func checkRate(pstar float64) error {
	if pstar <= 0 || math.IsNaN(pstar) || math.IsInf(pstar, 0) {
		return fmt.Errorf("%w: exchange rate P*=%g must be > 0", ErrBadParam, pstar)
	}
	return nil
}

// checkPrice validates a price argument.
func checkPrice(p float64) error {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf("%w: price %g must be > 0", ErrBadParam, p)
	}
	return nil
}
