package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// Uncertain solves the uncertain-exchange-rate extension of §IV.B: A locks
// an amount a of Token_a at t1 (written P* in the paper), B responds at t2
// with an amount X ≥ 0 of Token_b that maximises his excess utility
// (Eq. 44), so the realised exchange rate a/X is uncertain at the outset.
//
// B's best response is solved once, in the scaled amount z = X·y/a (see
// response), so the printed game's homogeneity holds by construction: the
// unconstrained X* is exactly proportional to a/P_t2 and SR_x does not
// depend on a, which leaves no room for the humps of Figs. 10a/10b.
// Model.UncertainWithBudget restores them by capping X at B's holdings
// (z ≤ budget·y/a; Fig. 10a's axis suggests 5); Model.Uncertain follows the
// printed equations (DESIGN.md deviation 6). Immutable and concurrency-safe.
type Uncertain struct {
	*response
	// budget caps B's lockable amount; +Inf when unconstrained.
	budget float64
}

// Uncertain returns the solver for the uncertain-exchange-rate game with an
// unconstrained best response for B (the printed Eq. 44).
func (m *Model) Uncertain() *Uncertain {
	return &Uncertain{m.response(), math.Inf(1)}
}

// UncertainWithBudget returns the solver with B's lockable amount capped at
// budget Token_b (B's holdings).
func (m *Model) UncertainWithBudget(budget float64) (*Uncertain, error) {
	if budget <= 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("%w: budget=%g must be > 0", ErrBadParam, budget)
	}
	return &Uncertain{m.response(), budget}, nil
}

// Budget returns B's lockable budget (+Inf when unconstrained).
func (u *Uncertain) Budget() float64 { return u.budget }

// CutoffT3 returns P̄_t3,x(X) of Eq. 41: the basic cut-off for a locked
// amount a, scaled by 1/X. It is +Inf at X = 0 (nothing to unlock, A never
// reveals).
func (u *Uncertain) CutoffT3(xLock, aLock float64) (float64, error) {
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	if xLock < 0 || math.IsNaN(xLock) {
		return 0, fmt.Errorf("%w: X=%g must be >= 0", ErrBadParam, xLock)
	}
	if xLock == 0 {
		return math.Inf(1), nil
	}
	return u.m.cutoffT3(aLock, 0) / xLock, nil
}

// The response grid is log z = log c0 − respBelow + i·respStep, i < respN:
// from where g is linear in z (no t3 tail left) to 5 e-folds above c0.
const (
	respStep  = 0.125
	respBelow = 25
	respN     = 241
)

// response is B's best response (Eq. 44) in the scaled amount z = X·y/a.
// With the t3 price written y·W, W the law of a unit t2 price, the cut-off
// P̄_t3,x(X) of Eq. 41 is y·c0/z with c0 = cutoffT3(1, 0), and the stage
// utilities factor as U^B_t2,x = a·g(z) (Eq. 43) and U^A_t2,x = a·h(z)
// (Eq. 42). Each local maximum of g on the grid is refined once; a cap
// z ≤ e^lc is answered by a running argmax over these peaks and one refine
// of the panel under the cap, so no unimodality is assumed.
type response struct {
	m      *Model
	w      dist.LogNormal // W: the t3 price after a unit t2 price
	logc0  float64
	peak   [respN]float64 // refined local maximum at a peak node, else g
	lzPeak [respN]float64 // its log z (−Inf when B declines)
	argmax [respN]int     // first node maximising peak over nodes 0..i
}

// response returns the Model's z-table, built on first use: it depends on
// the Model alone, so every Uncertain solver of the Model shares it.
func (m *Model) response() *response {
	m.solve.respOnce.Do(func() { m.solve.resp = newResponse(m) })
	return m.solve.resp
}

func newResponse(m *Model) *response {
	r := &response{m: m, w: m.transitionTauBAtLog(0), logc0: math.Log(m.cutoffT3(1, 0))}
	var g [respN]float64
	for i := range g {
		g[i] = r.bob(r.node(i))
	}
	for i, gi := range g {
		r.lzPeak[i], r.peak[i] = r.node(i), gi
		if (i == 0 || g[i-1] <= gi) && (i == respN-1 || g[i+1] <= gi) {
			r.lzPeak[i], r.peak[i] = r.refine(r.node(i)-respStep, r.node(i)+respStep, r.node(i), gi)
		}
		if r.argmax[i] = i; i > 0 && r.peak[r.argmax[i-1]] >= r.peak[i] {
			r.argmax[i] = r.argmax[i-1]
		}
	}
	return r
}

func (r *response) node(i int) float64 { return r.logc0 - respBelow + float64(i)*respStep }

// cut returns c0/z and its logarithm at lz = log z (+Inf at z = 0).
func (r *response) cut(lz float64) (w, lw float64) {
	lw = r.logc0 - lz
	return math.Exp(lw), lw
}

// bob is g(z) at lz = log z: B's gross utility from locking, net of the
// tokens he surrenders. g = 0 at z = 0 (locking nothing is stop).
func (r *response) bob(lz float64) float64 {
	k, z := &r.m.k, math.Exp(lz)
	w, lw := r.cut(lz)
	gross := r.w.TailProbAtLog(w, lw)*(1+r.m.params.Bob.Alpha)*k.bankB +
		z*k.growth2B*r.w.PartialExpectationBelowAtLog(w, lw)
	return k.discBTauB*gross - z
}

// alice is h(z) at lz = log z: z units of A's t3 cont utility above the
// cut-off plus her refund below it; at z = 0 only the refund remains.
func (r *response) alice(lz float64) float64 {
	k, z := &r.m.k, math.Exp(lz)
	w, lw := r.cut(lz)
	cont := z * (1 + r.m.params.Alice.Alpha) * k.growthA * r.w.PartialExpectationAboveAtLog(w, lw)
	return k.discATauB * (cont + r.w.CDFAtLog(w, lw)*k.refundT3)
}

// success is the probability that A reveals at t3 given z (0 at z = 0).
func (r *response) success(lz float64) float64 {
	w, lw := r.cut(lz)
	return r.w.TailProbAtLog(w, lw)
}

// refine golden-searches g over [lo, hi] and keeps the sampled point
// (lb, gb) when the refined one is no better, as mathx.GridMax does. A
// non-positive optimum means B declines: lz = −Inf.
func (r *response) refine(lo, hi, lb, gb float64) (lz, g float64) {
	lz = mathx.GoldenMax(r.bob, lo, hi, 1e-10)
	if g = r.bob(lz); gb > g {
		lz, g = lb, gb
	}
	if g <= 0 {
		return math.Inf(-1), 0
	}
	return lz, g
}

// best returns B's optimal log z and g with z capped at e^lc (+Inf when
// unconstrained): the better of the panel under the cap, refined up to the
// cap, and the best peak below that panel.
func (r *response) best(lc float64) (lz, g float64) {
	if j := r.argmax[respN-1]; lc >= r.lzPeak[j] {
		return r.lzPeak[j], r.peak[j]
	}
	i := min(int(math.Floor((lc-r.node(0))/respStep)), respN-1)
	lz, g = r.refine(r.node(i)-respStep, lc, lc, r.bob(lc))
	if j := r.argmax[max(i-1, 0)]; i > 0 && r.peak[j] > g {
		return r.lzPeak[j], r.peak[j]
	}
	return lz, g
}

// AliceUtilityT2 evaluates Eq. 42 with argument checks.
func (u *Uncertain) AliceUtilityT2(xLock, pT2, aLock float64) (float64, error) {
	if err := checkT2(xLock, pT2, aLock); err != nil {
		return 0, err
	}
	return aLock * u.alice(math.Log(xLock)+math.Log(pT2/aLock)), nil
}

// BobExcessUtilityT2 evaluates Eq. 43 with argument checks: B's expected
// gross utility from locking X, net of the value X·y he surrenders by
// committing the tokens. It is zero at X = 0 (locking nothing is stop).
func (u *Uncertain) BobExcessUtilityT2(xLock, pT2, aLock float64) (float64, error) {
	if err := checkT2(xLock, pT2, aLock); err != nil {
		return 0, err
	}
	return aLock * u.bob(math.Log(xLock)+math.Log(pT2/aLock)), nil
}

func checkT2(xLock, pT2, aLock float64) error {
	if xLock < 0 || math.IsNaN(xLock) || math.IsInf(xLock, 0) {
		return fmt.Errorf("%w: X=%g must be >= 0 and finite", ErrBadParam, xLock)
	}
	if err := checkPrice(pT2); err != nil {
		return err
	}
	return checkRate(aLock)
}

// OptimalLockB returns X*(P_t2) of Eq. 44 together with B's excess utility
// at the optimum. X* = 0 means B declines to lock (stop).
func (u *Uncertain) OptimalLockB(pT2, aLock float64) (xStar, excess float64, err error) {
	if err := checkT2(0, pT2, aLock); err != nil {
		return 0, 0, err
	}
	lc := math.Log(u.budget/aLock) + math.Log(pT2)
	lz, g := u.best(lc)
	if lz == lc { // B locks his whole budget
		return u.budget, aLock * g, nil
	}
	return math.Exp(lz) * aLock / pT2, aLock * g, nil
}

// expectT2 is the Gauss–Hermite expectation over the t2 price, seen from
// t1, of f at B's best response log z*(P_t2) to the commitment aLock
// (−Inf where B declines). Eqs. 45 and 46 are both such an expectation.
func (u *Uncertain) expectT2(aLock float64, f func(lz float64) float64) float64 {
	tr := u.m.transition(u.m.params.P0, u.m.params.Chains.TauA)
	logCap := math.Log(u.budget / aLock)
	return u.m.gh.ExpectNormal(func(logy float64) float64 {
		lz, _ := u.best(logCap + logy)
		return f(lz)
	}, tr.Mu, tr.Sigma)
}

// AliceExcessUtilityT1 evaluates Eq. 45: the expectation over P_t2 of A's
// t2 position under B's best response, discounted to t1, minus the amount a
// she surrenders by locking.
func (u *Uncertain) AliceExcessUtilityT1(aLock float64) (float64, error) {
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	return u.aliceExcessT1(aLock), nil
}

func (u *Uncertain) aliceExcessT1(aLock float64) float64 {
	return u.m.k.discATauA*aLock*u.expectT2(aLock, u.alice) - aLock
}

// SuccessRate evaluates Eq. 46: the probability that B locks a positive X*
// and A subsequently reveals, under B's best response at every t2 price.
func (u *Uncertain) SuccessRate(aLock float64) (float64, error) {
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	return mathx.Clamp(u.expectT2(aLock, u.success), 0, 1), nil
}

// OptimalLockA maximises A's excess utility (Eq. 45) over the committed
// amount a ∈ (0, aMax]: the upper dashed marker P̄* of Fig. 10b.
func (u *Uncertain) OptimalLockA(aMax float64) (aStar, excess float64, err error) {
	if aMax <= 0 || math.IsNaN(aMax) || math.IsInf(aMax, 0) {
		return 0, 0, fmt.Errorf("%w: aMax=%g must be > 0", ErrBadParam, aMax)
	}
	arg, val := mathx.GridMax(u.aliceExcessT1, aMax/200, aMax, 48, 1e-6)
	return arg, val, nil
}

// BreakEvenRange returns the interval of committed amounts with
// non-negative excess utility for A — its lower end is the paper's P̲*
// ("lowest possible amount A needs to enter for a non-negative excess
// utility", §IV.B.4) and its upper end the largest worthwhile commitment.
// ok is false when A's excess utility is negative everywhere.
func (u *Uncertain) BreakEvenRange(aMax float64) (mathx.Interval, bool, error) {
	if aMax <= 0 || math.IsNaN(aMax) || math.IsInf(aMax, 0) {
		return mathx.Interval{}, false, fmt.Errorf("%w: aMax=%g must be > 0", ErrBadParam, aMax)
	}
	lo, hi := aMax/500, aMax
	roots := mathx.FindAllRoots(u.aliceExcessT1, lo, hi, 60, 1e-6)
	set := mathx.FromSignChanges(u.aliceExcessT1, lo, hi, roots)
	if set.Empty() {
		return mathx.Interval{Lo: 1, Hi: 0}, false, nil
	}
	return set.Bounds(), true, nil
}
