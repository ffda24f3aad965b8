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
// The printed objective (Eq. 43) is homogeneous of degree one in (X, a), so
// its unconstrained maximiser grows like 1/P_t2 as the price falls and A's
// excess utility (Eq. 45) is exactly linear in a — shapes incompatible with
// the humps of Figs. 10a/10b. Those figures are reproduced by the
// economically natural constraint that B cannot lock more Token_b than he
// owns: construct with Model.UncertainWithBudget to cap X at B's holdings
// (Fig. 10a's axis suggests a budget of 5). Model.Uncertain leaves X
// unconstrained, following the printed equations literally. See DESIGN.md.
type Uncertain struct {
	m *Model
	// budget caps B's lockable amount; +Inf when unconstrained.
	budget float64
}

// Uncertain returns the solver for the uncertain-exchange-rate game with an
// unconstrained best response for B (the printed Eq. 44).
func (m *Model) Uncertain() *Uncertain {
	return &Uncertain{m: m, budget: math.Inf(1)}
}

// UncertainWithBudget returns the solver with B's lockable amount capped at
// budget Token_b (B's holdings).
func (m *Model) UncertainWithBudget(budget float64) (*Uncertain, error) {
	if budget <= 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("%w: budget=%g must be > 0", ErrBadParam, budget)
	}
	return &Uncertain{m: m, budget: budget}, nil
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

// xEval bundles the parts of the §IV.B stage utilities that are constant
// across B's response search at one t2 price: the unscaled cut-off, A's
// refund, and the transition law out of y. The best-response optimisation
// (Eq. 44) evaluates Eq. 43 at ~160 candidate amounts per price point;
// before the hoist each evaluation rebuilt the transition and the cut-off
// from scratch. Every field stores the bit-exact value of the
// subexpression it replaces.
type xEval struct {
	u     *Uncertain
	aLock float64
	y     float64
	pbar0 float64        // cutoffT3(aLock, 0), before the 1/X scaling
	ref   float64        // aLock·exp(−rA(εb+2τa)), A's refund
	tr    dist.LogNormal // transition(y, τb)
}

// newXEval hoists the X-independent parts of Eqs. 41–43.
func (u *Uncertain) newXEval(y, aLock float64) xEval {
	return xEval{
		u:     u,
		aLock: aLock,
		y:     y,
		pbar0: u.m.cutoffT3(aLock, 0),
		ref:   aLock * u.m.k.refundT3,
		tr:    u.m.transitionTauBAtLog(math.Log(y)),
	}
}

// aliceT2 is U^A_t2,x(X) of Eq. 42: X units of the t3 cont utility above
// the scaled cut-off, plus the refund below it.
func (e *xEval) aliceT2(xLock float64) float64 {
	m := e.u.m
	if xLock <= 0 {
		// B locked nothing; A's only outcome is the refund one stage later.
		return m.k.discATauB * e.ref
	}
	pbar := e.pbar0 / xLock
	logPbar := math.Log(pbar)
	cont := xLock * (1 + m.params.Alice.Alpha) * m.k.growthA * e.tr.PartialExpectationAboveAtLog(pbar, logPbar)
	stop := e.tr.CDFAtLog(pbar, logPbar) * e.ref
	return m.k.discATauB * (cont + stop)
}

// bobT2 is U^B_t2,x(X) of Eq. 43: B's expected gross utility from locking
// X, net of the value X·y he surrenders by committing the tokens. It is
// zero at X = 0 (locking nothing is equivalent to stop).
func (e *xEval) bobT2(xLock float64) float64 {
	if xLock <= 0 {
		return 0
	}
	m := e.u.m
	pbar := e.pbar0 / xLock
	logPbar := math.Log(pbar)
	gross := e.tr.TailProbAtLog(pbar, logPbar)*(1+m.params.Bob.Alpha)*e.aLock*m.k.bankB +
		xLock*m.k.growth2B*e.tr.PartialExpectationBelowAtLog(pbar, logPbar)
	return m.k.discBTauB*gross - xLock*e.y
}

// optimal solves Eq. 44 at this price point: X*(P_t2) = argmax_{X≥0}
// U^B_t2,x(X). The search runs over log X — the objective's scale is set by
// P̄_t3/y, which spans orders of magnitude across the P_t2 axis of
// Fig. 10a — and X = 0 is compared explicitly (B locks nothing and
// effectively stops).
func (e *xEval) optimal() (xStar, val float64) {
	// Beyond X ≈ 50·P̄_t3/y the success probability has saturated and the
	// marginal locked token is pure loss; below the grid floor the utility
	// is O(X) small. The budget caps the search when finite.
	xMax := 50*e.pbar0/e.y + 10
	if xMax > 1e9 {
		xMax = 1e9
	}
	if xMax > e.u.budget {
		xMax = e.u.budget
	}
	obj := func(lx float64) float64 { return e.bobT2(math.Exp(lx)) }
	lArg, lVal := mathx.GridMax(obj, math.Log(xMax)-25, math.Log(xMax), 160, 1e-10)
	if lVal <= 0 {
		return 0, 0
	}
	return math.Exp(lArg), lVal
}

// AliceUtilityT2 evaluates Eq. 42 with argument checks.
func (u *Uncertain) AliceUtilityT2(xLock, pT2, aLock float64) (float64, error) {
	if err := u.checkLock(xLock); err != nil {
		return 0, err
	}
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	e := u.newXEval(pT2, aLock)
	return e.aliceT2(xLock), nil
}

// BobExcessUtilityT2 evaluates Eq. 43 with argument checks.
func (u *Uncertain) BobExcessUtilityT2(xLock, pT2, aLock float64) (float64, error) {
	if err := u.checkLock(xLock); err != nil {
		return 0, err
	}
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	e := u.newXEval(pT2, aLock)
	return e.bobT2(xLock), nil
}

func (u *Uncertain) checkLock(xLock float64) error {
	if xLock < 0 || math.IsNaN(xLock) || math.IsInf(xLock, 0) {
		return fmt.Errorf("%w: X=%g must be >= 0 and finite", ErrBadParam, xLock)
	}
	return nil
}

// OptimalLockB returns X*(P_t2) of Eq. 44 together with B's excess utility
// at the optimum. X* = 0 means B declines to lock (stop).
func (u *Uncertain) OptimalLockB(pT2, aLock float64) (xStar, excess float64, err error) {
	if err := checkPrice(pT2); err != nil {
		return 0, 0, err
	}
	if err := checkRate(aLock); err != nil {
		return 0, 0, err
	}
	e := u.newXEval(pT2, aLock)
	xStar, excess = e.optimal()
	return xStar, excess, nil
}

// AliceExcessUtilityT1 evaluates Eq. 45: the expectation over P_t2 of A's
// t2 position under B's best response, discounted to t1, minus the amount a
// she surrenders by locking. The expectation uses Gauss–Hermite quadrature
// with the inner optimisation evaluated at each node.
func (u *Uncertain) AliceExcessUtilityT1(aLock float64) (float64, error) {
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	return u.aliceExcessT1(aLock), nil
}

// aliceExcessT1 is the Gauss–Hermite pass behind AliceExcessUtilityT1.
func (u *Uncertain) aliceExcessT1(aLock float64) float64 {
	c := u.m.params.Chains
	tr := u.m.transition(u.m.params.P0, c.TauA)
	exp := u.m.gh.ExpectLogNormal(func(y float64) float64 {
		e := u.newXEval(y, aLock)
		xStar, _ := e.optimal()
		return e.aliceT2(xStar)
	}, tr.Mu, tr.Sigma)
	return u.m.k.discATauA*exp - aLock
}

// SuccessRate evaluates Eq. 46: the probability that B locks a positive X*
// and A subsequently reveals, under B's best response at every t2 price.
func (u *Uncertain) SuccessRate(aLock float64) (float64, error) {
	if err := checkRate(aLock); err != nil {
		return 0, err
	}
	c := u.m.params.Chains
	tr := u.m.transition(u.m.params.P0, c.TauA)
	sr := u.m.gh.ExpectLogNormal(func(y float64) float64 {
		e := u.newXEval(y, aLock)
		xStar, _ := e.optimal()
		if xStar <= 0 {
			return 0
		}
		return e.tr.TailProb(e.pbar0 / xStar)
	}, tr.Mu, tr.Sigma)
	return mathx.Clamp(sr, 0, 1), nil
}

// OptimalLockA maximises A's excess utility (Eq. 45) over the committed
// amount a ∈ (0, aMax]: the upper dashed marker P̄* of Fig. 10b.
func (u *Uncertain) OptimalLockA(aMax float64) (aStar, excess float64, err error) {
	if aMax <= 0 || math.IsNaN(aMax) || math.IsInf(aMax, 0) {
		return 0, 0, fmt.Errorf("%w: aMax=%g must be > 0", ErrBadParam, aMax)
	}
	arg, val := mathx.GridMax(func(a float64) float64 {
		if a <= 0 {
			return math.Inf(-1)
		}
		return u.aliceExcessT1(a)
	}, aMax/200, aMax, 48, 1e-6)
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
	diff := func(a float64) float64 { return u.aliceExcessT1(a) }
	lo, hi := aMax/500, aMax
	roots := mathx.FindAllRoots(diff, lo, hi, 60, 1e-6)
	set := mathx.FromSignChanges(diff, lo, hi, roots)
	if set.Empty() {
		return mathx.Interval{Lo: 1, Hi: 0}, false, nil
	}
	return set.Bounds(), true, nil
}
