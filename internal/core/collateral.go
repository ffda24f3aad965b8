package core

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Collateral solves the escrowed-collateral extension of §IV.A: before the
// swap, both agents deposit Q Token_a with a trusted smart contract wired to
// an Oracle; deposits are returned as obligations are fulfilled and
// forfeited to the counterparty on a stop (assumptions 1–4 of §IV.A).
// Construct with Model.Collateral.
type Collateral struct {
	m *Model
	q float64
}

// Collateral returns a solver for the collateral game with deposit q ≥ 0
// Token_a per agent. q = 0 degenerates to the basic game.
func (m *Model) Collateral(q float64) (*Collateral, error) {
	if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("%w: collateral Q=%g must be >= 0", ErrBadParam, q)
	}
	return &Collateral{m: m, q: q}, nil
}

// Q returns the per-agent collateral deposit.
func (c *Collateral) Q() float64 { return c.q }

// CutoffT3 returns P̄_t3,c of Eq. 33: the t3 cut-off lowered by the deposit
// A would forfeit, clamped at zero (with enough collateral A always
// continues).
func (c *Collateral) CutoffT3(pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	return c.m.cutoffT3(pstar, c.q), nil
}

// AliceUtilityT2 evaluates U^A_t2,c (Eq. 34) for cont; the stop utility is
// the basic-game Eq. 22 (B walking away still triggers A's refund path; A
// additionally receives both deposits, which is accounted at t1 via Eq. 36).
func (c *Collateral) AliceUtilityT2(action Action, pT2, pstar float64) (float64, error) {
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return c.m.aliceContT2(pT2, pstar, c.q), nil
	case Stop:
		return c.m.aliceStopT2(pstar), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// BobUtilityT2 evaluates U^B_t2,c (Eq. 35) for cont and Eq. 23 for stop
// (stopping forfeits B's deposit, so his utility is just the token he
// keeps).
func (c *Collateral) BobUtilityT2(action Action, pT2, pstar float64) (float64, error) {
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return c.m.bobContT2(pT2, pstar, c.q), nil
	case Stop:
		return c.m.bobStopT2(pT2), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// ContSetT2 returns 𝒫_t2 of §IV.A.3: the set of t2 prices at which B
// prefers cont. Unlike the basic game it can be a union of intervals —
// Fig. 7 shows parameterisations with one and with three indifference
// points.
func (c *Collateral) ContSetT2(pstar float64) (mathx.IntervalSet, error) {
	if err := checkRate(pstar); err != nil {
		return mathx.IntervalSet{}, err
	}
	return c.m.contSetT2(pstar, c.q), nil
}

// AliceUtilityT1 evaluates U^A_t1,c (Eqs. 36 and 38). Stopping keeps the
// original tokens and the deposit: P* + Q.
func (c *Collateral) AliceUtilityT1(action Action, pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return c.m.aliceContT1(pstar, c.q), nil
	case Stop:
		return pstar + c.q, nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// BobUtilityT1 evaluates U^B_t1,c (Eqs. 37 and 39).
func (c *Collateral) BobUtilityT1(action Action, pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return c.m.bobContT1(pstar, c.q), nil
	case Stop:
		return c.m.params.P0 + c.q, nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// feasibleSet scans P* for the region where diff(P*, S(Q/P*)) > 0,
// memoized per (kind, Q) on the Model. Each probe's region is the next
// probe's hint (unitRegionNear).
func (c *Collateral) feasibleSet(kind byte, diff func(p float64, unit mathx.IntervalSet) float64) mathx.IntervalSet {
	return c.m.solve.ranges.Do(rangeKind{kind: kind, q: c.q}, func() mathx.IntervalSet {
		var unit mathx.IntervalSet
		f := func(p float64) float64 { unit = c.m.unitRegionNear(c.q/p, unit); return diff(p, unit) }
		lo, hi := 1e-3, c.m.rateScanBound()+2*c.q
		return mathx.FromSignChanges(f, lo, hi, mathx.FindAllRoots(f, lo, hi, c.m.scanN/2, c.m.tol))
	})
}

// FeasibleRatesAlice returns 𝒫^A: exchange rates at which A prefers to
// engage at t1 (U^A_t1,c(cont) > P* + Q). Memoized per Q on the Model.
func (c *Collateral) FeasibleRatesAlice() mathx.IntervalSet {
	return c.feasibleSet('A', func(p float64, unit mathx.IntervalSet) float64 { return c.m.aliceContT1Over(unit, p, c.q) - (p + c.q) })
}

// FeasibleRatesBob returns 𝒫^B: exchange rates at which B prefers to engage
// at t1 (U^B_t1,c(cont) > P_t1 + Q). Memoized per Q on the Model.
func (c *Collateral) FeasibleRatesBob() mathx.IntervalSet {
	return c.feasibleSet('B', func(p float64, unit mathx.IntervalSet) float64 {
		return c.m.bobContT1Over(unit, p, c.q) - (c.m.params.P0 + c.q)
	})
}

// FeasibleRatesIntersection returns 𝒫^A ∩ 𝒫^B: rates at which the
// simultaneous engagement of §IV.A.4 actually happens (both agents prefer
// cont). The paper's text states the union; see DESIGN.md deviation 4.
func (c *Collateral) FeasibleRatesIntersection() mathx.IntervalSet {
	return c.FeasibleRatesAlice().Intersect(c.FeasibleRatesBob())
}

// FeasibleRatesUnion returns 𝒫^A ∪ 𝒫^B as printed in §IV.A.4, exposed for
// comparability with the paper.
func (c *Collateral) FeasibleRatesUnion() mathx.IntervalSet {
	return c.FeasibleRatesAlice().Union(c.FeasibleRatesBob())
}

// SuccessRate evaluates SR(P*) of Eq. 40 for the collateral game.
func (c *Collateral) SuccessRate(pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	return c.m.successRate(pstar, c.q), nil
}

// Strategy returns the threshold strategies of the collateral game for the
// protocol simulator.
func (c *Collateral) Strategy(pstar float64) (Strategy, error) {
	if err := checkRate(pstar); err != nil {
		return Strategy{}, err
	}
	engageA := c.m.aliceContT1(pstar, c.q) > pstar+c.q
	engageB := c.m.bobContT1(pstar, c.q) > c.m.params.P0+c.q
	return Strategy{
		PStar:          pstar,
		AliceInitiates: engageA && engageB,
		BobContT2:      c.m.contSetT2(pstar, c.q),
		AliceCutoffT3:  c.m.cutoffT3(pstar, c.q),
	}, nil
}

// OptimalDeposit searches [0, qMax] for the deposit that maximises the
// success rate at the given exchange rate — the "optimal level of
// collateral" question raised in §II and §V.A. It returns the optimal Q and
// the achieved success rate.
func (m *Model) OptimalDeposit(pstar, qMax float64) (q, sr float64, err error) {
	if err := checkRate(pstar); err != nil {
		return 0, 0, err
	}
	if qMax <= 0 || math.IsNaN(qMax) || math.IsInf(qMax, 0) {
		return 0, 0, fmt.Errorf("%w: qMax=%g must be > 0", ErrBadParam, qMax)
	}
	arg, val := mathx.GridMax(func(q float64) float64 {
		return m.successRate(pstar, q)
	}, 0, qMax, 40, 1e-6)
	return arg, val, nil
}
