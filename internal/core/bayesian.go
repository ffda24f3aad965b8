package core

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/memo"
)

// TypePrior is a discrete prior over a counterparty's success premium —
// the "uncertainty in counterparties' success premium" the paper's
// contribution list announces (§I.B) and lists as a model extension
// (§V.B: "success premium as a random variable"). Each agent knows their
// own premium; the prior captures their belief about the other side.
type TypePrior struct {
	// Values are the possible premium values (each ≥ 0).
	Values []float64
	// Probs are the corresponding probabilities (sum to 1).
	Probs []float64
}

// Validate checks the prior.
func (tp TypePrior) Validate() error {
	if len(tp.Values) == 0 || len(tp.Values) != len(tp.Probs) {
		return fmt.Errorf("%w: prior with %d values / %d probs", ErrBadParam, len(tp.Values), len(tp.Probs))
	}
	var sum float64
	for i, v := range tp.Values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: premium value %g", ErrBadParam, v)
		}
		p := tp.Probs[i]
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("%w: probability %g", ErrBadParam, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: probabilities sum to %g", ErrBadParam, sum)
	}
	return nil
}

// Mean returns the prior mean premium.
func (tp TypePrior) Mean() float64 {
	var m float64
	for i, v := range tp.Values {
		m += v * tp.Probs[i]
	}
	return m
}

// PointPrior is the degenerate prior concentrated on one value.
func PointPrior(alpha float64) TypePrior {
	return TypePrior{Values: []float64{alpha}, Probs: []float64{1}}
}

// Bayesian solves the incomplete-information variant of the basic game:
// Assumption 7's common knowledge of (r, α) is relaxed to discrete priors
// over the counterparties' success premia. Each agent knows their own type;
// decisions average over the other side's types:
//
//   - at t3, an A of type αA uses the complete-information cut-off for her
//     own type (her problem does not involve B's type);
//   - at t2, a B of type αB weighs the reveal probability over A's types,
//     since the cut-off he faces is type-dependent;
//   - at t1, an A of type αA weighs B's continuation region over B's types.
//
// Construct with Model.Bayesian. The base model's point premia are ignored;
// its r, chain and price parameters are shared by all types.
type Bayesian struct {
	m      *Model
	priorA TypePrior
	priorB TypePrior
	// units memoizes a type-αB B's unit-rate continuation region.
	units memo.Map[float64, mathx.IntervalSet]
}

// bayesianMemoMax bounds a Bayesian solver's region memo. A prior pair
// needs |B| unit regions; the bound only matters to a caller querying many
// types outside the priors.
const bayesianMemoMax = 256

// Bayesian returns the incomplete-information solver for the given priors
// over αA and αB.
func (m *Model) Bayesian(priorA, priorB TypePrior) (*Bayesian, error) {
	if err := priorA.Validate(); err != nil {
		return nil, fmt.Errorf("prior over alphaA: %w", err)
	}
	if err := priorB.Validate(); err != nil {
		return nil, fmt.Errorf("prior over alphaB: %w", err)
	}
	return &Bayesian{
		m: m, priorA: priorA, priorB: priorB,
		units: memo.Map[float64, mathx.IntervalSet]{Max: bayesianMemoMax},
	}, nil
}

// typedModel returns a copy of the base model with the premia replaced.
// The copy keeps the shared quadrature table and the discount and t1-law
// constants (none depend on the premia) and has no solve memo: the stage methods the
// solver calls on it (cutoffT3, newT2Eval, t2RegionScan, aliceContT1Over,
// successRateOver) read none, and a memoized method would panic on the
// copy rather than serve the base model's cells.
func (b *Bayesian) typedModel(alphaA, alphaB float64) *Model {
	typed := *b.m
	typed.params.Alice.Alpha = alphaA
	typed.params.Bob.Alpha = alphaB
	typed.solve = nil
	return &typed
}

// CutoffT3 returns the t3 cut-off for an A of type alphaA (Eq. 18 with her
// own premium).
func (b *Bayesian) CutoffT3(alphaA, pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	if alphaA < 0 || math.IsNaN(alphaA) {
		return 0, fmt.Errorf("%w: alphaA=%g", ErrBadParam, alphaA)
	}
	return b.typedModel(alphaA, 0).cutoffT3(pstar, 0), nil
}

// ContSetT2 returns the continuation region of a B of type alphaB, given
// his prior over A's premium. His cont utility is a prior-weighted mixture
// of 1-homogeneous terms in (P*, y), so, as in the basic game, the region
// is his unit-rate region scaled by P*.
func (b *Bayesian) ContSetT2(alphaB, pstar float64) (mathx.IntervalSet, error) {
	if err := checkRate(pstar); err != nil {
		return mathx.IntervalSet{}, err
	}
	if alphaB < 0 || math.IsNaN(alphaB) {
		return mathx.IntervalSet{}, fmt.Errorf("%w: alphaB=%g", ErrBadParam, alphaB)
	}
	return b.unitRegion(alphaB).Scale(pstar), nil
}

// unitRegion is a type-αB B's memoized unit-rate region.
func (b *Bayesian) unitRegion(alphaB float64) mathx.IntervalSet {
	return b.units.Do(alphaB, func() mathx.IntervalSet { return b.contSetT2Scan(alphaB, 1) })
}

// contSetT2Scan is the direct scan of a type-αB B's region at rate pstar:
// the unit-rate scan behind ContSetT2 and the tests' reference. His t2
// cont utility averages the reveal branch over A's types; the scan is
// bracketed by the type with A's mean premium, settled below the least
// and above the largest of the types' bounds (the mixture's difference is
// the types' differences averaged) and counted on the base Model.
func (b *Bayesian) contSetT2Scan(alphaB, pstar float64) mathx.IntervalSet {
	evals := make([]t2Eval, len(b.priorA.Values))
	below, above := math.Inf(1), 0.0
	for i, alphaA := range b.priorA.Values {
		evals[i] = b.typedModel(alphaA, alphaB).newT2Eval(pstar, 0)
		bl, ab := evals[i].settled()
		below, above = math.Min(below, bl), math.Max(above, ab)
	}
	bobCont := func(logy float64) float64 {
		var u float64
		for i := range evals {
			u += b.priorA.Probs[i] * evals[i].bobCont(logy)
		}
		return u
	}
	ref := b.typedModel(b.priorA.Mean(), alphaB)
	return ref.t2RegionScan(pstar, 0, ref.cutoffT3(pstar, 0), below, above, bobCont, &b.m.solve.work, mathx.IntervalSet{})
}

// aliceContT1 is a type-αA A's t1 cont utility, averaging over B's types'
// continuation regions.
func (b *Bayesian) aliceContT1(alphaA, pstar float64) float64 {
	var total float64
	for j, alphaB := range b.priorB.Values {
		typed := b.typedModel(alphaA, alphaB)
		total += b.priorB.Probs[j] * typed.aliceContT1Over(b.unitRegion(alphaB), pstar, 0)
	}
	return total
}

// AliceInitiates reports whether an A of type alphaA starts the swap at the
// given rate under her prior over B.
func (b *Bayesian) AliceInitiates(alphaA, pstar float64) (bool, error) {
	if err := checkRate(pstar); err != nil {
		return false, err
	}
	if alphaA < 0 || math.IsNaN(alphaA) {
		return false, fmt.Errorf("%w: alphaA=%g", ErrBadParam, alphaA)
	}
	return b.aliceContT1(alphaA, pstar) > pstar, nil
}

// SuccessRate returns the ex-ante success probability conditional on
// initiation: the type-weighted probability that an initiating A-type meets
// a continuing B-type and then reveals. ok is false when no A-type
// initiates.
func (b *Bayesian) SuccessRate(pstar float64) (sr float64, ok bool, err error) {
	if err := checkRate(pstar); err != nil {
		return 0, false, err
	}
	var srSum, initMass float64
	for i, alphaA := range b.priorA.Values {
		if b.aliceContT1(alphaA, pstar) <= pstar {
			continue
		}
		initMass += b.priorA.Probs[i]
		typed := b.typedModel(alphaA, 0)
		for j, alphaB := range b.priorB.Values {
			srSum += b.priorA.Probs[i] * b.priorB.Probs[j] * typed.successRateOver(b.unitRegion(alphaB), pstar, 0)
		}
	}
	if initMass == 0 {
		return 0, false, nil
	}
	return mathx.Clamp(srSum/initMass, 0, 1), true, nil
}
