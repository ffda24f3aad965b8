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
	// typed memoizes the per-type model clones so each (αA, αB) pair gets
	// one solve memo shared across the stage computations.
	typed memo.Map[[2]float64, *Model]
}

// Bayesian returns the incomplete-information solver for the given priors
// over αA and αB.
func (m *Model) Bayesian(priorA, priorB TypePrior) (*Bayesian, error) {
	if err := priorA.Validate(); err != nil {
		return nil, fmt.Errorf("prior over alphaA: %w", err)
	}
	if err := priorB.Validate(); err != nil {
		return nil, fmt.Errorf("prior over alphaB: %w", err)
	}
	return &Bayesian{m: m, priorA: priorA, priorB: priorB}, nil
}

// typedModel returns a copy of the base model with the premia replaced,
// memoized per type pair. The clone keeps the shared quadrature tables and
// the discount constants (none depend on the premia) but gets its own solve
// memo, since its parameter set differs from the base model's.
func (b *Bayesian) typedModel(alphaA, alphaB float64) *Model {
	return b.typed.Do([2]float64{alphaA, alphaB}, func() *Model {
		p := b.m.params
		p.Alice.Alpha = alphaA
		p.Bob.Alpha = alphaB
		clone := *b.m
		clone.params = p
		clone.solve = newSolveMemo()
		return &clone
	})
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

// bobContT2 is a type-αB B's t2 cont utility, averaging the reveal branch
// over A's types.
func (b *Bayesian) bobContT2(alphaB, y, pstar float64) float64 {
	var u float64
	for i, alphaA := range b.priorA.Values {
		u += b.priorA.Probs[i] * b.typedModel(alphaA, alphaB).bobContT2(y, pstar, 0)
	}
	return u
}

// ContSetT2 returns the continuation region of a B of type alphaB, given
// his prior over A's premium.
func (b *Bayesian) ContSetT2(alphaB, pstar float64) (mathx.IntervalSet, error) {
	if err := checkRate(pstar); err != nil {
		return mathx.IntervalSet{}, err
	}
	if alphaB < 0 || math.IsNaN(alphaB) {
		return mathx.IntervalSet{}, fmt.Errorf("%w: alphaB=%g", ErrBadParam, alphaB)
	}
	diff := func(y float64) float64 { return b.bobContT2(alphaB, y, pstar) - y }
	ref := b.typedModel(b.priorA.Mean(), alphaB)
	pbar := ref.cutoffT3(pstar, 0)
	growth := math.Exp(2 * math.Max(ref.params.Price.Mu-ref.params.Bob.R, 0) * ref.params.Chains.TauB)
	hi := 4*((1+alphaB)*pstar+growth*pbar+1) + 2*ref.params.P0
	lo := 1e-7 * math.Min(ref.params.P0, pstar)
	logRoots := mathx.FindAllRoots(func(u float64) float64 { return diff(math.Exp(u)) },
		math.Log(lo), math.Log(hi), b.m.scanN, b.m.tol)
	roots := make([]float64, len(logRoots))
	for i, u := range logRoots {
		roots[i] = math.Exp(u)
	}
	return mathx.FromSignChanges(diff, lo, hi, roots), nil
}

// aliceContT1 is a type-αA A's t1 cont utility, averaging over B's types'
// continuation regions.
func (b *Bayesian) aliceContT1(alphaA, pstar float64) (float64, error) {
	ch := b.m.params.Chains
	var total float64
	for j, alphaB := range b.priorB.Values {
		set, err := b.ContSetT2(alphaB, pstar)
		if err != nil {
			return 0, err
		}
		typed := b.typedModel(alphaA, alphaB)
		tr := typed.transition(typed.params.P0, ch.TauA)
		var contPart, prob float64
		for _, iv := range set.Intervals() {
			contPart += typed.gl.Integrate(func(y float64) float64 {
				return tr.PDF(y) * typed.aliceContT2(y, pstar, 0)
			}, iv.Lo, iv.Hi)
			prob += tr.CDF(iv.Hi) - tr.CDF(iv.Lo)
		}
		stopPart := (1 - prob) * typed.aliceStopT2(pstar)
		total += b.priorB.Probs[j] * math.Exp(-typed.params.Alice.R*ch.TauA) * (contPart + stopPart)
	}
	return total, nil
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
	u, err := b.aliceContT1(alphaA, pstar)
	if err != nil {
		return false, err
	}
	return u > pstar, nil
}

// SuccessRate returns the ex-ante success probability conditional on
// initiation: the type-weighted probability that an initiating A-type meets
// a continuing B-type and then reveals. ok is false when no A-type
// initiates.
func (b *Bayesian) SuccessRate(pstar float64) (sr float64, ok bool, err error) {
	if err := checkRate(pstar); err != nil {
		return 0, false, err
	}
	ch := b.m.params.Chains
	// Pre-compute B-type regions once.
	sets := make([]mathx.IntervalSet, len(b.priorB.Values))
	for j, alphaB := range b.priorB.Values {
		if sets[j], err = b.ContSetT2(alphaB, pstar); err != nil {
			return 0, false, err
		}
	}
	var srSum, initMass float64
	for i, alphaA := range b.priorA.Values {
		init, err := b.AliceInitiates(alphaA, pstar)
		if err != nil {
			return 0, false, err
		}
		if !init {
			continue
		}
		initMass += b.priorA.Probs[i]
		typed := b.typedModel(alphaA, 0)
		cut := typed.cutoffT3(pstar, 0)
		tr := typed.transition(typed.params.P0, ch.TauA)
		for j := range b.priorB.Values {
			var s float64
			for _, iv := range sets[j].Intervals() {
				s += typed.gl.Integrate(func(y float64) float64 {
					return tr.PDF(y) * typed.transition(y, ch.TauB).TailProb(cut)
				}, iv.Lo, iv.Hi)
			}
			srSum += b.priorA.Probs[i] * b.priorB.Probs[j] * s
		}
	}
	if initMass == 0 {
		return 0, false, nil
	}
	return mathx.Clamp(srSum/initMass, 0, 1), true, nil
}
