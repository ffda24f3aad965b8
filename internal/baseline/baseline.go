// Package baseline implements the related-work comparator the paper argues
// against (§II, §VI): the initiator-only optionality model in the spirit of
// Han, Lin and Yu's "atomic swaps as American options". There, only the
// swap initiator A behaves strategically — she holds a free option to
// complete or abandon at t3 — while the responder B is assumed to follow
// the protocol whenever the swap reaches him.
//
// The paper's contribution is precisely the relaxation of this assumption
// ("we show that the other agent, not only the swap initiator, may also
// leave the game midway"), so the baseline quantifies how much of the
// failure probability the two-sided analysis adds: SR_one-sided bounds
// SR_two-sided from above, and the gap is B's rational-withdrawal risk.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// ErrBadParam reports an invalid argument.
var ErrBadParam = errors.New("baseline: invalid parameter")

// Model is the initiator-only optionality model. Construct with New.
type Model struct {
	params utility.Params
}

// New validates the parameters and returns the baseline model.
func New(p utility.Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return &Model{params: p}, nil
}

// Params returns the model's parameter set.
func (m *Model) Params() utility.Params { return m.params }

// CutoffT3 is A's reveal cut-off — identical to the full game's Eq. 18,
// since A's t3 problem does not depend on B's rationality.
func (m *Model) CutoffT3(pstar float64) (float64, error) {
	if err := check(pstar); err != nil {
		return 0, err
	}
	a, c, pr := m.params.Alice, m.params.Chains, m.params.Price
	return math.Exp((a.R-pr.Mu)*c.TauB-a.R*(c.EpsB+2*c.TauA)) * pstar / (1 + a.Alpha), nil
}

// SuccessRate is the one-sided success rate: B always locks at t2, so the
// swap succeeds exactly when P_t3 > P̄_t3. By the tower property over the
// GBM this collapses to a single closed-form tail probability at horizon
// τa + τb from initiation.
func (m *Model) SuccessRate(pstar float64) (float64, error) {
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		return 0, err
	}
	law, err := m.params.Price.Transition(m.params.P0, m.params.Chains.TauA+m.params.Chains.TauB)
	if err != nil {
		return 0, err
	}
	return law.TailProb(cut), nil
}

// OptionValue returns A's t1-discounted expected utility with the
// abandonment option (the "free American option" of the related work),
// assuming an honest B.
func (m *Model) OptionValue(pstar float64) (float64, error) {
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		return 0, err
	}
	a, c, pr := m.params.Alice, m.params.Chains, m.params.Price
	horizon := c.TauA + c.TauB
	law, err := pr.Transition(m.params.P0, horizon)
	if err != nil {
		return 0, err
	}
	contCoef := (1 + a.Alpha) * math.Exp((pr.Mu-a.R)*c.TauB)
	stopVal := pstar * math.Exp(-a.R*(c.EpsB+2*c.TauA))
	expMax := contCoef*law.PartialExpectationAbove(cut) + law.CDF(cut)*stopVal
	return math.Exp(-a.R*horizon) * expMax, nil
}

// ForcedValue returns A's t1-discounted expected utility when she must
// complete (no option): the honest-honest benchmark.
func (m *Model) ForcedValue(pstar float64) (float64, error) {
	if err := check(pstar); err != nil {
		return 0, err
	}
	a, c, pr := m.params.Alice, m.params.Chains, m.params.Price
	horizon := c.TauA + c.TauB
	law, err := pr.Transition(m.params.P0, horizon)
	if err != nil {
		return 0, err
	}
	contCoef := (1 + a.Alpha) * math.Exp((pr.Mu-a.R)*c.TauB)
	return math.Exp(-a.R*horizon) * contCoef * law.Mean(), nil
}

// OptionPremium returns the value of A's abandonment option: OptionValue −
// ForcedValue. It is non-negative by construction (an option cannot hurt)
// and grows with volatility — the optionality risk the related work prices.
func (m *Model) OptionPremium(pstar float64) (float64, error) {
	ov, err := m.OptionValue(pstar)
	if err != nil {
		return 0, err
	}
	fv, err := m.ForcedValue(pstar)
	if err != nil {
		return 0, err
	}
	return ov - fv, nil
}

// SimulateSR estimates the one-sided success rate by direct Monte Carlo:
// B locks unconditionally at t2, the price walks the GBM through both
// confirmation legs, and the swap succeeds exactly when P_t3 clears A's
// reveal cut-off. It is the protocol-level validation of SuccessRate the
// variant layer runs per scenario — the sampled two-step transition and the
// closed-form tail probability share only the GBM law.
func (m *Model) SimulateSR(pstar float64, runs int, seed int64) (stats.Proportion, error) {
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		return stats.Proportion{}, err
	}
	if runs < 1 {
		return stats.Proportion{}, fmt.Errorf("%w: runs=%d must be >= 1", ErrBadParam, runs)
	}
	rng := sweep.NewRand(seed)
	c, pr := m.params.Chains, m.params.Price
	successes := 0
	for i := 0; i < runs; i++ {
		pT2 := pr.Step(rng, m.params.P0, c.TauA)
		if pT3 := pr.Step(rng, pT2, c.TauB); pT3 > cut {
			successes++
		}
	}
	prop, err := stats.NewProportion(successes, runs)
	if err != nil {
		return stats.Proportion{}, fmt.Errorf("baseline: %w", err)
	}
	return prop, nil
}

func check(pstar float64) error {
	if pstar <= 0 || math.IsNaN(pstar) || math.IsInf(pstar, 0) {
		return fmt.Errorf("%w: P*=%g must be > 0", ErrBadParam, pstar)
	}
	return nil
}
