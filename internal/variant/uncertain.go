package variant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
)

// uncertainGame is the §IV.B extension: A commits an amount instead of a
// rate, and B chooses how much to lock against it after observing P_t2.
type uncertainGame struct{}

func (uncertainGame) Key() string { return "uncertain" }

func (uncertainGame) Describe() string {
	return "the §IV.B uncertain-exchange-rate extension: B sizes his lock after observing P_t2"
}

// Solve reports SR_x of Eq. 46 with A committing PStar Token_a under the
// scenario's Bob budget. There is no protocol-level simulator for the
// continuous lock-sizing stage, so this variant carries no MC validation;
// its cross-check is the budget monotonicity the core tests pin.
func (uncertainGame) Solve(ctx *Context, sc scenario.Scenario) (Report, error) {
	m, err := ctx.Model(sc.Params)
	if err != nil {
		return Report{}, err
	}
	// Build only the solver this cell uses: each one tabulates B's
	// best response on construction.
	var u *core.Uncertain
	budgetNote := "unconstrained (printed Eq. 44)"
	if sc.BobBudget > 0 {
		if u, err = m.UncertainWithBudget(sc.BobBudget); err != nil {
			return Report{}, err
		}
		budgetNote = fmt.Sprintf("budget-capped at %g Token_b", sc.BobBudget)
	} else {
		u = m.Uncertain()
	}
	sr, err := u.SuccessRate(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	excess, err := u.AliceExcessUtilityT1(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	return Report{
		SR:      sr,
		SRLabel: "uncertain SR_x (Eq. 46)",
		Values: []Value{
			{"sr", sr},
			{"aliceExcess", excess},
			{"budget", sc.BobBudget},
		},
		Lines: []string{
			fmt.Sprintf("Alice locks a = %g Token_a (%s)", sc.PStar, budgetNote),
			fmt.Sprintf("Alice's excess utility (Eq. 45):          %.4f", excess),
			fmt.Sprintf("uncertain SR_x (Eq. 46):                  %.4f", sr),
		},
	}, nil
}
