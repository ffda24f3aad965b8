package variant

import (
	"fmt"

	"repro/internal/scenario"
)

// collateralGame is the §IV.A extension: both agents escrow a deposit Q
// that is forfeited by a mid-protocol withdrawal.
type collateralGame struct{}

func (collateralGame) Key() string { return "collateral" }

func (collateralGame) Describe() string {
	return "the §IV.A collateral extension: per-agent deposits pin both continuations"
}

func (collateralGame) Solve(ctx *Context, sc scenario.Scenario) (Report, error) {
	m, err := ctx.Model(sc.Params)
	if err != nil {
		return Report{}, err
	}
	// A zero deposit degenerates to the basic game, exactly as the
	// pre-variant batch runner reported it.
	if sc.Collateral == 0 {
		sr, err := m.SuccessRate(sc.PStar)
		if err != nil {
			return Report{}, err
		}
		return Report{
			SR:      sr,
			SRLabel: "collateral SR_c(P*) (Eq. 40)",
			Values:  []Value{{"sr", sr}, {"q", 0}},
			Lines: []string{
				fmt.Sprintf("collateral SR_c(P*) at Q=0 (Eq. 40):      %.4f (degenerates to the basic game)", sr),
			},
		}, nil
	}
	col, err := m.Collateral(sc.Collateral)
	if err != nil {
		return Report{}, err
	}
	cutoff, err := col.CutoffT3(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	set, err := col.ContSetT2(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	sr, err := col.SuccessRate(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	srBasic, err := m.SuccessRate(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	return Report{
		SR:      sr,
		SRLabel: "collateral SR_c(P*) (Eq. 40)",
		Values: []Value{
			{"sr", sr},
			{"q", sc.Collateral},
			{"cutoffT3", cutoff},
			{"gainOverBasic", sr - srBasic},
		},
		Lines: []string{
			fmt.Sprintf("Alice's t3 cut-off P̄_t3,c (Eq. 33):       %.4f", cutoff),
			fmt.Sprintf("Bob's t2 continuation set 𝒫_t2:           %v", set),
			fmt.Sprintf("collateral SR_c(P*) at Q=%g (Eq. 40):     %.4f", sc.Collateral, sr),
			fmt.Sprintf("improvement over Q=0:                     %+.4f", sr-srBasic),
		},
	}, nil
}

// MCValidate simulates the protocol with the collateral-game strategies
// and the deposit escrowed on both legs (see ProtocolConfig).
func (collateralGame) MCValidate(ctx *Context, sc scenario.Scenario, _ Report) (*MCCheck, error) {
	game := "collateral"
	if sc.Collateral == 0 {
		game = "collateral (Q=0, basic)"
	}
	return simulateCheck(ctx, sc, "collateral", game)
}
