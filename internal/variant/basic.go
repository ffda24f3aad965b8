package variant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/swapsim"
)

// basicGame is the paper's §III game: both agents strategic, one
// all-or-nothing HTLC swap at the agreed rate.
type basicGame struct{}

func (basicGame) Key() string { return "basic" }

func (basicGame) Describe() string {
	return "the paper's §III basic game: thresholds, feasible range and SR(P*)"
}

func (basicGame) Solve(ctx *Context, sc scenario.Scenario) (Report, error) {
	m, err := ctx.Model(sc.Params)
	if err != nil {
		return Report{}, err
	}
	cutoff, err := m.CutoffT3(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	contT2, contOK, err := m.ContRangeT2(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	feasible, feasibleOK, err := m.FeasibleRateRange()
	if err != nil {
		return Report{}, err
	}
	sr, err := m.SuccessRate(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	strat, err := m.Strategy(sc.PStar)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		SR:      sr,
		SRLabel: "basic SR(P*) (Eq. 31)",
		Values: []Value{
			{"sr", sr},
			{"cutoffT3", cutoff},
			{"aliceInitiates", boolVal(strat.AliceInitiates)},
		},
		Lines: []string{
			fmt.Sprintf("Alice's t3 reveal cut-off P̄_t3 (Eq. 18):  %.4f", cutoff),
			fmt.Sprintf("Bob's t2 continuation range (Eq. 24):     %s", fmtInterval(contT2, contOK)),
			fmt.Sprintf("feasible exchange-rate range (Eq. 30):    %s", fmtInterval(feasible, feasibleOK)),
			fmt.Sprintf("Alice initiates at P*=%g:                 %v", sc.PStar, strat.AliceInitiates),
			fmt.Sprintf("basic SR(P*) (Eq. 31):                    %.4f", sr),
		},
	}
	if contOK {
		r.Values = append(r.Values, Value{"t2Lo", contT2.Lo}, Value{"t2Hi", contT2.Hi})
	}
	if feasibleOK {
		r.Values = append(r.Values, Value{"feasibleLo", feasible.Lo}, Value{"feasibleHi", feasible.Hi})
		optRate, optSR, err := m.OptimalRate()
		if err != nil {
			return Report{}, err
		}
		r.Values = append(r.Values, Value{"optimalRate", optRate}, Value{"optimalSR", optSR})
		r.Lines = append(r.Lines,
			fmt.Sprintf("SR-maximising rate:                       %.4f (SR = %.4f)", optRate, optSR))
	}
	return r, nil
}

// MCValidate runs the protocol simulation with the basic-game threshold
// strategies (see ProtocolConfig).
func (basicGame) MCValidate(ctx *Context, sc scenario.Scenario, _ Report) (*MCCheck, error) {
	return simulateCheck(ctx, sc, "basic", "basic")
}

// ProtocolConfig returns the protocol run that variant key plays on sc and
// the analytic success rate that run validates: the basic game's
// thresholds and Eq. 31 for "basic", and for "collateral" the collateral
// game's thresholds with the scenario's deposit Q escrowed on both legs and
// Eq. 40 (Q = 0 plays the basic game without a deposit). Both SRs condition
// on the swap being initiated, so the strategy initiates unconditionally;
// initiates reports whether A rationally would. The SR is read from the
// same memoized model Solve reads. The sampler, halts and any seed other
// than the scenario's are left for the caller to set. It is the one
// definition the batch validations, the RPC daemon's swap.simulate stream,
// the figures validation artifact and cmd/swapsim run.
func ProtocolConfig(key string, sc scenario.Scenario) (cfg swapsim.Config, sr float64, initiates bool, err error) {
	m, err := solvecache.SharedModel(sc.Params)
	if err != nil {
		return swapsim.Config{}, 0, false, err
	}
	return protocolConfig(m, key, sc)
}

// protocolConfig is ProtocolConfig on the scenario's model m, which a
// batch cell's validation hands over from its solve.
func protocolConfig(m *core.Model, key string, sc scenario.Scenario) (cfg swapsim.Config, sr float64, initiates bool, err error) {
	var strat core.Strategy
	collateral := 0.0
	switch {
	case key == "basic" || key == "collateral" && sc.Collateral == 0:
		if strat, err = m.Strategy(sc.PStar); err == nil {
			sr, err = m.SuccessRate(sc.PStar)
		}
	case key == "collateral":
		col, cerr := m.Collateral(sc.Collateral)
		if cerr != nil {
			return swapsim.Config{}, 0, false, cerr
		}
		if strat, err = col.Strategy(sc.PStar); err == nil {
			sr, err = col.SuccessRate(sc.PStar)
		}
		collateral = sc.Collateral
	default:
		err = fmt.Errorf("variant %q: the protocol simulator plays \"basic\" or \"collateral\"", key)
	}
	if err != nil {
		return swapsim.Config{}, 0, false, err
	}
	initiates = strat.AliceInitiates
	strat.AliceInitiates = true
	return swapsim.Config{Params: sc.Params, Strategy: strat, Collateral: collateral, Seed: sc.Seed}, sr, initiates, nil
}

// simulateCheck runs variant key's protocol (ProtocolConfig, on the model
// the cell's solve read) through the swapsim Monte Carlo engine at the
// cell's run count and packages the agreement check, labelled game — the
// shared protocol-level validation of the basic and collateral variants.
func simulateCheck(ctx *Context, sc scenario.Scenario, key, game string) (*MCCheck, error) {
	m, err := ctx.Model(sc.Params)
	if err != nil {
		return nil, err
	}
	cfg, analytic, _, err := protocolConfig(m, key, sc)
	if err != nil {
		return nil, err
	}
	res, err := swapsim.MonteCarlo(swapsim.MCConfig{
		Config:  cfg,
		Runs:    ctx.Runs(sc),
		Workers: ctx.Opts.MCWorkers,
	})
	if err != nil {
		return nil, err
	}
	check := newMCCheck(game, analytic, res.SuccessRate, res.Paths, sc.Seed)
	check.Stages = res.Stages
	check.MeanDurationHours = res.Duration.Mean
	return check, nil
}

// fmtInterval renders an interval, or a fixed marker for an empty region.
func fmtInterval(iv mathx.Interval, ok bool) string {
	if !ok {
		return "empty"
	}
	return fmt.Sprintf("(%.4f, %.4f)", iv.Lo, iv.Hi)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
