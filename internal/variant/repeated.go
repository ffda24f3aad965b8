package variant

import (
	"fmt"

	"repro/internal/repeated"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// DefaultRounds is the engagement length the variant plays: long enough
// for a Wilson interval tight enough to catch a broken quote solver, short
// enough to stay interactive.
const DefaultRounds = 200

// repeatedGameGap is the market time between consecutive opportunities,
// matching the figures' repeated-game regimes (one opportunity per day).
const repeatedGameGap = 24.0

// repeatedGame is the §V.B repeated-engagement extension: the same two
// agents trade round after round, re-quoting the SR-maximising rate at
// the prevailing price. The scenario variant plays the static-reputation
// regime — premia fixed at the scenario's, every round an independent
// draw of the re-quoted stage game — which is the regime an analytic
// validation exists for; the reputation dynamics stay reachable through
// the figures' reputation artifact.
type repeatedGame struct{}

func (repeatedGame) Key() string { return "repeated" }

func (repeatedGame) Describe() string {
	return "the §V.B repeated engagement: per-round re-quoting at the SR-maximising rate"
}

func (g repeatedGame) Solve(_ *Context, sc scenario.Scenario) (Report, error) {
	return g.play(sc, DefaultRounds)
}

// play reports an engagement of the given length: Solve plays
// DefaultRounds, the cross-check a longer one for a tighter interval.
func (repeatedGame) play(sc scenario.Scenario, rounds int) (Report, error) {
	res, err := repeated.Play(repeated.Config{
		Params:   sc.Params,
		Rounds:   rounds,
		GapHours: repeatedGameGap,
		Seed:     sweep.Seed(sc.Seed, seedShardRepeated),
	})
	if err != nil {
		return Report{}, err
	}
	pstarOpt, srOpt, viable, err := repeated.QuoteAt(sc.Params, sc.Params.Alice.Alpha, sc.Params.Bob.Alpha)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		SR:      res.SuccessRate(),
		SRLabel: "per-initiation success rate",
		Values: []Value{
			{"sr", res.SuccessRate()},
			{"rounds", float64(rounds)},
			{"quotes", float64(res.Quotes)},
			{"initiations", float64(res.Initiations)},
			{"successes", float64(res.Successes)},
		},
		Lines: []string{
			fmt.Sprintf("engagement: %d rounds, one opportunity per %.0fh, static premia", rounds, repeatedGameGap),
		},
	}
	if viable {
		r.Values = append(r.Values, Value{"quotedRate", pstarOpt}, Value{"quotedSR", srOpt})
		r.Lines = append(r.Lines,
			fmt.Sprintf("quoted SR-maximising rate at P0:          %.4f (per-round SR %.4f)", pstarOpt, srOpt))
	} else {
		r.Lines = append(r.Lines, "no viable exchange rate: the market never opens")
	}
	r.Lines = append(r.Lines,
		fmt.Sprintf("rounds quoted/initiated/succeeded:        %d / %d / %d", res.Quotes, res.Initiations, res.Successes),
		fmt.Sprintf("success rate over initiations:            %.4f", res.SuccessRate()))
	return r, nil
}

// MCValidate checks the engagement's empirical success proportion against
// the quote solver's analytic per-round SR. With static premia every
// initiated round is an independent Bernoulli draw at the re-quoted
// optimal rate, whose success probability is price-level invariant by the
// game's scale invariance — so the Wilson interval over initiations must
// cover the analytic value. A scenario with no viable quote has nothing
// to validate (nil check).
func (g repeatedGame) MCValidate(ctx *Context, sc scenario.Scenario, r Report) (*MCCheck, error) {
	_, srOpt, viable, err := repeated.QuoteAt(sc.Params, sc.Params.Alice.Alpha, sc.Params.Bob.Alpha)
	if err != nil {
		return nil, err
	}
	initiations, _ := r.Value("initiations")
	successes, _ := r.Value("successes")
	if !viable || initiations == 0 {
		return nil, nil
	}
	prop, err := stats.NewProportion(int(successes), int(initiations))
	if err != nil {
		return nil, err
	}
	return newMCCheck("repeated (static premia)", srOpt, prop, int(initiations), sweep.Seed(sc.Seed, seedShardRepeated)), nil
}
