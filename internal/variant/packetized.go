package variant

import (
	"fmt"

	"repro/internal/packetized"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// DefaultPackets is the packet count the variant solves: enough splitting
// for the exposure reduction to show without drowning the per-round
// success signal.
const DefaultPackets = 4

// Seed shards decorrelating the sampled variants' RNG streams from each
// other and from the swapsim engine's own per-path streams.
const (
	seedShardPacketized         = 101
	seedShardPacketizedValidate = 102
	seedShardRepeated           = 103
	seedShardBaselineValidate   = 104
)

// packetizedGame is the companion-work comparator ([20] in §II): the trade
// splits into n equal packets, each its own HTLC round.
type packetizedGame struct{}

func (packetizedGame) Key() string { return "packetized" }

func (packetizedGame) Describe() string {
	return "the companion protocol [20]: n packetized HTLC rounds bound per-round exposure"
}

// Solve runs the packetized Monte Carlo experiment once and reads both
// failure semantics from it (deterministic in the scenario seed):
// abort-on-failure, the trust-is-broken reading, and
// continue-after-failure, the companion protocol's case. The headline
// metric is the abort-mode expected completed fraction of the notional.
func (packetizedGame) Solve(ctx *Context, sc scenario.Scenario) (Report, error) {
	const n = DefaultPackets
	cfg := packetized.Config{
		Params: sc.Params,
		PStar:  sc.PStar,
		Runs:   ctx.Runs(sc),
		Seed:   sweep.Seed(sc.Seed, seedShardPacketized),
	}
	res, _, err := packetized.Sweep(cfg, []packetized.Point{{Packets: n}, {Packets: n, ContinueAfterFailure: true}})
	if err != nil {
		return Report{}, err
	}
	abort, cont := res[0], res[1]
	return Report{
		SR:      abort.ExpectedFraction,
		SRLabel: "expected completed fraction (abort-on-failure)",
		Values: []Value{
			{"sr", abort.ExpectedFraction},
			{"packets", float64(n)},
			{"fullCompletion", abort.FullCompletion.P},
			{"meanPacketsDone", abort.MeanPacketsDone},
			{"continueFraction", cont.ExpectedFraction},
			{"exposurePerRound", abort.ExposurePerRound},
		},
		Lines: []string{
			fmt.Sprintf("packets n=%d at P*=%g (%d runs)", n, sc.PStar, cfg.Runs),
			fmt.Sprintf("expected fraction (abort on failure):     %.4f ± %.4f", abort.ExpectedFraction, abort.FractionStdErr),
			fmt.Sprintf("full completion (abort on failure):       %v", abort.FullCompletion),
			fmt.Sprintf("mean packets done:                        %.2f of %d", abort.MeanPacketsDone, n),
			fmt.Sprintf("expected fraction (continue after fail):  %.4f ± %.4f", cont.ExpectedFraction, cont.FractionStdErr),
			fmt.Sprintf("per-round exposure:                       %.4f Token_a (vs %.4f single-shot)", abort.ExposurePerRound, sc.PStar),
		},
	}, nil
}

// MCValidate cross-checks the packetized engine against the analytic
// solver through the n=1 reduction: a single forced-initiation packet is
// exactly the basic game conditioned on initiation, so its full-completion
// proportion must cover SR(P*) of Eq. 31. The reduction exercises the same
// per-packet sampling loop every n runs through.
func (packetizedGame) MCValidate(ctx *Context, sc scenario.Scenario, _ Report) (*MCCheck, error) {
	m, err := ctx.Model(sc.Params)
	if err != nil {
		return nil, err
	}
	analytic, err := m.SuccessRate(sc.PStar)
	if err != nil {
		return nil, err
	}
	runs := ctx.Runs(sc)
	seed := sweep.Seed(sc.Seed, seedShardPacketizedValidate)
	res, _, err := packetized.Sweep(packetized.Config{
		Params:        sc.Params,
		PStar:         sc.PStar,
		ForceInitiate: true,
		Runs:          runs,
		Seed:          seed,
	}, []packetized.Point{{Packets: 1}})
	if err != nil {
		return nil, err
	}
	return newMCCheck("packetized n=1 ≡ basic", analytic, res[0].FullCompletion, runs, seed), nil
}
