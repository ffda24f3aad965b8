// Command swapsim executes atomic swaps on the simulated ledgers: a single
// traced run (-trace) or a Monte Carlo estimate of the success rate, which
// it compares against the analytic SR of the game solver. Failure injection
// flags reproduce the crash-induced atomicity violation discussed in §II.
//
// Usage:
//
//	swapsim -runs 50000 -pstar 2.0
//	swapsim -ci-width 0.005 -runs 200000   # adaptive precision
//	swapsim -trace -seed 7
//	swapsim -trace -haltb-from 7.5 -haltb-until 40   # atomicity violation
//	swapsim -scenario impatient-bob -runs 20000      # a named scenario's regime
//	swapsim -variant repeated -scenario tableIII     # a variant game + its MC validation
//
// With -variant, the run goes through the internal/variant registry: the
// named variant games are solved and — where the variant supports it —
// cross-validated against an independent Monte Carlo protocol run, exactly
// the per-cell check the scenario batch gates on: the pseudo sampler at
// -runs paths, so -sampler and -ci-width are usage errors with -variant, as
// is -packets (the packetized variant plays its fixed packet count).
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/packetized"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/utility"
	"repro/internal/variant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swapsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("swapsim", flag.ContinueOnError)
	var (
		pstar      = fs.Float64("pstar", 2.0, "agreed exchange rate P*")
		q          = fs.Float64("q", 0, "per-agent collateral deposit")
		runs       = fs.Int("runs", 20000, "Monte Carlo runs (the adaptive cap when -ci-width is set)")
		seed       = fs.Int64("seed", 1, "base random seed")
		workers    = fs.Int("workers", 8, "parallel workers (never affects the result)")
		ciWidth    = fs.Float64("ci-width", 0, "adaptive precision: stop once the Wilson 95% half-width is <= this (0 = fixed -runs)")
		trace      = fs.Bool("trace", false, "run once and print the decision trace")
		haltBFrom  = fs.Float64("haltb-from", 0, "chain_b crash start (hours)")
		haltBUntil = fs.Float64("haltb-until", 0, "chain_b crash end (0 = no crash)")
		haltAFrom  = fs.Float64("halta-from", 0, "chain_a crash start (hours)")
		haltAUntil = fs.Float64("halta-until", 0, "chain_a crash end (0 = no crash)")
		packets    = fs.Int("packets", 0, "split the swap into n packets (companion protocol [20]; 0 = single shot)")
		requote    = fs.Bool("requote", false, "with -packets: re-quote the rate per packet")
		keepGoing  = fs.Bool("continue", false, "with -packets: continue after a failed packet instead of aborting")
		sampler    = fs.String("sampler", "", `sampling mode: "pseudo" (default) or "sobol"`)
		scen       = fs.String("scenario", "", "simulate under a named scenario's parameters, rate, deposit and seed (explicit flags override)")
		variants   = fs.String("variant", "", `simulate through the variant registry: "all" or a comma-separated key list`)
		budget     = fs.Float64("budget", 0, "Bob's holdings cap for the uncertain variant (0 = unconstrained)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := utility.Default()
	name := "cli"
	if *scen != "" {
		sc, err := scenario.Lookup(*scen)
		if err != nil {
			return err
		}
		params = sc.Params
		name = sc.Name
		visited := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
		if !visited["pstar"] {
			*pstar = sc.PStar
		}
		if !visited["q"] {
			*q = sc.Collateral
		}
		if !visited["seed"] {
			*seed = sc.Seed
		}
		if !visited["budget"] {
			*budget = sc.BobBudget
		}
	}

	if *packets < 0 {
		return fmt.Errorf("swapsim: -packets must be >= 0, got %d", *packets)
	}
	mode, err := qmc.ParseMode(*sampler)
	if err != nil {
		return err
	}

	if *variants != "" {
		// A variant's validation is defined by its scenario, seed and run
		// count: it always runs the pseudo sampler for the full -runs. The
		// packetized variant plays variant.DefaultPackets packets.
		if err := refuseFlags(fs, "-variant", "sampler", "ci-width", "packets"); err != nil {
			return err
		}
		sc := scenario.Scenario{
			Name:       name,
			Params:     params,
			PStar:      *pstar,
			Collateral: *q,
			BobBudget:  *budget,
			MCRuns:     *runs,
			Seed:       *seed,
		}
		report, err := variant.Run(sc, variant.RunOpts{Variants: *variants})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(out, report.Render()); err != nil {
			return err
		}
		if bad := report.Disagreements(); len(bad) > 0 {
			return fmt.Errorf("analytic solve outside the Monte Carlo Wilson interval for: %s",
				strings.Join(bad, ", "))
		}
		return nil
	}

	if *packets > 0 {
		// The packetized engine has no collateral, adaptive stop, trace or
		// chain halts: refuse those flags rather than drop them silently.
		if err := refuseFlags(fs, "-packets", "q", "ci-width", "trace", "halta-from", "halta-until", "haltb-from", "haltb-until"); err != nil {
			return err
		}
		results, _, err := packetized.Sweep(packetized.Config{
			Params:  params,
			PStar:   *pstar,
			Requote: *requote,
			Runs:    *runs,
			Seed:    *seed,
			Sampler: mode,
		}, []packetized.Point{{Packets: *packets, ContinueAfterFailure: *keepGoing}})
		if err != nil {
			return err
		}
		res := results[0]
		fmt.Fprintf(out, "packetized swap: n=%d packets at P*=%g (requote=%v continue=%v, %d runs)\n",
			*packets, *pstar, *requote, *keepGoing, *runs)
		fmt.Fprintf(out, "  full completion:    %v\n", res.FullCompletion)
		fmt.Fprintf(out, "  expected fraction:  %.4f ± %.4f\n", res.ExpectedFraction, res.FractionStdErr)
		fmt.Fprintf(out, "  mean packets done:  %.2f\n", res.MeanPacketsDone)
		fmt.Fprintf(out, "  per-round exposure: %.4f TokenA (vs %.4f single-shot)\n", res.ExposurePerRound, *pstar)
		return nil
	}

	// The collateral protocol at Q = 0 is the basic game's, so one key
	// resolves every direct run (variant.ProtocolConfig).
	cfg, analytic, initiates, err := variant.ProtocolConfig("collateral", scenario.Scenario{
		Params: params, PStar: *pstar, Collateral: *q, Seed: *seed,
	})
	if err != nil {
		return err
	}
	cfg.HaltA = swapsim.HaltWindow{From: *haltAFrom, Until: *haltAUntil}
	cfg.HaltB = swapsim.HaltWindow{From: *haltBFrom, Until: *haltBUntil}
	cfg.Sampler = mode

	if *trace {
		outc, err := swapsim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stage:    %s (success=%v, atomic=%v)\n", outc.Stage, outc.Success, outc.Atomic)
		fmt.Fprintf(out, "balances: Alice Δ(TokenA, TokenB) = (%+.4f, %+.4f)\n", outc.AliceDeltaA, outc.AliceDeltaB)
		fmt.Fprintf(out, "          Bob   Δ(TokenA, TokenB) = (%+.4f, %+.4f)\n", outc.BobDeltaA, outc.BobDeltaB)
		if *q > 0 {
			fmt.Fprintf(out, "collateral: Alice %+.4f, Bob %+.4f\n", outc.CollateralDeltaAlice, outc.CollateralDeltaBob)
		}
		fmt.Fprintf(out, "prices:   P_t2 = %.4f, P_t3 = %.4f\n", outc.PT2, outc.PT3)
		fmt.Fprintf(out, "finished at t = %.1fh\n", outc.EndTime)
		fmt.Fprintln(out, "alice decisions:")
		for _, d := range outc.AliceDecisions {
			fmt.Fprintf(out, "  %-3s t=%5.1f price=%.4f %-4s %s\n", d.Stage, d.Time, d.Price, d.Action, d.Reason)
		}
		fmt.Fprintln(out, "bob decisions:")
		for _, d := range outc.BobDecisions {
			fmt.Fprintf(out, "  %-3s t=%5.1f price=%.4f %-4s %s\n", d.Stage, d.Time, d.Price, d.Action, d.Reason)
		}
		return nil
	}

	res, err := swapsim.MonteCarlo(swapsim.MCConfig{
		Config:  cfg,
		Runs:    *runs,
		Workers: *workers,
		CIWidth: *ciWidth,
	})
	if err != nil {
		return err
	}
	if res.Sampler.VarianceReduced() {
		fmt.Fprintf(out, "sampler:                  %s (estimator 95%% half-width %.4f)\n",
			res.Sampler, res.EstHalfWidth)
	}
	if *ciWidth > 0 {
		status := "cap reached"
		if res.Stopped {
			status = "target hit early"
		}
		fmt.Fprintf(out, "adaptive precision:       %d paths for CI half-width <= %g (%s)\n",
			res.Paths, *ciWidth, status)
	}
	if !initiates {
		fmt.Fprintf(out, "note: A rationally stops at t1 under these parameters; the runs are played\n")
		fmt.Fprintf(out, "      initiated because the analytic SR below conditions on initiation.\n")
	}
	fmt.Fprintf(out, "Monte Carlo success rate: %v\n", res.SuccessRate)
	fmt.Fprintf(out, "analytic success rate:    %.4f (agrees: %v)\n",
		analytic, variant.Agrees(analytic, res.SuccessRate))
	fmt.Fprintf(out, "mean completion time:     %.2fh\n", res.Duration.Mean)
	fmt.Fprintf(out, "violations:               %d\n", res.Violations)
	fmt.Fprintln(out, "outcomes by stage:")
	for _, s := range slices.Sorted(maps.Keys(res.Stages)) {
		n := res.Stages[s]
		fmt.Fprintf(out, "  %-20s %7d (%.2f%%)\n", s, n, 100*float64(n)/float64(res.Paths))
	}
	return nil
}

// refuseFlags is the usage error for the explicitly set flags among names,
// which mode cannot honour.
func refuseFlags(fs *flag.FlagSet, mode string, names ...string) error {
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		return fmt.Errorf("swapsim: %s cannot be combined with %s", strings.Join(unused, ", "), mode)
	}
	return nil
}
