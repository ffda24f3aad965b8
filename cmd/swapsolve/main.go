// Command swapsolve solves the HTLC atomic-swap game of arXiv:2011.11325
// for a given parameter set and prints the subgame-perfect thresholds, the
// feasible exchange-rate range (Eq. 29), the success rate (Eq. 31), and —
// with -q or -uncertain — the corresponding extension results.
//
// Usage:
//
//	swapsolve [-pstar 2.0] [-q 0.1] [-uncertain] [-budget 5] [model flags]
//	swapsolve -sweep 0.2:3.2:61 [-workers 8]   # parallel SR(P*) grid scan
//	swapsolve -scenario high-vol               # solve a named scenario
//	swapsolve -variant all                     # every registered variant game
//	swapsolve -scenario high-vol -variant packetized,repeated
//
// Model flags default to Table III (see -help). With -scenario, the named
// scenario (cmd/scenarios -list) supplies the parameter set, rate and
// deposit, and any explicitly set flag overrides that field. With -variant,
// the parameter set is solved through the internal/variant registry —
// analytic solves only; protocol simulation lives in swapsim — for the
// named variant games ("all" for every one). The -sweep grid scan runs
// through the internal/sweep worker pool; its output is identical for
// every -workers value.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gbm"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/utility"
	"repro/internal/variant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swapsolve:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("swapsolve", flag.ContinueOnError)
	var (
		pstar     = fs.Float64("pstar", 2.0, "agreed exchange rate P* (Token_a per Token_b)")
		q         = fs.Float64("q", 0, "per-agent collateral deposit Q (0 = basic game)")
		uncertain = fs.Bool("uncertain", false, "solve the uncertain-exchange-rate extension (§IV.B)")
		budget    = fs.Float64("budget", 0, "Bob's Token_b holdings cap for -uncertain (0 = unconstrained Eq. 44)")
		sweepSpec = fs.String("sweep", "", "sweep SR over a lo:hi:n exchange-rate grid instead of solving one rate")
		workers   = fs.Int("workers", 0, "worker-pool size for -sweep (0 = all CPUs)")
		scen      = fs.String("scenario", "", "start from a named scenario's parameters (explicit flags override)")
		variants  = fs.String("variant", "", `solve through the variant registry: "all" or a comma-separated key list`)
		packets   = fs.Int("packets", 0, "packet count for the packetized variant (0 = variant default)")
		rounds    = fs.Int("rounds", 0, "round count for the repeated variant (0 = variant default)")
		seed      = fs.Int64("seed", 1, "seed of the sampled variants (packetized, repeated)")

		alphaA = fs.Float64("alphaA", 0.3, "Alice's success premium")
		alphaB = fs.Float64("alphaB", 0.3, "Bob's success premium")
		rA     = fs.Float64("rA", 0.01, "Alice's hourly discount rate")
		rB     = fs.Float64("rB", 0.01, "Bob's hourly discount rate")
		tauA   = fs.Float64("tauA", 3, "Chain_a confirmation time (hours)")
		tauB   = fs.Float64("tauB", 4, "Chain_b confirmation time (hours)")
		epsB   = fs.Float64("epsB", 1, "Chain_b mempool discoverability lag (hours)")
		p0     = fs.Float64("p0", 2, "Token_b price at t0 (Token_a)")
		mu     = fs.Float64("mu", 0.002, "price drift per hour")
		sigma  = fs.Float64("sigma", 0.1, "price volatility per sqrt-hour")

		stats = fs.Bool("cache-stats", false, "print solve-cache and quadrature-table hit/miss counters before exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget < 0 || math.IsNaN(*budget) || math.IsInf(*budget, 0) {
		return fmt.Errorf("-budget=%g must be >= 0 and finite (0 = unconstrained Eq. 44)", *budget)
	}
	if *stats {
		defer solvecache.WriteStats(out)
	}

	params := utility.Params{
		Alice:  utility.AgentParams{Alpha: *alphaA, R: *rA},
		Bob:    utility.AgentParams{Alpha: *alphaB, R: *rB},
		Chains: timeline.Chains{TauA: *tauA, TauB: *tauB, EpsB: *epsB},
		Price:  gbm.Process{Mu: *mu, Sigma: *sigma},
		P0:     *p0,
	}
	name := "cli"
	if *scen != "" {
		sc, err := scenario.Lookup(*scen)
		if err != nil {
			return err
		}
		name = sc.Name
		visited := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
		params = overrideParams(sc.Params, params, visited)
		if !visited["pstar"] {
			*pstar = sc.PStar
		}
		if !visited["q"] {
			*q = sc.Collateral
		}
		if !visited["budget"] {
			*budget = sc.BobBudget
		}
		if !visited["seed"] {
			*seed = sc.Seed
		}
		if !visited["packets"] {
			*packets = sc.Packets
		}
		if !visited["rounds"] {
			*rounds = sc.Rounds
		}
	}

	if *variants != "" {
		sc := scenario.Scenario{
			Name:       name,
			Params:     params,
			PStar:      *pstar,
			Collateral: *q,
			BobBudget:  *budget,
			Seed:       *seed,
			Packets:    *packets,
			Rounds:     *rounds,
		}
		report, err := variant.Run(sc, variant.RunOpts{Variants: *variants, SkipMC: true})
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(out, report.Render())
		return err
	}

	// Route through the shared solve cache: a -sweep re-solves one model's
	// cells, and repeated CLI invocations inside one process (tests) share
	// them.
	m, err := solvecache.SharedModel(params)
	if err != nil {
		return err
	}

	if *sweepSpec != "" {
		if *uncertain {
			return fmt.Errorf("-sweep supports the basic and collateral games only; drop -uncertain")
		}
		return solveSweep(out, m, *sweepSpec, *q, *workers)
	}
	if *uncertain {
		return solveUncertain(out, m, *pstar, *budget)
	}
	if *q > 0 {
		return solveCollateral(out, m, *pstar, *q)
	}
	return solveBasic(out, m, *pstar)
}

// overrideParams starts from a scenario's parameter set and applies every
// model flag the user set explicitly on top of it.
func overrideParams(base, flags utility.Params, visited map[string]bool) utility.Params {
	if visited["alphaA"] {
		base.Alice.Alpha = flags.Alice.Alpha
	}
	if visited["alphaB"] {
		base.Bob.Alpha = flags.Bob.Alpha
	}
	if visited["rA"] {
		base.Alice.R = flags.Alice.R
	}
	if visited["rB"] {
		base.Bob.R = flags.Bob.R
	}
	if visited["tauA"] {
		base.Chains.TauA = flags.Chains.TauA
	}
	if visited["tauB"] {
		base.Chains.TauB = flags.Chains.TauB
	}
	if visited["epsB"] {
		base.Chains.EpsB = flags.Chains.EpsB
	}
	if visited["p0"] {
		base.P0 = flags.P0
	}
	if visited["mu"] {
		base.Price.Mu = flags.Price.Mu
	}
	if visited["sigma"] {
		base.Price.Sigma = flags.Price.Sigma
	}
	return base
}

// parseGrid parses a "lo:hi:n" sweep specification into a grid of rates.
func parseGrid(spec string) ([]float64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sweep spec %q: want lo:hi:n", spec)
	}
	lo, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return nil, fmt.Errorf("sweep spec %q: %w", spec, err)
	}
	hi, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("sweep spec %q: %w", spec, err)
	}
	n, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, fmt.Errorf("sweep spec %q: %w", spec, err)
	}
	if n < 2 || hi <= lo || lo <= 0 {
		return nil, fmt.Errorf("sweep spec %q: need 0 < lo < hi and n >= 2", spec)
	}
	return mathx.LinSpace(lo, hi, n), nil
}

// solveSweep scans SR over an exchange-rate grid on the sweep worker pool
// and prints the SR-maximising rate.
func solveSweep(out *os.File, m *core.Model, spec string, q float64, workers int) error {
	grid, err := parseGrid(spec)
	if err != nil {
		return err
	}
	successRate := m.SuccessRate
	label := "basic"
	if q > 0 {
		col, err := m.Collateral(q)
		if err != nil {
			return err
		}
		successRate = col.SuccessRate
		label = fmt.Sprintf("collateral Q=%g", q)
	}
	srs, err := sweep.Map(context.Background(), len(grid), workers, func(i int) (float64, error) {
		return successRate(grid[i])
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "SR(P*) sweep (%s game) over %d rates on %d workers\n",
		label, len(grid), sweep.Workers(workers))
	fmt.Fprintf(out, "  %-10s %s\n", "P*", "SR")
	best := 0
	for i, sr := range srs {
		fmt.Fprintf(out, "  %-10.4f %.4f\n", grid[i], sr)
		if sr > srs[best] {
			best = i
		}
	}
	fmt.Fprintf(out, "  best rate on grid: P* = %.4f (SR = %.4f)\n", grid[best], srs[best])
	return nil
}

func solveBasic(out *os.File, m *core.Model, pstar float64) error {
	cut, err := m.CutoffT3(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "basic HTLC swap game at P* = %g\n", pstar)
	fmt.Fprintf(out, "  Alice's t3 reveal cut-off P̄_t3 (Eq. 18): %.4f\n", cut)

	iv, ok, err := m.ContRangeT2(pstar)
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(out, "  Bob's t2 continuation range (Eq. 24):    (%.4f, %.4f)\n", iv.Lo, iv.Hi)
	} else {
		fmt.Fprintf(out, "  Bob's t2 continuation range (Eq. 24):    empty — B never locks\n")
	}

	rng, ok, err := m.FeasibleRateRange()
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(out, "  feasible exchange-rate range (Eq. 29):   (%.4f, %.4f)\n", rng.Lo, rng.Hi)
	} else {
		fmt.Fprintf(out, "  feasible exchange-rate range (Eq. 29):   empty — A never initiates\n")
	}

	sr, err := m.SuccessRate(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  success rate SR(P*) (Eq. 31):            %.4f\n", sr)

	if opt, srOpt, err := m.OptimalRate(); err == nil {
		fmt.Fprintf(out, "  SR-maximising rate:                      %.4f (SR = %.4f)\n", opt, srOpt)
	}
	strat, err := m.Strategy(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  Alice initiates at this rate:            %v\n", strat.AliceInitiates)
	return nil
}

func solveCollateral(out *os.File, m *core.Model, pstar, q float64) error {
	col, err := m.Collateral(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "collateral HTLC swap game at P* = %g, Q = %g\n", pstar, q)
	cut, err := col.CutoffT3(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  Alice's t3 cut-off P̄_t3,c (Eq. 33):      %.4f\n", cut)
	set, err := col.ContSetT2(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  Bob's t2 continuation set 𝒫_t2:          %v\n", set)
	fmt.Fprintf(out, "  Alice's engagement rates 𝒫^A:            %v\n", col.FeasibleRatesAlice())
	fmt.Fprintf(out, "  Bob's engagement rates 𝒫^B:              %v\n", col.FeasibleRatesBob())
	fmt.Fprintf(out, "  joint engagement (intersection):         %v\n", col.FeasibleRatesIntersection())
	sr, err := col.SuccessRate(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  success rate SR_c(P*) (Eq. 40):          %.4f\n", sr)
	srBasic, err := m.SuccessRate(pstar)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  improvement over Q=0:                    %+.4f\n", sr-srBasic)
	return nil
}

func solveUncertain(out *os.File, m *core.Model, aLock, budget float64) error {
	u := m.Uncertain()
	label := "unconstrained (printed Eq. 44)"
	if budget > 0 {
		var err error
		if u, err = m.UncertainWithBudget(budget); err != nil {
			return err
		}
		label = fmt.Sprintf("budget-capped at %g Token_b", budget)
	}
	fmt.Fprintf(out, "uncertain-exchange-rate game, Alice locks a = %g Token_a (%s)\n", aLock, label)
	for _, y := range []float64{0.5, 1, 2, 4, 8} {
		x, excess, err := u.OptimalLockB(y, aLock)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  X*(P_t2=%g) = %.4f (Bob's excess utility %.4f)\n", y, x, excess)
	}
	ex, err := u.AliceExcessUtilityT1(aLock)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  Alice's excess utility (Eq. 45):          %.4f\n", ex)
	sr, err := u.SuccessRate(aLock)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  success rate SR_x (Eq. 46):               %.4f\n", sr)
	srBasic, err := m.SuccessRate(aLock)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  basic-game SR at the same P*:             %.4f\n", srBasic)
	return nil
}
