// Command swapsolve solves the HTLC atomic-swap games of arXiv:2011.11325
// for a given parameter set and prints the variant registry's reports
// (internal/variant): by default the paper's three games — the §III basic
// game (thresholds, feasible range, SR of Eq. 31), the §IV.A collateral
// game at deposit -q and the §IV.B uncertain-rate game under -budget —
// followed by the two views no report carries: the collateral engagement
// rates 𝒫^A, 𝒫^B and their intersection (when Q > 0), and B's optimal
// lock X*(P_t2) over a grid of t2 prices.
//
// Usage:
//
//	swapsolve [-pstar 2.0] [-q 0.1] [-budget 5] [model flags]
//	swapsolve -sweep 0.2:3.2:61 [-workers 8]   # parallel SR(P*) grid scan
//	swapsolve -scenario high-vol               # solve a named scenario
//	swapsolve -variant uncertain -budget 5     # one game's report only
//	swapsolve -variant all                     # every registered variant game
//	swapsolve -scenario high-vol -variant packetized,repeated
//
// Model flags default to Table III (see -help). With -scenario, the named
// scenario (cmd/scenarios -list) supplies the parameter set, rate, deposit,
// budget and seed, and any explicitly set flag overrides that field. An
// explicit -variant prints exactly the named games' reports ("all" for
// every one); solves are analytic only, protocol simulation lives in
// swapsim. The -sweep grid scan runs through the internal/sweep worker
// pool; its output is identical for every -workers value.
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
		pstar     = fs.Float64("pstar", 2.0, "agreed exchange rate P* (Token_a per Token_b); A's committed amount in the uncertain game")
		q         = fs.Float64("q", 0, "per-agent collateral deposit Q (0 = the collateral game degenerates to the basic game)")
		budget    = fs.Float64("budget", 0, "Bob's Token_b holdings cap in the uncertain game (0 = unconstrained Eq. 44)")
		sweepSpec = fs.String("sweep", "", "sweep SR over a lo:hi:n exchange-rate grid instead of solving one rate")
		workers   = fs.Int("workers", 0, "worker-pool size for -sweep (0 = all CPUs)")
		scen      = fs.String("scenario", "", "start from a named scenario's parameters (explicit flags override)")
		variants  = fs.String("variant", "", `print only these variant games' reports: "all" or a comma-separated key list (empty = basic, collateral and uncertain plus the engagement and X* views)`)
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

		stats = fs.Bool("cache-stats", false, "print the solve-cache counters, the scans' work and the Gauss-Hermite table counters before exit")
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

	sc := scenario.Scenario{
		Name: "cli",
		Params: utility.Params{
			Alice:  utility.AgentParams{Alpha: *alphaA, R: *rA},
			Bob:    utility.AgentParams{Alpha: *alphaB, R: *rB},
			Chains: timeline.Chains{TauA: *tauA, TauB: *tauB, EpsB: *epsB},
			Price:  gbm.Process{Mu: *mu, Sigma: *sigma},
			P0:     *p0,
		},
		PStar:      *pstar,
		Collateral: *q,
		BobBudget:  *budget,
		Seed:       *seed,
	}
	if *scen != "" {
		preset, err := scenario.Lookup(*scen)
		if err != nil {
			return err
		}
		visited := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
		sc.Name, sc.Description = preset.Name, preset.Description
		sc.Params = overrideParams(preset.Params, sc.Params, visited)
		if !visited["pstar"] {
			sc.PStar = preset.PStar
		}
		if !visited["q"] {
			sc.Collateral = preset.Collateral
		}
		if !visited["budget"] {
			sc.BobBudget = preset.BobBudget
		}
		if !visited["seed"] {
			sc.Seed = preset.Seed
		}
	}

	if *sweepSpec != "" {
		if *variants != "" {
			return fmt.Errorf("-sweep scans the basic or collateral SR(P*) only; drop -variant")
		}
		// Route through the shared solve cache: a -sweep re-solves one
		// model's cells.
		m, err := solvecache.SharedModel(sc.Params)
		if err != nil {
			return err
		}
		return solveSweep(out, m, *sweepSpec, sc.Collateral, *workers)
	}
	report, err := variant.Run(sc, variant.RunOpts{Variants: *variants, SkipMC: true})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprint(out, report.Render()); err != nil {
		return err
	}
	if *variants != "" {
		return nil
	}
	m, err := solvecache.SharedModel(sc.Params)
	if err != nil {
		return err
	}
	if sc.Collateral > 0 {
		if err := printEngagement(out, m, sc.Collateral); err != nil {
			return err
		}
	}
	return printLockSizes(out, m, sc.PStar, sc.BobBudget)
}

// printEngagement prints the rates at which each agent engages in the
// collateral game at deposit q (Fig. 8's sets), which the collateral
// report, solved at one rate, does not carry.
func printEngagement(out *os.File, m *core.Model, q float64) error {
	col, err := m.Collateral(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, " collateral engagement rates at Q = %g\n", q)
	fmt.Fprintf(out, "  Alice's engagement rates 𝒫^A:            %v\n", col.FeasibleRatesAlice())
	fmt.Fprintf(out, "  Bob's engagement rates 𝒫^B:              %v\n", col.FeasibleRatesBob())
	fmt.Fprintf(out, "  joint engagement (intersection):         %v\n", col.FeasibleRatesIntersection())
	return nil
}

// printLockSizes prints B's optimal lock X*(P_t2) against A's committed
// amount aLock over a grid of t2 prices, under the budget cap the
// uncertain report solves with.
func printLockSizes(out *os.File, m *core.Model, aLock, budget float64) error {
	u := m.Uncertain()
	if budget > 0 {
		var err error
		if u, err = m.UncertainWithBudget(budget); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, " uncertain lock sizing: Bob's optimal lock against a = %g Token_a\n", aLock)
	for _, y := range []float64{0.5, 1, 2, 4, 8} {
		x, excess, err := u.OptimalLockB(y, aLock)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  X*(P_t2=%g) = %.4f (Bob's excess utility %.4f)\n", y, x, excess)
	}
	return nil
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
