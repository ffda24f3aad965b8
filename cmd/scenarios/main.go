// Command scenarios drives the declarative scenario subsystem: it lists
// the registered presets and variant games, batch-runs any subset of the
// (scenario × variant) matrix through the internal/variant registry
// (solving each selected variant and validating analytic solves against
// Monte Carlo protocol runs), diffs two regimes variant by variant, and
// exports presets as JSON templates for user-defined scenarios.
//
// Usage:
//
//	scenarios -list
//	scenarios -run all [-runs 4000] [-workers 0]
//	scenarios -run all -variant all            # every registered variant
//	scenarios -run high-vol,impatient-bob -variant basic,packetized
//	scenarios -diff tableIII,high-vol [-variant all]
//	scenarios -export tableIII -o my.json   # template for custom scenarios
//	scenarios -file my.json                 # run a user-defined scenario
//
// The atlas subcommand sweeps a generated chain-pair universe (see
// internal/config) through the persistent content-addressed store and
// renders success-rate frontier artifacts. Only cells whose content key is
// absent from the store are solved, so a repeat run over an unchanged
// universe solves nothing and re-renders identical bytes:
//
//	scenarios atlas -store .atlas-store -out artifacts/atlas
//	scenarios atlas -store .atlas-store -out artifacts/atlas -max-solved 0  # warm gate
//	scenarios atlas -chains btc,evm -samples 64 -seed 7 -variant all
//
// Without -variant a scenario runs its own variant selection (the classic
// basic/collateral/uncertain trio when it names none). Batch runs
// parallelise across (scenario × variant) cells through the internal/sweep
// worker pool with reports in input order, identical for every -workers
// value. A batch exits non-zero if any variant's Monte Carlo validation
// disagrees with its analytic solve — the same regression gate CI applies.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/atlas"
	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/store"
	"repro/internal/variant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "atlas" {
		return runAtlas(args[1:], out)
	}
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the registered scenario presets and variant games")
		runSpec  = fs.String("run", "", `batch-run "all" or a comma-separated list of preset names`)
		file     = fs.String("file", "", "run a user-defined scenario from a JSON file")
		diff     = fs.String("diff", "", `diff two scenarios: "nameA,nameB"`)
		export   = fs.String("export", "", "write a preset as JSON (a template for -file scenarios)")
		outPath  = fs.String("o", "", "output path for -export (default: stdout)")
		variants = fs.String("variant", "", `variants to solve: "all", a comma-separated key list, or empty for each scenario's own selection`)
		runs     = fs.Int("runs", 0, "override every scenario's Monte Carlo run count (0 = per-scenario default)")
		workers  = fs.Int("workers", 0, "cross-cell worker-pool size (0 = all CPUs; output is identical for any value)")
		stats    = fs.Bool("cache-stats", false, "print the solve-cache counters, the scans' work and the Gauss-Hermite table counters after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stats {
		defer solvecache.WriteStats(out)
	}
	opts := variant.RunOpts{Runs: *runs, Variants: *variants}

	switch {
	case *list:
		return runList(out)
	case *diff != "":
		return runDiff(out, *diff, opts)
	case *export != "":
		return runExport(out, *export, *outPath)
	case *file != "":
		sc, err := scenario.LoadFile(*file)
		if err != nil {
			return err
		}
		return runBatch(out, []scenario.Scenario{sc}, opts, *workers)
	case *runSpec != "":
		scs, err := selectScenarios(*runSpec)
		if err != nil {
			return err
		}
		return runBatch(out, scs, opts, *workers)
	default:
		return fmt.Errorf("nothing to do: pass -list, -run, -diff, -export or -file (see -help)")
	}
}

// runAtlas sweeps a generated universe through the content-addressed store
// and renders the frontier artifacts (scenarios atlas ...).
func runAtlas(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenarios atlas", flag.ContinueOnError)
	var (
		storeDir  = fs.String("store", "", "persistent cell-store directory (empty = uncached: every cell solves)")
		outDir    = fs.String("out", "", "artifact directory for atlas_cells.json and atlas_frontier.txt (empty = print the frontier)")
		chains    = fs.String("chains", "btc,ltc,doge,evm", "comma-separated chain profiles; every ordered pair becomes a swap direction")
		samples   = fs.Int("samples", 32, "Sobol samples per ordered chain pair")
		seed      = fs.Int64("seed", 1, "universe seed (scrambles sampling and seeds MC validation)")
		variants  = fs.String("variant", "basic", `variants solved per cell: "all" or a comma-separated key list`)
		runs      = fs.Int("runs", 0, "Monte Carlo run count per cell when -mc is set (0 = per-scenario default)")
		mc        = fs.Bool("mc", false, "run each cell's Monte Carlo validation (default: analytic solves only)")
		workers   = fs.Int("workers", 0, "cross-cell worker-pool size (0 = all CPUs)")
		maxSolved = fs.Int("max-solved", -1, "fail if more than this many cells had to be solved (-1 = no gate; 0 gates a fully warm run)")
		stats     = fs.Bool("cache-stats", false, "print the solve-cache counters, the scans' work and the Gauss-Hermite table counters after the sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stats {
		defer solvecache.WriteStats(out)
	}
	opts := atlas.Options{
		Spec: config.UniverseSpec{
			Chains:  strings.Split(*chains, ","),
			Samples: *samples,
			Seed:    *seed,
			MCRuns:  *runs,
		},
		Variants: *variants,
		Runs:     *runs,
		SkipMC:   !*mc,
		Workers:  *workers,
	}
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		opts.Store = s
	}
	res, err := atlas.Run(context.Background(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Summary())
	if *mc {
		// A disagreement is reported, not gated: at the bench's run counts
		// a few of the universe's checks miss by chance.
		fmt.Fprintln(out, res.MCSummary())
	}
	if opts.Store != nil {
		st := opts.Store.Stats()
		fmt.Fprintf(out, "store: %d hits, %d misses, %d corrupt, %d puts (%s)\n",
			st.Hits, st.Misses, st.Corrupt, st.Puts, st.Dir)
	}
	if *outDir != "" {
		if err := res.WriteArtifacts(*outDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "artifacts written to %s\n", *outDir)
	} else {
		fmt.Fprint(out, res.Frontier())
	}
	if *maxSolved >= 0 && res.Solved > *maxSolved {
		return fmt.Errorf("atlas solved %d cells, gate allows %d (store not warm?)", res.Solved, *maxSolved)
	}
	return nil
}

// runList prints the preset table and the variant registry.
func runList(out io.Writer) error {
	reg := scenario.Registry()
	fmt.Fprintf(out, "%d registered scenario presets:\n", len(reg))
	for _, sc := range reg {
		fmt.Fprintf(out, "  %-20s P*=%-4g Q=%-4g budget=%-4g  %s\n",
			sc.Name, sc.PStar, sc.Collateral, sc.BobBudget, sc.Description)
	}
	keys := variant.Keys()
	fmt.Fprintf(out, "%d registered variant games (default: %s):\n",
		len(keys), strings.Join(variant.DefaultKeys(), ","))
	for _, key := range keys {
		g, err := variant.Lookup(key)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-20s %s\n", key, g.Describe())
	}
	return nil
}

// selectScenarios resolves "all" or a comma-separated preset list.
func selectScenarios(spec string) ([]scenario.Scenario, error) {
	if spec == "all" {
		return scenario.Registry(), nil
	}
	var scs []scenario.Scenario
	for _, name := range strings.Split(spec, ",") {
		sc, err := scenario.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

// runBatch fans the (scenario × variant) matrix through the batch runner,
// prints every report plus the summary matrix, and fails if any variant's
// Monte Carlo validation disagrees with its analytic solve.
func runBatch(out io.Writer, scs []scenario.Scenario, opts variant.RunOpts, workers int) error {
	reports, err := variant.RunAll(context.Background(), scs, workers, opts)
	if err != nil {
		return err
	}
	var disagree []string
	cells := 0
	for i, r := range reports {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprint(out, r.Render())
		cells += len(r.Reports)
		for _, key := range r.Disagreements() {
			disagree = append(disagree, r.Scenario.Name+"/"+key)
		}
	}
	fmt.Fprintf(out, "\nper-variant success metrics:\n%s", variant.Matrix(reports))
	fmt.Fprintf(out, "\n%d scenario(s) run across %d variant cell(s), %d disagreement(s)\n",
		len(reports), cells, len(disagree))
	if len(disagree) > 0 {
		return fmt.Errorf("analytic solve outside the Monte Carlo Wilson interval for: %s",
			strings.Join(disagree, ", "))
	}
	return nil
}

// runDiff solves both scenarios across the selected variants and prints
// the per-variant comparison.
func runDiff(out io.Writer, spec string, opts variant.RunOpts) error {
	names := strings.Split(spec, ",")
	if len(names) != 2 {
		return fmt.Errorf("-diff wants exactly two names, got %q", spec)
	}
	var reports [2]variant.ScenarioReport
	for i, name := range names {
		sc, err := scenario.Lookup(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		if reports[i], err = variant.Run(sc, opts); err != nil {
			return err
		}
	}
	fmt.Fprint(out, variant.Diff(reports[0], reports[1], 1e-4))
	return nil
}

// runExport writes a preset as JSON to the output path (or stdout).
func runExport(out io.Writer, name, path string) error {
	sc, err := scenario.Lookup(name)
	if err != nil {
		return err
	}
	if path == "" {
		return sc.Save(out)
	}
	if err := sc.SaveFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s to %s\n", name, path)
	return nil
}
