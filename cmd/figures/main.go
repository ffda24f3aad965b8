// Command figures regenerates every table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md), rendering ASCII
// charts to stdout and, with -csv, writing the underlying series to CSV
// files for external plotting.
//
// Usage:
//
//	figures                 # all artifacts
//	figures -only fig6,fig9 # a subset
//	figures -csv out/       # also write CSV data
//	figures -scenario high-vol -only fig5  # under a named scenario's regime
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/figures"
	"repro/internal/plot"
	"repro/internal/solvecache"
	"repro/internal/utility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		only    = fs.String("only", "", "comma-separated artifact IDs (default: all; see DESIGN.md)")
		csvDir  = fs.String("csv", "", "directory to write per-figure CSV files (optional)")
		width   = fs.Int("width", 72, "ASCII chart width")
		height  = fs.Int("height", 18, "ASCII chart height")
		workers = fs.Int("workers", 0, "worker-pool size for grid scans (0 = all CPUs; output is identical for any value)")
		scen    = fs.String("scenario", "", "regenerate under a named scenario's parameters (see cmd/scenarios -list)")
		timing  = fs.Bool("timing", false, "print a per-artifact-group wall-time breakdown after generation")
		stats   = fs.Bool("cache-stats", false, "print solve-cache and quadrature-table hit/miss counters after generation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stats {
		defer solvecache.WriteStats(out)
	}

	start := time.Now()
	figs, timings, err := figures.GenerateTimed(utility.Default(), *only, figures.Opts{
		Workers:  *workers,
		Scenario: *scen,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("creating csv dir: %w", err)
		}
	}
	for _, f := range figs {
		body, err := f.Render(*width, *height)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "==== %s ====\n%s\n", f.ID, body)
		if *csvDir != "" && len(f.Series) > 0 {
			if err := writeCSV(filepath.Join(*csvDir, f.ID+".csv"), f.Series); err != nil {
				return err
			}
		}
	}
	if *timing {
		fmt.Fprintln(out, "timing (per artifact group):")
		for _, t := range timings {
			fmt.Fprintf(out, "  %-12s %8.1fms\n", t.ID, float64(t.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(out, "  %-12s %8.1fms\n", "total", float64(elapsed.Microseconds())/1000)
	}
	fmt.Fprintf(out, "generated %d artifacts\n", len(figs))
	return nil
}

func writeCSV(path string, series []plot.Series) (err error) {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer func() {
		if cerr := file.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	return plot.WriteCSV(file, series...)
}
