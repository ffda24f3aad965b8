// Command bench is the repository benchmark: it builds cmd/swapd,
// cmd/figures and cmd/scenarios from source, drives them through four
// workloads, checks their outputs, and prints every end-to-end metric.
//
// The driver uses only the programs' command-line flags and the JSON-RPC
// wire format; it imports nothing from the repository, so a refactor of an
// internal API cannot change what it measures. Per-layer numbers come from
// a separate traced run (bench/trace), which -trace 1 builds and runs.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed 1] [-seconds 20] [-trace 0|1] [-o results.json] [-repeat N]
//
// The last line of standard output is one JSON object when a single
// workload runs: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/bench/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// runConfig is what every workload needs.
type runConfig struct {
	root    string // repository root
	binDir  string // built programs
	work    string // scratch directory of this invocation
	seed    int64
	measure time.Duration // measured time per workload
}

func (c runConfig) bin(name string) string { return filepath.Join(c.binDir, name) }

// spec is the part of BENCHMARK.json the driver reads: the metric names,
// units and bounds.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (spec, error) {
	var s spec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// report is the results file.
type report struct {
	Env     envStamp  `json:"env"`
	Results []*result `json:"results,omitempty"`
	// Trace holds the traced run's per-layer metrics (-trace 1).
	Trace *workload.LayerReport `json:"trace,omitempty"`
	// Repeat summarises -repeat invocations.
	Repeat []repeatRow `json:"repeat,omitempty"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workload.Names, ", ")+" (default: all)")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 25, "measured seconds per workload")
		trace   = fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics instead")
		out     = fs.String("o", "", "write the results as JSON to this file")
		repeat  = fs.Int("repeat", 1, "run the whole invocation N times and report each metric's spread")
		root    = fs.String("root", "..", "repository root")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workload.Names
	if *name != "" {
		if !workload.Valid(*name) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workload.Names, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		root:    abs,
		binDir:  filepath.Join(abs, ".bench_build", "bin"),
		work:    filepath.Join(abs, ".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
	}
	sp, err := readSpec(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := report{Env: stamp(cfg, names, *seconds)}
	if *repeat > 1 {
		rows, err := repeatRuns(cfg, sp, names, *seconds, *repeat, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.Repeat = rows
		return writeReport(*out, rep)
	}
	if err := build(cfg, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench: build:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	if *trace == 1 {
		tr, err := runTrace(cfg, sp, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace:", err)
			return 1
		}
		rep.Trace = tr
		if code := writeReport(*out, rep); code != 0 {
			return code
		}
		printContract(stdout, len(tr.Mismatches) == 0, tr.Attempted, tr.Failed, tr.Metrics)
		if len(tr.Mismatches) > 0 {
			return 1
		}
		return 0
	}

	correct := true
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "bench: %s (seed %d, %ds measured)\n", n, cfg.seed, *seconds)
		res, err := runWorkload(cfg, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		res.finish()
		for _, m := range sp.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s (%s) in BENCHMARK.json not reported as such\n", n, m.Name, m.Unit)
				return 1
			}
		}
		printResult(stdout, res)
		rep.Results = append(rep.Results, res)
		correct = correct && len(res.Mismatches) == 0
	}
	if code := writeReport(*out, rep); code != 0 {
		return code
	}
	if len(rep.Results) == 1 {
		r := rep.Results[0]
		gated := make(map[string]workload.Metric, len(sp.EndToEnd))
		for _, m := range sp.EndToEnd {
			gated[m.Name] = r.Metrics[m.Name]
		}
		printContract(stdout, correct, r.Attempted, r.Failed, gated)
	}
	if !correct {
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig, name string) (*result, error) {
	switch name {
	case workload.QuoteFresh, workload.QuoteRepeat:
		return runQuote(cfg, name)
	case workload.Figures:
		return runFigures(cfg)
	default:
		return runAtlas(cfg)
	}
}

// build compiles the programs under test (and, for a traced run, the
// trace) into cfg.binDir. Build time is not measured.
func build(cfg runConfig, trace bool) error {
	goBuild := func(dir string, args ...string) error {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		cmd.Dir = dir
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd.Run()
	}
	if err := goBuild(cfg.root, "-o", cfg.binDir+string(filepath.Separator),
		"./cmd/swapd", "./cmd/figures", "./cmd/scenarios"); err != nil {
		return err
	}
	if trace {
		return goBuild(filepath.Join(cfg.root, "bench"), "-o", cfg.bin("trace"), "./trace")
	}
	return nil
}

// printResult prints a run as "workload metric value unit n=count" lines:
// the end-to-end metrics, then the per-layer counters read off the wire.
func printResult(w io.Writer, r *result) {
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d raw=%.6g\n", r.Workload, k, m.Value, m.Unit, m.N, r.Raw[k].Value)
	}
	fmt.Fprintf(w, "%s fail_frac %.6g ratio n=%d base=%d/%d\n", r.Workload, r.FailFrac, r.Attempted, r.Failed, r.Attempted)
	for _, k := range slices.Sorted(maps.Keys(r.Layers)) {
		m := r.Layers[k]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", r.Workload, k, m.Value, m.Unit, m.N)
		if m.Base != "" {
			fmt.Fprintf(w, " base=%s", m.Base)
		}
		fmt.Fprintln(w)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Phases)) {
		fmt.Fprintf(w, "%s phase %s: %s\n", r.Workload, k, r.Phases[k])
	}
	if len(r.Invalid) > 0 {
		fmt.Fprintf(w, "%s INVALID: %s\n", r.Workload, strings.Join(r.Invalid, "; "))
	}
}

// printContract prints the final machine-readable line.
func printContract(w io.Writer, correct bool, attempted, failed int, metrics map[string]workload.Metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(metrics))}
	for k, m := range metrics {
		out.Metrics[k] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Every value is a finite float; a NaN here is a bug.
		panic(err)
	}
	fmt.Fprintln(w, string(data))
}

// writeReport writes the results file when one was asked for.
func writeReport(path string, rep report) int {
	if path == "" {
		return 0
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing results:", err)
		return 1
	}
	return 0
}

// readReport reads a results file.
func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, errors.New(path + ": no results")
	}
	return rep, nil
}
