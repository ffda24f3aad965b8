// Command benchmc turns `go test -bench` output into the machine-readable
// benchmark artifacts BENCH_mc.json / BENCH_solve.json, and gates CI
// against allocation regressions.
//
// Writing a baseline (see `make bench-json`):
//
//	go test -bench='^BenchmarkMC_' -benchmem -run='^$' . | go run ./tools/benchmc -o BENCH_mc.json
//	go test -bench='^BenchmarkSolve_' -benchmem -run='^$' . | go run ./tools/benchmc -o BENCH_solve.json \
//	  -note "solve-engine baseline"
//
// Checking a run against one or more committed baselines (see `make
// bench-check`, run by CI's bench-regression jobs). -against accepts a
// comma-separated list; the baselines are merged by benchmark name (later
// files override earlier ones on collision), so the MC and solve suites
// report in one table:
//
//	go test -bench='^Benchmark(MC|Solve)_' -benchmem -benchtime=32x -run='^$' . |
//	  go run ./tools/benchmc -against BENCH_mc.json,BENCH_solve.json -max-alloc-ratio 2
//
// The check fails (exit 1) when any benchmark present in both the run and
// a baseline reports more than max-alloc-ratio times the baseline's
// allocs/op — the guardrail that keeps the reused-state paths from
// silently regressing to per-path/per-cell allocation. With
// -max-paths-ratio it also fails when a convergence benchmark's
// pathsratio metric (paths-to-precision relative to the pseudo sampler,
// deterministic per seed) exceeds the given absolute ceiling — the
// guardrail on the variance-reduced sampling modes. With -max-wall
// ("Name=seconds,...") it gates named benchmarks on absolute wall time per
// op — the end-to-end full-figures ceiling (`make bench-check` pins
// BenchmarkFiguresFull at 1.0s), the one deliberate exception to the
// no-wall-gating rule because its headroom is wide. The table also
// reports the ns/op and paths/s deltas against the baseline for the
// operator's eyes; wall-clock is hardware-dependent, so those columns are
// deliberately not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark function name, with any -GOMAXPROCS suffix
	// stripped.
	Name string `json:"name"`
	// Iterations is the b.N the reported values were averaged over.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// metrics. AllocsPerOp is written even when zero: a zero-alloc
	// baseline is a gate (the run must stay at zero), not an absent one.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// PathsPerSec is the engine benchmarks' custom throughput metric.
	PathsPerSec float64 `json:"paths_per_sec,omitempty"`
	// EffPathsPerSec is the convergence benchmarks' precision-normalized
	// throughput: pseudo-equivalent paths per second at the shared
	// half-width target.
	EffPathsPerSec float64 `json:"effpaths_per_sec,omitempty"`
	// PathsRatio is a convergence benchmark's paths-to-target divided by
	// the pseudo sampler's — deterministic per seed, so gateable.
	PathsRatio float64 `json:"paths_ratio,omitempty"`
	// Groups is the artifact-group count of the full-figures benchmark:
	// the work covered by its gated wall time.
	Groups float64 `json:"groups,omitempty"`
}

// File is the BENCH_mc.json schema.
type File struct {
	// Note says how to regenerate the artifact.
	Note string `json:"note"`
	// Benchmarks lists the parsed results in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark lines ("BenchmarkX  N  v unit  v unit ...")
// from go test -bench output.
func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		b := Benchmark{Name: procSuffix.ReplaceAllString(fields[0], ""), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmc: %q: bad value %q", b.Name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "paths/s":
				b.PathsPerSec = v
			case "effpaths/s":
				b.EffPathsPerSec = v
			case "pathsratio":
				b.PathsRatio = v
			case "groups":
				b.Groups = v
			}
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchmc: reading input: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchmc: no benchmark lines in input (did the bench run fail?)")
	}
	return out, nil
}

// mergeBaselines unions the benchmark maps of several baseline files, in
// order: on a name collision the later file wins (so a more specific
// baseline can override a broader one). The returned map is keyed by
// benchmark name.
func mergeBaselines(files []File) map[string]Benchmark {
	merged := make(map[string]Benchmark)
	for _, f := range files {
		for _, b := range f.Benchmarks {
			merged[b.Name] = b
		}
	}
	return merged
}

// delta formats a percentage change against a baseline value, or "-" when
// the metric is absent on either side.
func delta(cur, ref float64) string {
	if cur == 0 || ref == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (cur/ref-1)*100)
}

// parseMaxWall parses the -max-wall value: comma-separated Name=seconds
// pairs, each an absolute wall-time ceiling on that benchmark's ns/op.
func parseMaxWall(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	gates := make(map[string]float64)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		secs, err := strconv.ParseFloat(val, 64)
		if !ok || name == "" || err != nil || secs <= 0 {
			return nil, fmt.Errorf("benchmc: -max-wall %q: want Name=seconds with seconds > 0", pair)
		}
		gates[name] = secs
	}
	return gates, nil
}

// check compares a run against the merged baselines: allocs/op is gated at
// maxRatio (a zero baseline admits only zero), pathsratio (when reported
// and maxPathsRatio > 0) at its absolute ceiling, ns/op and paths/s are
// reported as informational deltas. The pathsratio gate is absolute, not relative to the baseline:
// the adaptive stop is deterministic per seed, so a variance-reduced mode
// drifting past its documented convergence bound is a correctness
// regression, not measurement noise. maxWall gates named benchmarks on
// absolute seconds per op — the only place wall-clock is gated, reserved
// for end-to-end ceilings with wide headroom (a missing gated benchmark
// fails, so a rename cannot silently drop the gate).
func check(current []Benchmark, base map[string]Benchmark, maxRatio, maxPathsRatio float64, maxWall map[string]float64, out io.Writer) error {
	matched := 0
	var allocFailures, pathsFailures []string
	fmt.Fprintf(out, "%-40s %21s %8s %9s %9s %7s %s\n",
		"benchmark", "allocs/op (vs base)", "ratio", "ns/op Δ", "paths/s Δ", "paths×", "gate")
	for _, cur := range current {
		ref, ok := base[cur.Name]
		if !ok {
			continue
		}
		matched++
		ratio := cur.AllocsPerOp / ref.AllocsPerOp
		if ref.AllocsPerOp == 0 {
			ratio = 0
			if cur.AllocsPerOp > 0 {
				ratio = math.Inf(1)
			}
		}
		status := "ok"
		if ratio > maxRatio {
			status = "FAIL"
			allocFailures = append(allocFailures, cur.Name)
		}
		pathsCol := "-"
		if cur.PathsRatio > 0 {
			pathsCol = fmt.Sprintf("%.3f", cur.PathsRatio)
			if maxPathsRatio > 0 && cur.PathsRatio > maxPathsRatio {
				status = "FAIL"
				pathsFailures = append(pathsFailures, cur.Name)
			}
		}
		fmt.Fprintf(out, "%-40s %10.0f %10.0f %7.2fx %9s %9s %7s %s\n",
			cur.Name, cur.AllocsPerOp, ref.AllocsPerOp, ratio,
			delta(cur.NsPerOp, ref.NsPerOp), delta(cur.PathsPerSec, ref.PathsPerSec), pathsCol, status)
	}
	if matched == 0 {
		return fmt.Errorf("benchmc: no benchmark matched the baselines — regenerate with `make bench-json`")
	}
	var wallFailures []string
	for name, secs := range maxWall {
		found := false
		for _, cur := range current {
			if cur.Name != name {
				continue
			}
			found = true
			wall := cur.NsPerOp / 1e9
			status := "ok"
			if wall > secs {
				status = "FAIL"
				wallFailures = append(wallFailures, fmt.Sprintf("%s (%.3fs > %.3fs)", name, wall, secs))
			}
			fmt.Fprintf(out, "%-40s wall %.3fs (ceiling %.3fs) %s\n", name, wall, secs, status)
		}
		if !found {
			wallFailures = append(wallFailures, fmt.Sprintf("%s (not in the run)", name))
		}
	}
	sort.Strings(wallFailures)
	var errs []string
	if len(allocFailures) > 0 {
		errs = append(errs, fmt.Sprintf("allocs/op regressed >%.1fx on: %s", maxRatio, strings.Join(allocFailures, ", ")))
	}
	if len(pathsFailures) > 0 {
		errs = append(errs, fmt.Sprintf("paths-to-precision ratio exceeded %.2fx pseudo on: %s", maxPathsRatio, strings.Join(pathsFailures, ", ")))
	}
	if len(wallFailures) > 0 {
		errs = append(errs, fmt.Sprintf("wall-time ceiling exceeded on: %s", strings.Join(wallFailures, ", ")))
	}
	if len(errs) > 0 {
		return fmt.Errorf("benchmc: %s", strings.Join(errs, "; "))
	}
	return nil
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmc", flag.ContinueOnError)
	var (
		outPath  = fs.String("o", "", "write parsed results as JSON to this path (default: stdout)")
		against  = fs.String("against", "", "comma-separated baseline files to check allocs/op against instead of writing JSON")
		maxRatio = fs.Float64("max-alloc-ratio", 2, "with -against: fail when allocs/op exceeds baseline by this factor")
		maxPaths = fs.Float64("max-paths-ratio", 0, "with -against: fail when a convergence benchmark's pathsratio exceeds this absolute ceiling (0 = no gate)")
		maxWall  = fs.String("max-wall", "", "with -against: comma-separated Name=seconds pairs; fail when that benchmark's wall time per op exceeds the ceiling (or it is missing from the run)")
		note     = fs.String("note", "Monte Carlo engine benchmark baseline; regenerate with `make bench-json`, CI gates allocs/op at 2x via `make bench-check`.",
			"with -o: the note field written into the JSON artifact")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	benches, err := parse(stdin)
	if err != nil {
		return err
	}
	if *against != "" {
		wallGates, err := parseMaxWall(*maxWall)
		if err != nil {
			return err
		}
		var files []File
		for _, path := range strings.Split(*against, ",") {
			path = strings.TrimSpace(path)
			raw, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("benchmc: %w", err)
			}
			var baseline File
			if err := json.Unmarshal(raw, &baseline); err != nil {
				return fmt.Errorf("benchmc: parsing %s: %w", path, err)
			}
			files = append(files, baseline)
		}
		return check(benches, mergeBaselines(files), *maxRatio, *maxPaths, wallGates, stdout)
	}
	f := File{
		Note:       *note,
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchmc: %w", err)
	}
	data = append(data, '\n')
	if *outPath == "" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return fmt.Errorf("benchmc: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(benches), *outPath)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmc:", err)
		os.Exit(1)
	}
}
