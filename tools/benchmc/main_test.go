package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMC_PathLegacyAlloc-8        	   38552	     31493 ns/op	   11359 B/op	      85 allocs/op
BenchmarkMC_PathReused               	   74062	     16233 ns/op	    2157 B/op	      49 allocs/op
BenchmarkMC_EngineFixedN1Worker      	      36	  33094187 ns/op	     61884 paths/s	 4422994 B/op	  100913 allocs/op
BenchmarkMC_ConvergenceSobol         	     175	   1204768 ns/op	   6587229 effpaths/s	    424982 paths/s	         0.06452 pathsratio	   31489 B/op	    1090 allocs/op
PASS
ok  	repro	7.840s
`

func TestParseBenchOutput(t *testing.T) {
	benches, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(benches))
	}
	first := benches[0]
	if first.Name != "BenchmarkMC_PathLegacyAlloc" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", first.Name)
	}
	if first.Iterations != 38552 || first.NsPerOp != 31493 || first.BytesPerOp != 11359 || first.AllocsPerOp != 85 {
		t.Errorf("metrics = %+v", first)
	}
	if benches[2].PathsPerSec != 61884 {
		t.Errorf("custom paths/s metric = %v, want 61884", benches[2].PathsPerSec)
	}
	conv := benches[3]
	if conv.EffPathsPerSec != 6587229 {
		t.Errorf("effpaths/s = %v, want 6587229", conv.EffPathsPerSec)
	}
	if conv.PathsRatio != 0.06452 {
		t.Errorf("pathsratio = %v, want 0.06452", conv.PathsRatio)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Error("empty bench output should be an error")
	}
}

// writeBaseline runs the tool in write mode against the sample output and
// returns the JSON path.
func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_mc.json")
	var out strings.Builder
	if err := run([]string{"-o", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteAndCheckRoundTrip(t *testing.T) {
	path := writeBaseline(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(f.Benchmarks) != 4 || f.Note == "" {
		t.Fatalf("artifact = %+v", f)
	}
	// The identical run passes the 2x gate.
	var out strings.Builder
	if err := run([]string{"-against", path}, strings.NewReader(sample), &out); err != nil {
		t.Errorf("identical run failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("check output lacks per-benchmark lines:\n%s", out.String())
	}
}

func TestCheckFailsOnAllocRegression(t *testing.T) {
	path := writeBaseline(t)
	regressed := strings.ReplaceAll(sample,
		"   74062	     16233 ns/op	    2157 B/op	      49 allocs/op",
		"   74062	     16233 ns/op	    2157 B/op	     199 allocs/op")
	var out strings.Builder
	err := run([]string{"-against", path, "-max-alloc-ratio", "2"}, strings.NewReader(regressed), &out)
	if err == nil {
		t.Fatalf("4x alloc regression passed the 2x gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkMC_PathReused") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
}

// TestPathsRatioGate exercises the -max-paths-ratio ceiling: the sample's
// sobol convergence (0.065x pseudo) passes a 0.5 gate, a regressed run at
// 1.29x fails it by name, and without the flag the ratio is reported but
// never gated.
func TestPathsRatioGate(t *testing.T) {
	path := writeBaseline(t)
	var out strings.Builder
	if err := run([]string{"-against", path, "-max-paths-ratio", "0.5"}, strings.NewReader(sample), &out); err != nil {
		t.Errorf("0.065x pathsratio failed the 0.5 gate: %v\n%s", err, out.String())
	}
	regressed := strings.ReplaceAll(sample, "0.06452 pathsratio", "1.290 pathsratio")
	err := run([]string{"-against", path, "-max-paths-ratio", "0.5"}, strings.NewReader(regressed), &strings.Builder{})
	if err == nil {
		t.Fatal("1.29x pathsratio passed the 0.5 gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkMC_ConvergenceSobol") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
	if err := run([]string{"-against", path}, strings.NewReader(regressed), &strings.Builder{}); err != nil {
		t.Errorf("without -max-paths-ratio the ratio must not gate: %v", err)
	}
}

func TestParseGroupsMetric(t *testing.T) {
	line := "BenchmarkFiguresFull \t 1\t 610812345 ns/op\t 18.00 groups\t 123 B/op\t 45 allocs/op\n"
	benches, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if benches[0].Groups != 18 {
		t.Errorf("groups = %v, want 18", benches[0].Groups)
	}
}

// TestMaxWallGate exercises the absolute wall-time ceiling: a benchmark
// under its Name=seconds budget passes, one over it fails by name, and a
// gate naming a benchmark absent from the run fails rather than silently
// un-gating.
func TestMaxWallGate(t *testing.T) {
	path := writeBaseline(t)
	// BenchmarkMC_EngineFixedN1Worker runs at 33094187 ns/op = 0.033s.
	var out strings.Builder
	if err := run([]string{"-against", path, "-max-wall", "BenchmarkMC_EngineFixedN1Worker=0.1"},
		strings.NewReader(sample), &out); err != nil {
		t.Errorf("0.033s wall failed a 0.1s ceiling: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wall 0.033s (ceiling 0.100s) ok") {
		t.Errorf("check output lacks the wall-gate line:\n%s", out.String())
	}
	err := run([]string{"-against", path, "-max-wall", "BenchmarkMC_EngineFixedN1Worker=0.01"},
		strings.NewReader(sample), &strings.Builder{})
	if err == nil {
		t.Fatal("0.033s wall passed a 0.01s ceiling")
	}
	if !strings.Contains(err.Error(), "BenchmarkMC_EngineFixedN1Worker") {
		t.Errorf("failure does not name the benchmark: %v", err)
	}
	err = run([]string{"-against", path, "-max-wall", "BenchmarkGone=1.0"},
		strings.NewReader(sample), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "not in the run") {
		t.Errorf("a gate on a missing benchmark must fail, got: %v", err)
	}
	for _, bad := range []string{"NoEquals", "=1.0", "Bench=abc", "Bench=0"} {
		if err := run([]string{"-against", path, "-max-wall", bad},
			strings.NewReader(sample), &strings.Builder{}); err == nil {
			t.Errorf("malformed -max-wall %q accepted", bad)
		}
	}
}

func TestCheckFailsWhenNothingMatches(t *testing.T) {
	path := writeBaseline(t)
	foreign := "BenchmarkOther \t 10\t 5 ns/op\t 1 B/op\t 1 allocs/op\n"
	if err := run([]string{"-against", path}, strings.NewReader(foreign), &strings.Builder{}); err == nil {
		t.Error("a run matching no baseline entry should fail the check")
	}
}

func TestMergeBaselines(t *testing.T) {
	a := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkMC_PathReused", AllocsPerOp: 49, NsPerOp: 16233},
		{Name: "BenchmarkMC_EngineFixedN1Worker", AllocsPerOp: 100913, PathsPerSec: 61884},
	}}
	b := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkSolve_FiguresGenerate", AllocsPerOp: 1753227, NsPerOp: 2.5e9},
		// Collision: the later file must win.
		{Name: "BenchmarkMC_PathReused", AllocsPerOp: 1, NsPerOp: 2145},
	}}
	merged := mergeBaselines([]File{a, b})
	if len(merged) != 3 {
		t.Fatalf("merged %d entries, want 3", len(merged))
	}
	if got := merged["BenchmarkMC_PathReused"].AllocsPerOp; got != 1 {
		t.Errorf("collision: later baseline did not win (allocs/op = %v, want 1)", got)
	}
	if merged["BenchmarkSolve_FiguresGenerate"].NsPerOp != 2.5e9 {
		t.Error("solve baseline entry lost in merge")
	}
	if merged["BenchmarkMC_EngineFixedN1Worker"].PathsPerSec != 61884 {
		t.Error("paths/s metric lost in merge")
	}
}

// solveSample is a second suite's bench output, for multi-baseline checks.
const solveSample = `BenchmarkSolve_FiguresGenerate 	       1	2539602623 ns/op	44288392 B/op	 1753227 allocs/op
PASS
`

func TestCheckAgainstMultipleBaselines(t *testing.T) {
	dir := t.TempDir()
	mcPath := filepath.Join(dir, "BENCH_mc.json")
	solvePath := filepath.Join(dir, "BENCH_solve.json")
	if err := run([]string{"-o", mcPath}, strings.NewReader(sample), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-o", solvePath, "-note", "solve baseline"}, strings.NewReader(solveSample), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	// A combined run must match entries from both baselines and report the
	// delta columns in one table.
	combined := sample + solveSample
	var out strings.Builder
	if err := run([]string{"-against", mcPath + "," + solvePath}, strings.NewReader(combined), &out); err != nil {
		t.Fatalf("combined check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"BenchmarkMC_PathReused", "BenchmarkSolve_FiguresGenerate", "paths/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("combined table lacks %q:\n%s", want, out.String())
		}
	}
	// The solve note must land in the artifact.
	raw, err := os.ReadFile(solvePath)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Note != "solve baseline" {
		t.Errorf("note = %q", f.Note)
	}
}

// TestZeroAllocBaselineIsGated pins that a zero-alloc baseline is written
// explicitly and admits only zero: a run that starts allocating fails,
// however large the allowed ratio.
func TestZeroAllocBaselineIsGated(t *testing.T) {
	zero := strings.ReplaceAll(sample,
		"   74062	     16233 ns/op	    2157 B/op	      49 allocs/op",
		"   74062	      2016 ns/op	       0 B/op	       0 allocs/op")
	path := filepath.Join(t.TempDir(), "BENCH_mc.json")
	if err := run([]string{"-o", path}, strings.NewReader(zero), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"allocs_per_op": 0`) {
		t.Errorf("zero allocs/op not recorded explicitly:\n%s", raw)
	}
	var out strings.Builder
	if err := run([]string{"-against", path}, strings.NewReader(zero), &out); err != nil {
		t.Errorf("identical zero-alloc run failed the gate: %v\n%s", err, out.String())
	}
	regressed := strings.ReplaceAll(zero, "0 B/op	       0 allocs/op", "29 B/op	       1 allocs/op")
	err = run([]string{"-against", path, "-max-alloc-ratio", "100"}, strings.NewReader(regressed), &out)
	if err == nil {
		t.Fatalf("1 alloc/op against a zero baseline passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkMC_PathReused") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
}
