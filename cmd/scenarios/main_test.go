package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestListShowsPresetsAndVariants(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"registered scenario presets", "tableIII", "high-vol", "low-vol",
		"fee-stress", "asymmetric-discount", "short-timelock", "deep-collateral",
		"uncertain-wide", "impatient-bob", "adversarial-premium",
		"registered variant games", "basic", "collateral", "uncertain",
		"packetized", "repeated", "baseline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

// agreeRuns sizes the Monte Carlo checks of the tests that expect 0
// disagreements. variant.Agrees accepts the analytic value inside the
// Wilson 95% interval widened by 0.01; at n runs its half-width is
// 1.96σ with σ ≤ 0.5/√n, so a correct cell fails only when its estimate
// lands more than 1.96σ + 0.01 from the truth. At 4000 runs that is
// beyond 3.2σ, a false-failure rate under 0.13% per check (2Φ(−3.2)),
// under 0.7% for the five run-sized checks of a six-variant row. At 400
// runs it was 2.5σ, over 1% per check.
const agreeRuns = "4000"

func TestRunSubset(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "tableIII,high-vol", "-runs", agreeRuns}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"scenario tableIII", "scenario high-vol",
		"variant basic", "variant collateral", "variant uncertain",
		"per-variant success metrics",
		"2 scenario(s) run across 6 variant cell(s), 0 disagreement(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVariantAll(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "tableIII", "-variant", "all", "-runs", agreeRuns}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"variant basic", "variant collateral", "variant uncertain",
		"variant packetized", "variant repeated", "variant baseline",
		"1 scenario(s) run across 6 variant cell(s), 0 disagreement(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVariantSubsetAndCacheStats(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "tableIII", "-variant", "basic,packetized", "-runs", "400", "-cache-stats"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"variant basic", "variant packetized",
		"1 scenario(s) run across 2 variant cell(s)",
		"solve cache:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "variant collateral") {
		t.Errorf("-variant basic,packetized still ran collateral:\n%s", out)
	}
}

func TestRunAllAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("full batch is slow")
	}
	var sb strings.Builder
	// 1500 runs keeps the Wilson intervals wide enough that the fixed-seed
	// agreement checks clear on every (preset × variant) cell; the
	// acceptance-scale 4000-run batch is CI's `make scenarios` job.
	if err := run([]string{"-run", "all", "-variant", "all", "-runs", "1500"}, &sb); err != nil {
		t.Fatalf("run -run all -variant all: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "10 scenario(s) run across 60 variant cell(s), 0 disagreement(s)") {
		t.Errorf("batch should report 60 agreeing cells:\n%s", sb.String())
	}
}

func TestDiffScenarios(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-diff", "tableIII,high-vol", "-runs", "200"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"diff tableIII -> high-vol", "param sigma: 0.1 -> 0.2", "basic sr", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

func TestExportAndRunFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	var sb strings.Builder
	if err := run([]string{"-export", "short-timelock", "-o", path}, &sb); err != nil {
		t.Fatalf("export: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name": "short-timelock"`) {
		t.Errorf("exported JSON missing name:\n%s", data)
	}

	sb.Reset()
	if err := run([]string{"-file", path, "-runs", "300"}, &sb); err != nil {
		t.Fatalf("run -file: %v", err)
	}
	if !strings.Contains(sb.String(), "scenario short-timelock") {
		t.Errorf("file run missing scenario header:\n%s", sb.String())
	}
}

func TestExportToStdout(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-export", "tableIII"}, &sb); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !strings.Contains(sb.String(), `"pstar": 2`) {
		t.Errorf("stdout export missing fields:\n%s", sb.String())
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	cases := map[string][]string{
		"no action":       {},
		"unknown flag":    {"-bogus"},
		"unknown preset":  {"-run", "nope"},
		"unknown variant": {"-run", "tableIII", "-variant", "nope"},
		"unknown export":  {"-export", "nope"},
		"one-name diff":   {"-diff", "tableIII"},
		"unknown diff":    {"-diff", "tableIII,nope"},
		"missing file":    {"-file", filepath.Join(t.TempDir(), "missing.json")},
		"bad export path": {"-export", "tableIII", "-o", filepath.Join(t.TempDir(), "no", "dir.json")},
	}
	for name, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
}

func TestAtlasSubcommandIncremental(t *testing.T) {
	storeDir, outDir := t.TempDir(), t.TempDir()
	base := []string{"atlas", "-chains", "btc,evm", "-samples", "2", "-seed", "3", "-store", storeDir, "-out", outDir}
	var cold strings.Builder
	if err := run(base, &cold); err != nil {
		t.Fatalf("cold run: %v\n%s", err, cold.String())
	}
	if !strings.Contains(cold.String(), "solved 4, loaded 0") {
		t.Errorf("cold output lacks solved-4 marker:\n%s", cold.String())
	}
	for _, name := range []string{"atlas_cells.json", "atlas_frontier.txt"} {
		if _, err := os.Stat(filepath.Join(outDir, name)); err != nil {
			t.Errorf("artifact %s not written: %v", name, err)
		}
	}
	var warm strings.Builder
	if err := run(append(base, "-max-solved", "0"), &warm); err != nil {
		t.Fatalf("warm run: %v\n%s", err, warm.String())
	}
	if !strings.Contains(warm.String(), "solved 0, loaded 4") {
		t.Errorf("warm output lacks solved-0 marker:\n%s", warm.String())
	}
	// The warm gate must fail against a cold store.
	var sb strings.Builder
	err := run([]string{"atlas", "-chains", "btc,evm", "-samples", "2", "-seed", "3",
		"-store", t.TempDir(), "-max-solved", "0"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "gate allows 0") {
		t.Errorf("cold store with -max-solved 0 returned %v, want gate failure", err)
	}
}

// TestAtlasPrintsMCVerdicts checks that an -mc sweep prints one verdict
// line over every check, and an analytic sweep prints none.
func TestAtlasPrintsMCVerdicts(t *testing.T) {
	base := []string{"atlas", "-chains", "btc,evm", "-samples", "2", "-seed", "3", "-out", t.TempDir()}
	var mc, plain strings.Builder
	if err := run(append(base, "-mc", "-runs", "200"), &mc); err != nil {
		t.Fatalf("-mc run: %v\n%s", err, mc.String())
	}
	if !regexp.MustCompile(`(?m)^mc: \d+ of 4 checks disagree`).MatchString(mc.String()) {
		t.Errorf("-mc output lacks the verdict line:\n%s", mc.String())
	}
	if err := run(base, &plain); err != nil {
		t.Fatalf("analytic run: %v\n%s", err, plain.String())
	}
	if strings.Contains(plain.String(), "mc: ") {
		t.Errorf("analytic sweep printed an MC verdict:\n%s", plain.String())
	}
}

func TestAtlasRejectsBadSpec(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"atlas", "-chains", "btc"}, &sb); err == nil {
		t.Error("single-chain universe should be rejected")
	}
	if err := run([]string{"atlas", "-chains", "btc,nope", "-samples", "1"}, &sb); err == nil {
		t.Error("unknown chain should be rejected")
	}
}
