package atlas

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/variant"
)

func smallOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Spec:    config.UniverseSpec{Chains: []string{"btc", "evm"}, Samples: 3, Seed: 11},
		SkipMC:  true,
		Workers: 2,
	}
}

func TestRunUncached(t *testing.T) {
	opts := smallOpts(t)
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := opts.Spec.Cells()
	if len(res.Cells) != want || res.Solved != want || res.Loaded != 0 {
		t.Fatalf("cells %d solved %d loaded %d, want %d/%d/0",
			len(res.Cells), res.Solved, res.Loaded, want, want)
	}
	for _, c := range res.Cells {
		if c.From == "" || c.To == "" || c.From == c.To {
			t.Errorf("cell %s: bad pair %q→%q", c.Scenario, c.From, c.To)
		}
		if c.Variant != "basic" {
			t.Errorf("cell %s: variant %q, want basic (default)", c.Scenario, c.Variant)
		}
	}
}

func TestIncrementalSweepAndArtifacts(t *testing.T) {
	opts := smallOpts(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = s
	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Solved != opts.Spec.Cells() || cold.Loaded != 0 {
		t.Fatalf("cold run solved %d loaded %d", cold.Solved, cold.Loaded)
	}
	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solved != 0 || warm.Loaded != opts.Spec.Cells() {
		t.Fatalf("warm run solved %d loaded %d, want 0 solved", warm.Solved, warm.Loaded)
	}
	if !strings.Contains(warm.Summary(), "solved 0") {
		t.Errorf("warm summary %q lacks the solved-0 marker", warm.Summary())
	}
	// Byte-identical artifacts, cold vs warm.
	d1, d2 := t.TempDir(), t.TempDir()
	if err := cold.WriteArtifacts(d1); err != nil {
		t.Fatal(err)
	}
	if err := warm.WriteArtifacts(d2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"atlas_cells.json", "atlas_frontier.txt"} {
		a, err := os.ReadFile(filepath.Join(d1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(d2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between cold and warm runs", name)
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestExtendedUniverseSolvesOnlyNewCells pins the incremental property the
// atlas exists for: growing the universe re-solves only the added cells.
func TestExtendedUniverseSolvesOnlyNewCells(t *testing.T) {
	opts := smallOpts(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = s
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	grown := opts
	grown.Spec.Samples = 5 // 3 → 5 samples per pair: 4 new cells per pair
	res, err := Run(context.Background(), grown)
	if err != nil {
		t.Fatal(err)
	}
	wantNew := grown.Spec.Cells() - opts.Spec.Cells()
	if res.Solved != wantNew || res.Loaded != opts.Spec.Cells() {
		t.Fatalf("grown run solved %d loaded %d, want %d solved, %d loaded",
			res.Solved, res.Loaded, wantNew, opts.Spec.Cells())
	}
}

func TestFrontierRendersEveryPairAndVariant(t *testing.T) {
	opts := smallOpts(t)
	opts.Variants = "basic,collateral"
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Frontier()
	for _, want := range []string{"variant basic:", "variant collateral:", "btc→evm", "evm→btc"} {
		if !strings.Contains(f, want) {
			t.Errorf("frontier missing %q:\n%s", want, f)
		}
	}
}

func TestPairOf(t *testing.T) {
	if f, to := pairOf("u-btc-evm-017"); f != "btc" || to != "evm" {
		t.Errorf("pairOf = %q, %q", f, to)
	}
	if f, to := pairOf("tableIII"); f != "" || to != "" {
		t.Errorf("pairOf of a preset name = %q, %q, want empty", f, to)
	}
}

// TestMCVerdictsCollected checks that an -mc sweep collects every check's
// verdict: the disagreeing cells are the ones variant.RunAll reports for
// the same universe, and a warm sweep reads the same verdicts from the
// stored checks.
func TestMCVerdictsCollected(t *testing.T) {
	opts := smallOpts(t)
	opts.SkipMC = false
	opts.Runs = 200
	scs, err := opts.Spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := variant.RunAll(context.Background(), scs, 2, variant.RunOpts{Runs: opts.Runs, Variants: "basic"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range rows {
		for _, key := range row.Disagreements() {
			want = append(want, row.Scenario.Name+"/"+key)
		}
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = s
	for _, pass := range []string{"cold", "warm"} {
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checks != opts.Spec.Cells() || !slices.Equal(res.Disagree, want) {
			t.Errorf("%s sweep: %d checks, disagreeing %v; want %d checks, disagreeing %v",
				pass, res.Checks, res.Disagree, opts.Spec.Cells(), want)
		}
	}
	got := (&Result{Checks: 4, Disagree: []string{"u-btc-evm-001/basic", "u-evm-btc-002/basic"}}).MCSummary()
	if want := "mc: 2 of 4 checks disagree (u-btc-evm-001/basic, u-evm-btc-002/basic)"; got != want {
		t.Errorf("MCSummary = %q, want %q", got, want)
	}
}
