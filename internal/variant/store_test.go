package variant

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
)

func testScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	sc.MCRuns = 400
	return sc
}

func TestCellKeySensitivity(t *testing.T) {
	sc := testScenario(t)
	base := RunOpts{Runs: 400}
	k0, err := CellKey(sc, "basic", base)
	if err != nil {
		t.Fatal(err)
	}
	changed := []struct {
		name string
		sc   scenario.Scenario
		key  string
		opts RunOpts
	}{
		{"variant", sc, "collateral", base},
		{"runs", sc, "basic", RunOpts{Runs: 500}},
		{"skipMC", sc, "basic", RunOpts{Runs: 400, SkipMC: true}},
	}
	scMut := sc
	scMut.Params.Price.Sigma += 1e-9
	changed = append(changed, struct {
		name string
		sc   scenario.Scenario
		key  string
		opts RunOpts
	}{"params", scMut, "basic", base})
	for _, c := range changed {
		k, err := CellKey(c.sc, c.key, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the cell key", c.name)
		}
	}
	// Worker count and variant selection must NOT change the key: results
	// are bit-reproducible at any worker count, and a selection — the
	// run's or the scenario's own — picks cells rather than parameterizing
	// one.
	scSel := sc
	scSel.Variants = []string{"basic"}
	same := []struct {
		name string
		sc   scenario.Scenario
		opts RunOpts
	}{
		{"mcWorkers", sc, RunOpts{Runs: 400, MCWorkers: 8}},
		{"opts.Variants", sc, RunOpts{Runs: 400, Variants: "all"}},
		{"scenario.Variants", scSel, base},
	}
	for _, c := range same {
		k, err := CellKey(c.sc, "basic", c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if k != k0 {
			t.Errorf("neutral change %s changed the cell key", c.name)
		}
	}
}

func TestRunReadsThroughStore(t *testing.T) {
	sc := testScenario(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Runs: 400, Variants: "basic,collateral", Store: s}
	cold, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 0 {
		t.Fatalf("cold run stats = %+v, want 2 puts, 0 hits", st)
	}
	warm, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Hits != 2 || st.Puts != 2 {
		t.Fatalf("warm run stats = %+v, want 2 hits and no new puts", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm (loaded) reports differ from cold (solved) reports")
	}
	// The loaded report round-trips to identical JSON — the atlas's
	// byte-identical artifact guarantee rests on this.
	jc, _ := json.Marshal(cold)
	jw, _ := json.Marshal(warm)
	if string(jc) != string(jw) {
		t.Fatal("cold and warm reports marshal differently")
	}
}

func TestRunAllReadsThroughStore(t *testing.T) {
	sc := testScenario(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Runs: 400, Variants: "basic", Store: s}
	scs := []scenario.Scenario{sc}
	cold, err := RunAll(context.Background(), scs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunAll(context.Background(), scs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want exactly 1 put (cold) and 1 hit (warm)", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("RunAll warm reports differ from cold")
	}
}

func TestCorruptStoreEntryResolves(t *testing.T) {
	sc := testScenario(t)
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Runs: 400, Variants: "basic", Store: s, SkipMC: true}
	cold, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in every stored entry; the runner must fall back to a
	// fresh solve (corruption-as-miss) and still return the same report.
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x01
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if n == 0 {
		t.Fatal("no store entries written")
	}
	again, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("re-solve after corruption produced a different report")
	}
	if st := s.Stats(); st.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
}
