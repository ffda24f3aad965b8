package scenario

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/utility"
)

func TestRegistryHasTenValidDistinctPresets(t *testing.T) {
	reg := Registry()
	if len(reg) < 10 {
		t.Fatalf("registry has %d presets, want >= 10", len(reg))
	}
	seenName := map[string]bool{}
	seenSeed := map[int64]bool{}
	for _, sc := range reg {
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", sc.Name, err)
		}
		if sc.Description == "" {
			t.Errorf("preset %q has no description", sc.Name)
		}
		if seenName[sc.Name] {
			t.Errorf("duplicate preset name %q", sc.Name)
		}
		seenName[sc.Name] = true
		if seenSeed[sc.Seed] {
			t.Errorf("preset %q reuses seed %d", sc.Name, sc.Seed)
		}
		seenSeed[sc.Seed] = true
	}
	want := []string{
		"tableIII", "high-vol", "low-vol", "fee-stress", "asymmetric-discount",
		"short-timelock", "deep-collateral", "uncertain-wide", "impatient-bob",
		"adversarial-premium",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestTableIIIPresetMatchesDefaults(t *testing.T) {
	sc, err := Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Params, utility.Default()) {
		t.Errorf("tableIII params = %+v, want utility.Default()", sc.Params)
	}
	if sc.PStar != 2.0 {
		t.Errorf("tableIII pstar = %g, want the fair rate 2", sc.PStar)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	good, err := Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Scenario){
		"empty name":      func(s *Scenario) { s.Name = "" },
		"comma in name":   func(s *Scenario) { s.Name = "a,b" },
		"space in name":   func(s *Scenario) { s.Name = "a b" },
		"zero pstar":      func(s *Scenario) { s.PStar = 0 },
		"neg collateral":  func(s *Scenario) { s.Collateral = -1 },
		"neg budget":      func(s *Scenario) { s.BobBudget = -1 },
		"neg runs":        func(s *Scenario) { s.MCRuns = -1 },
		"bad sigma":       func(s *Scenario) { s.Params.Price.Sigma = 0 },
		"eps >= tauB":     func(s *Scenario) { s.Params.Chains.EpsB = s.Params.Chains.TauB },
		"neg alice alpha": func(s *Scenario) { s.Params.Alice.Alpha = -0.1 },
		"empty variant":   func(s *Scenario) { s.Variants = []string{""} },
		"comma variant":   func(s *Scenario) { s.Variants = []string{"a,b"} },
		"space variant":   func(s *Scenario) { s.Variants = []string{"a b"} },
		"dup variant":     func(s *Scenario) { s.Variants = []string{"basic", "basic"} },
	}
	for name, mutate := range cases {
		sc := good
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sc)
		}
	}
}

func TestRunsDefaults(t *testing.T) {
	var sc Scenario
	if got := sc.Runs(); got != DefaultMCRuns {
		t.Errorf("zero MCRuns resolves to %d, want %d", got, DefaultMCRuns)
	}
	sc.MCRuns = 123
	if got := sc.Runs(); got != 123 {
		t.Errorf("Runs() = %d, want 123", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range Registry() {
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", sc.Name, err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: Load: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Errorf("%s: round trip changed the scenario:\n got %+v\nwant %+v", sc.Name, got, sc)
		}
	}
}

func TestJSONRoundTripVariantFields(t *testing.T) {
	sc, err := Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	sc.Variants = []string{"basic", "packetized", "repeated"}
	var buf bytes.Buffer
	if err := sc.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !strings.Contains(buf.String(), `"variants"`) {
		t.Errorf("JSON missing \"variants\":\n%s", buf.String())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("round trip changed the scenario:\n got %+v\nwant %+v", got, sc)
	}
}

// TestPresetJSONOmitsVariantFields pins the JSON compatibility contract:
// none of the committed presets carries a variant selection, so their
// exported JSON is byte-identical to the pre-variant format.
func TestPresetJSONOmitsVariantFields(t *testing.T) {
	for _, sc := range Registry() {
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", sc.Name, err)
		}
		for _, field := range []string{"variants"} {
			if strings.Contains(buf.String(), field) {
				t.Errorf("%s: preset JSON leaks zero-valued %q:\n%s", sc.Name, field, buf.String())
			}
		}
	}
}

func TestLoadRejectsUnknownFieldsAndInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// The packet count and engagement length are the variants' constants,
	// not scenario fields.
	for _, field := range []string{`"packets":8`, `"rounds":64`} {
		if _, err := Load(strings.NewReader(`{"name":"x",` + field + `}`)); err == nil {
			t.Errorf("retired field %s accepted", field)
		}
	}
	if _, err := Load(strings.NewReader(`{"name":"x","pstar":2}`)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := (Scenario{}).Save(&buf); !errors.Is(err, ErrBadScenario) {
		t.Errorf("err = %v, want ErrBadScenario", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	sc, err := Lookup("high-vol")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := sc.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("file round trip changed the scenario")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := sc.SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir.json")); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestDiffParams(t *testing.T) {
	a, err := Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lookup("high-vol")
	if err != nil {
		t.Fatal(err)
	}
	diffs := DiffParams(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "sigma") {
		t.Errorf("tableIII vs high-vol diffs = %v, want only sigma", diffs)
	}
	if diffs := DiffParams(a, a); len(diffs) != 0 {
		t.Errorf("self-diff = %v, want empty", diffs)
	}
	c := b
	c.PStar, c.Collateral = 2.4, 0.3
	diffs = DiffParams(a, c)
	if len(diffs) != 3 {
		t.Errorf("diffs = %v, want sigma, pstar, collateral", diffs)
	}
	d := a
	d.Variants = []string{"packetized"}
	diffs = DiffParams(a, d)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "variants") {
		t.Errorf("diffs = %v, want only variants", diffs)
	}
}
