package variant

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/stats"
	"repro/internal/utility"
)

func TestRegistryOrderAndLookup(t *testing.T) {
	want := []string{"basic", "collateral", "uncertain", "packetized", "repeated", "baseline"}
	if got := Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for _, key := range want {
		g, err := Lookup(key)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", key, err)
		}
		if g.Key() != key {
			t.Errorf("Lookup(%q).Key() = %q", key, g.Key())
		}
		if g.Describe() == "" {
			t.Errorf("variant %q has no description", key)
		}
	}
	if _, err := Lookup("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Lookup(nope) err = %v, want ErrUnknown", err)
	}
}

func TestDefaultKeysAreTheClassicTrio(t *testing.T) {
	if got := DefaultKeys(); !reflect.DeepEqual(got, []string{"basic", "collateral", "uncertain"}) {
		t.Errorf("DefaultKeys() = %v", got)
	}
}

func TestResolve(t *testing.T) {
	plain := scenario.Scenario{Name: "x"}
	withSel := scenario.Scenario{Name: "x", Variants: []string{"repeated", "basic"}}
	keysOf := func(games []Game) []string {
		out := make([]string, len(games))
		for i, g := range games {
			out[i] = g.Key()
		}
		return out
	}

	games, err := Resolve("", plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(games); !reflect.DeepEqual(got, DefaultKeys()) {
		t.Errorf(`Resolve("") = %v, want the default trio`, got)
	}

	games, err = Resolve("", withSel)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(games); !reflect.DeepEqual(got, []string{"repeated", "basic"}) {
		t.Errorf("Resolve honours scenario selection: got %v", got)
	}

	games, err = Resolve("all", plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(games); !reflect.DeepEqual(got, Keys()) {
		t.Errorf(`Resolve("all") = %v, want every key`, got)
	}

	games, err = Resolve("baseline, packetized", plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(games); !reflect.DeepEqual(got, []string{"baseline", "packetized"}) {
		t.Errorf("Resolve comma list = %v", got)
	}

	if _, err := Resolve("nope", plain); !errors.Is(err, ErrUnknown) {
		t.Errorf("Resolve(nope) err = %v, want ErrUnknown", err)
	}
	if _, err := Resolve("", scenario.Scenario{Name: "x", Variants: []string{"nope"}}); !errors.Is(err, ErrUnknown) {
		t.Errorf("Resolve of a scenario with an unknown key err = %v, want ErrUnknown", err)
	}
}

// dummyGame lets the registration tests exercise Register without
// disturbing the built-ins.
type dummyGame struct{ key string }

func (d dummyGame) Key() string      { return d.key }
func (d dummyGame) Describe() string { return "test-only" }
func (d dummyGame) Solve(*Context, scenario.Scenario) (Report, error) {
	return Report{}, nil
}

func TestRegisterRejectsDuplicateAndInvalidKeys(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register(dummyGame{key: "basic"}) })
	mustPanic("empty", func() { Register(dummyGame{key: ""}) })
	mustPanic("comma", func() { Register(dummyGame{key: "a,b"}) })
}

func TestReportValueAndMCAgrees(t *testing.T) {
	r := Report{Values: []Value{{"sr", 0.5}, {"packets", 4}}}
	if v, ok := r.Value("packets"); !ok || v != 4 {
		t.Errorf("Value(packets) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported present")
	}
	if !r.MCAgrees() {
		t.Error("nil MC should agree vacuously")
	}
	r.MC = &MCCheck{Agrees: false}
	if r.MCAgrees() {
		t.Error("failed check should not agree")
	}
}

func TestNewMCCheckAgreementSlack(t *testing.T) {
	prop, err := stats.NewProportion(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	in := newMCCheck("g", prop.Lo-agreeSlack/2, prop, 100, 7)
	if !in.Agrees {
		t.Errorf("analytic just inside the slack should agree: %+v", in)
	}
	out := newMCCheck("g", prop.Hi+2*agreeSlack, prop, 100, 7)
	if out.Agrees {
		t.Errorf("analytic far outside the interval should disagree: %+v", out)
	}
	if out.Game != "g" || out.Runs != 100 || out.Seed != 7 {
		t.Errorf("check metadata not carried: %+v", out)
	}
}

func TestScenarioReportHelpers(t *testing.T) {
	sr := ScenarioReport{Reports: []Report{
		{Key: "basic", MC: &MCCheck{Agrees: true}},
		{Key: "packetized", MC: &MCCheck{Agrees: false}},
		{Key: "uncertain"},
	}}
	if got := sr.Disagreements(); !reflect.DeepEqual(got, []string{"packetized"}) {
		t.Errorf("Disagreements() = %v", got)
	}
	if _, ok := sr.Report("basic"); !ok {
		t.Error("Report(basic) missing")
	}
	if _, ok := sr.Report("nope"); ok {
		t.Error("Report(nope) present")
	}
}

func TestMatrixColumns(t *testing.T) {
	reports := []ScenarioReport{
		{Scenario: scenario.Scenario{Name: "a"}, Reports: []Report{{Key: "basic", SR: 0.5}, {Key: "repeated", SR: 0.25}}},
		{Scenario: scenario.Scenario{Name: "b"}, Reports: []Report{{Key: "basic", SR: 0.75}}},
	}
	out := Matrix(reports)
	for _, want := range []string{"scenario", "basic", "repeated", "0.5000", "0.2500", "0.7500", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
	if Matrix(nil) != "" {
		t.Error("empty matrix should render empty")
	}
}

// TestContextKeepsItsModelAcrossFlushes checks that a cell's solve and its
// Monte Carlo validation read one model: a flush of the shared cache
// between the two does not make the cell's Context rebuild the model and
// repeat its scans.
func TestContextKeepsItsModelAcrossFlushes(t *testing.T) {
	p := utility.Default()
	ctx := &Context{}
	m, err := ctx.Model(p)
	if err != nil {
		t.Fatal(err)
	}
	flushSharedCaches(t, p)
	if again, err := ctx.Model(p); err != nil || again != m {
		t.Fatalf("Model after a flush = %p, %v; want the cell's model %p", again, err, m)
	}
	if shared, err := solvecache.SharedModel(p); err != nil || shared == m {
		t.Fatalf("the flush left the cell's model in the shared cache (%v)", err)
	}
	other := p
	other.P0 = 2.5
	if om, err := ctx.Model(other); err != nil || om == m || om.Params() != other {
		t.Fatalf("Model for other params = %p, %v; want a model of its own", om, err)
	}
}
