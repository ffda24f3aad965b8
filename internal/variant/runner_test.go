package variant

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/utility"
)

// testRuns keeps the per-test Monte Carlo small; the acceptance-scale run
// lives in cmd/scenarios and the CI batch.
const testRuns = 600

func mustLookup(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustReport(t *testing.T, sr ScenarioReport, key string) Report {
	t.Helper()
	r, ok := sr.Report(key)
	if !ok {
		t.Fatalf("row for %q has no %q report (have %d reports)", sr.Scenario.Name, key, len(sr.Reports))
	}
	return r
}

func TestRunTableIIIMatchesCoreSolver(t *testing.T) {
	sc := mustLookup(t, "tableIII")
	row, err := Run(sc, RunOpts{Runs: testRuns})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Reports) != 3 {
		t.Fatalf("default selection solved %d variants, want the trio", len(row.Reports))
	}

	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	basic := mustReport(t, row, "basic")
	cut, err := m.CutoffT3(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := basic.Value("cutoffT3"); got != cut {
		t.Errorf("cutoffT3 = %v, want %v", got, cut)
	}
	sr, err := m.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if basic.SR != sr {
		t.Errorf("basic SR = %v, want %v", basic.SR, sr)
	}
	if init, _ := basic.Value("aliceInitiates"); init != 1 {
		t.Errorf("Table III point should be fully viable: %+v", basic.Values)
	}
	// The fair rate sits inside the paper's (1.5, 2.5) feasible range.
	lo, okLo := basic.Value("feasibleLo")
	hi, okHi := basic.Value("feasibleHi")
	if !okLo || !okHi || lo > 2 || hi < 2 {
		t.Errorf("feasible range [%v, %v] should contain the fair rate", lo, hi)
	}

	col := mustReport(t, row, "collateral")
	cm, err := m.Collateral(0.1)
	if err != nil {
		t.Fatal(err)
	}
	wantCol, err := cm.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if col.SR != wantCol {
		t.Errorf("collateral SR = %v, want %v", col.SR, wantCol)
	}

	unc := mustReport(t, row, "uncertain")
	if unc.MC != nil {
		t.Error("uncertain variant has no protocol simulator, MC should be nil")
	}
	for _, key := range []string{"basic", "collateral"} {
		r := mustReport(t, row, key)
		if r.MC == nil {
			t.Fatalf("%s: MC validation missing", key)
		}
		if !r.MC.Agrees {
			t.Errorf("%s: analytic %.4f outside MC interval [%.4f, %.4f]",
				key, r.MC.Analytic, r.MC.SR.Lo, r.MC.SR.Hi)
		}
		if r.MC.Stages == nil || r.MC.MeanDurationHours <= 0 {
			t.Errorf("%s: MC aggregates missing: %+v", key, r.MC)
		}
	}
}

func TestRunRejectsInvalidScenarioAndUnknownVariant(t *testing.T) {
	if _, err := Run(scenario.Scenario{}, RunOpts{}); err == nil {
		t.Error("invalid scenario accepted")
	}
	sc := mustLookup(t, "tableIII")
	if _, err := Run(sc, RunOpts{Variants: "nope"}); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := RunAll(context.Background(), []scenario.Scenario{{}}, 1, RunOpts{}); err == nil {
		t.Error("RunAll accepted an invalid scenario")
	}
	if _, err := RunAll(context.Background(), []scenario.Scenario{sc}, 1, RunOpts{Variants: "nope"}); err == nil {
		t.Error("RunAll accepted an unknown variant")
	}
}

func TestRunAllOrderedAndWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("batch Monte Carlo is slow")
	}
	scs := scenario.Registry()[:3]
	ref, err := RunAll(context.Background(), scs, 1, RunOpts{Runs: testRuns, Variants: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(scs) {
		t.Fatalf("got %d rows, want %d", len(ref), len(scs))
	}
	for i, row := range ref {
		if row.Scenario.Name != scs[i].Name {
			t.Errorf("row %d is %q, want %q (ordered output)", i, row.Scenario.Name, scs[i].Name)
		}
		if len(row.Reports) != len(Keys()) {
			t.Errorf("row %d solved %d variants, want %d", i, len(row.Reports), len(Keys()))
		}
	}
	got, err := RunAll(context.Background(), scs, 4, RunOpts{Runs: testRuns, Variants: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("reports differ between 1 and 4 workers")
	}
}

func TestEveryPresetAgreesAcrossAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("batch Monte Carlo is slow")
	}
	reports, err := RunAll(context.Background(), scenario.Registry(), 0, RunOpts{Runs: 1500, Variants: "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range reports {
		for _, r := range row.Reports {
			if !r.MCAgrees() {
				t.Errorf("%s/%s: analytic %.4f outside MC interval [%.4f, %.4f]",
					row.Scenario.Name, r.Key, r.MC.Analytic, r.MC.SR.Lo, r.MC.SR.Hi)
			}
		}
	}
}

func TestScenarioVariantSelectionHonoured(t *testing.T) {
	sc := mustLookup(t, "tableIII")
	sc.Variants = []string{"baseline", "uncertain"}
	row, err := Run(sc, RunOpts{Runs: testRuns})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Reports) != 2 || row.Reports[0].Key != "baseline" || row.Reports[1].Key != "uncertain" {
		t.Errorf("scenario selection not honoured: %+v", row.Reports)
	}
}

func TestSkipMCSuppressesValidation(t *testing.T) {
	sc := mustLookup(t, "tableIII")
	row, err := Run(sc, RunOpts{Runs: testRuns, Variants: "basic", SkipMC: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := mustReport(t, row, "basic"); r.MC != nil {
		t.Errorf("SkipMC still ran the validation: %+v", r.MC)
	}
}

func TestRenderMentionsEveryHeadline(t *testing.T) {
	sc := mustLookup(t, "tableIII")
	row, err := Run(sc, RunOpts{Runs: 200, Variants: "all"})
	if err != nil {
		t.Fatal(err)
	}
	out := row.Render()
	for _, want := range []string{
		"scenario tableIII", "packets n=4", "engagement: 200 rounds",
		"variant basic", "cut-off", "continuation range", "feasible",
		"variant collateral", "SR_c", "variant uncertain", "SR_x",
		"variant packetized", "expected fraction", "per-round exposure",
		"variant repeated", "rounds quoted/initiated/succeeded",
		"variant baseline", "one-sided SR", "rational-withdrawal risk",
		"Wilson 95%", "agrees",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDiffReportsPerVariantColumns(t *testing.T) {
	ra, err := Run(mustLookup(t, "tableIII"), RunOpts{Runs: 200, Variants: "basic,repeated"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(mustLookup(t, "high-vol"), RunOpts{Runs: 200, Variants: "basic,repeated"})
	if err != nil {
		t.Fatal(err)
	}
	out := Diff(ra, rb, 1e-6)
	for _, want := range []string{"param sigma", "basic sr", "repeated sr", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
	self := Diff(ra, ra, 1e-6)
	if !strings.Contains(self, "no differences") {
		t.Errorf("self diff should be empty:\n%s", self)
	}
}
