package figures

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/utility"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"tableI", "tableIII", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10a", "fig10b", "fig11",
		"montecarlo", "baseline", "uncertainty", "reputation", "packetized",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
}

func TestTableIVerifiesSimulatedDeltas(t *testing.T) {
	figs, err := TableI(utility.Default(), Opts{})
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(figs) != 1 || len(figs[0].TableRows) != 2 {
		t.Fatalf("unexpected shape: %+v", figs)
	}
	out, err := figs[0].Render(80, 20)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"Alice (A)", "Bob (B)", "-2.00 TokenA", "+2.00 TokenA", "completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Expected and simulated columns must agree cell-by-cell.
	for _, row := range figs[0].TableRows {
		if row[1] != row[2] || row[3] != row[4] {
			t.Errorf("expected/simulated mismatch in row %v", row)
		}
	}
}

func TestTableIIIListsAllParameters(t *testing.T) {
	figs, err := TableIII(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs[0].TableRows) != 10 {
		t.Errorf("got %d parameter rows, want 10", len(figs[0].TableRows))
	}
}

func TestFig2TimelineValues(t *testing.T) {
	figs, err := Fig2(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := figs[0].Render(80, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Idealized Table III timeline: t3=7, t5=tb=11, t7=15, t8=14.
	for _, want := range []string{"7.0", "11.0", "15.0", "14.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestFig3PanelsAndCutoffs(t *testing.T) {
	figs, err := Fig3(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d panels, want 3", len(figs))
	}
	// Cut-offs increase with P* (Eq. 18) and the middle one is ≈ 1.481.
	if !strings.Contains(figs[1].Notes[0], "1.481") {
		t.Errorf("P*=2 cut-off note = %q, want ≈ 1.481", figs[1].Notes[0])
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Errorf("%s: %d series, want 2", f.ID, len(f.Series))
		}
		if _, err := f.Render(70, 15); err != nil {
			t.Errorf("%s render: %v", f.ID, err)
		}
	}
}

func TestFig4PanelsHaveRanges(t *testing.T) {
	figs, err := Fig4(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d panels, want 3", len(figs))
	}
	for _, f := range figs {
		if !strings.Contains(f.Notes[0], "continuation range") {
			t.Errorf("%s: missing range note: %v", f.ID, f.Notes)
		}
	}
}

func TestFig5FeasibleRange(t *testing.T) {
	figs, err := Fig5(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	note := figs[0].Notes[0]
	if !strings.Contains(note, "feasible range") || !strings.Contains(note, "1.5") {
		t.Errorf("note = %q, want feasible range ≈ (1.5, 2.5)", note)
	}
}

func TestFig6AllPanels(t *testing.T) {
	figs, err := Fig6(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 8 {
		t.Fatalf("got %d panels, want 8", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 4 {
			t.Errorf("%s: %d series, want 4", f.ID, len(f.Series))
		}
		if len(f.Notes) != 4 {
			t.Errorf("%s: %d notes, want 4", f.ID, len(f.Notes))
		}
		// SR values are probabilities.
		for _, s := range f.Series {
			for i, y := range s.Y {
				if y < 0 || y > 1 || math.IsNaN(y) {
					t.Fatalf("%s %s: SR[%d] = %v", f.ID, s.Name, i, y)
				}
			}
		}
	}
	// The σ panel must flag at least one non-viable value (σ=0.2).
	var sigmaNotes string
	for _, f := range figs {
		if f.ID == "fig6-sigma" {
			sigmaNotes = strings.Join(f.Notes, "\n")
		}
	}
	if !strings.Contains(sigmaNotes, "NON-VIABLE") {
		t.Errorf("σ panel should flag a non-viable value:\n%s", sigmaNotes)
	}
}

func TestFig7IndifferencePoints(t *testing.T) {
	figs, err := Fig7(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("got %d panels, want 6", len(figs))
	}
	// Q=0.01, P*=2.0 exhibits three indifference points (Fig. 7 top row).
	found := false
	for _, f := range figs {
		if f.ID == "fig7-q0.01-pstar2.0" {
			found = true
			if !strings.Contains(f.Notes[0], "3 indifference point(s)") {
				t.Errorf("note = %q, want 3 indifference points", f.Notes[0])
			}
		}
	}
	if !found {
		t.Error("missing fig7-q0.01-pstar2.0 panel")
	}
}

func TestFig8EngagementSets(t *testing.T) {
	figs, err := Fig8(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d panels, want 2", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 4 {
			t.Errorf("%s: %d series, want 4 (both agents, cont and stop)", f.ID, len(f.Series))
		}
		joined := strings.Join(f.Notes, "\n")
		if !strings.Contains(joined, "intersection") || !strings.Contains(joined, "union") {
			t.Errorf("%s: notes missing engagement sets:\n%s", f.ID, joined)
		}
	}
}

func TestFig9MonotoneInQ(t *testing.T) {
	figs, err := Fig9(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(f.Series))
	}
	// At each grid point the SR ordering Q=0 <= Q=0.01 <= Q=0.1 holds.
	for i := range f.Series[0].X {
		if f.Series[1].Y[i] < f.Series[0].Y[i]-1e-9 || f.Series[2].Y[i] < f.Series[1].Y[i]-1e-9 {
			t.Errorf("x=%v: SR not monotone in Q: %v %v %v",
				f.Series[0].X[i], f.Series[0].Y[i], f.Series[1].Y[i], f.Series[2].Y[i])
		}
	}
}

func TestFig10aHumpShape(t *testing.T) {
	figs, err := Fig10a(utility.Default(), DefaultBobBudget, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(f.Series))
	}
	// The a=8.91 curve starts at zero, peaks within the budget, declines.
	var s *int
	for i := range f.Series {
		if f.Series[i].Name == "P*=8.91" {
			s = &i
			break
		}
	}
	if s == nil {
		t.Fatal("missing P*=8.91 series")
	}
	ys := f.Series[*s].Y
	if ys[0] != 0 {
		t.Errorf("X* at lowest price = %v, want 0", ys[0])
	}
	peak, peakIdx := 0.0, 0
	for i, y := range ys {
		if y > peak {
			peak, peakIdx = y, i
		}
	}
	if peak <= 1 || peak > DefaultBobBudget+1e-9 {
		t.Errorf("peak X* = %v, want in (1, budget]", peak)
	}
	if peakIdx == 0 || peakIdx == len(ys)-1 {
		t.Errorf("peak at boundary index %d; want interior hump", peakIdx)
	}
	if ys[len(ys)-1] >= peak {
		t.Error("no decline after the peak")
	}
}

func TestFig10bNotes(t *testing.T) {
	figs, err := Fig10b(utility.Default(), DefaultBobBudget, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(figs[0].Notes, "\n")
	if !strings.Contains(joined, "break-even") || !strings.Contains(joined, "optimal commitment") {
		t.Errorf("notes = %s", joined)
	}
}

func TestFig11Dominance(t *testing.T) {
	figs, err := Fig11(utility.Default(), DefaultBobBudget, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(f.Series))
	}
	// Uncertain exchange dominates the basic game on the shared grid
	// (§IV.B: "absence of pre-determined interest rate boosts the success
	// rate").
	for i := range f.Series[0].X {
		if f.Series[1].Y[i] < f.Series[0].Y[i]-1e-9 {
			t.Errorf("x=%v: uncertain SR %v below basic %v",
				f.Series[0].X[i], f.Series[1].Y[i], f.Series[0].Y[i])
		}
	}
}

func TestMCValidationAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation is slow")
	}
	figs, err := MCValidation(utility.Default(), 8000, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range figs[0].TableRows {
		if row[4] != "true" {
			t.Errorf("configuration %q: analytic SR outside MC interval (%v)", row[0], row)
		}
	}
}

// TestMCValidationAgreesOnEveryPreset runs the validation artifact under
// every scenario preset: each row plays the protocol run the variant layer
// resolves, initiated because Eqs. 31 and 40 condition on initiation, so
// every row must agree — also where A would rationally stop at t1.
func TestMCValidationAgreesOnEveryPreset(t *testing.T) {
	for _, sc := range scenario.Registry() {
		figs, err := Generate(utility.Default(), "montecarlo", Opts{Scenario: sc.Name})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, row := range figs[0].TableRows {
			if row[4] != "true" {
				t.Errorf("%s: configuration %q: analytic SR outside MC interval (%v)", sc.Name, row[0], row)
			}
		}
	}
}

func TestBaselineComparisonGap(t *testing.T) {
	figs, err := BaselineComparison(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// One-sided SR dominates two-sided SR pointwise.
	for i := range f.Series[0].X {
		if f.Series[1].Y[i] < f.Series[0].Y[i]-1e-9 {
			t.Errorf("x=%v: baseline SR below two-sided SR", f.Series[0].X[i])
		}
	}
}

func TestUncertaintyMonotoneInSpreadNearFairRate(t *testing.T) {
	// Near the fair rate, wider mean-preserving spreads about αB lower SR:
	// the low type drops out and cannot be priced back in. (At rates far
	// below fair the effect reverses — SR is convex in αB there, so the
	// high type's wide region dominates the mixture; the figure shows both
	// regimes.)
	figs, err := Uncertainty(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(f.Series))
	}
	for i, x := range f.Series[0].X {
		if x < 1.9 || x > 2.4 {
			continue
		}
		for s := 1; s < len(f.Series); s++ {
			narrow := f.Series[s-1].Y[i]
			wide := f.Series[s].Y[i]
			if narrow == 0 || wide == 0 {
				continue // initiation failed for one prior at this rate
			}
			if wide > narrow+1e-9 {
				t.Errorf("x=%v: spread %d SR %v exceeds narrower %v", x, s, wide, narrow)
			}
		}
	}
}

func TestReputationRegimes(t *testing.T) {
	figs, err := Reputation(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d panels, want αA and αB", len(figs))
	}
	damaged := 0
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Fatalf("%s: got %d series, want 3", f.ID, len(f.Series))
		}
		// Static regime keeps both premia constant.
		static := f.Series[0].Y
		for i, v := range static {
			if v != static[0] {
				t.Fatalf("%s: static α moved at round %d: %v", f.ID, i, v)
			}
		}
		// The fragile regime has no gain and no recovery, so no premium
		// ever rises.
		fragile := f.Series[1].Y
		for i := 1; i < len(fragile); i++ {
			if fragile[i] > fragile[i-1] {
				t.Errorf("%s: fragile α rose at round %d: %v -> %v", f.ID, i, fragile[i-1], fragile[i])
			}
		}
		if fragile[len(fragile)-1] < fragile[0] {
			damaged++
		}
	}
	// Over 150 rounds at a per-round SR near 0.7 some party withdraws (the
	// chance that none does is below 1e-20): its fragile curve ends below
	// its start, apart from the static one. Which party it is depends on
	// the price path.
	if damaged == 0 {
		t.Error("fragile regime should end below its start in the withdrawing party's panel")
	}
}

func TestPacketizedFigure(t *testing.T) {
	figs, err := Packetized(utility.Default(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(f.Series))
	}
	// Expected fraction dominates full completion for the fixed-rate rows.
	frac, full := f.Series[0].Y, f.Series[1].Y
	for i := range frac {
		if frac[i] < full[i]-1e-9 {
			t.Errorf("n=%v: fraction %v below completion %v", f.Series[0].X[i], frac[i], full[i])
		}
	}
	// Full completion decays with n under a fixed rate.
	if full[len(full)-1] > full[0]+0.01 {
		t.Errorf("full completion should decay: %v -> %v", full[0], full[len(full)-1])
	}
	// Continue semantics hold the fraction near the stage optimum at n=16.
	contFrac := f.Series[3].Y
	if contFrac[len(contFrac)-1] < 0.65 {
		t.Errorf("continue fraction at n=16 = %v, want near the stage optimum", contFrac[len(contFrac)-1])
	}
}

func TestGenerateFiltering(t *testing.T) {
	figs, err := Generate(utility.Default(), "fig5,tableIII", Opts{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(figs) != 2 {
		t.Errorf("got %d figures, want 2", len(figs))
	}
	if _, err := Generate(utility.Default(), "nope", Opts{}); !errors.Is(err, ErrUnknownFigure) {
		t.Errorf("unknown id err = %v", err)
	}
}

// TestParseOnlyEdgeCases pins the -only filter's parsing: stray commas must
// not manufacture an empty "wanted" ID (the former behaviour failed
// "fig5," with ErrUnknownFigure), duplicates collapse, and an error must
// name every unknown ID.
func TestParseOnlyEdgeCases(t *testing.T) {
	reg := Registry()
	cases := []struct {
		only string
		want []string // nil means "all" (parseOnly returns a nil map)
	}{
		{"", nil},
		{",", nil},
		{" , ,, ", nil},
		{"fig5,", []string{"fig5"}},
		{",fig5", []string{"fig5"}},
		{"fig5,,tableIII", []string{"fig5", "tableIII"}},
		{" fig5 , tableIII ", []string{"fig5", "tableIII"}},
		{"fig5,fig5,fig5", []string{"fig5"}},
	}
	for _, c := range cases {
		wanted, err := parseOnly(c.only, reg)
		if err != nil {
			t.Errorf("parseOnly(%q) error: %v", c.only, err)
			continue
		}
		if c.want == nil {
			if wanted != nil {
				t.Errorf("parseOnly(%q) = %v, want nil (all)", c.only, wanted)
			}
			continue
		}
		if len(wanted) != len(c.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", c.only, wanted, c.want)
			continue
		}
		for _, id := range c.want {
			if !wanted[id] {
				t.Errorf("parseOnly(%q) missing %q", c.only, id)
			}
		}
	}

	// Unknown IDs: every offender named, sorted, known IDs not blamed.
	_, err := parseOnly("figY,fig5,figX", reg)
	if !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("parseOnly with unknown IDs err = %v, want ErrUnknownFigure", err)
	}
	if msg := err.Error(); !strings.HasSuffix(msg, "figX, figY") {
		t.Errorf("unknown-ID error = %q, want sorted offenders 'figX, figY' named", msg)
	}

	// End-to-end: a trailing comma on the CLI path selects exactly the named
	// artifacts instead of failing.
	figs, err := Generate(utility.Default(), "fig5,", Opts{})
	if err != nil {
		t.Fatalf("Generate(\"fig5,\"): %v", err)
	}
	if len(figs) != 1 || figs[0].ID != "fig5" {
		t.Errorf("Generate(\"fig5,\") = %d figures, want just fig5", len(figs))
	}
}

// sequentialGenerate is the pre-parallelism reference implementation: a
// plain in-order walk of the registry, against which the fan-out path must
// be byte-identical.
func sequentialGenerate(t *testing.T, p utility.Params, ids map[string]bool, o Opts) []Figure {
	t.Helper()
	var out []Figure
	for _, e := range Registry() {
		if ids != nil && !ids[e.ID] {
			continue
		}
		figs, err := e.Gen(p, o)
		if err != nil {
			t.Fatalf("sequential %s: %v", e.ID, err)
		}
		out = append(out, figs...)
	}
	return out
}

// TestGenerateMatchesSequentialRegistryWalk pins the parallel-registry
// contract: fanning the artifact groups across the sweep pool must yield
// exactly the figures a sequential registry walk produces — on the default
// parameters over the full registry, and on every scenario preset over a
// representative subset.
func TestGenerateMatchesSequentialRegistryWalk(t *testing.T) {
	got, err := Generate(utility.Default(), "", Opts{})
	if err != nil {
		t.Fatalf("Generate(all): %v", err)
	}
	want := sequentialGenerate(t, utility.Default(), nil, Opts{})
	if !reflect.DeepEqual(got, want) {
		t.Error("parallel Generate differs from sequential registry walk on the full registry")
	}

	const subset = "tableIII,fig2,fig5,fig7,fig9"
	ids, err := parseOnly(subset, Registry())
	if err != nil {
		t.Fatalf("parseOnly(%q): %v", subset, err)
	}
	for _, sc := range scenario.Registry() {
		got, err := Generate(utility.Default(), subset, Opts{Scenario: sc.Name})
		if err != nil {
			t.Fatalf("Generate(scenario=%s): %v", sc.Name, err)
		}
		want := sequentialGenerate(t, sc.Params, ids, Opts{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scenario %s: parallel Generate differs from sequential walk", sc.Name)
		}
	}
}

// TestWorkerCountDoesNotChangeOutput pins the sweep engine's determinism
// contract at the artifact level: every figure — series, notes, tables —
// must be bit-identical whether its grid scans run on one worker or many.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	const ids = "fig3,fig6,fig9,fig10a,fig11,baseline,packetized"
	ref, err := Generate(utility.Default(), ids, Opts{Workers: 1})
	if err != nil {
		t.Fatalf("Generate(workers=1): %v", err)
	}
	for _, workers := range []int{4, 8, 16, 0} {
		got, err := Generate(utility.Default(), ids, Opts{Workers: workers})
		if err != nil {
			t.Fatalf("Generate(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: artifacts differ from workers=1", workers)
		}
	}
}

func TestRenderEmptyFigureFails(t *testing.T) {
	if _, err := (Figure{ID: "empty"}).Render(70, 15); err == nil {
		t.Error("empty figure should fail to render")
	}
}
