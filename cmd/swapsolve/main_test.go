package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs run() with stdout redirected to a temp file and returns the
// printed text.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestBasicSolve(t *testing.T) {
	out, err := capture(t, []string{"-pstar", "2"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"1.4811", "Eq. 30", "0.7143", "true",
		"variant basic", "variant collateral", "variant uncertain", "X*(P_t2=1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCollateralSolve checks the collateral report's labels and pins the
// engagement sets to the strings Fig. 8's golden prints for Q = 0.1: the
// CLI and the figure are the two consumers of the engagement scans.
func TestCollateralSolve(t *testing.T) {
	out, err := capture(t, []string{"-pstar", "2", "-q", "0.1"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Q = 0.1", "Eq. 40", "improvement over Q=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	golden, err := os.ReadFile("../../internal/figures/testdata/golden/fig8.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, fig, ok := strings.Cut(string(golden), "==== fig8-q0.1 ====")
	if !ok {
		t.Fatal("fig8.golden has no Q = 0.1 panel")
	}
	for _, pin := range []struct{ golden, cli string }{
		{"Alice engages on 𝒫^A = ", "Alice's engagement rates 𝒫^A:"},
		{"Bob engages on 𝒫^B = ", "Bob's engagement rates 𝒫^B:"},
		{"intersection (both engage) = ", "joint engagement (intersection):"},
	} {
		want := lineAfter(t, fig, pin.golden)
		if got := lineAfter(t, out, pin.cli); strings.TrimSpace(got) != want {
			t.Errorf("%s %q, fig8.golden prints %q", pin.cli, strings.TrimSpace(got), want)
		}
	}
}

// lineAfter returns the rest of the first line of text that contains
// label, after the label.
func lineAfter(t *testing.T, text, label string) string {
	t.Helper()
	_, rest, ok := strings.Cut(text, label)
	if !ok {
		t.Fatalf("no %q line in:\n%s", label, text)
	}
	line, _, _ := strings.Cut(rest, "\n")
	return line
}

func TestUncertainSolve(t *testing.T) {
	out, err := capture(t, []string{"-budget", "5", "-pstar", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"budget-capped", "Eq. 46", "X*(P_t2=2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Unconstrained variant.
	out2, err := capture(t, []string{"-pstar", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out2, "unconstrained") {
		t.Errorf("output missing unconstrained label:\n%s", out2)
	}
	// An explicit -variant prints the report alone, without the X* view.
	only, err := capture(t, []string{"-variant", "uncertain", "-budget", "5", "-pstar", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(only, "budget-capped") || strings.Contains(only, "X*(") || strings.Contains(only, "variant basic") {
		t.Errorf("-variant uncertain should print only the uncertain report:\n%s", only)
	}
}

func TestNonViableParameters(t *testing.T) {
	out, err := capture(t, []string{"-rA", "0.2", "-rB", "0.2"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "empty") {
		t.Errorf("expected empty ranges under extreme impatience:\n%s", out)
	}
}

func TestBadFlagsAndParams(t *testing.T) {
	if _, err := capture(t, []string{"-sigma", "0"}); err == nil {
		t.Error("sigma=0 should fail validation")
	}
	if _, err := capture(t, []string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if _, err := capture(t, []string{"-pstar", "-1"}); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := capture(t, []string{"-sweep", "1:3:5", "-variant", "basic"}); err == nil {
		t.Error("-sweep with -variant should fail")
	}
}

func TestBadBudgetRejected(t *testing.T) {
	// A negative or non-finite budget is a usage error, not a silent
	// fallback to the unconstrained game.
	for _, b := range []string{"-3", "NaN", "Inf", "-Inf"} {
		out, err := capture(t, []string{"-budget", b})
		if err == nil || !strings.Contains(err.Error(), "-budget") {
			t.Errorf("-budget %s: err = %v, want a -budget usage error; output:\n%s", b, err, out)
		}
	}
}

// body drops the report's first line, which names the scenario.
func body(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

func TestScenarioFlagLoadsPreset(t *testing.T) {
	ref, err := capture(t, []string{"-q", "0.5", "-budget", "5", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := capture(t, []string{"-scenario", "deep-collateral"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "scenario deep-collateral ") {
		t.Errorf("report does not name the scenario:\n%s", got)
	}
	if body(got) != body(ref) {
		t.Errorf("-scenario deep-collateral should match -q 0.5 -budget 5 at Table III params:\n got: %s\nwant: %s", got, ref)
	}
}

func TestScenarioFlagExplicitOverride(t *testing.T) {
	// An explicit -sigma on top of high-vol must override the preset's 0.2,
	// landing exactly on the Table III solution with the preset's Q=0.1.
	ref, err := capture(t, []string{"-sigma", "0.1", "-q", "0.1", "-budget", "5"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := capture(t, []string{"-scenario", "high-vol", "-sigma", "0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if body(got) != body(ref) {
		t.Errorf("explicit -sigma should override the scenario:\n got: %s\nwant: %s", got, ref)
	}
	plain, err := capture(t, []string{"-scenario", "high-vol"})
	if err != nil {
		t.Fatal(err)
	}
	if body(plain) == body(ref) {
		t.Error("high-vol without overrides should differ from Table III")
	}
}

func TestScenarioFlagUnknownName(t *testing.T) {
	if _, err := capture(t, []string{"-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestVariantAllSolvesEveryGame(t *testing.T) {
	out, err := capture(t, []string{"-variant", "all", "-scenario", "tableIII"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"variant basic", "variant collateral", "variant uncertain",
		"variant packetized", "variant repeated", "variant baseline",
		"SR(P*) (Eq. 31)", "expected fraction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Monte Carlo") {
		t.Errorf("-variant on swapsolve should skip the MC validations:\n%s", out)
	}
}

func TestVariantSubsetWithKnobs(t *testing.T) {
	out, err := capture(t, []string{"-variant", "packetized", "-seed", "5"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"variant packetized", "packets n=4", "per-round exposure"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "variant basic") {
		t.Errorf("unselected variant ran:\n%s", out)
	}
}

func TestVariantUnknownKey(t *testing.T) {
	if _, err := capture(t, []string{"-variant", "nope"}); err == nil {
		t.Error("unknown variant key accepted")
	}
}
