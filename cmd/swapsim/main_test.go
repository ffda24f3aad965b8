package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/packetized"
	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/utility"
	"repro/internal/variant"
)

func TestTraceRun(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trace", "-seed", "7"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"stage:", "alice decisions:", "bob decisions:", "balances:"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestMonteCarloRun(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-runs", "800", "-seed", "3", "-workers", "4"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Monte Carlo success rate", "analytic success rate", "outcomes by stage:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "violations:               0") {
		t.Errorf("expected zero violations:\n%s", out)
	}
}

func TestCollateralTrace(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trace", "-q", "0.1", "-seed", "2"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "collateral:") {
		t.Errorf("collateral line missing:\n%s", sb.String())
	}
}

// TestAtomicityViolationScenario checks that a chain_b halt over
// [7.5, 40) can break atomicity: some seed in 1–64 traces a path that
// ends atomicity-violated. Whether one seed's path violates depends on
// its price draws (B must lock and A reveal before the halt), so the test
// searches a bounded seed range instead of pinning one.
func TestAtomicityViolationScenario(t *testing.T) {
	for seed := 1; seed <= 64; seed++ {
		var sb strings.Builder
		err := run([]string{"-trace", "-seed", strconv.Itoa(seed), "-haltb-from", "7.5", "-haltb-until", "40"}, &sb)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if strings.Contains(sb.String(), "atomicity-violated (success=false, atomic=false)") {
			return
		}
	}
	t.Error("no seed in 1–64 traced an atomicity-violated path under the chain_b halt")
}

func TestPacketizedMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-packets", "4", "-requote", "-continue", "-runs", "2000"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"packetized swap", "full completion", "per-round exposure: 0.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"-packets", "-3"}, &sb); err == nil {
		t.Error("negative packets should fail through single-shot path or validation")
	}
}

// TestPacketizedSampler pins -sampler on the packetized path: a sobol run
// prints what packetized.Sweep reports under sobol, not the pseudo estimate.
func TestPacketizedSampler(t *testing.T) {
	results, _, err := packetized.Sweep(packetized.Config{
		Params: utility.Default(), PStar: 2, Runs: 4000, Seed: 1, Sampler: qmc.ModeSobol,
	}, []packetized.Point{{Packets: 4}})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	var pseudo, sobol strings.Builder
	if err := run([]string{"-packets", "4", "-runs", "4000"}, &pseudo); err != nil {
		t.Fatalf("pseudo run: %v", err)
	}
	if err := run([]string{"-packets", "4", "-runs", "4000", "-sampler", "sobol"}, &sobol); err != nil {
		t.Fatalf("sobol run: %v", err)
	}
	want := fmt.Sprintf("  expected fraction:  %.4f ± %.4f\n", res.ExpectedFraction, res.FractionStdErr)
	if !strings.Contains(sobol.String(), want) {
		t.Errorf("sobol output missing %q:\n%s", want, sobol.String())
	}
	if pseudo.String() == sobol.String() {
		t.Error("-sampler sobol printed the pseudo run's bytes")
	}
}

// TestPacketizedRejectsUnusedFlags pins the usage error for flags a mode
// has no use for: the packetized engine's, and under -variant the sampling
// flags, whose validations always run the pseudo sampler at the full run
// count, and -packets, since the packetized variant plays a fixed count.
func TestPacketizedRejectsUnusedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-packets", "2", "-trace"},
		{"-packets", "2", "-q", "0.1"},
		{"-packets", "2", "-ci-width", "0.01"},
		{"-packets", "2", "-haltb-from", "7.5", "-haltb-until", "40"},
		{"-variant", "basic", "-sampler", "sobol"},
		{"-variant", "basic", "-sampler", "pseudo"},
		{"-variant", "basic,collateral", "-ci-width", "0.01"},
		{"-variant", "packetized", "-packets", "2"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "cannot be combined with "+args[0]) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if sb.Len() != 0 {
			t.Errorf("%v: printed output before refusing:\n%s", args, sb.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-pstar", "-2"}, &sb); err == nil {
		t.Error("negative rate should fail")
	}
	if err := run([]string{"-runs", "0"}, &sb); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestScenarioFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "short-timelock", "-runs", "400"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// The preset carries Q=0.1, so the simulation plays the collateral game
	// and agreement with its analytic SR must hold.
	if !strings.Contains(out, "agrees: true") {
		t.Errorf("scenario MC should agree with the analytic SR:\n%s", out)
	}
	if err := run([]string{"-scenario", "nope"}, &sb); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestScenarioFlagNotInitiatedNote: under adversarial-premium A would
// rationally stop at t1. The note says so, the runs are still played
// initiated (Eq. 40 conditions on initiation) and they agree.
func TestScenarioFlagNotInitiatedNote(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "adversarial-premium", "-runs", "200"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"A rationally stops at t1",
		"the runs are played\n      initiated because the analytic SR below conditions on initiation",
		"agrees: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "t1-stop") {
		t.Errorf("an initiated run ended at t1:\n%s", out)
	}
}

// TestScenarioFlagAgreesWithVariantRun: on every preset the direct Monte
// Carlo agrees with its analytic SR and plays exactly the paths of the
// variant registry's validation under the same flags — basic at Q = 0,
// collateral otherwise.
func TestScenarioFlagAgreesWithVariantRun(t *testing.T) {
	tally := regexp.MustCompile(`Monte Carlo success rate: .* \((\d+)/(\d+)\)`)
	for _, sc := range scenario.Registry() {
		var sb strings.Builder
		if err := run([]string{"-scenario", sc.Name, "-runs", "2000"}, &sb); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		out := sb.String()
		if !strings.Contains(out, "agrees: true") {
			t.Errorf("%s: direct run disagrees:\n%s", sc.Name, out)
		}
		m := tally.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no success tally in:\n%s", sc.Name, out)
		}
		key := "collateral"
		if sc.Collateral == 0 {
			key = "basic"
		}
		sc.MCRuns = 2000
		report, err := variant.Run(sc, variant.RunOpts{Variants: key})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		check := report.Reports[0].MC
		if want := fmt.Sprintf("%d/%d", check.SR.Successes, check.Runs); m[1]+"/"+m[2] != want {
			t.Errorf("%s: direct run tallied %s/%s, -variant %s %s", sc.Name, m[1], m[2], key, want)
		}
	}
}

func TestVariantMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-variant", "basic,baseline", "-scenario", "tableIII", "-runs", "800"}, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"variant basic", "variant baseline",
		"Monte Carlo (basic", "Monte Carlo (one-sided protocol",
		"agrees: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVariantModeRepeatedRounds(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-variant", "repeated", "-runs", "400"}, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if want := fmt.Sprintf("engagement: %d rounds", variant.DefaultRounds); !strings.Contains(sb.String(), want) {
		t.Errorf("output missing %q:\n%s", want, sb.String())
	}
	if err := run([]string{"-variant", "repeated", "-rounds", "80"}, &sb); err == nil {
		t.Error("-rounds accepted: the engagement length is the variant's constant")
	}
}

func TestVariantModeUnknownKey(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-variant", "nope"}, &sb); err == nil {
		t.Error("unknown variant key accepted")
	}
}
