package swapsim_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/utility"
	"repro/internal/variant"
)

// validate runs variant key's protocol at the Table III parameters and
// rate P* = 2 with deposit q, and checks the Monte Carlo estimate against
// the analytic SR under the repository's agreement rule.
func validate(t *testing.T, key string, q float64, seed int64) {
	t.Helper()
	cfg, analytic, _, err := variant.ProtocolConfig(key, scenario.Scenario{
		Params: utility.Default(), PStar: 2.0, Collateral: q, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := swapsim.MonteCarlo(swapsim.MCConfig{Config: cfg, Runs: 30000, Workers: 8})
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0 without failure injection", res.Violations)
	}
	if !variant.Agrees(analytic, res.SuccessRate) {
		t.Errorf("analytic %s SR %.4f outside MC interval %v", key, analytic, res.SuccessRate)
	}
	if res.Duration.Mean <= 0 {
		t.Error("mean duration not recorded")
	}
	total := 0
	for _, n := range res.Stages {
		total += n
	}
	if total != 30000 {
		t.Errorf("stage counts sum to %d, want 30000", total)
	}
}

// TestMonteCarloMatchesAnalyticSR is the repository's end-to-end check:
// protocol-level Monte Carlo reproduces Eq. 31 within the Wilson interval.
func TestMonteCarloMatchesAnalyticSR(t *testing.T) { validate(t, "basic", 0, 12345) }

// TestMonteCarloCollateralMatchesAnalyticSR checks Eq. 40 at Q = 0.1.
func TestMonteCarloCollateralMatchesAnalyticSR(t *testing.T) { validate(t, "collateral", 0.1, 777) }
