package swapsim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/utility"
)

func defaultModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	p := utility.Default()
	if _, err := Run(Config{Params: p}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero PStar err = %v, want ErrBadConfig", err)
	}
	bad := p
	bad.P0 = -1
	if _, err := Run(Config{Params: bad, Strategy: agent.HonestStrategy(2)}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := Run(Config{Params: p, Strategy: agent.HonestStrategy(2), Collateral: math.NaN()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN collateral err = %v", err)
	}
	if _, err := Run(Config{Params: p, Strategy: agent.HonestStrategy(2), HaltA: HaltWindow{From: 5, Until: 3}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inverted halt window err = %v", err)
	}
}

func TestHonestSwapMatchesTableI(t *testing.T) {
	// Table I: A −P* Token_a +1 Token_b; B +P* Token_a −1 Token_b.
	out, err := Run(Config{
		Params:   utility.Default(),
		Strategy: agent.HonestStrategy(2),
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !out.Success || out.Stage != StageCompleted {
		t.Fatalf("outcome = %+v, want completed", out.Stage)
	}
	if !out.Atomic {
		t.Error("completed swap must be atomic")
	}
	if out.AliceDeltaA != -2 || out.AliceDeltaB != 1 {
		t.Errorf("alice deltas (%v, %v), want (−2, +1)", out.AliceDeltaA, out.AliceDeltaB)
	}
	if out.BobDeltaA != 2 || out.BobDeltaB != -1 {
		t.Errorf("bob deltas (%v, %v), want (+2, −1)", out.BobDeltaA, out.BobDeltaB)
	}
	// Success receipts land at t5 = t6 = 11 (Eq. 13 with Table III).
	if out.EndTime != 11 {
		t.Errorf("end time = %v, want 11", out.EndTime)
	}
	if math.IsNaN(out.PT2) || math.IsNaN(out.PT3) {
		t.Error("decision prices missing for a completed run")
	}
}

func TestNotInitiatedRun(t *testing.T) {
	strat := agent.HonestStrategy(2)
	strat.AliceInitiates = false
	out, err := Run(Config{Params: utility.Default(), Strategy: strat, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageNotInitiated || out.Success {
		t.Errorf("stage = %v, want %v", out.Stage, StageNotInitiated)
	}
	if !out.Atomic {
		t.Error("non-initiation is trivially atomic")
	}
	if out.AliceDeltaA != 0 || out.BobDeltaB != 0 {
		t.Error("balances must be untouched")
	}
}

func TestWithdrawingBobRun(t *testing.T) {
	out, err := Run(Config{Params: utility.Default(), Strategy: agent.WithdrawingBobStrategy(2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageBobStopped || out.Success || !out.Atomic {
		t.Errorf("outcome = %v success=%v atomic=%v, want t2-stop/false/true",
			out.Stage, out.Success, out.Atomic)
	}
	// Alice is refunded at t8 = 14.
	if out.EndTime != 14 {
		t.Errorf("end time = %v, want 14 (t8 = ta + τa)", out.EndTime)
	}
}

func TestWithdrawingAliceRun(t *testing.T) {
	out, err := Run(Config{Params: utility.Default(), Strategy: agent.WithdrawingAliceStrategy(2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageAliceStopped || out.Success || !out.Atomic {
		t.Errorf("outcome = %v success=%v atomic=%v, want t3-stop/false/true",
			out.Stage, out.Success, out.Atomic)
	}
	// Bob's refund is the last receipt: t7 = 15.
	if out.EndTime != 15 {
		t.Errorf("end time = %v, want 15 (t7 = tb + τb)", out.EndTime)
	}
}

func TestRationalStrategyDependsOnPath(t *testing.T) {
	// With the solved thresholds, different seeds produce different stages.
	m := defaultModel(t)
	strat, err := m.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	stages := make(map[Stage]bool)
	for seed := int64(0); seed < 60; seed++ {
		out, err := Run(Config{Params: utility.Default(), Strategy: strat, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Atomic {
			t.Fatalf("seed %d: non-atomic outcome without failure injection", seed)
		}
		stages[out.Stage] = true
	}
	if !stages[StageCompleted] {
		t.Error("no completed swap in 60 seeds")
	}
	if !stages[StageBobStopped] && !stages[StageAliceStopped] {
		t.Error("no rational withdrawal in 60 seeds")
	}
}

func TestCollateralSettlementFlows(t *testing.T) {
	// Alice withdraws at t3 with collateral posted: her deposit goes to Bob.
	out, err := Run(Config{
		Params:     utility.Default(),
		Strategy:   agent.WithdrawingAliceStrategy(2),
		Collateral: 0.25,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageAliceStopped {
		t.Fatalf("stage = %v, want t3-stop", out.Stage)
	}
	if out.CollateralDeltaAlice != -0.25 {
		t.Errorf("alice collateral delta = %v, want −0.25", out.CollateralDeltaAlice)
	}
	if out.CollateralDeltaBob != 0.25 {
		t.Errorf("bob collateral delta = %v, want +0.25", out.CollateralDeltaBob)
	}
	// Token flows still unwound atomically.
	if !out.Atomic {
		t.Error("token flows must unwind")
	}

	// Successful run returns both deposits.
	out2, err := Run(Config{
		Params:     utility.Default(),
		Strategy:   agent.HonestStrategy(2),
		Collateral: 0.25,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Stage != StageCompleted {
		t.Fatalf("stage = %v, want completed", out2.Stage)
	}
	if out2.CollateralDeltaAlice != 0 || out2.CollateralDeltaBob != 0 {
		t.Errorf("collateral deltas = (%v, %v), want (0, 0)",
			out2.CollateralDeltaAlice, out2.CollateralDeltaBob)
	}

	// Bob withdraws: both deposits to Alice.
	out3, err := Run(Config{
		Params:     utility.Default(),
		Strategy:   agent.WithdrawingBobStrategy(2),
		Collateral: 0.25,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out3.Stage != StageBobStopped {
		t.Fatalf("stage = %v, want t2-stop", out3.Stage)
	}
	if out3.CollateralDeltaAlice != 0.25 || out3.CollateralDeltaBob != -0.25 {
		t.Errorf("collateral deltas = (%v, %v), want (+0.25, −0.25)",
			out3.CollateralDeltaAlice, out3.CollateralDeltaBob)
	}
}

func TestAtomicityViolationUnderTargetedCrash(t *testing.T) {
	// Chain_b crashes after Bob's lock confirms (t=7) but before Alice's
	// claim executes (t=11). Her secret still gossips at t=8, so Bob claims
	// Token_a while his own Token_b is later refunded: the Zakhary et al.
	// violation that motivates AC3-style protocols (§II).
	out, err := Run(Config{
		Params:   utility.Default(),
		Strategy: agent.HonestStrategy(2),
		Seed:     3,
		HaltB:    HaltWindow{From: 7.5, Until: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Atomic {
		t.Fatal("expected atomicity violation")
	}
	if out.Stage != StageViolated {
		t.Fatalf("stage = %v, want %v", out.Stage, StageViolated)
	}
	// Bob profits: +P* Token_a, Token_b refunded.
	if out.BobDeltaA != 2 || out.BobDeltaB != 0 {
		t.Errorf("bob deltas (%v, %v), want (+2, 0)", out.BobDeltaA, out.BobDeltaB)
	}
	// Alice loses her Token_a and receives nothing.
	if out.AliceDeltaA != -2 || out.AliceDeltaB != 0 {
		t.Errorf("alice deltas (%v, %v), want (−2, 0)", out.AliceDeltaA, out.AliceDeltaB)
	}
}

func TestFullOutageStaysAtomic(t *testing.T) {
	// A chain down from the start delays every execution past the expiries;
	// refund retries unwind everything once it recovers.
	out, err := Run(Config{
		Params:   utility.Default(),
		Strategy: agent.HonestStrategy(2),
		Seed:     3,
		HaltB:    HaltWindow{From: 0, Until: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Atomic {
		t.Fatalf("full outage must unwind atomically, got %+v", out)
	}
	if out.Success {
		t.Error("swap cannot succeed through a full outage")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(MCConfig{Runs: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero runs err = %v", err)
	}
	// Errors inside runs propagate.
	cfg := MCConfig{
		Config: Config{Params: utility.Default()}, // zero PStar
		Runs:   4,
	}
	if _, err := MonteCarlo(cfg); err == nil {
		t.Error("per-run error should propagate")
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	m := defaultModel(t)
	strat, err := m.Strategy(2.0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() mc.Result {
		res, err := MonteCarlo(MCConfig{
			Config:  Config{Params: utility.Default(), Strategy: strat, Seed: 55},
			Runs:    500,
			Workers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SuccessRate.Successes != b.SuccessRate.Successes {
		t.Errorf("same seed produced different success counts: %d vs %d",
			a.SuccessRate.Successes, b.SuccessRate.Successes)
	}
}

func TestAliceProfitsWhenChainAHaltsAfterReveal(t *testing.T) {
	// The mirror-image violation: Chain_a crashes after the secret is
	// revealed. Alice's claim on Chain_b confirms (she gets Token_b), but
	// Bob's claim on Chain_a misses the expiry, and Alice's refund executes
	// after recovery — she ends up with both assets' value.
	out, err := Run(Config{
		Params:   utility.Default(),
		Strategy: agent.HonestStrategy(2),
		Seed:     7,
		HaltA:    HaltWindow{From: 8.5, Until: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Atomic {
		t.Fatalf("expected violation, got %+v", out)
	}
	if out.AliceDeltaA != 0 || out.AliceDeltaB != 1 {
		t.Errorf("alice deltas (%v, %v), want (0, +1): refund plus claimed token", out.AliceDeltaA, out.AliceDeltaB)
	}
	if out.BobDeltaA != 0 || out.BobDeltaB != -1 {
		t.Errorf("bob deltas (%v, %v), want (0, −1): he lost his token", out.BobDeltaA, out.BobDeltaB)
	}
}

func TestBothClaimsExpiredUnwind(t *testing.T) {
	// Both chains crash across the claim windows: Alice revealed but neither
	// claim lands; refund retries unwind everything after recovery. The
	// classifier labels this the expired-unwound stage.
	out, err := Run(Config{
		Params:   utility.Default(),
		Strategy: agent.HonestStrategy(2),
		Seed:     7,
		HaltA:    HaltWindow{From: 8.5, Until: 40},
		HaltB:    HaltWindow{From: 7.5, Until: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Atomic {
		t.Fatalf("expected atomic unwind, got %+v", out)
	}
	if out.Stage != StageExpired {
		t.Errorf("stage = %v, want %v", out.Stage, StageExpired)
	}
	if out.Success {
		t.Error("cannot succeed with both claims expired")
	}
}
