package swapsim_test

import (
	"fmt"
	"log"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/utility"
	"repro/internal/variant"
)

// ExampleMonteCarlo executes the full HTLC protocol on the simulated
// ledgers — two chains with confirmation lags and mempools, HTLC escrows
// and strategy-driven agents — and checks that the empirical success rate
// matches the analytic SR of Eq. 31. It then shows the crash-failure run
// in which HTLC atomicity genuinely breaks (§II, Zakhary et al.).
func ExampleMonteCarlo() {
	params := utility.Default()
	const pstar = 2.0
	cfg, analytic, _, err := variant.ProtocolConfig("basic", scenario.Scenario{Params: params, PStar: pstar, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := swapsim.MonteCarlo(swapsim.MCConfig{Config: cfg, Runs: 20000, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20000 protocol executions at P* = %.1f:\n", pstar)
	fmt.Printf("  empirical SR: %v\n", res.SuccessRate)
	fmt.Printf("  analytic SR:  %.4f (Eq. 31)\n", analytic)
	fmt.Printf("  outcomes: %v, atomicity violations: %d\n", res.Stages, res.Violations)

	// One fully traced honest run.
	out, err := swapsim.Run(swapsim.Config{Params: params, Strategy: agent.HonestStrategy(pstar), Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHonest run (Table I verification): stage=%s\n", out.Stage)
	fmt.Printf("  Alice Δ = (%.0f TokenA, %+.0f TokenB), Bob Δ = (%+.0f TokenA, %.0f TokenB)\n",
		out.AliceDeltaA, out.AliceDeltaB, out.BobDeltaA, out.BobDeltaB)

	// The known HTLC weakness: chain_b crashes after Bob locks but before
	// Alice's claim confirms. Her secret still gossips through the mempool,
	// so Bob claims her Token_a while his own Token_b is refunded.
	bad, err := swapsim.Run(swapsim.Config{
		Params:   params,
		Strategy: agent.HonestStrategy(pstar),
		Seed:     7,
		HaltB:    swapsim.HaltWindow{From: 7.5, Until: 40},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCrash injection on Chain_b during t ∈ [7.5, 40):\n")
	fmt.Printf("  stage=%s, atomic=%v\n", bad.Stage, bad.Atomic)
	fmt.Printf("  Alice Δ = (%.0f TokenA, %+.0f TokenB) — she loses everything\n", bad.AliceDeltaA, bad.AliceDeltaB)
	fmt.Printf("  Bob   Δ = (%+.0f TokenA, %+.0f TokenB) — he profits\n", bad.BobDeltaA, bad.BobDeltaB)
	fmt.Println("  (this is the crash-failure atomicity violation motivating AC3-style protocols)")
	// Output:
	// 20000 protocol executions at P* = 2.0:
	//   empirical SR: 0.7180 [0.7118, 0.7242] (14361/20000)
	//   analytic SR:  0.7143 (Eq. 31)
	//   outcomes: map[completed:14361 t2-stop:2818 t3-stop:2821], atomicity violations: 0
	//
	// Honest run (Table I verification): stage=completed
	//   Alice Δ = (-2 TokenA, +1 TokenB), Bob Δ = (+2 TokenA, -1 TokenB)
	//
	// Crash injection on Chain_b during t ∈ [7.5, 40):
	//   stage=atomicity-violated, atomic=false
	//   Alice Δ = (-2 TokenA, +0 TokenB) — she loses everything
	//   Bob   Δ = (+2 TokenA, +0 TokenB) — he profits
	//   (this is the crash-failure atomicity violation motivating AC3-style protocols)
}
