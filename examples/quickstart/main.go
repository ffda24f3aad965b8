// Quickstart: solve the HTLC atomic-swap game under the paper's Table III
// defaults and print everything a swap designer needs — the reveal cut-off,
// the responder's continuation range, the viable exchange-rate band, and
// the success rate at the fair rate.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/utility"
)

func main() {
	// Table III parameters: αA = αB = 0.3, rA = rB = 0.01/h, τa = 3h,
	// τb = 4h, εb = 1h, P0 = 2, µ = 0.002/h, σ = 0.1/√h.
	params := utility.Default()
	model, err := core.New(params)
	if err != nil {
		log.Fatal(err)
	}

	const pstar = 2.0 // the "fair" rate: P* equals the current price

	cutoff, err := model.CutoffT3(pstar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("At P* = %.1f, Alice reveals the secret only if P_t3 > %.4f (Eq. 18).\n", pstar, cutoff)

	iv, ok, err := model.ContRangeT2(pstar)
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("Bob locks his Token_b only if P_t2 ∈ (%.4f, %.4f) (Eq. 24).\n", iv.Lo, iv.Hi)
	}

	rng, ok, err := model.FeasibleRateRange()
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("Alice initiates only for P* ∈ (%.4f, %.4f) — the paper's Eq. 29 ≈ (1.5, 2.5).\n", rng.Lo, rng.Hi)
	}

	sr, err := model.SuccessRate(pstar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Probability the swap completes once initiated: %.1f%% (Eq. 31).\n", 100*sr)

	opt, srOpt, err := model.OptimalRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("The SR-maximising rate is P* = %.4f with SR = %.1f%%.\n", opt, 100*srOpt)

	// The same model yields executable threshold strategies for the
	// protocol simulator (see ExampleMonteCarlo in internal/swapsim).
	strat, err := model.Strategy(pstar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Strategy: initiate=%v, Bob's region=%v, Alice's cutoff=%.4f.\n",
		strat.AliceInitiates, strat.BobContT2, strat.AliceCutoffT3)
}
