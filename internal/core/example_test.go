package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/swapsim"
	"repro/internal/utility"
	"repro/internal/variant"
)

// ExampleModel_SuccessRate reproduces the headline numbers of the paper at
// Table III defaults: the Eq. 18 cut-off, the Eq. 24 continuation range,
// the Eq. 29 feasible band and the Eq. 31 success rate.
func ExampleModel_SuccessRate() {
	m, err := core.New(utility.Default())
	if err != nil {
		log.Fatal(err)
	}
	cut, err := m.CutoffT3(2.0)
	if err != nil {
		log.Fatal(err)
	}
	iv, _, err := m.ContRangeT2(2.0)
	if err != nil {
		log.Fatal(err)
	}
	rng, _, err := m.FeasibleRateRange()
	if err != nil {
		log.Fatal(err)
	}
	sr, err := m.SuccessRate(2.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cutoff %.4f\n", cut)
	fmt.Printf("t2 range (%.3f, %.3f)\n", iv.Lo, iv.Hi)
	fmt.Printf("feasible rates (%.2f, %.2f)\n", rng.Lo, rng.Hi)
	fmt.Printf("SR %.4f\n", sr)
	// Output:
	// cutoff 1.4811
	// t2 range (1.182, 2.389)
	// feasible rates (1.53, 2.53)
	// SR 0.7143
}

// ExampleCollateral_SuccessRate shows the §IV.A result: a symmetric deposit
// escrowed with the Oracle raises the success rate.
func ExampleCollateral_SuccessRate() {
	m, err := core.New(utility.Default())
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []float64{0, 0.1} {
		col, err := m.Collateral(q)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := col.SuccessRate(2.0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q=%.1f SR=%.4f\n", q, sr)
	}
	// Output:
	// Q=0.0 SR=0.7143
	// Q=0.1 SR=0.8018
}

// ExampleUncertain_SuccessRate shows the §IV.B result: letting Bob choose
// the amount to lock beats any fixed exchange rate.
func ExampleUncertain_SuccessRate() {
	m, err := core.New(utility.Default())
	if err != nil {
		log.Fatal(err)
	}
	u := m.Uncertain()
	srX, err := u.SuccessRate(2.0)
	if err != nil {
		log.Fatal(err)
	}
	_, srBest, err := m.OptimalRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uncertain-exchange SR %.3f > best fixed-rate SR %.3f: %v\n",
		srX, srBest, srX > srBest)
	// Output:
	// uncertain-exchange SR 0.794 > best fixed-rate SR 0.722: true
}

// ExampleModel_Bayesian shows the incomplete-information extension: not
// knowing the counterparty's success premium costs success probability at
// the fair rate even when the mean premium is unchanged.
func ExampleModel_Bayesian() {
	m, err := core.New(utility.Default())
	if err != nil {
		log.Fatal(err)
	}
	b, err := m.Bayesian(
		core.PointPrior(0.3),
		core.TypePrior{Values: []float64{0.05, 0.55}, Probs: []float64{0.5, 0.5}},
	)
	if err != nil {
		log.Fatal(err)
	}
	sr, ok, err := b.SuccessRate(2.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uncertain counterparty: SR %.4f (initiated: %v)\n", sr, ok)
	// Output:
	// uncertain counterparty: SR 0.5156 (initiated: true)
}

// ExampleModel_UncertainWithBudget walks the §IV.B extension: instead of
// fixing the exchange rate up front, Alice picks how much Token_a to commit
// and Bob best-responds with the amount of Token_b to lock after seeing the
// price at t2. It traces Bob's best response across prices, finds Alice's
// optimal commitment under Bob's holdings budget, and shows the
// success-rate gain over the fixed-rate game (Figs. 10–11).
func ExampleModel_UncertainWithBudget() {
	model, err := core.New(utility.Default())
	if err != nil {
		log.Fatal(err)
	}

	// Bob holds 5 Token_b (the budget reproducing Fig. 10a; see DESIGN.md).
	u, err := model.UncertainWithBudget(5)
	if err != nil {
		log.Fatal(err)
	}

	const aLock = 4.0 // Alice commits 4 Token_a
	fmt.Printf("Alice commits %.1f Token_a; Bob's best response X*(P_t2):\n", aLock)
	for _, price := range []float64{0.25, 0.5, 1, 2, 4, 8, 12} {
		x, excess, err := u.OptimalLockB(price, aLock)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "locks"
		if x == 0 {
			verdict = "declines (even the full budget cannot deter Alice's withdrawal)"
		}
		fmt.Printf("  P_t2 = %5.2f → X* = %.3f, excess utility %.4f — Bob %s\n", price, x, excess, verdict)
	}

	aStar, exStar, err := u.OptimalLockA(14)
	if err != nil {
		log.Fatal(err)
	}
	rng, ok, err := u.BreakEvenRange(14)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAlice's optimal commitment: a* = %.3f Token_a (excess utility %.4f)\n", aStar, exStar)
	if ok {
		fmt.Printf("Worthwhile commitments: a ∈ (%.3f, %.3f) (Fig. 10b's break-even range)\n", rng.Lo, rng.Hi)
	}

	srX, err := u.SuccessRate(aLock)
	if err != nil {
		log.Fatal(err)
	}
	srBasic, err := model.SuccessRate(aLock)
	if err != nil {
		log.Fatal(err)
	}
	_, srBest, err := model.OptimalRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSuccess rates at P* = %.1f:\n", aLock)
	fmt.Printf("  fixed-rate game:            %.4f (fixed rates far from P0 rarely survive)\n", srBasic)
	fmt.Printf("  fixed-rate game, best P*:   %.4f\n", srBest)
	fmt.Printf("  uncertain-exchange game:    %.4f — dynamic amounts dominate (Fig. 11)\n", srX)

	// The unconstrained printed equations (Eq. 44) for comparison.
	free := model.Uncertain()
	srFree, err := free.SuccessRate(aLock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  unconstrained Eq. 44:       %.4f (scale-invariant; see DESIGN.md deviation 6)\n", srFree)
	// Output:
	// Alice commits 4.0 Token_a; Bob's best response X*(P_t2):
	//   P_t2 =  0.25 → X* = 0.000, excess utility 0.0000 — Bob declines (even the full budget cannot deter Alice's withdrawal)
	//   P_t2 =  0.50 → X* = 5.000, excess utility 0.1005 — Bob locks
	//   P_t2 =  1.00 → X* = 3.532, excess utility 0.7723 — Bob locks
	//   P_t2 =  2.00 → X* = 1.766, excess utility 0.7723 — Bob locks
	//   P_t2 =  4.00 → X* = 0.883, excess utility 0.7723 — Bob locks
	//   P_t2 =  8.00 → X* = 0.441, excess utility 0.7723 — Bob locks
	//   P_t2 = 12.00 → X* = 0.294, excess utility 0.7723 — Bob locks
	//
	// Alice's optimal commitment: a* = 8.534 Token_a (excess utility 0.5161)
	// Worthwhile commitments: a ∈ (0.028, 11.890) (Fig. 10b's break-even range)
	//
	// Success rates at P* = 4.0:
	//   fixed-rate game:            0.0377 (fixed rates far from P0 rarely survive)
	//   fixed-rate game, best P*:   0.7220
	//   uncertain-exchange game:    0.7937 — dynamic amounts dominate (Fig. 11)
	//   unconstrained Eq. 44:       0.7937 (scale-invariant; see DESIGN.md deviation 6)
}

// ExampleModel_OptimalDeposit shows the §IV.A extension in action: how
// much a symmetric collateral deposit escrowed with the Oracle buys in
// success rate, the deposit that maximises it, and one collateralised run
// on the ledger simulator end to end.
func ExampleModel_OptimalDeposit() {
	params := utility.Default()
	model, err := core.New(params)
	if err != nil {
		log.Fatal(err)
	}
	const pstar = 2.0

	fmt.Println("Success rate at the fair rate P* = 2.0 as collateral grows (Fig. 9):")
	for _, q := range []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5} {
		col, err := model.Collateral(q)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := col.SuccessRate(pstar)
		if err != nil {
			log.Fatal(err)
		}
		set, err := col.ContSetT2(pstar)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Q = %-5.2f SR = %.4f   Bob's continuation set: %v\n", q, sr, set)
	}

	qOpt, srOpt, err := model.OptimalDeposit(pstar, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDeposit maximising SR on [0, 1]: Q* = %.4f (SR = %.4f)\n", qOpt, srOpt)

	// Execute one collateralised swap on the simulated chains with the
	// rational thresholds, showing the Oracle settlement.
	cfg, _, _, err := variant.ProtocolConfig("collateral", scenario.Scenario{
		Params: params, PStar: pstar, Collateral: 0.1, Seed: 2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := swapsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOne simulated run with Q = 0.1: stage=%s, success=%v\n", out.Stage, out.Success)
	fmt.Printf("  token deltas: Alice (%.2f TokenA, %.2f TokenB), Bob (%.2f TokenA, %.2f TokenB)\n",
		out.AliceDeltaA, out.AliceDeltaB, out.BobDeltaA, out.BobDeltaB)
	fmt.Printf("  collateral settlement: Alice %+.2f, Bob %+.2f\n",
		out.CollateralDeltaAlice, out.CollateralDeltaBob)
	// Output:
	// Success rate at the fair rate P* = 2.0 as collateral grows (Fig. 9):
	//   Q = 0.00  SR = 0.7143   Bob's continuation set: [1.1817821069873051, 2.38870579898749]
	//   Q = 0.01  SR = 0.7244   Bob's continuation set: [0, 0.2027082778380703] ∪ [1.144518562576995, 2.3994514065206776]
	//   Q = 0.05  SR = 0.7615   Bob's continuation set: [0, 2.4409446666198664]
	//   Q = 0.10  SR = 0.8018   Bob's continuation set: [0, 2.4905243342960937]
	//   Q = 0.25  SR = 0.8921   Bob's continuation set: [0, 2.632959443995247]
	//   Q = 0.50  SR = 0.9688   Bob's continuation set: [0, 2.8662983081929085]
	//
	// Deposit maximising SR on [0, 1]: Q* = 1.0000 (SR = 0.9986)
	//
	// One simulated run with Q = 0.1: stage=completed, success=true
	//   token deltas: Alice (-2.00 TokenA, 1.00 TokenB), Bob (2.00 TokenA, -1.00 TokenB)
	//   collateral settlement: Alice +0.00, Bob +0.00
}
