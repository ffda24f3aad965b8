// Allocation-regression pins for the amortized solve engine and the
// zero-alloc Monte Carlo hot path (testing.AllocsPerRun, so the numbers
// are exact and hardware-independent). The pins are ratcheted to the
// measured numbers — RunOutcome from 49 allocs/path down to 0, a warm
// memoized solve to ≤3 — and exist to keep them there: loosen only with a
// benchmark justification in EXPERIMENTS.md.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/swapsim"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// TestRunOutcomeAllocs pins the per-path allocation budget of the reusable
// runner at zero: scheduler events, ledger state, transactions, contracts,
// secrets, IDs and decision logs are all pooled, and every per-path event
// is a package-level scheduler call with pointer arguments.
func TestRunOutcomeAllocs(t *testing.T) {
	cfg := mcConfigT(t)
	runner, err := swapsim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools: the first paths grow event heaps, transaction arenas
	// and decision logs to steady state.
	for i := 0; i < 64; i++ {
		if _, err := runner.RunOutcome(sweep.Seed(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		if _, err := runner.RunOutcome(sweep.Seed(1, i)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 0
	if avg > budget {
		t.Fatalf("RunOutcome allocates %.2f/op, budget %d (was 49 before the amortized engine)", avg, budget)
	}
}

// TestCachedSolveAllocs pins the allocation cost of a warm solve-cache
// hit: a repeated SuccessRate query must touch only the memo (the key
// boxing and lookup), not the root scans behind it.
func TestCachedSolveAllocs(t *testing.T) {
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SuccessRate(2.0); err != nil { // populate the cell
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := m.SuccessRate(2.0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3
	if avg > budget {
		t.Fatalf("warm SuccessRate allocates %.2f/op, budget %d", avg, budget)
	}
}

// mcConfigT mirrors the benchmark helper for tests: the Table III strategy
// solved once.
func mcConfigT(t *testing.T) swapsim.Config {
	t.Helper()
	cfg, err := mcBenchConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
