package mc_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mc"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// adaptiveBase is the shared adaptive-mode configuration of these tests:
// a fair-ish Bernoulli workload with a generous cap, stopping at a 0.02
// Wilson half-width. The seed pins a deterministic trajectory for which
// the early-stopped SR lands inside the full-N Wilson interval (the
// containment is a ~50% event over seeds at this cap, so the case is
// seeded, not distributional).
func adaptiveBase() mc.Config {
	return mc.Config{
		Seed:      42,
		MaxPaths:  100000,
		CIWidth:   0.02,
		NewRunner: bernoulli(0.55),
	}
}

func TestAdaptiveStopsAtCITarget(t *testing.T) {
	res, err := mc.Run(context.Background(), adaptiveBase())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("engine never reported an adaptive stop")
	}
	if res.Paths >= 100000 {
		t.Errorf("paths = %d, expected an early stop well below the cap", res.Paths)
	}
	if res.Paths%mc.ChunkSize != 0 {
		t.Errorf("paths = %d, want a multiple of the chunk size (stop at a chunk boundary)", res.Paths)
	}
	if hw := res.EstHalfWidth; hw > 0.02 {
		t.Errorf("half-width at stop = %g, want <= 0.02", hw)
	}
	// The stop fires at the FIRST qualifying boundary: one chunk earlier
	// the criterion must not hold yet.
	prevPaths := res.Paths - mc.ChunkSize
	if prevPaths > 0 {
		prev := adaptiveBase()
		prev.CIWidth = 0 // fixed N: replay the same trajectory one chunk short
		prev.MaxPaths = prevPaths
		prevRes, err := mc.Run(context.Background(), prev)
		if err != nil {
			t.Fatal(err)
		}
		if prevRes.EstHalfWidth <= 0.02 {
			t.Errorf("criterion already held one chunk earlier (half-width %g): stop is not the first boundary", prevRes.EstHalfWidth)
		}
	}
}

func TestAdaptiveNeverExceedsCap(t *testing.T) {
	cfg := adaptiveBase()
	cfg.CIWidth = 1e-6 // unreachable target
	cfg.MaxPaths = 1700
	res, err := mc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != 1700 {
		t.Errorf("paths = %d, want exactly the cap 1700", res.Paths)
	}
	if res.Stopped {
		t.Error("hitting the cap must not be reported as an adaptive stop")
	}
}

func TestAdaptiveEarlyStopSRInsideFullNInterval(t *testing.T) {
	early, err := mc.Run(context.Background(), adaptiveBase())
	if err != nil {
		t.Fatal(err)
	}
	full := adaptiveBase()
	full.CIWidth = 0 // fixed N at the cap
	ref, err := mc.Run(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Paths != full.MaxPaths {
		t.Fatalf("reference run executed %d paths, want %d", ref.Paths, full.MaxPaths)
	}
	if !ref.SuccessRate.Contains(early.SuccessRate.P) {
		t.Errorf("early-stopped SR %.4f outside the full-N Wilson interval [%.4f, %.4f]",
			early.SuccessRate.P, ref.SuccessRate.Lo, ref.SuccessRate.Hi)
	}
	// And both intervals cover the true rate for this seed.
	if !early.SuccessRate.Contains(0.55) || !ref.SuccessRate.Contains(0.55) {
		t.Errorf("true rate 0.55 not covered: early %v, full %v", early.SuccessRate, ref.SuccessRate)
	}
}

func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	var results []mc.Result
	for _, workers := range []int{1, 3, 8, 32} {
		cfg := adaptiveBase()
		cfg.Workers = workers
		res, err := mc.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	for _, res := range results[1:] {
		// The stopping point AND the merged aggregate (including the
		// Welford float bits) are a function of the seed only;
		// extra workers merely discard more speculative chunks.
		if !reflect.DeepEqual(results[0], res) {
			t.Errorf("worker count changed the adaptive result:\n  %+v\nvs\n  %+v", results[0], res)
		}
	}
}

// TestAdaptiveStopMatchesSequentialReference recomputes the stopping chunk
// with a plain sequential scan over the same seeded paths and checks the
// engine agrees — the definition of the per-seed contract.
func TestAdaptiveStopMatchesSequentialReference(t *testing.T) {
	cfg := adaptiveBase()
	cfg.Workers = 6
	res, err := mc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := cfg.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	succ, n := 0, 0
	wantPaths := 0
	for i := 0; i < cfg.MaxPaths; i++ {
		p, err := runner.RunPath(i, sweep.Seed(cfg.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		n++
		if p.Success {
			succ++
		}
		if n%mc.ChunkSize == 0 {
			prop, err := stats.NewProportion(succ, n)
			if err != nil {
				t.Fatal(err)
			}
			if (prop.Hi-prop.Lo)/2 <= cfg.CIWidth {
				wantPaths = n
				break
			}
		}
	}
	if wantPaths == 0 {
		t.Fatal("sequential reference never hit the target")
	}
	if res.Paths != wantPaths || res.Successes != succ {
		t.Errorf("engine stopped at %d paths (%d successes), sequential reference at %d (%d)",
			res.Paths, res.Successes, wantPaths, succ)
	}
}
