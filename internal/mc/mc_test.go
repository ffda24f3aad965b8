package mc_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/sweep"
)

// bernoulli returns a stateless synthetic runner: success with probability
// p, a two-bucket stage histogram, and a uniform duration — all a pure
// function of the path seed, as the engine contract requires.
func bernoulli(p float64) func() (mc.Runner, error) {
	return func() (mc.Runner, error) {
		return mc.RunnerFunc(func(_ int, seed int64) (mc.Path, error) {
			rng := rand.New(rand.NewSource(seed))
			u := rng.Float64()
			path := mc.Path{Success: u < p, Atomic: true, Duration: 10 * rng.Float64()}
			if path.Success {
				path.Stage = "completed"
			} else {
				path.Stage = "stopped"
			}
			return path, nil
		}), nil
	}
}

func TestRunConfigValidation(t *testing.T) {
	ctx := context.Background()
	ok := bernoulli(0.5)
	cases := []mc.Config{
		{MaxPaths: 0, NewRunner: ok},
		{MaxPaths: -3, NewRunner: ok},
		{MaxPaths: 10, CIWidth: -0.1, NewRunner: ok},
		{MaxPaths: 10, CIWidth: math.NaN(), NewRunner: ok},
		{MaxPaths: 10},
	}
	for i, cfg := range cases {
		if _, err := mc.Run(ctx, cfg); !errors.Is(err, mc.ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	// A runner-construction error surfaces immediately.
	_, err := mc.Run(context.Background(), mc.Config{
		MaxPaths:  10,
		NewRunner: func() (mc.Runner, error) { return nil, boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("construction err = %v, want boom", err)
	}
	// A path error names the failing path.
	_, err = mc.Run(context.Background(), mc.Config{
		MaxPaths: 100,
		Workers:  4,
		NewRunner: func() (mc.Runner, error) {
			return mc.RunnerFunc(func(_ int, seed int64) (mc.Path, error) {
				if seed == sweep.Seed(0, 55) {
					return mc.Path{}, boom
				}
				return mc.Path{Atomic: true, Stage: "ok"}, nil
			}), nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("path err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "path 55") {
		t.Errorf("err %q does not name the failing path", err)
	}
}

func TestRunFixedNBitIdenticalAcrossWorkers(t *testing.T) {
	base := mc.Config{
		Seed:      99,
		MaxPaths:  2000,
		NewRunner: bernoulli(0.63),
	}
	var results []mc.Result
	for _, workers := range []int{1, 2, 7, 16} {
		cfg := base
		cfg.Workers = workers
		res, err := mc.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Paths != base.MaxPaths {
			t.Fatalf("workers=%d: paths %d, want %d", workers, res.Paths, base.MaxPaths)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		// reflect.DeepEqual covers the integer tallies AND the bit pattern
		// of the Welford floats: the chunk-order merge is what makes the
		// floating-point aggregate worker-count invariant.
		if !reflect.DeepEqual(results[0], res) {
			t.Errorf("worker count changed the result:\n  %+v\nvs\n  %+v", results[0], res)
		}
		_ = i
	}
}

func TestRunStageHistogramAndViolations(t *testing.T) {
	res, err := mc.Run(context.Background(), mc.Config{
		Seed:     21,
		MaxPaths: 400,
		NewRunner: func() (mc.Runner, error) {
			return mc.RunnerFunc(func(_ int, seed int64) (mc.Path, error) {
				rng := rand.New(rand.NewSource(seed))
				u := rng.Float64()
				return mc.Path{
					Success:  u < 0.5,
					Atomic:   u > 0.1, // ~10% violations
					Stage:    "s",
					Duration: 1,
				}, nil
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages["s"] != 400 {
		t.Errorf("stage count %d, want 400", res.Stages["s"])
	}
	if res.Violations == 0 || res.Violations == 400 {
		t.Errorf("violations = %d, want a ~10%% tally", res.Violations)
	}
	if res.SuccessRate.N != 400 || res.SuccessRate.Successes != res.Successes {
		t.Errorf("proportion %+v inconsistent with successes %d", res.SuccessRate, res.Successes)
	}
	if res.Duration.Mean != 1 || res.Duration.Var() != 0 {
		t.Errorf("constant durations should give mean 1, var 0; got %v, %v", res.Duration.Mean, res.Duration.Var())
	}
	if res.Chunks != 2 { // ceil(400/mc.ChunkSize)
		t.Errorf("chunks = %d, want 2", res.Chunks)
	}
	if res.Stopped {
		t.Error("fixed-N run reported an adaptive stop")
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mc.Run(ctx, mc.Config{
		MaxPaths:  100000,
		NewRunner: bernoulli(0.5),
	})
	if err == nil {
		t.Error("cancelled context should abort the run")
	}
}
