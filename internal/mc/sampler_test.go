package mc_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mc"
	"repro/internal/qmc"
	"repro/internal/sweep"
)

// thresholdRunner is a synthetic index-aware workload with a known
// analytic structure: success iff the path's single standard-normal
// increment exceeds Φ⁻¹(1−p). The sobol member reads it from the
// replicate's Sobol sequence. Seed-derived draws keep every mode a pure
// function of (index, seed).
func thresholdRunner(p float64, baseSeed int64, mode qmc.Mode) func() (mc.Runner, error) {
	cut := math.Sqrt2 * math.Erfinv(2*(1-p)-1) // Φ⁻¹(1−p)
	return func() (mc.Runner, error) {
		var sobols [qmc.SobolReplicates]*qmc.Sobol
		if mode == qmc.ModeSobol {
			for r := range sobols {
				s, err := qmc.NewSobol(1, sweep.Seed(baseSeed, int(1e6)+r))
				if err != nil {
					return nil, err
				}
				sobols[r] = s
			}
		}
		return mc.RunnerFunc(func(index int, seed int64) (mc.Path, error) {
			var z float64
			if mode == qmc.ModeSobol {
				var zs [1]float64
				sobols[qmc.SobolReplicate(index)].Normals(qmc.SobolPoint(index), zs[:])
				z = zs[0]
			} else {
				z = rand.New(rand.NewSource(seed)).NormFloat64()
			}
			return mc.Path{Success: z > cut, Atomic: true, Stage: "done", Duration: 1}, nil
		}), nil
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	base := mc.Config{Seed: 1, MaxPaths: 100, NewRunner: bernoulli(0.5)}

	bad := base
	bad.Sampler = "halton"
	if _, err := mc.Run(context.Background(), bad); err == nil {
		t.Error("unknown sampler accepted")
	}

	// The zero value canonicalises to pseudo.
	res, err := mc.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampler != qmc.ModePseudo {
		t.Errorf("Sampler = %q, want pseudo", res.Sampler)
	}
}

// TestSobolStopsEarlierThanPseudo: on the smooth threshold workload the
// replicated-Sobol estimator reaches the target interval in far fewer
// paths than the Wilson-stopped pseudo run.
func TestSobolStopsEarlierThanPseudo(t *testing.T) {
	base := mc.Config{
		Seed:     13,
		MaxPaths: 200000,
		CIWidth:  0.01,
	}

	sob := base
	sob.Sampler = qmc.ModeSobol
	sob.NewRunner = thresholdRunner(0.7, 13, qmc.ModeSobol)
	rs, err := mc.Run(context.Background(), sob)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Stopped {
		t.Fatalf("sobol run never stopped (%d paths, width %v)", rs.Paths, rs.EstHalfWidth)
	}
	if math.Abs(rs.SuccessRate.P-0.7) > 0.02 {
		t.Errorf("sobol SR = %v, want ≈ 0.7", rs.SuccessRate.P)
	}

	pseudo := base
	pseudo.NewRunner = thresholdRunner(0.7, 13, qmc.ModePseudo)
	rp, err := mc.Run(context.Background(), pseudo)
	if err != nil {
		t.Fatal(err)
	}
	if 2*rs.Paths > rp.Paths {
		t.Errorf("sobol used %d paths vs pseudo %d — want ≤ half", rs.Paths, rp.Paths)
	}
}

// TestSamplerModesDeterministicAcrossWorkers extends the engine's
// bit-reproducibility contract to every sampler mode: adaptive results
// are identical at any worker count.
func TestSamplerModesDeterministicAcrossWorkers(t *testing.T) {
	for _, m := range []qmc.Mode{qmc.ModePseudo, qmc.ModeSobol} {
		cfg := mc.Config{
			Seed:      31,
			MaxPaths:  5000,
			CIWidth:   0.02,
			Sampler:   m,
			NewRunner: thresholdRunner(0.6, 31, m),
		}
		var want mc.Result
		for i, workers := range []int{1, 2, 7} {
			cfg.Workers = workers
			res, err := mc.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: workers=%d diverged from workers=1", m, workers)
			}
		}
	}
}

// TestFixedNByteIdenticalWithProgressAcrossModes pins the satellite
// regression: hooking OnProgress must not change a fixed-N result in any
// sampler mode.
func TestFixedNByteIdenticalWithProgressAcrossModes(t *testing.T) {
	for _, m := range []qmc.Mode{qmc.ModePseudo, qmc.ModeSobol} {
		cfg := mc.Config{
			Seed:      77,
			MaxPaths:  3000,
			Sampler:   m,
			NewRunner: thresholdRunner(0.65, 77, m),
		}
		plain, err := mc.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		snapshots := 0
		cfg.OnProgress = func(mc.Progress) { snapshots++ }
		hooked, err := mc.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snapshots != 12 { // ceil(3000/mc.ChunkSize)
			t.Errorf("%s: %d snapshots, want one per chunk (12)", m, snapshots)
		}
		if !reflect.DeepEqual(plain, hooked) {
			t.Errorf("%s: OnProgress perturbed the fixed-N result:\nplain  %+v\nhooked %+v", m, plain, hooked)
		}
	}
}
