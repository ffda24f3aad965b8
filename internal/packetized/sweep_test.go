package packetized

import (
	"errors"
	"math"
	"testing"

	"repro/internal/qmc"
	"repro/internal/scenario"
	"repro/internal/utility"
)

// sameBits reports whether two results agree bit for bit in every field.
func sameBits(a, b Result) bool {
	fa := []float64{a.FullCompletion.P, a.FullCompletion.Lo, a.FullCompletion.Hi,
		a.ExpectedFraction, a.FractionStdErr, a.MeanPacketsDone, a.ExposurePerRound}
	fb := []float64{b.FullCompletion.P, b.FullCompletion.Lo, b.FullCompletion.Hi,
		b.ExpectedFraction, b.FractionStdErr, b.MeanPacketsDone, b.ExposurePerRound}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.FullCompletion.Successes == b.FullCompletion.Successes &&
		a.FullCompletion.N == b.FullCompletion.N
}

// TestSweepMatchesRun checks the prefix argument behind Sweep: every point
// of one shared simulation equals a standalone Run by Float64bits, on every
// preset at rates inside and outside the feasible band, with re-quoting
// and forced initiation on and off. Each configuration is swept twice:
// with both failure semantics, and with abort-on-failure only, where the
// runs stop at their first failure.
func TestSweepMatchesRun(t *testing.T) {
	ns := []int{1, 2, 3, 4, 8, 16}
	var both, abortOnly []Point
	for _, cont := range []bool{false, true} {
		for _, n := range ns {
			both = append(both, Point{Packets: n, ContinueAfterFailure: cont})
		}
	}
	abortOnly = both[:len(ns)]
	checked := 0
	for _, sc := range scenario.Registry() {
		for _, pstar := range []float64{1.6, 2.0, 2.4, 5.0} {
			for _, requote := range []bool{false, true} {
				for _, force := range []bool{false, true} {
					cfg := Config{
						Params: sc.Params, PStar: pstar, Requote: requote, ForceInitiate: force,
						Runs: 300, Seed: sc.Seed, Sampler: qmc.ModeSobol,
					}
					for _, points := range [][]Point{both, abortOnly} {
						got, draws, err := Sweep(cfg, points)
						if err != nil {
							t.Fatalf("%s P*=%g: %v", sc.Name, pstar, err)
						}
						if len(got) != len(points) || draws < 0 {
							t.Fatalf("%s P*=%g: %d results, %d draws", sc.Name, pstar, len(got), draws)
						}
						for i, pt := range points {
							one := cfg
							one.Packets, one.ContinueAfterFailure = pt.Packets, pt.ContinueAfterFailure
							want, err := Run(one)
							if err != nil {
								t.Fatal(err)
							}
							if !sameBits(got[i], want) {
								t.Errorf("%s P*=%g requote=%v force=%v %+v:\n sweep %+v\n run   %+v",
									sc.Name, pstar, requote, force, pt, got[i], want)
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d sweep results matched standalone runs", checked)
}

// TestSweepRefusesPseudo checks that Sweep runs only under the sobol
// sampler, whose runs each restart their draws, and rejects empty or
// non-positive packet counts.
func TestSweepRefusesPseudo(t *testing.T) {
	points := []Point{{Packets: 2}, {Packets: 4, ContinueAfterFailure: true}}
	for _, mode := range []qmc.Mode{"", qmc.ModePseudo} {
		cfg := baseConfig()
		cfg.Sampler = mode
		if _, _, err := Sweep(cfg, points); !errors.Is(err, ErrBadConfig) {
			t.Errorf("sampler %q: err = %v, want ErrBadConfig", mode, err)
		}
	}
	cfg := baseConfig()
	cfg.Sampler = qmc.ModeSobol
	for _, bad := range [][]Point{nil, {{Packets: 0}}, {{Packets: 2}, {Packets: -1}}} {
		if _, _, err := Sweep(cfg, bad); !errors.Is(err, ErrBadConfig) {
			t.Errorf("points %v: err = %v, want ErrBadConfig", bad, err)
		}
	}
}

// scripted yields a fixed sequence of normal draws.
type scripted struct {
	z     []float64
	drawn int
}

func (s *scripted) NormFloat64() float64 {
	s.drawn++
	if s.drawn > len(s.z) {
		return 0
	}
	return s.z[s.drawn-1]
}

// TestT3StepWithZeroExponent drives the shared loop with scripted draws
// where the T3 step's exponent is exactly 0 (µ = σ²/2 and z = 0), so the
// packet settles at exactly its t2 price. The T3 step still happened, so
// the rest of the cycle is cycle − τa − τb; charging it as cycle − τa
// would stretch the rest draw and, with the draws chosen here, push the
// second packet's t2 price out of B's continuation region.
func TestT3StepWithZeroExponent(t *testing.T) {
	p := utility.Default()
	p.Price.Mu = p.Price.Sigma * p.Price.Sigma / 2
	cfg := Config{Params: p, PStar: 2, ForceInitiate: true, Runs: 1}
	pl, err := newPlan(cfg, []Point{{Packets: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tauA, tauB := p.Chains.TauA, p.Chains.TauB
	rest, stretched := pl.cycle-tauA-tauB, pl.cycle-tauA
	region, cutoff := pl.fixed.BobContT2, pl.fixed.AliceCutoffT3
	hi := math.NaN()
	for _, iv := range region.Intervals() {
		if iv.Contains(p.P0) {
			hi = iv.Hi
		}
	}
	if !(hi > p.P0) || !(p.P0 > cutoff) || !(rest > 0) {
		t.Fatalf("setup: region edge %v, cutoff %v, P0 %v, rest %v", hi, cutoff, p.P0, rest)
	}
	// The rest draw lands the second packet just inside the region edge
	// above P0; over the stretched interval the same draw overshoots it.
	target := p.P0 * math.Pow(hi/p.P0, 0.9)
	zRest := math.Log(target/p.P0) / (p.Price.Sigma * math.Sqrt(rest))
	over := p.Price.StepZ(p.P0, stretched, zRest)
	if !region.Contains(target) || region.Contains(over) || !(target > cutoff) {
		t.Fatalf("setup: target %v or stretched %v does not separate the region %v", target, over, region)
	}
	// Per packet: the t2 draw, the t3 draw, the rest of the cycle.
	src := &scripted{z: []float64{0, 0, zRest, 0, 0, 0}}
	res, draws, err := pl.run(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.drawn != len(src.z) || draws != src.drawn {
		t.Errorf("drew %d normals, counted %d, scripted %d", src.drawn, draws, len(src.z))
	}
	if got := res[0].MeanPacketsDone; got != 2 {
		t.Errorf("packets done = %v, want 2: the T3 step at an unchanged price was charged as no step", got)
	}
}
