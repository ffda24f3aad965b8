package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/mathx"
	"repro/internal/scenario"
)

// probeScenarios returns the scenarios the solve kernels are checked on:
// every preset, then a seeded 64-cell slice of the generated
// btc,ltc,doge,evm universe.
func probeScenarios(t *testing.T) []scenario.Scenario {
	t.Helper()
	out := scenario.Registry()
	spec := config.UniverseSpec{Chains: []string{"btc", "ltc", "doge", "evm"}, Samples: 128, Seed: 1}
	cells, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rand.New(rand.NewSource(13)).Perm(len(cells))[:64] {
		out = append(out, cells[i])
	}
	return out
}

// scaledRegionT1 integrates Eqs. 25 and 31 at rate pstar over the unit
// region rescaled to pstar — the direct quadrature the t1Probe kernel
// reorganises — with the exact per-rate t2 utilities at every node.
func scaledRegionT1(m *Model, pstar float64) (alice, sr float64) {
	set := m.unitRegion(0).Scale(pstar)
	e := m.newT2Eval(pstar, 0)
	tr := m.transitionTauA(m.params.P0)
	var contPart, prob float64
	for _, iv := range set.Intervals() {
		contPart += m.gl.Integrate(func(y float64) float64 {
			return tr.PDF(y) * e.aliceCont(math.Log(y))
		}, iv.Lo, iv.Hi)
		sr += m.gl.Integrate(func(y float64) float64 {
			return tr.PDF(y) * e.succ(math.Log(y))
		}, iv.Lo, iv.Hi)
		prob += tr.CDF(iv.Hi) - tr.CDF(iv.Lo)
	}
	alice = m.k.discATauA * (contPart + (1-prob)*m.aliceStopT2(pstar))
	return alice, mathx.Clamp(sr, 0, 1)
}

// relErr is |got−want| relative to |want|, floored at 1e-300: deep-tail
// success rates reach the subnormal range, where few significant bits
// remain and only an absolute comparison means anything.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
}

// TestT1ProbeMatchesScaledRegionQuadrature pins the unit-rate reweighting
// to the quadrature it replaces: at 301 log-spaced rates across each
// model's whole feasibility scan, both probe integrals agree with
// integration over unitRegion(0).Scale(P*) to 1e-12 relative. The worst
// cases (~5e-13) are deep-tail success rates near 1e-250, where the
// density's exp(−z²/2) amplifies rounding in the score z; for SR ≥ 1e-30
// the agreement is within 1e-13.
func TestT1ProbeMatchesScaledRegionQuadrature(t *testing.T) {
	const rates = 301
	var worst float64
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		probe := m.newT1Probe()
		lo, hi := 1e-3, m.rateScanBound()
		for i := 0; i < rates; i++ {
			pstar := lo * math.Pow(hi/lo, float64(i)/(rates-1))
			wantA, wantSR := scaledRegionT1(m, pstar)
			gotA, gotSR := probe.aliceContT1(pstar), probe.successRate(pstar)
			ea, es := relErr(gotA, wantA), relErr(gotSR, wantSR)
			worst = math.Max(worst, math.Max(ea, es))
			if ea > 1e-12 || es > 1e-12 {
				t.Fatalf("params #%d, P*=%g: probe (U^A_t1 %v, SR %v) vs scaled region (%v, %v): rel err %.2g, %.2g",
					k, pstar, gotA, gotSR, wantA, wantSR, ea, es)
			}
		}
	}
	t.Logf("worst relative error %.2g", worst)
}

// TestT1ProbeScansMatchExactScans checks what the probe scans report
// against scans over the exact per-rate path: FeasibleRateRange bounds to
// 1e-10, and OptimalRate by the exact SR at its rate — not by the rate,
// which on SR≈1 plateaus is set by rounding.
func TestT1ProbeScansMatchExactScans(t *testing.T) {
	presets := len(scenario.Registry())
	var worstBound, worstSR float64
	for k, sc := range probeScenarios(t) {
		if k >= presets && k%4 != 0 {
			continue // every 4th universe cell: exact scans cost a root scan per rate
		}
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := m.FeasibleRateRange()
		if err != nil {
			t.Fatal(err)
		}
		diff := func(pstar float64) float64 { return m.aliceContT1(pstar, 0) - pstar }
		lo, hi := 1e-3, m.rateScanBound()
		ref := mathx.FromSignChanges(diff, lo, hi, mathx.FindAllRoots(diff, lo, hi, m.scanN/2, m.tol))
		if ok != !ref.Empty() {
			t.Fatalf("params #%d: feasible ok=%v, exact scan empty=%v", k, ok, ref.Empty())
		}
		if !ok {
			continue
		}
		want := ref.Bounds()
		worstBound = math.Max(worstBound, math.Max(math.Abs(got.Lo-want.Lo), math.Abs(got.Hi-want.Hi)))
		if math.Abs(got.Lo-want.Lo) > 1e-10 || math.Abs(got.Hi-want.Hi) > 1e-10 {
			t.Errorf("params #%d: feasible range %v, exact scan %v", k, got, want)
		}
		_, sr, err := m.OptimalRate()
		if err != nil {
			t.Fatal(err)
		}
		exactSR := func(pstar float64) float64 { return m.successRateOver(m.unitRegion(0), pstar, 0) }
		refArg, _ := mathx.GridMax(exactSR, want.Lo, want.Hi, 64, 1e-9)
		refSR := exactSR(refArg)
		worstSR = math.Max(worstSR, math.Abs(sr-refSR))
		if math.Abs(sr-refSR) > 1e-10 {
			t.Errorf("params #%d: optimal SR %v, exact search %v (at %v)", k, sr, refSR, refArg)
		}
	}
	t.Logf("worst feasible-bound gap %.2g, worst optimal-SR gap %.2g", worstBound, worstSR)
}
