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

// relErr is |got−want| relative to |want|, floored at 1e-300: deep-tail
// success rates reach the subnormal range, where few significant bits
// remain and only an absolute comparison means anything.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
}

// t1Reference integrates U^A_t1(cont), U^B_t1(cont) and SR (Eqs. 36, 37
// and 40; Eqs. 25, 26 and 31 at Q = 0) over B's region at (P*, Q) by
// Gauss–Legendre quadrature in log price. Each interval is clipped to 12
// standard deviations of the t1→t2 density around its log-mean (the mass
// beyond is below 1e-32) and split into panels a quarter of a deviation
// wide, on which the 16-point rule is exact to rounding.
func t1Reference(m *Model, pstar, q float64) (alice, bob, sr float64) {
	gl := mathx.MustGaussLegendre(16)
	e := m.newT2Eval(pstar, q)
	tr := m.transitionTauA(m.params.P0)
	weighted := func(g func(logy float64) float64) mathx.Func1 {
		return func(x float64) float64 {
			z := (x - tr.Mu) / tr.Sigma
			return math.Exp(-z*z/2) / (math.Sqrt(2*math.Pi) * tr.Sigma) * g(x)
		}
	}
	succ := func(logy float64) float64 { return m.transitionTauBAtLog(logy).TailProbAtLog(e.pbar, e.logPbar) }
	var aliceCont, bobCont, prob, peInside float64
	for _, iv := range m.contSetT2(pstar, q).Intervals() {
		lo, hi := math.Max(math.Log(iv.Lo), tr.Mu-12*tr.Sigma), math.Min(math.Log(iv.Hi), tr.Mu+12*tr.Sigma)
		if lo < hi {
			panels := int(math.Ceil((hi-lo)/(tr.Sigma/4))) + 1
			aliceCont += gl.IntegratePanels(weighted(e.aliceCont), lo, hi, panels)
			bobCont += gl.IntegratePanels(weighted(e.bobCont), lo, hi, panels)
			sr += gl.IntegratePanels(weighted(succ), lo, hi, panels)
		}
		prob += tr.CDF(iv.Hi) - tr.CDF(iv.Lo)
		peInside += tr.PartialExpectationBelow(iv.Hi) - tr.PartialExpectationBelow(iv.Lo)
	}
	alice = m.k.discATauA * (aliceCont + (1-prob)*(m.aliceStopT2(pstar)+2*q*m.k.collStopA))
	bob = m.k.discBTauA * (bobCont + tr.Mean() - peInside)
	return alice, bob, mathx.Clamp(sr, 0, 1)
}

// t1Gaps tracks the worst gaps between closed-form t1 values and
// t1Reference: relative where the reference exceeds 1e-6, absolute below.
type t1Gaps struct{ rel, abs [3]float64 }

// add records one (U^A_t1, U^B_t1, SR) triple and reports whether it is
// within 1e-12 relative (1e-15 absolute below 1e-6) of the reference.
func (g *t1Gaps) add(got, want [3]float64) bool {
	ok := true
	for i := range got {
		if math.Abs(want[i]) > 1e-6 {
			g.rel[i] = math.Max(g.rel[i], relErr(got[i], want[i]))
			ok = ok && relErr(got[i], want[i]) <= 1e-12
		} else {
			g.abs[i] = math.Max(g.abs[i], math.Abs(got[i]-want[i]))
			ok = ok && math.Abs(got[i]-want[i]) <= 1e-15
		}
	}
	return ok
}

// TestT1QuadratureMatchesReference checks the closed-form t1 integrals of
// the basic and collateral games — U^A_t1, U^B_t1 and SR — against
// t1Reference on the presets and the 64 universe cells (some with
// ρ = √(τa/(τa+τb)) ≥ 0.925, Genz's high-correlation branch): at P* ∈
// {1.5, 2, 2.5, 3} with deposit ratios κ = Q/P* ∈ {0, 0.0193, 0.05, 0.2}.
// Each value agrees to 1e-12 relative where it exceeds 1e-6, and to 1e-15
// absolute below. A collateral region that reaches down to 0 spans far more than a
// narrow t1→t2 density (σ√τa = 0.015 on u-evm-doge-011); a quadrature
// with one 64-node panel over it once reported SR_c = 0.979753 there at
// P* = 2, Q = 0.1, where the reference reads 1.
func TestT1QuadratureMatchesReference(t *testing.T) {
	var g t1Gaps
	highRho := 0
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		if c := sc.Params.Chains; math.Sqrt(c.TauA/(c.TauA+c.TauB)) >= 0.925 {
			highRho++
		}
		check := func(pstar, q float64) {
			wantA, wantB, wantSR := t1Reference(m, pstar, q)
			got := [3]float64{m.aliceContT1(pstar, q), m.bobContT1(pstar, q), m.successRate(pstar, q)}
			if !g.add(got, [3]float64{wantA, wantB, wantSR}) {
				t.Errorf("params #%d (%s), P*=%g, Q=%g: (U^A_t1 %v, U^B_t1 %v, SR %v), reference (%v, %v, %v)",
					k, sc.Name, pstar, q, got[0], got[1], got[2], wantA, wantB, wantSR)
			}
		}
		for _, kappa := range []float64{0, 0.0193, 0.05, 0.2} {
			for _, pstar := range []float64{1.5, 2, 2.5, 3} {
				check(pstar, kappa*pstar)
			}
		}
	}
	if highRho == 0 {
		t.Error("no probe cell has ρ ≥ 0.925")
	}
	t.Logf("%d cells with ρ ≥ 0.925; worst relative gap above 1e-6: U^A_t1 %.2g, U^B_t1 %.2g, SR %.2g; worst absolute gap below: U^A_t1 %.2g, U^B_t1 %.2g, SR %.2g",
		highRho, g.rel[0], g.rel[1], g.rel[2], g.abs[0], g.abs[1], g.abs[2])
}

// TestT1ProbeMatchesScaledRegionQuadrature checks the basic game's
// closed-form t1 integrals across each model's whole feasibility scan: at
// 301 rates log-spaced from 1e-3 to rateScanBound, on the presets and the
// 64 universe cells, U^A_t1, U^B_t1 and SR agree with t1Reference — the
// quadrature over unitRegion(0).Scale(P*) — to 1e-12 relative where they
// exceed 1e-6, and to 1e-15 absolute below. The low and high ends of the
// scan reach the t1→t2 density's deep tails, where success rates fall to
// the subnormal range.
func TestT1ProbeMatchesScaledRegionQuadrature(t *testing.T) {
	const rates = 301
	var g t1Gaps
	for k, sc := range probeScenarios(t) {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 1e-3, m.rateScanBound()
		for i := 0; i < rates; i++ {
			pstar := lo * math.Pow(hi/lo, float64(i)/(rates-1))
			wantA, wantB, wantSR := t1Reference(m, pstar, 0)
			got := [3]float64{m.aliceContT1(pstar, 0), m.bobContT1(pstar, 0), m.successRate(pstar, 0)}
			if !g.add(got, [3]float64{wantA, wantB, wantSR}) {
				t.Errorf("params #%d (%s), P*=%g: (U^A_t1 %v, U^B_t1 %v, SR %v), scaled-region reference (%v, %v, %v)",
					k, sc.Name, pstar, got[0], got[1], got[2], wantA, wantB, wantSR)
			}
		}
	}
	t.Logf("worst relative gap above 1e-6: U^A_t1 %.2g, U^B_t1 %.2g, SR %.2g; worst absolute gap below: U^A_t1 %.2g, U^B_t1 %.2g, SR %.2g",
		g.rel[0], g.rel[1], g.rel[2], g.abs[0], g.abs[1], g.abs[2])
}

// TestFeasibleAndOptimalRateMatchReference checks the scans that run on
// the closed form against t1Reference: every bound of FeasibleRateRange is
// a root of the reference U^A_t1(cont) − P* to 1e-12, and OptimalRate's
// SR agrees with the reference SR at its rate to 1e-12 and is no worse
// than the reference SR's maximum over a 65-point grid of the range.
// OptimalRate is compared by SR, not by rate: on SR ≈ 1 plateaus the
// maximiser is set by rounding.
func TestFeasibleAndOptimalRateMatchReference(t *testing.T) {
	presets := len(scenario.Registry())
	var worstRoot, worstSR float64
	for k, sc := range probeScenarios(t) {
		if k >= presets && k%4 != 0 {
			continue // every 4th universe cell keeps the reference grid cheap
		}
		m, err := New(sc.Params)
		if err != nil {
			t.Fatal(err)
		}
		rng, ok, err := m.FeasibleRateRange()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for _, p := range []float64{rng.Lo, rng.Hi} {
			if p == 1e-3 || p == m.rateScanBound() {
				continue // a bound at the scan's edge is not a root
			}
			alice, _, _ := t1Reference(m, p, 0)
			worstRoot = math.Max(worstRoot, math.Abs(alice-p))
			if math.Abs(alice-p) > 1e-12 {
				t.Errorf("params #%d (%s): feasible bound %v leaves reference U^A_t1 − P* = %.3g", k, sc.Name, p, alice-p)
			}
		}
		arg, sr, err := m.OptimalRate()
		if err != nil {
			t.Fatal(err)
		}
		_, _, refSR := t1Reference(m, arg, 0)
		worstSR = math.Max(worstSR, math.Abs(sr-refSR))
		if math.Abs(sr-refSR) > 1e-12 {
			t.Errorf("params #%d (%s): optimal SR %v at %v, reference %v", k, sc.Name, sr, arg, refSR)
		}
		for _, p := range mathx.LinSpace(rng.Lo, rng.Hi, 65) {
			if _, _, ref := t1Reference(m, p, 0); ref > sr+1e-12 {
				t.Errorf("params #%d (%s): optimal SR %v at %v, reference SR %v at %v", k, sc.Name, sr, arg, ref, p)
			}
		}
	}
	t.Logf("worst feasible-bound residual %.2g, worst optimal-SR gap %.2g", worstRoot, worstSR)
}
