package mathx

import (
	"math"
	"sync"
	"testing"
)

// TestSharedRulesMatchFreshRules pins the cache to the direct constructors:
// same nodes, same weights, bit for bit.
func TestSharedRulesMatchFreshRules(t *testing.T) {
	for _, n := range []int{1, 2, 16, 48, 64} {
		gl := SharedGaussLegendre(n)
		fresh := MustGaussLegendre(n)
		if gl.N() != n {
			t.Fatalf("SharedGaussLegendre(%d).N() = %d", n, gl.N())
		}
		for i := range fresh.nodes {
			if gl.nodes[i] != fresh.nodes[i] || gl.weights[i] != fresh.weights[i] {
				t.Fatalf("GL(%d) node %d: shared (%v, %v) != fresh (%v, %v)",
					n, i, gl.nodes[i], gl.weights[i], fresh.nodes[i], fresh.weights[i])
			}
		}
		gh := SharedGaussHermite(n)
		freshH := MustGaussHermite(n)
		for i := range freshH.nodes {
			if gh.nodes[i] != freshH.nodes[i] || gh.weights[i] != freshH.weights[i] {
				t.Fatalf("GH(%d) node %d differs between shared and fresh", n, i)
			}
		}
	}
}

// TestSharedRuleIsOneTablePerOrder checks the amortization contract: every
// caller of the same order gets the same table pointer, including under
// concurrent first access.
func TestSharedRuleIsOneTablePerOrder(t *testing.T) {
	const n = 33
	var wg sync.WaitGroup
	got := make([]*GaussLegendre, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = SharedGaussLegendre(n)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("caller %d received a distinct table", i)
		}
	}
	if SharedGaussLegendre(n) != got[0] {
		t.Fatal("later call received a distinct table")
	}
}

func TestSharedRulePanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SharedGaussLegendre(0) did not panic")
		}
	}()
	SharedGaussLegendre(0)
}

// TestIntegrateMappedMatchesIntegrate pins the scratch-free path to the
// closure path bit for bit, including the reversed-interval sign convention
// and the empty interval.
func TestIntegrateMappedMatchesIntegrate(t *testing.T) {
	gl := MustGaussLegendre(32)
	f := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x+1) }
	cases := [][2]float64{{0, 1}, {-2, 5}, {1.5, 1.5}, {3, 1}, {1e-7, 4.2}}
	scratch := make([]float64, 0, gl.N())
	for _, c := range cases {
		a, b := c[0], c[1]
		want := gl.Integrate(f, a, b)
		nodes := gl.MapNodes(scratch[:0], a, b)
		for i, x := range nodes {
			nodes[i] = f(x) // overwrite in place, as documented
		}
		got := gl.IntegrateMapped(nodes, a, b)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("IntegrateMapped over [%g, %g] = %v, Integrate = %v", a, b, got, want)
		}
	}
}

func TestMapNodesAppends(t *testing.T) {
	gl := MustGaussLegendre(4)
	dst := []float64{7}
	out := gl.MapNodes(dst, 0, 2)
	if len(out) != 5 || out[0] != 7 {
		t.Fatalf("MapNodes did not append: %v", out)
	}
}

// TestMapWeightsIntegrates checks that the mapped weights, paired with the
// mapped nodes, reproduce Integrate to rounding and append like MapNodes.
func TestMapWeightsIntegrates(t *testing.T) {
	gl := MustGaussLegendre(32)
	f := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x+1) }
	for _, c := range [][2]float64{{0, 1}, {-2, 5}, {1e-7, 4.2}} {
		a, b := c[0], c[1]
		nodes := gl.MapNodes(nil, a, b)
		weights := gl.MapWeights(nil, a, b)
		var got float64
		for i, x := range nodes {
			got += weights[i] * f(x)
		}
		if want := gl.Integrate(f, a, b); math.Abs(got-want) > 1e-14*(1+math.Abs(want)) {
			t.Fatalf("weighted sum over [%g, %g] = %v, Integrate = %v", a, b, got, want)
		}
	}
	if out := gl.MapWeights([]float64{7}, 0, 2); len(out) != 33 || out[0] != 7 {
		t.Fatalf("MapWeights did not append: %v", out)
	}
}
