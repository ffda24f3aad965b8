package mathx

import (
	"sync"
	"testing"
)

// TestSharedRulesMatchFreshRules pins the cache to the direct constructor:
// same nodes, same weights, bit for bit.
func TestSharedRulesMatchFreshRules(t *testing.T) {
	for _, n := range []int{1, 2, 16, 48, 64} {
		gh := SharedGaussHermite(n)
		fresh := MustGaussHermite(n)
		if gh.N() != n {
			t.Fatalf("SharedGaussHermite(%d).N() = %d", n, gh.N())
		}
		for i := range fresh.nodes {
			if gh.nodes[i] != fresh.nodes[i] || gh.weights[i] != fresh.weights[i] {
				t.Fatalf("GH(%d) node %d: shared (%v, %v) != fresh (%v, %v)",
					n, i, gh.nodes[i], gh.weights[i], fresh.nodes[i], fresh.weights[i])
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
	got := make([]*GaussHermite, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = SharedGaussHermite(n)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("caller %d received a distinct table", i)
		}
	}
	if SharedGaussHermite(n) != got[0] {
		t.Fatal("later call received a distinct table")
	}
}

func TestSharedRulePanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SharedGaussHermite(0) did not panic")
		}
	}()
	SharedGaussHermite(0)
}
