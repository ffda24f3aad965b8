package solvecache

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/utility"
)

func TestSharedModelReturnsOneModelPerParams(t *testing.T) {
	p := utility.Default()
	m1, err := SharedModel(p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SharedModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same params produced distinct shared models")
	}
	q := p
	q.Alice.Alpha = 0.31
	m3, err := SharedModel(q)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("distinct params shared one model")
	}
}

func TestSharedModelMatchesFreshSolve(t *testing.T) {
	p := utility.Default()
	shared, err := SharedModel(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SharedModel(utility.Params{}) // invalid: exercises the error path
	if err == nil || fresh != nil {
		t.Fatalf("invalid params: model %v, err %v", fresh, err)
	}
	sr, err := shared.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	// The shared model must agree with an uncached one bit for bit.
	priv, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	srPriv, err := priv.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sr) != math.Float64bits(srPriv) {
		t.Fatalf("shared SR %v != private SR %v", sr, srPriv)
	}
}

// TestSharedModelDistinguishesEveryParameter pins the key: a change to
// any single field of the parameter set gives a distinct model, and
// parameter sets that compare == (including +0 against −0) share one.
func TestSharedModelDistinguishesEveryParameter(t *testing.T) {
	base := utility.Default()
	m0, err := SharedModel(base)
	if err != nil {
		t.Fatal(err)
	}
	// A hit cannot flush the cache, so the lookup right after m0's insert
	// must return m0 itself.
	same := base
	if m, err := SharedModel(same); err != nil || m != m0 {
		t.Errorf("== params got a distinct model (err %v)", err)
	}
	mutations := []func(*utility.Params){
		func(p *utility.Params) { p.Alice.Alpha += 1e-12 },
		func(p *utility.Params) { p.Alice.R += 1e-12 },
		func(p *utility.Params) { p.Bob.Alpha += 1e-12 },
		func(p *utility.Params) { p.Bob.R += 1e-12 },
		func(p *utility.Params) { p.Chains.TauA += 1e-9 },
		func(p *utility.Params) { p.Chains.TauB += 1e-9 },
		func(p *utility.Params) { p.Chains.EpsB += 1e-9 },
		func(p *utility.Params) { p.Price.Mu += 1e-12 },
		func(p *utility.Params) { p.Price.Sigma += 1e-12 },
		func(p *utility.Params) { p.P0 += 1e-9 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		m, err := SharedModel(p)
		if err != nil {
			t.Fatal(err)
		}
		if m == m0 {
			t.Errorf("mutation %d shared the base model", i)
		}
		if m.Params() != p {
			t.Errorf("mutation %d: model params %+v, want %+v", i, m.Params(), p)
		}
	}
	pos, neg := base, base
	pos.Price.Mu = 0
	neg.Price.Mu = math.Copysign(0, -1)
	mPos, err := SharedModel(pos)
	if err != nil {
		t.Fatal(err)
	}
	if mNeg, err := SharedModel(neg); err != nil || mNeg != mPos {
		t.Errorf("+0 and -0 drift got distinct models (err %v)", err)
	}
}

// TestConcurrentSharedModel exercises the cache under parallel access (run
// with -race in CI): one model per parameter set, no torn results.
func TestConcurrentSharedModel(t *testing.T) {
	p := utility.Default()
	var wg sync.WaitGroup
	got := make([]float64, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := SharedModel(p)
			if err != nil {
				t.Error(err)
				return
			}
			sr, err := m.SuccessRate(2.0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = sr
		}(i)
	}
	wg.Wait()
	for i, sr := range got {
		if math.Float64bits(sr) != math.Float64bits(got[0]) {
			t.Fatalf("goroutine %d saw SR %v, first saw %v", i, sr, got[0])
		}
	}
}

// TestBoundFlushesPastMaxModels streams three times the bound's worth of
// distinct parameter sets through the cache: it never holds more than
// maxModels models, counts the flushed ones as evictions, and an evicted
// model is rebuilt to solve bit-identically to a direct construction.
func TestBoundFlushesPastMaxModels(t *testing.T) {
	before := ReadStats()
	base := utility.Default()
	param := func(i int) utility.Params {
		p := base
		p.Alice.Alpha = 0.2 + 1e-6*float64(i)
		return p
	}
	for i := 0; i < 3*maxModels; i++ {
		if _, err := SharedModel(param(i)); err != nil {
			t.Fatal(err)
		}
		if n := ReadStats().Models; n > maxModels {
			t.Fatalf("after %d inserts the cache holds %d models, bound is %d", i+1, n, maxModels)
		}
	}
	st := ReadStats()
	if st.Limit != maxModels {
		t.Errorf("Stats.Limit = %d, want %d", st.Limit, maxModels)
	}
	if st.Evicted-before.Evicted < 2*maxModels {
		t.Errorf("evicted %d models over %d inserts into a %d-model cache",
			st.Evicted-before.Evicted, 3*maxModels, maxModels)
	}
	q := param(0)
	m, err := SharedModel(q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.New(q)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := m.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	srDirect, err := direct.SuccessRate(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sr) != math.Float64bits(srDirect) {
		t.Fatalf("re-solved evicted model SR %v != direct SR %v", sr, srDirect)
	}
}

func TestReadStatsCounts(t *testing.T) {
	p := utility.Default()
	before := ReadStats()
	if _, err := SharedModel(p); err != nil {
		t.Fatal(err)
	}
	m, err := SharedModel(p)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.ModelHits+after.ModelMisses <= before.ModelHits+before.ModelMisses {
		t.Fatal("stats did not advance")
	}
	if after.Models == 0 {
		t.Fatal("no models recorded")
	}
	// ScanEvals sums the cached models' scan work: a fresh scan on one of
	// them adds exactly its evaluations.
	c, err := m.Collateral(0.0371)
	if err != nil {
		t.Fatal(err)
	}
	evals := m.ScanEvals()
	if _, err := c.ContSetT2(1.93); err != nil {
		t.Fatal(err)
	}
	spent := m.ScanEvals() - evals
	if got := ReadStats().ScanEvals - after.ScanEvals; spent == 0 || got != spent {
		t.Errorf("Stats.ScanEvals grew by %d over a scan of %d evaluations", got, spent)
	}
}

// TestWriteStatsReportsBoundAndEvictions pins the -cache-stats line: the
// model count over the constant bound, the hit, miss and eviction
// counters, the t2 scan evaluations, and the quadrature-table line.
func TestWriteStatsReportsBoundAndEvictions(t *testing.T) {
	if _, err := SharedModel(utility.Default()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteStats(&b)
	out := b.String()
	s := ReadStats()
	want := fmt.Sprintf("solve cache: %d/%d models (hits %d, misses %d, evicted %d); solve cells: hits %d, misses %d; t2 scan evals %d\n",
		s.Models, maxModels, s.ModelHits, s.ModelMisses, s.Evicted, s.SolveHits, s.SolveMisses, s.ScanEvals)
	if !strings.HasPrefix(out, want) {
		t.Errorf("WriteStats = %q, want prefix %q", out, want)
	}
	if !strings.Contains(out, "\nquadrature tables: Gauss-Legendre hits ") {
		t.Errorf("WriteStats = %q, missing the quadrature-table line", out)
	}
}
