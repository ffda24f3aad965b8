// Package solvecache is the cross-artifact half of the amortized solve
// engine: a process-wide, concurrency-safe cache of core solvers keyed by
// the parameter set itself. Everything that solves the swap game from a
// utility.Params — the figure generators, the scenario batch runner, the
// game-tree cross-checks — routes through SharedModel, so identical solve
// cells are computed once per process rather than once per curve, per
// preset, or per artifact.
//
// Sharing is sound because a core.Model is immutable after construction and
// its solve memo only caches pure functions of (params, query); see
// DESIGN.md ("Amortized solve engine") for the key scheme and the
// invalidation rules (there are none to apply at runtime: a cache entry can
// never go stale, it can only be evicted to bound memory).
package solvecache

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/memo"
	"repro/internal/utility"
)

// maxModels bounds the number of cached models. It comfortably covers the
// repository's fixed workloads — the 18 artifact groups plus the scenario
// presets touch well under a hundred distinct parameter sets — while an
// unbounded parameter stream (an atlas-scale universe, a client sweeping
// inline scenarios) flushes the map each time it fills instead of growing
// memory.
const maxModels = 512

// models is keyed on the comparable parameter set: two sets share a model
// exactly when they compare ==, which equates +0 and −0 (the solvers'
// results do not depend on the sign of a zero parameter) and never holds
// for the NaNs that validation rejects.
var models = memo.Map[utility.Params, *core.Model]{Max: maxModels, Evict: retire}

// retired holds the solve-memo counters of the evicted models, folded in
// as a flush drops each one, so the totals ReadStats reports cover every
// model built, not only the resident ones. The lock is taken on the flush
// path and by ReadStats, never on a cache hit.
var retired struct {
	sync.Mutex
	solveHits, solveMisses uint64
}

// retire folds an evicted model's solve-memo counters into retired.
// Lookups a caller still makes on the model after its eviction are not
// counted.
func retire(_ utility.Params, m *core.Model) {
	h, mi := m.MemoStats()
	retired.Lock()
	defer retired.Unlock()
	retired.solveHits += h
	retired.solveMisses += mi
}

// SharedModel returns the process-wide solver for the parameter set with
// core's default quadrature options, constructing and caching it on first
// use. The returned model is shared: callers must treat it (and the
// strategies/interval sets it returns) as read-only, which every core API
// already guarantees.
func SharedModel(p utility.Params) (*core.Model, error) {
	// Validate before touching the cache so invalid parameters return the
	// usual error instead of caching a nil model.
	if err := p.Validate(); err != nil {
		return core.New(p)
	}
	return models.Do(p, func() *core.Model {
		m, _ := core.New(p) // cannot fail: p was validated above
		return m
	}), nil
}

// Stats reports the cache's cumulative behaviour: model-level hits and
// misses, evictions, the aggregate solve-memo hits/misses across every
// model it built, and the scan work of every model the process built.
type Stats struct {
	// Models is the number of cached models; Limit is the constant bound.
	Models int `json:"models"`
	Limit  int `json:"limit"`
	// ModelHits and ModelMisses count SharedModel lookups.
	ModelHits   uint64 `json:"modelHits"`
	ModelMisses uint64 `json:"modelMisses"`
	// Evicted counts models dropped to keep the cache within its bound.
	Evicted uint64 `json:"evicted"`
	// SolveHits and SolveMisses aggregate the per-model solve-memo
	// counters of every model built: the cached models' current counts
	// plus each evicted model's counts at its eviction.
	SolveHits   uint64 `json:"solveHits"`
	SolveMisses uint64 `json:"solveMisses"`
	// ScanEvals and RateEvals sum the t2 region scans' and the
	// exchange-rate scans' evaluations (core.WorkTotals) over every model
	// the process built, cached or not, all the work done on each
	// included: deterministic work, where the timings are not.
	ScanEvals uint64 `json:"scanEvals"`
	RateEvals uint64 `json:"rateEvals"`
}

// WriteStats renders the process's solve-cache, scan-work and
// Gauss–Hermite table counters — the diagnostic block behind the CLIs'
// -cache-stats flag. The work line sums every scan the process ran, so it
// does not depend on the worker count wherever each model is solved once
// per build (make atlas-smoke gates that on the analytic atlas sweep); a
// caller that fetches a model again after a flush may rebuild it and
// repeat its scans.
func WriteStats(w io.Writer) {
	s := ReadStats()
	fmt.Fprintf(w, "solve cache: %d/%d models (hits %d, misses %d, evicted %d); solve cells: hits %d, misses %d\n",
		s.Models, s.Limit, s.ModelHits, s.ModelMisses, s.Evicted, s.SolveHits, s.SolveMisses)
	fmt.Fprintf(w, "solve work: t2 scan evals %d, rate scan evals %d\n", s.ScanEvals, s.RateEvals)
	ghH, ghM := mathx.QuadCacheStats()
	fmt.Fprintf(w, "quadrature tables: Gauss-Hermite hits %d, misses %d\n", ghH, ghM)
}

// ReadStats snapshots the cache counters. The solve-memo totals are exact
// whenever no flush is in progress; a snapshot taken during one may miss
// the models it has dropped but not yet folded in. The work totals count
// every scan finished by the time of the snapshot.
func ReadStats() Stats {
	s := Stats{
		Evicted: models.Evictions(),
		Models:  models.Len(),
		Limit:   maxModels,
	}
	s.ScanEvals, s.RateEvals = core.WorkTotals()
	s.ModelHits, s.ModelMisses = models.Stats()
	retired.Lock()
	defer retired.Unlock()
	s.SolveHits, s.SolveMisses = retired.solveHits, retired.solveMisses
	models.Range(func(_ utility.Params, m *core.Model) bool {
		h, mi := m.MemoStats()
		s.SolveHits += h
		s.SolveMisses += mi
		return true
	})
	return s
}
