// Package mc is the repository's streaming Monte Carlo engine: it executes
// a seeded path workload in fixed-size chunks on the internal/sweep worker
// pool, folds each chunk into online (Welford) moment accumulators and a
// streaming stage histogram, and optionally stops adaptively once the
// Wilson 95% confidence interval of the success rate is tight enough.
//
// Determinism contract: path i is seeded with sweep.Seed(Config.Seed, i)
// and chunk results are merged strictly in chunk order, so the full result
// — success counts, stage histogram, and the floating-point Welford moments
// — is bit-identical for a fixed Seed at ANY worker count. In adaptive
// mode the stopping chunk is the first chunk boundary (scanning prefixes
// in order) at which the Wilson half-width reaches the target, which is
// itself a pure function of Seed; workers
// only decide how many speculative chunks beyond the stopping point are
// computed and discarded. Runners hand the engine reusable per-worker run
// state: each worker slot owns one Runner, paths on a slot run
// sequentially, and a Runner's result must depend only on the path's
// index and seed.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/qmc"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("mc: invalid configuration")

// ChunkSize is the number of paths per chunk: large enough to amortise
// scheduling, small enough that adaptive stopping checks the CI at a
// useful granularity.
const ChunkSize = 256

// Path is the outcome of one simulated path.
type Path struct {
	// Success reports the path's success indicator (the Bernoulli variable
	// whose rate the engine estimates).
	Success bool
	// Atomic reports whether the path kept the protocol's all-or-nothing
	// property; non-atomic paths are tallied as violations.
	Atomic bool
	// Stage is the path's terminal-stage histogram key.
	Stage string
	// Duration feeds the engine's Welford mean/variance accumulator.
	Duration float64
}

// Runner executes paths with reusable internal state. A Runner is used by
// one worker slot at a time (no internal locking needed), and RunPath must
// be a pure function of (index, seed): the engine's determinism contract
// relies on a path's outcome not depending on which slot ran it or what
// ran before. index is the path's global stream position; pseudo-mode
// runners may ignore it, sobol-mode runners map it to a Sobol replicate
// and point (qmc.SobolReplicate, qmc.SobolPoint).
type Runner interface {
	// RunPath executes the path at index with the given seed, reusing
	// internal state.
	RunPath(index int, seed int64) (Path, error)
}

// RunnerFunc adapts a function to the Runner interface (stateless runners,
// tests).
type RunnerFunc func(index int, seed int64) (Path, error)

// RunPath implements Runner.
func (f RunnerFunc) RunPath(index int, seed int64) (Path, error) { return f(index, seed) }

// Config parameterises a streaming Monte Carlo estimate.
type Config struct {
	// Seed is the base seed; path i draws from the decorrelated stream
	// sweep.Seed(Seed, i).
	Seed int64
	// MaxPaths is the hard cap on executed paths (> 0). With CIWidth == 0
	// exactly MaxPaths paths run.
	MaxPaths int
	// CIWidth, when > 0, enables adaptive stopping: the engine stops at the
	// first chunk boundary where the Wilson 95% half-width of the success
	// rate is <= CIWidth, never exceeding MaxPaths.
	CIWidth float64
	// Workers bounds concurrency; 0 uses all CPUs (see internal/sweep).
	// The worker count never affects the result.
	Workers int
	// NewRunner constructs one reusable Runner per worker slot.
	NewRunner func() (Runner, error)
	// Sampler selects the sampling mode (zero value: pseudo, the golden
	// default — byte-identical to every committed artifact). Every mode
	// seeds path i with sweep.Seed(Seed, i); in sobol mode the adaptive
	// stopper switches from the raw-count Wilson interval to a t interval
	// over the Sobol replicate means — the Wilson interval cannot see
	// variance reduction.
	Sampler qmc.Mode
	// OnProgress, when non-nil, is called after each chunk is merged into
	// the running aggregate, with a snapshot of the merged prefix. Calls
	// happen on Run's own goroutine in strict chunk order, so the sequence
	// of snapshots is deterministic per Seed — the stream the
	// RPC layer's swap.simulate subscription forwards. The callback must
	// not block longer than the caller can afford: merging (and in adaptive
	// mode, the stopping decision) waits for it.
	OnProgress func(Progress)
}

// Progress is one streaming snapshot of the merged prefix of a run.
type Progress struct {
	// Paths, Successes and Chunks count the merged prefix.
	Paths, Successes, Chunks int
	// SuccessRate is the running success proportion with its Wilson 95%
	// interval — always the honest raw-count interval, whatever the
	// sampler.
	SuccessRate stats.Proportion
	// Sampler is the run's sampling mode.
	Sampler qmc.Mode
	// EstHalfWidth is the sampler-aware 95% half-width the adaptive
	// stopper compares against CIWidth: the Wilson half-width in pseudo
	// mode, the replicate-t width in sobol mode (+Inf while the estimator
	// is undefined).
	EstHalfWidth float64
	// Stopped reports that the adaptive criterion fired at this snapshot
	// (always false in fixed-N mode).
	Stopped bool
}

// Result aggregates a streaming Monte Carlo estimate.
type Result struct {
	// Paths is the number of paths executed and counted (MaxPaths unless an
	// adaptive stop fired earlier).
	Paths int
	// Successes counts successful paths.
	Successes int
	// Violations counts non-atomic paths.
	Violations int
	// Stages is the terminal-stage histogram.
	Stages map[string]int
	// SuccessRate is the success proportion with its Wilson 95% interval
	// — always the honest raw-count interval, whatever the sampler.
	SuccessRate stats.Proportion
	// Duration accumulates path durations (mean/variance), merged in
	// chunk order so the float result is reproducible.
	Duration stats.Welford
	// Sampler is the run's sampling mode.
	Sampler qmc.Mode
	// EstHalfWidth is the sampler-aware 95% half-width at the end of the
	// run (see Progress.EstHalfWidth).
	EstHalfWidth float64
	// Stopped reports an adaptive early stop (CIWidth reached before
	// MaxPaths).
	Stopped bool
	// Chunks is the number of chunks merged into the result.
	Chunks int
}

// stageCount is one terminal stage's tally within a chunk.
type stageCount struct {
	stage string
	n     int
}

// chunkResult is one chunk's aggregate, merged into the stream in chunk
// order.
type chunkResult struct {
	n, successes, violations int
	// stages tallies the chunk's end stages in first-seen order: a path
	// ends in one of a handful of stages, so a linear scan beats a map
	// insert per path. The merge folds it into Result.Stages.
	stages []stageCount
	dur    stats.Welford
	// repSucc/repN count successes and paths per Sobol replicate.
	repSucc, repN [qmc.SobolReplicates]int
}

// chunkStages is the stage tally's initial capacity: more than the six
// end stages a protocol path can reach.
const chunkStages = 8

// tallyStage counts one path that ended in stage.
func (cr *chunkResult) tallyStage(stage string) {
	for i := range cr.stages {
		if cr.stages[i].stage == stage {
			cr.stages[i].n++
			return
		}
	}
	cr.stages = append(cr.stages, stageCount{stage: stage, n: 1})
}

// tReplicates975 is the two-sided 95% Student-t critical value at
// qmc.SobolReplicates−1 = 7 degrees of freedom, used by the interval over
// Sobol replicate means.
const tReplicates975 = 2.3646242510102993

// Run executes the workload and streams the aggregation. See the package
// comment for the determinism contract.
func Run(ctx context.Context, cfg Config) (Result, error) {
	switch {
	case cfg.MaxPaths <= 0:
		return Result{}, fmt.Errorf("%w: maxPaths=%d must be > 0", ErrBadConfig, cfg.MaxPaths)
	case cfg.CIWidth < 0 || math.IsNaN(cfg.CIWidth):
		return Result{}, fmt.Errorf("%w: ciWidth=%g must be >= 0", ErrBadConfig, cfg.CIWidth)
	case cfg.NewRunner == nil:
		return Result{}, fmt.Errorf("%w: nil NewRunner", ErrBadConfig)
	}
	mode, err := cfg.Sampler.Canon()
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	numChunks := (cfg.MaxPaths + ChunkSize - 1) / ChunkSize
	workers := sweep.Workers(cfg.Workers)
	if workers > numChunks {
		workers = numChunks
	}

	// One reusable Runner per worker slot, shared across waves through a
	// free list.
	runners := make(chan Runner, workers)
	for i := 0; i < workers; i++ {
		r, err := cfg.NewRunner()
		if err != nil {
			return Result{}, fmt.Errorf("mc: runner %d: %w", i, err)
		}
		runners <- r
	}
	runChunk := func(c int) (chunkResult, error) {
		r := <-runners
		defer func() { runners <- r }()
		lo, hi := c*ChunkSize, (c+1)*ChunkSize
		if hi > cfg.MaxPaths {
			hi = cfg.MaxPaths
		}
		cr := chunkResult{stages: make([]stageCount, 0, chunkStages)}
		for i := lo; i < hi; i++ {
			p, err := r.RunPath(i, sweep.Seed(cfg.Seed, i))
			if err != nil {
				return chunkResult{}, fmt.Errorf("path %d: %w", i, err)
			}
			cr.n++
			if p.Success {
				cr.successes++
			}
			if !p.Atomic {
				cr.violations++
			}
			cr.tallyStage(p.Stage)
			cr.dur.Add(p.Duration)
			if mode == qmc.ModeSobol {
				rep := qmc.SobolReplicate(i)
				cr.repN[rep]++
				if p.Success {
					cr.repSucc[rep]++
				}
			}
		}
		return cr, nil
	}

	// Sampler-aware estimator state, merged strictly in chunk order like
	// every other accumulator, so the adaptive stop stays a pure function
	// of Seed.
	var repSucc, repN [qmc.SobolReplicates]int
	// halfWidth is the sampler-aware 95% half-width of the merged prefix
	// whose Wilson interval is prop: the Wilson half-width in pseudo mode,
	// the replicate-t width in sobol mode.
	halfWidth := func(prop stats.Proportion) float64 {
		if !mode.VarianceReduced() {
			return (prop.Hi - prop.Lo) / 2
		}
		var w stats.Welford
		for rep := 0; rep < qmc.SobolReplicates; rep++ {
			if repN[rep] == 0 {
				return math.Inf(1)
			}
			w.Add(float64(repSucc[rep]) / float64(repN[rep]))
		}
		return tReplicates975 * math.Sqrt(w.Var()/float64(w.N))
	}

	// Fixed-N mode runs every chunk in one sweep; adaptive mode dispatches
	// worker-sized waves so the merged prefix can stop the sampling early.
	// A progress hook also forces waves: snapshots must flow while the
	// sampling runs (and cancellation must bite between waves), not arrive
	// in a burst after one monolithic sweep. The merge order — and thus
	// the result — is the same either way.
	wave := numChunks
	if cfg.CIWidth > 0 || cfg.OnProgress != nil {
		wave = workers
	}
	res := Result{Stages: make(map[string]int), Sampler: mode}
	for start := 0; start < numChunks && !res.Stopped; start += wave {
		end := start + wave
		if end > numChunks {
			end = numChunks
		}
		crs, err := sweep.Map(ctx, end-start, workers, func(i int) (chunkResult, error) {
			return runChunk(start + i)
		})
		if err != nil {
			return Result{}, fmt.Errorf("mc: %w", err)
		}
		// Merge strictly in chunk order; in adaptive mode check the
		// stopping criterion — Wilson in pseudo mode, the sampler-aware
		// estimator interval otherwise — at every chunk boundary and
		// discard any speculative chunks computed past the stopping point.
		for _, cr := range crs {
			res.Paths += cr.n
			res.Successes += cr.successes
			res.Violations += cr.violations
			for _, sc := range cr.stages {
				res.Stages[sc.stage] += sc.n
			}
			res.Duration.Merge(cr.dur)
			res.Chunks++
			for rep := 0; rep < qmc.SobolReplicates; rep++ {
				repSucc[rep] += cr.repSucc[rep]
				repN[rep] += cr.repN[rep]
			}
			// The merged prefix's interval and width; the last merged
			// chunk's are the result's.
			prop, err := stats.NewProportion(res.Successes, res.Paths)
			if err != nil {
				return Result{}, fmt.Errorf("mc: %w", err)
			}
			res.SuccessRate, res.EstHalfWidth = prop, halfWidth(prop)
			if cfg.CIWidth > 0 && res.EstHalfWidth <= cfg.CIWidth {
				res.Stopped = res.Paths < cfg.MaxPaths
			}
			if cfg.OnProgress != nil {
				cfg.OnProgress(Progress{
					Paths: res.Paths, Successes: res.Successes, Chunks: res.Chunks,
					SuccessRate: prop, Sampler: mode, EstHalfWidth: res.EstHalfWidth, Stopped: res.Stopped,
				})
			}
			if res.Stopped {
				break
			}
		}
	}
	return res, nil
}
