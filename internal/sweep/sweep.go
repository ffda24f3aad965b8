// Package sweep is the repository's parameter-sweep engine: a worker pool
// that evaluates an indexed task set concurrently and collects results in
// index order, so a sweep's output is bit-identical regardless of the worker
// count. Every grid scan behind the paper artifacts (internal/figures), the
// Monte Carlo waves (internal/mc) and the CLI sweeps (cmd/swapsolve) run
// through it.
//
// Determinism contract: Map calls fn exactly once per index with no shared
// mutable state of its own, and places fn(i)'s result at position i of the
// returned slice. If fn is a pure function of its index, the output — and
// any aggregation that consumes it in slice order — does not depend on
// scheduling. For stochastic tasks, derive the per-shard RNG seed from the
// index with Seed so the draw sequence is a function of the index alone.
// The package also holds the repository's random streams (rand.go): Rand,
// the one pseudo-random stream every simulator draws from, and SplitMix,
// the secret-byte source.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrBadInput reports an invalid task count.
var ErrBadInput = errors.New("sweep: invalid input")

// Workers resolves a requested worker count: values ≤ 0 select one worker
// per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(0), …, fn(n−1) on a pool of workers and returns the
// results in index order. It is MapTiles with tiles of one index: workers ≤ 0
// uses all CPUs, a task error cancels the remaining tasks and the
// lowest-indexed error among the tasks that ran is returned (naming its
// index as the tile [i,i+1)), and a cancelled ctx stops the sweep with ctx's
// error. fn must be safe for concurrent invocation.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapTiles(ctx, n, workers, 1, func(i, _ int, out []T) (err error) {
		out[0], err = fn(i)
		return err
	})
}

// MapTiles evaluates n tasks in contiguous index blocks: workers claim tiles
// [lo, hi) atomically and fn fills out[j-lo] for each j in the tile, writing
// directly into the shared result slice (out aliases results[lo:hi]). Tiled
// claiming is what lets a per-curve evaluator — a solvecache model, hoisted
// scan constants, warm solve memos — be constructed once per block instead
// of once per point, while the output stays bit-identical to a point-per-task
// Map at any worker or tile count.
//
// tile ≤ 0 picks max(1, n/(4·workers)): four claims per worker, small enough
// to load-balance and large enough to amortize per-tile setup. A tile error
// cancels the remaining tiles and the lowest-indexed failing tile's error is
// returned. fn must be safe for concurrent invocation and must not write
// outside out.
func MapTiles[T any](ctx context.Context, n, workers, tile int, fn func(lo, hi int, out []T) error) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n=%d must be >= 0", ErrBadInput, n)
	}
	if n == 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if tile <= 0 {
		tile = n / (4 * workers)
		if tile < 1 {
			tile = 1
		}
	}
	tiles := (n + tile - 1) / tile
	if workers > tiles {
		workers = tiles
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	// record keeps only the lowest-indexed tile error, so a cancellation
	// observed by another worker can never shadow the failure that caused it.
	record := func(lo int, err error) {
		mu.Lock()
		if errIdx == -1 || lo < errIdx {
			errIdx, firstEr = lo, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= tiles {
					return
				}
				if ctx.Err() != nil {
					return
				}
				lo := t * tile
				hi := lo + tile
				if hi > n {
					hi = n
				}
				// Full-slice expression: fn cannot append past its tile.
				if err := fn(lo, hi, results[lo:hi:hi]); err != nil {
					record(lo, fmt.Errorf("sweep: tile [%d,%d): %w", lo, hi, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
