package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	got, err := Map(context.Background(), 100, 7, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), 257, workers, func(i int) (float64, error) {
			// A task whose value depends on a per-index RNG stream.
			rng := rand.New(rand.NewSource(Seed(42, i)))
			return math.Exp(rng.NormFloat64()) * float64(i+1), nil
		})
		if err != nil {
			t.Fatalf("Map(workers=%d): %v", workers, err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 3, 8, 64, 0} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: output differs from workers=1", w)
		}
	}
}

func TestMapEmptyAndInvalid(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("n=0: got %v, %v; want nil, nil", got, err)
	}
	if _, err := Map(context.Background(), -1, 4, func(int) (int, error) { return 0, nil }); !errors.Is(err, ErrBadInput) {
		t.Errorf("n=-1 err = %v, want ErrBadInput", err)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), 50, workers, func(i int) (int, error) {
			if i%10 == 3 {
				return 0, fmt.Errorf("%w at %d", wantErr, i)
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if err == nil || !strings.Contains(err.Error(), "tile [") {
			t.Errorf("workers=%d: err = %v, want an index-named error", workers, err)
		}
	}
	// Single worker runs indices in order, so the contract — lowest-indexed
	// error among the tasks that ran — pins the reported index exactly.
	// (Multi-worker pools may legally cancel task 3 before it runs.)
	_, err := Map(context.Background(), 50, 1, func(i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("%w at %d", wantErr, i)
		}
		return i, nil
	})
	if want := "tile [3,4)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("workers=1: err = %v, want mention of %q", err, want)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := Map(ctx, 10000, 2, func(i int) (int, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop the sweep (%d calls)", n)
	}
}

func TestMapErrorCancelsRemainingTasks(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(context.Background(), 100000, 4, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n >= 100000 {
		t.Errorf("error did not short-circuit the sweep (%d calls)", n)
	}
}

func TestMapTilesOrdersResults(t *testing.T) {
	got, err := MapTiles(context.Background(), 100, 7, 9, func(lo, hi int, out []int) error {
		for j := lo; j < hi; j++ {
			out[j-lo] = j * j
		}
		return nil
	})
	if err != nil {
		t.Fatalf("MapTiles: %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapTilesIdenticalAcrossWorkerAndTileCounts(t *testing.T) {
	// A tiled task whose value depends on a per-index RNG stream, as the
	// figure scans do: the output must be a pure function of the index,
	// independent of how indices are blocked and scheduled.
	run := func(workers, tile int) []float64 {
		out, err := MapTiles(context.Background(), 257, workers, tile, func(lo, hi int, out []float64) error {
			for j := lo; j < hi; j++ {
				rng := rand.New(rand.NewSource(Seed(42, j)))
				out[j-lo] = math.Exp(rng.NormFloat64()) * float64(j+1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("MapTiles(workers=%d, tile=%d): %v", workers, tile, err)
		}
		return out
	}
	ref := run(1, 257)
	for _, w := range []int{1, 2, 4, 16, 0} {
		for _, tile := range []int{0, 1, 7, 41, 257, 1000} {
			if got := run(w, tile); !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d tile=%d: output differs from single-tile run", w, tile)
			}
		}
	}
}

func TestMapTilesEmptyAndInvalid(t *testing.T) {
	got, err := MapTiles(context.Background(), 0, 4, 8, func(int, int, []int) error { return nil })
	if err != nil || got != nil {
		t.Errorf("n=0: got %v, %v; want nil, nil", got, err)
	}
	if _, err := MapTiles(context.Background(), -1, 4, 8, func(int, int, []int) error { return nil }); !errors.Is(err, ErrBadInput) {
		t.Errorf("n=-1 err = %v, want ErrBadInput", err)
	}
}

func TestMapTilesOutCannotGrowPastTile(t *testing.T) {
	_, err := MapTiles(context.Background(), 20, 2, 5, func(lo, hi int, out []int) error {
		if cap(out) != hi-lo {
			return fmt.Errorf("tile [%d,%d): cap(out) = %d, want %d", lo, hi, cap(out), hi-lo)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapTilesReportsLowestTileError(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		_, err := MapTiles(context.Background(), 50, workers, 5, func(lo, hi int, out []int) error {
			if lo == 15 {
				return fmt.Errorf("%w at tile %d", wantErr, lo)
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if err == nil || !strings.Contains(err.Error(), "tile ") {
			t.Errorf("workers=%d: err = %v, want a tile-ranged error", workers, err)
		}
	}
	// A single worker claims tiles in order, pinning the reported range.
	_, err := MapTiles(context.Background(), 50, 1, 5, func(lo, hi int, out []int) error {
		if lo == 15 {
			return fmt.Errorf("%w at tile %d", wantErr, lo)
		}
		return nil
	})
	if want := "tile [15,20)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("workers=1: err = %v, want mention of %q", err, want)
	}
}

func TestMapTilesErrorCancelsRemainingTiles(t *testing.T) {
	var calls atomic.Int64
	_, err := MapTiles(context.Background(), 100000, 4, 1, func(lo, hi int, out []int) error {
		calls.Add(1)
		if lo == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n >= 100000 {
		t.Errorf("error did not short-circuit the sweep (%d calls)", n)
	}
}

func TestMapTilesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := MapTiles(ctx, 10000, 2, 1, func(lo, hi int, out []int) error {
		if calls.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop the sweep (%d calls)", n)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", got)
	}
}

func TestSeedIsStableAndDecorrelated(t *testing.T) {
	if Seed(7, 11) != Seed(7, 11) {
		t.Error("Seed is not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := Seed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at shard %d", i)
		}
		seen[s] = true
	}
	if Seed(7, 0) == Seed(8, 0) {
		t.Error("different bases should give different seeds")
	}
}
