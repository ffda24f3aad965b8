package mc_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mc"
)

// TestProgressSnapshotsDeterministic pins the OnProgress contract: one
// snapshot per merged chunk, in chunk order, cumulative counts matching the
// final result, and — because merging follows chunk order regardless of
// scheduling — an identical snapshot sequence at any worker count.
func TestProgressSnapshotsDeterministic(t *testing.T) {
	const maxPaths, chunk = 2000, mc.ChunkSize
	collect := func(workers int) ([]mc.Progress, mc.Result) {
		var snaps []mc.Progress
		res, err := mc.Run(context.Background(), mc.Config{
			Seed: 11, MaxPaths: maxPaths, Workers: workers,
			NewRunner:  bernoulli(0.4),
			OnProgress: func(p mc.Progress) { snaps = append(snaps, p) },
		})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return snaps, res
	}

	snaps1, res1 := collect(1)
	wantChunks := (maxPaths + chunk - 1) / chunk
	if len(snaps1) != wantChunks {
		t.Fatalf("got %d snapshots, want %d (one per chunk)", len(snaps1), wantChunks)
	}
	for i, s := range snaps1 {
		if s.Chunks != i+1 {
			t.Errorf("snapshot %d: Chunks = %d, want %d", i, s.Chunks, i+1)
		}
		if i > 0 && s.Paths <= snaps1[i-1].Paths {
			t.Errorf("snapshot %d: Paths = %d not increasing from %d", i, s.Paths, snaps1[i-1].Paths)
		}
		if s.Stopped {
			t.Errorf("snapshot %d: Stopped in fixed-N mode", i)
		}
		// Pseudo mode: the stopper's width is the Wilson half-width.
		if wilson := (s.SuccessRate.Hi - s.SuccessRate.Lo) / 2; s.EstHalfWidth <= 0 || s.EstHalfWidth != wilson {
			t.Errorf("snapshot %d: half-width = %g, want the Wilson half-width %g > 0", i, s.EstHalfWidth, wilson)
		}
	}
	last := snaps1[len(snaps1)-1]
	if last.Paths != res1.Paths || last.Successes != res1.Successes || last.SuccessRate != res1.SuccessRate ||
		last.EstHalfWidth != res1.EstHalfWidth {
		t.Errorf("final snapshot %+v does not match result (paths=%d successes=%d sr=%+v)",
			last, res1.Paths, res1.Successes, res1.SuccessRate)
	}

	snaps4, res4 := collect(4)
	if !reflect.DeepEqual(snaps1, snaps4) {
		t.Errorf("snapshot stream differs between 1 and 4 workers")
	}
	if res1.SuccessRate != res4.SuccessRate {
		t.Errorf("results differ across worker counts: %+v vs %+v", res1.SuccessRate, res4.SuccessRate)
	}
}

// TestProgressDoesNotPerturbResult checks the hook is observation only:
// with and without OnProgress the result is identical, in both fixed-N and
// adaptive modes.
func TestProgressDoesNotPerturbResult(t *testing.T) {
	for _, ci := range []float64{0, 0.02} {
		base := mc.Config{
			Seed: 3, MaxPaths: 4000, CIWidth: ci, Workers: 2,
			NewRunner: bernoulli(0.55),
		}
		plain, err := mc.Run(context.Background(), base)
		if err != nil {
			t.Fatalf("Run(ci=%g): %v", ci, err)
		}
		hooked := base
		var calls int
		var lastStopped bool
		hooked.OnProgress = func(p mc.Progress) { calls++; lastStopped = p.Stopped }
		withHook, err := mc.Run(context.Background(), hooked)
		if err != nil {
			t.Fatalf("Run(ci=%g, hook): %v", ci, err)
		}
		if !reflect.DeepEqual(plain, withHook) {
			t.Errorf("ci=%g: result differs with OnProgress:\n%+v\nvs\n%+v", ci, plain, withHook)
		}
		if calls != withHook.Chunks {
			t.Errorf("ci=%g: %d OnProgress calls, want %d (one per merged chunk)", ci, calls, withHook.Chunks)
		}
		if lastStopped != withHook.Stopped {
			t.Errorf("ci=%g: last snapshot Stopped = %v, result %v", ci, lastStopped, withHook.Stopped)
		}
	}
}
