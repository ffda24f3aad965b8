package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/bench/internal/workload"
)

// Batch-workload shape. Like the quote workloads, each interleaves its
// kinds of operation, set-up probes included, so all of them sample the
// whole run: the host's speed drifts by tens of percent over 10–20 s.
const (
	// setupEvery: a set-up probe runs before every setupEvery-th figures
	// run; atlasSetups probes run before every cold atlas sweep.
	setupEvery  = 2
	atlasSetups = 3
	// serialEvery: every serialEvery-th figures run uses -workers 1.
	serialEvery = 2
	// warmPerCold: after each cold atlas sweep, warm sweeps run against
	// its store for this share of the cold sweep's time.
	warmPerCold = 1.0 / 3
	// minRuns of each kind keep a median meaningful on a slow machine;
	// maxFailed ends a run whose program keeps failing.
	minRuns   = 3
	maxFailed = 5
)

// goldenOutput is what cmd/figures prints for the given groups: their
// golden files in order, then the artifact count.
func goldenOutput(root string, groups []string) ([]byte, error) {
	var out bytes.Buffer
	for _, id := range groups {
		data, err := os.ReadFile(filepath.Join(root, "internal", "figures", "testdata", "golden", id+".golden"))
		if err != nil {
			return nil, err
		}
		out.Write(data)
	}
	n := 0
	for _, line := range bytes.Split(out.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("==== ")) && bytes.HasSuffix(line, []byte(" ====")) {
			n++
		}
	}
	fmt.Fprintf(&out, "generated %d artifacts\n", n)
	return out.Bytes(), nil
}

// runFigures measures cmd/figures: fresh-process runs of all 18 groups,
// alternately at the default worker count and with -workers 1, with a
// set-up probe (`figures -only tableI`) before every other run.
func runFigures(cfg runConfig) (*result, error) {
	want, err := goldenOutput(cfg.root, workload.FigureGroups)
	if err != nil {
		return nil, err
	}
	wantTableI, err := goldenOutput(cfg.root, []string{"tableI"})
	if err != nil {
		return nil, err
	}
	res := newResult(workload.Figures)
	bin := cfg.bin("figures")
	// one runs cmd/figures once and checks its output; it returns the
	// run, or nil for a failed run.
	one := func(expect []byte, args ...string) *runResult {
		res.Attempted++
		r, err := runProgram(cfg.work, bin, args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			res.Failed++
			return nil
		}
		if !bytes.Equal(r.stdout, expect) {
			res.mismatch("figures %v output differs from the golden files", args)
			return nil
		}
		res.host.probe(batchProbeUnits)
		return &r
	}

	var setups, walls, cpus, serial, rss []float64
	start := time.Now()
	var last time.Duration
	for i := 0; len(walls) < minRuns || len(serial) < minRuns || time.Since(start)+last <= cfg.measure; i++ {
		if res.Failed > maxFailed {
			return nil, fmt.Errorf("figures: %d of %d runs failed", res.Failed, res.Attempted)
		}
		if i%setupEvery == 0 {
			if r := one(wantTableI, "-only", "tableI"); r != nil {
				setups = append(setups, r.wall.Seconds())
			}
		}
		var r *runResult
		if i%serialEvery == serialEvery-1 {
			if r = one(want, "-workers", "1"); r != nil {
				serial = append(serial, r.wall.Seconds())
			}
		} else if r = one(want); r != nil {
			walls = append(walls, ms(r.wall))
			cpus = append(cpus, ms(r.cpu))
		}
		if r != nil {
			rss = append(rss, r.rssMB)
			last = r.wall
		}
	}
	if len(setups) == 0 {
		return nil, fmt.Errorf("figures: %d of %d runs failed", res.Failed, res.Attempted)
	}
	res.metric(mSetup, median(setups), "s", len(setups), timeLike)
	res.metric(mP50, workload.NearestRank(sorted(walls), 0.50), "ms", len(walls), timeLike)
	res.metric(mThroughput, 1/median(serial), "1/s", len(serial), rateLike)
	res.metric(mCPU, median(cpus), "ms", len(cpus), timeLike)
	res.metric(mRSS, slices.Max(rss), "MB", len(rss), plain)
	res.Phases = map[string]string{
		"full":   fmt.Sprintf("%d runs at the default worker count", len(walls)),
		"serial": fmt.Sprintf("%d runs with -workers 1", len(serial)),
		"setup":  fmt.Sprintf("%d runs of -only tableI", len(setups)),
	}
	return res, nil
}

// atlasSummary matches the sweep's summary line.
var atlasSummary = regexp.MustCompile(`solved (\d+), loaded (\d+)`)

// sweepCounts reads the solved and loaded cell counts from a sweep's
// output.
func sweepCounts(stdout []byte) (solved, loaded int, err error) {
	m := atlasSummary.FindSubmatch(stdout)
	if m == nil {
		return 0, 0, fmt.Errorf("atlas printed no summary line")
	}
	solved, _ = strconv.Atoi(string(m[1]))
	loaded, _ = strconv.Atoi(string(m[2]))
	return solved, loaded, nil
}

// runAtlas measures `scenarios atlas` in cycles: set-up probes, a cold
// sweep into an empty store, then warm sweeps against that store.
func runAtlas(cfg runConfig) (*result, error) {
	res := newResult(workload.Atlas)
	bin := cfg.bin("scenarios")
	seed := strconv.FormatInt(cfg.seed, 10)
	var wantCells, wantFrontier []byte
	// sweep runs one atlas sweep into dir, expecting the given counts,
	// and checks its artifacts against the first sweep's. It returns the
	// run, or nil for a failed one.
	sweep := func(args []string, out string, solved, loaded int, artifacts bool) *runResult {
		res.Attempted++
		r, err := runProgram(cfg.work, bin, args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			res.Failed++
			return nil
		}
		s, l, err := sweepCounts(r.stdout)
		if err != nil || s != solved || l != loaded {
			res.mismatch("atlas sweep solved %d, loaded %d; want %d and %d (%v)", s, l, solved, loaded, err)
			return nil
		}
		if artifacts {
			cells, err1 := os.ReadFile(filepath.Join(out, "atlas_cells.json"))
			frontier, err2 := os.ReadFile(filepath.Join(out, "atlas_frontier.txt"))
			if err1 != nil || err2 != nil {
				res.mismatch("atlas artifacts missing: %v %v", err1, err2)
				return nil
			}
			if wantCells == nil {
				wantCells, wantFrontier = cells, frontier
			} else if !bytes.Equal(cells, wantCells) || !bytes.Equal(frontier, wantFrontier) {
				res.mismatch("atlas artifacts differ between sweeps")
				return nil
			}
		}
		removeAll(out)
		res.host.probe(batchProbeUnits)
		return &r
	}

	var setups, cold, cpus, warm, rss []float64
	start := time.Now()
	var last time.Duration
	for n := 1; len(cold) < minRuns || time.Since(start)+last <= cfg.measure; n++ {
		if res.Failed > maxFailed {
			return nil, fmt.Errorf("atlas: %d of %d sweeps failed", res.Failed, res.Attempted)
		}
		cycle := time.Now()
		// Stores stay until the run ends: deleting thousands of files
		// between sweeps would put the file system's own clean-up inside
		// the next sweep's time. For the same reason the last cycle's
		// writes are flushed before this one starts, rather than written
		// back by the kernel while it runs.
		syscall.Sync()
		for i := 0; i < atlasSetups; i++ {
			dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d-%d", n, i))
			out := filepath.Join(dir, "out")
			args := []string{"atlas", "-chains", "btc,ltc", "-samples", "1", "-seed", seed,
				"-store", filepath.Join(dir, "store"), "-out", out}
			if r := sweep(args, out, 2, 0, false); r != nil {
				setups = append(setups, r.wall.Seconds())
			}
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("cold-%d", n))
		store, out := filepath.Join(dir, "store"), filepath.Join(dir, "out")
		r := sweep(workload.AtlasArgs(cfg.seed, store, out), out, workload.AtlasCells, 0, true)
		if r == nil {
			continue
		}
		cold = append(cold, ms(r.wall))
		cpus = append(cpus, ms(r.cpu))
		rss = append(rss, r.rssMB)
		var warmTime time.Duration
		for warmTime < time.Duration(float64(r.wall)*warmPerCold) && res.Failed <= maxFailed {
			w := sweep(workload.AtlasArgs(cfg.seed, store, out), out, 0, workload.AtlasCells, true)
			if w == nil {
				continue
			}
			warm = append(warm, w.wall.Seconds())
			rss = append(rss, w.rssMB)
			warmTime += w.wall
		}
		last = time.Since(cycle)
	}
	if len(setups) == 0 || len(warm) == 0 {
		return nil, fmt.Errorf("atlas: %d of %d sweeps failed", res.Failed, res.Attempted)
	}
	res.metric(mSetup, median(setups), "s", len(setups), timeLike)
	res.metric(mP50, workload.NearestRank(sorted(cold), 0.50), "ms", len(cold), timeLike)
	res.metric(mThroughput, 1/median(warm), "1/s", len(warm), rateLike)
	res.metric(mCPU, median(cpus), "ms", len(cpus), timeLike)
	res.metric(mRSS, slices.Max(rss), "MB", len(rss), plain)
	res.Phases = map[string]string{
		"cold":  fmt.Sprintf("%d sweeps of %d cells, each into an empty store", len(cold), workload.AtlasCells),
		"warm":  fmt.Sprintf("%d sweeps, each against the store of the cold sweep before it", len(warm)),
		"setup": fmt.Sprintf("%d sweeps of -chains btc,ltc -samples 1, each into an empty store", len(setups)),
	}
	return res, nil
}

// removeAll deletes a scratch directory; a failure leaves litter under the
// benchmark's own work directory, which is removed at exit, so it is only
// reported.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}
