package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/workload"
	"repro/internal/atlas"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/swapsim"
	"repro/internal/utility"
	"repro/internal/variant"
)

// fanOut calls f(0..n-1) on one goroutine per CPU, each taking the next
// index as it finishes the last, as the repository's sweep engine does.
func fanOut(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// figuresPass generates every paper-artifact group, one span per group,
// fanned out as cmd/figures does, then renders them and checks the bytes
// against the golden files.
func figuresPass(cfg passConfig, spans bool, res *passResult) error {
	reg := figures.Registry()
	rec := newRecorder(spans, len(reg)+1)
	p := utility.Default()
	groups := make([][]figures.Figure, len(reg))
	errs := make([]error, len(reg))
	start := time.Now()
	fanOut(len(reg), func(i int) {
		s := rec.begin(active{}, "figures.group."+reg[i].ID)
		groups[i], errs[i] = reg[i].Gen(p, figures.Opts{})
		s.end()
	})
	s := rec.begin(active{}, "figures.render")
	var out bytes.Buffer
	for i, figs := range groups {
		if errs[i] != nil {
			return errs[i]
		}
		for _, f := range figs {
			body, err := f.Render(72, 18)
			if err != nil {
				return err
			}
			fmt.Fprintf(&out, "==== %s ====\n%s\n", f.ID, body)
		}
	}
	s.end()
	res.WallNS = int64(time.Since(start))
	res.Spans = rec.spans
	res.Attempted = len(reg)

	var want bytes.Buffer
	for _, e := range reg {
		data, err := os.ReadFile(filepath.Join(cfg.root, "internal", "figures", "testdata", "golden", e.ID+".golden"))
		if err != nil {
			return err
		}
		want.Write(data)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		res.mismatch("figures: generated artifacts differ from the golden files")
	}
	if !spans {
		return nil
	}
	var critical, busy float64
	for _, sp := range rec.spans {
		id, ok := strings.CutPrefix(sp.Name, "figures.group.")
		if !ok {
			continue
		}
		d := float64(sp.EndNS-sp.StartNS) / 1e6
		res.metric("figures.group_ms."+id, d, "ms", 1)
		critical = max(critical, d)
		busy += d
	}
	res.metric("figures.critical_ms", critical, "ms", len(reg))
	res.metric("figures.busy_ms", busy, "ms", len(reg))
	return nil
}

// atlasPass sweeps the atlas workload's universe cold through the runner's
// per-cell path (key, store read, solve, Monte Carlo validation, store
// write), fanned out as the runner does, then times a warm atlas.Run over
// the filled store and the artifact rendering.
func atlasPass(cfg passConfig, spans bool, res *passResult) error {
	spec := config.UniverseSpec{Chains: strings.Split(workload.AtlasChains, ","),
		Samples: workload.AtlasSamples, Seed: cfg.seed, MCRuns: workload.AtlasRuns}
	st, err := store.Open(filepath.Join(cfg.work, "store"))
	if err != nil {
		return err
	}
	game, err := variant.Lookup("basic")
	if err != nil {
		return err
	}
	validator, ok := game.(variant.MCValidator)
	if !ok {
		return errors.New("the basic variant has no Monte Carlo validation")
	}
	opts := variant.RunOpts{Runs: workload.AtlasRuns, MCWorkers: 1, Variants: "basic", Store: st}
	rec := newRecorder(spans, 6*workload.AtlasCells+3)
	start := time.Now()
	s := rec.begin(active{}, "config.generate")
	scs, err := spec.Generate()
	s.end()
	if err != nil {
		return err
	}
	var putBytes atomic.Int64
	errs := make([]error, len(scs))
	fanOut(len(scs), func(i int) {
		sc := scs[i]
		cell := rec.begin(active{}, "variant.cell")
		defer cell.end()
		s := rec.begin(cell, "variant.cellkey")
		key, err := variant.CellKey(sc, game.Key(), opts)
		s.end()
		if err != nil {
			errs[i] = err
			return
		}
		s = rec.begin(cell, "store.get")
		_, hit := st.Get(key)
		s.end()
		if hit {
			errs[i] = fmt.Errorf("cell %s found in an empty store", sc.Name)
			return
		}
		s = rec.begin(cell, "variant.solve.basic")
		r, err := game.Solve(&variant.Context{Opts: opts}, sc)
		s.end()
		if err != nil {
			errs[i] = err
			return
		}
		r.Key, r.Desc = game.Key(), game.Describe()
		s = rec.begin(cell, "variant.mc.basic")
		r.MC, err = validator.MCValidate(&variant.Context{Opts: opts}, sc, r)
		s.end()
		if err != nil {
			errs[i] = err
			return
		}
		s = rec.begin(cell, "store.put")
		data, err := json.Marshal(r)
		if err == nil {
			err = st.Put(key, data)
		}
		s.end()
		errs[i] = err
		putBytes.Add(int64(len(data)))
	})
	res.Attempted = len(scs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s = rec.begin(active{}, "atlas.run")
	warm, err := atlas.Run(context.Background(), atlas.Options{Spec: spec, Variants: "basic", Runs: workload.AtlasRuns, Store: st})
	s.end()
	if err != nil {
		return err
	}
	s = rec.begin(active{}, "atlas.render")
	err = warm.WriteArtifacts(filepath.Join(cfg.work, "out"))
	s.end()
	if err != nil {
		return err
	}
	res.WallNS = int64(time.Since(start))
	res.Spans = rec.spans
	if warm.Solved != 0 || warm.Loaded != workload.AtlasCells {
		res.mismatch("atlas: warm sweep solved %d and loaded %d cells; want 0 and %d", warm.Solved, warm.Loaded, workload.AtlasCells)
	}
	if !spans {
		return nil
	}
	sums := summarize(rec.spans)
	dur := func(metric, span string, scale float64, unit string) {
		if s := sums[span]; s != nil {
			res.metric(metric, workload.NearestRank(s.Dur, 0.5)/scale, unit, s.Count)
		}
	}
	dur("store.get_us", "store.get", 1, "us")
	dur("store.put_us", "store.put", 1, "us")
	dur("variant.mc_us.basic", "variant.mc.basic", 1, "us")
	dur("config.generate_ms", "config.generate", 1e3, "ms")
	dur("atlas.run_ms", "atlas.run", 1e3, "ms")
	dur("atlas.render_ms", "atlas.render", 1e3, "ms")
	stats := st.Stats()
	res.ratio("store.hit_ratio", stats.Hits, stats.Misses)
	res.metric("store.bytes_per_cell", float64(putBytes.Load())/float64(len(scs)), "B", len(scs))
	res.count("atlas.solved", uint64(warm.Solved))
	res.count("atlas.loaded", uint64(warm.Loaded))
	return nil
}

// coreSets is how many seeded parameter sets the core probe times.
const coreSets = 200

// coreProbe times the solver's primitives, each call on a freshly built
// model so no memoized result is reused: model construction, Bob's t2
// continuation range (the contSetT2 root scan), the t1 feasibility scan,
// the success rate and the SR-maximising rate.
func coreProbe(cfg passConfig, res *passResult) error {
	rec := newRecorder(true, 5*coreSets)
	start := time.Now()
	for _, wsc := range workload.Scenarios(cfg.seed, "core", coreSets) {
		data, err := json.Marshal(wsc)
		if err != nil {
			return err
		}
		sc, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return err
		}
		s := rec.begin(active{}, "core.new")
		_, err = core.New(sc.Params)
		s.end()
		if err != nil {
			return err
		}
		fresh := func(name string, call func(m *core.Model) error) error {
			m, err := core.New(sc.Params)
			if err != nil {
				return err
			}
			s := rec.begin(active{}, name)
			err = call(m)
			s.end()
			if errors.Is(err, core.ErrNotViable) {
				return nil // no feasible rate is an answer, not a failure
			}
			return err
		}
		err = errors.Join(
			fresh("core.cont_range_t2", func(m *core.Model) error { _, _, err := m.ContRangeT2(sc.PStar); return err }),
			fresh("core.feasible_range", func(m *core.Model) error { _, _, err := m.FeasibleRateRange(); return err }),
			fresh("core.success_rate", func(m *core.Model) error { _, err := m.SuccessRate(sc.PStar); return err }),
			fresh("core.optimal_rate", func(m *core.Model) error { _, _, err := m.OptimalRate(); return err }),
		)
		if err != nil {
			return err
		}
		res.Attempted++
	}
	res.WallNS = int64(time.Since(start))
	sums := summarize(rec.spans)
	for _, name := range []string{"core.new", "core.cont_range_t2", "core.feasible_range", "core.success_rate", "core.optimal_rate"} {
		metric := strings.TrimPrefix(name, "core.") + "_us"
		if name == "core.new" {
			metric = "model_new_us"
		}
		res.metric("core."+metric, workload.NearestRank(sums[name].Dur, 0.5), "us", sums[name].Count)
	}
	return nil
}

// mcPaths is the path count of each Monte Carlo probe.
const mcPaths = 50000

// mcProbe runs the protocol Monte Carlo engine on one worker over two
// presets, Table III and the doubled-volatility regime, and reports its
// throughput and the bytes it allocates per path.
func mcProbe(res *passResult) error {
	var paths int
	var took time.Duration
	var alloc uint64
	for _, name := range []string{"tableIII", "high-vol"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return err
		}
		m, err := core.New(sc.Params)
		if err != nil {
			return err
		}
		strat, err := m.Strategy(sc.PStar)
		if err != nil {
			return err
		}
		strat.AliceInitiates = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := swapsim.MonteCarlo(swapsim.MCConfig{
			Config: swapsim.Config{Params: sc.Params, Strategy: strat, Seed: sc.Seed},
			Runs:   mcPaths, Workers: 1,
		})
		took += time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		paths += r.Paths
		alloc += after.TotalAlloc - before.TotalAlloc
		res.Attempted++
	}
	res.WallNS = int64(took)
	res.metric("mc.paths_per_s", float64(paths)/took.Seconds(), "1/s", paths)
	res.metric("mc.bytes_per_path", float64(alloc)/float64(paths), "B", paths)
	return nil
}

// sortFloats sorts each slice in place.
func sortFloats(xs ...[]float64) {
	for _, x := range xs {
		sort.Float64s(x)
	}
}
