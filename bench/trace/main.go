// Command trace is the benchmark's traced run: it replays each workload's
// seeded inputs through the repository's layers, one public function at a
// time, records a span around every call, and prints the per-layer
// metrics README.md lists.
//
// Every pass runs in a fresh process (this program re-executes itself),
// so process-wide caches start cold as they do in the real programs. Each
// traced pass also runs once with spans off; the wall-time difference is
// the tracing overhead.
//
// Usage, from the bench directory:
//
//	go run ./trace -seed 1 [-workload W] [-o spans.json] [-metrics layers.json]
//
// This is the only part of the benchmark that imports the repository's
// packages, so a refactor of an internal API can break it but never the
// end-to-end driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/bench/internal/workload"
)

// passResult is what one pass process reports to its parent.
type passResult struct {
	Pass string `json:"pass"`
	// WallNS is the wall time of the pass's timed section.
	WallNS     int64                      `json:"wall_ns"`
	Spans      []Span                     `json:"spans,omitempty"`
	Metrics    map[string]workload.Metric `json:"metrics"`
	Attempted  int                        `json:"attempted"`
	Failed     int                        `json:"failed"`
	Mismatches []string                   `json:"mismatches,omitempty"`
	// Digests maps a quote's key to its response digest, so the replay
	// can be checked against the served responses.
	Digests map[int]string `json:"digests,omitempty"`
}

func (p *passResult) metric(name string, v float64, unit string, n int) {
	p.Metrics[name] = workload.Metric{Value: v, Unit: unit, N: n}
}

func (p *passResult) ratio(name string, hits, misses uint64) {
	v := 0.0
	if hits+misses > 0 {
		v = float64(hits) / float64(hits+misses)
	}
	p.Metrics[name] = workload.Metric{Value: v, Unit: "ratio", N: int(hits + misses),
		Base: fmt.Sprintf("%d/%d", hits, hits+misses)}
}

func (p *passResult) count(name string, n uint64) {
	p.metric(name, float64(n), "count", 1)
}

func (p *passResult) mismatch(format string, args ...any) {
	p.Mismatches = append(p.Mismatches, fmt.Sprintf(format, args...))
	p.Failed++
}

// passes lists each workload's passes; "core" and "mc" are the layer
// probes every traced run includes.
var passes = map[string][]string{
	workload.QuoteFresh:  {"quote-fresh/spans", "quote-fresh/nospans", "quote-fresh/serve"},
	workload.QuoteRepeat: {"quote-repeat/spans", "quote-repeat/nospans", "quote-repeat/serve"},
	workload.Figures:     {"figures/spans", "figures/nospans"},
	workload.Atlas:       {"atlas/spans", "atlas/nospans"},
}

// passConfig is what a pass needs.
type passConfig struct {
	seed int64
	root string // repository root, for the golden files
	work string // scratch directory of the pass
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		name     = fs.String("workload", "", "trace only this workload's passes (default: all)")
		root     = fs.String("root", "..", "repository root")
		spansOut = fs.String("o", "", "write every span as JSON to this file")
		metrics  = fs.String("metrics", "", "write the per-layer metrics as JSON to this file")
		pass     = fs.String("pass", "", "run one pass in this process and print its result (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	cfg := passConfig{seed: *seed, root: abs}
	if *pass != "" {
		return runPass(cfg, *pass)
	}
	names := workload.Names
	if *name != "" {
		if !workload.Valid(*name) {
			fmt.Fprintf(os.Stderr, "trace: unknown workload %q\n", *name)
			return 2
		}
		names = []string{*name}
	}
	list := []string{"core", "mc"}
	for _, n := range names {
		list = append(list, passes[n]...)
	}
	results := make(map[string]*passResult)
	for _, p := range list {
		fmt.Fprintf(os.Stderr, "trace: pass %s\n", p)
		r, err := spawnPass(cfg, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: pass %s: %v\n", p, err)
			return 1
		}
		results[p] = r
	}
	rep := combine(results, names)
	printReport(os.Stdout, results, list, rep)
	if *spansOut != "" {
		if err := writeSpans(*spansOut, results, list); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
	}
	if *metrics != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*metrics, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
	}
	if len(rep.Mismatches) > 0 {
		return 1
	}
	return 0
}

// spawnPass runs one pass in a fresh process of this program.
func spawnPass(cfg passConfig, pass string) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-pass", pass, "-seed", strconv.FormatInt(cfg.seed, 10), "-root", cfg.root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var r passResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("decoding pass result: %w", err)
	}
	return &r, nil
}

// runPass runs one pass in this process and prints its result.
func runPass(cfg passConfig, pass string) int {
	scratch := filepath.Join(cfg.root, ".bench_build")
	err := os.MkdirAll(scratch, 0o755)
	work := ""
	if err == nil {
		work, err = os.MkdirTemp(scratch, "trace-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work
	w, mode, _ := strings.Cut(pass, "/")
	res := &passResult{Pass: pass, Metrics: map[string]workload.Metric{}}
	switch w {
	case "core":
		err = coreProbe(cfg, res)
	case "mc":
		err = mcProbe(res)
	case workload.QuoteFresh, workload.QuoteRepeat:
		if mode == "serve" {
			err = servePass(cfg, w, res)
		} else {
			err = replayPass(cfg, w, mode == "spans", res)
		}
	case workload.Figures:
		err = figuresPass(cfg, mode == "spans", res)
	case workload.Atlas:
		err = atlasPass(cfg, mode == "spans", res)
	default:
		err = fmt.Errorf("unknown pass %q", pass)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: pass %s: %v\n", pass, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	return 0
}

// combine merges the passes' metrics and derives the cross-pass ones: the
// time no traced layer accounts for, the tracing overhead, and the check
// that the replay produced the responses the server did.
func combine(results map[string]*passResult, names []string) *workload.LayerReport {
	rep := &workload.LayerReport{Metrics: map[string]workload.Metric{}}
	for _, r := range results {
		for k, m := range r.Metrics {
			rep.Metrics[k] = m
		}
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Mismatches = append(rep.Mismatches, r.Mismatches...)
	}
	for _, w := range names {
		on, off := results[w+"/spans"], results[w+"/nospans"]
		rep.Metrics["trace.overhead_frac."+w] = workload.Metric{
			Value: float64(on.WallNS-off.WallNS) / float64(off.WallNS), Unit: "ratio", N: 2,
			Base: fmt.Sprintf("%dns/%dns", on.WallNS-off.WallNS, off.WallNS),
		}
		serve := results[w+"/serve"]
		if serve == nil {
			continue
		}
		req := summarize(on.Spans)["request"]
		srv := summarize(serve.Spans)["rpc.serve"]
		if req != nil && srv != nil {
			rep.Metrics[w+".rpc.unaccounted_us"] = workload.Metric{
				Value: workload.NearestRank(srv.Dur, 0.5) - workload.NearestRank(req.Dur, 0.5), Unit: "us", N: len(srv.Dur),
			}
		}
		for key, d := range on.Digests {
			if s, ok := serve.Digests[key]; ok && s != d {
				rep.Failed++
				rep.Mismatches = append(rep.Mismatches,
					fmt.Sprintf("%s: replayed quote %d differs from the served response", w, key))
			}
		}
	}
	return rep
}

// printReport prints each traced pass's span table, then every metric as
// "metric value unit n=count [base=...]".
func printReport(w io.Writer, results map[string]*passResult, list []string, rep *workload.LayerReport) {
	for _, p := range list {
		r := results[p]
		if len(r.Spans) == 0 {
			continue
		}
		fmt.Fprintf(w, "pass %s: %d spans, %.1f ms\n", p, len(r.Spans), float64(r.WallNS)/1e6)
		fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "busy_ms", "self_p50_us", "self_p99_us")
		sums := summarize(r.Spans)
		for _, name := range slices.Sorted(maps.Keys(sums)) {
			s := sums[name]
			fmt.Fprintf(w, "  %-28s %8d %12.3f %12.1f %12.1f\n", name, s.Count, float64(s.BusyNS)/1e6,
				workload.NearestRank(s.Self, 0.50), workload.NearestRank(s.Self, 0.99))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "%s %.6g %s n=%d", k, m.Value, m.Unit, m.N)
		if m.Base != "" {
			fmt.Fprintf(w, " base=%s", m.Base)
		}
		fmt.Fprintln(w)
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(w, "MISMATCH:", m)
	}
}

// writeSpans writes every pass's spans, keyed by pass.
func writeSpans(path string, results map[string]*passResult, list []string) error {
	out := make(map[string][]Span)
	for _, p := range list {
		if len(results[p].Spans) > 0 {
			out[p] = results[p].Spans
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
