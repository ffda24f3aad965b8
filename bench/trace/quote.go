package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/bench/internal/workload"
	"repro/internal/rpc"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/variant"
)

// Traced quote counts: the first freshDue due times of quote-fresh (3 s of
// its schedule) and the first repeatDue of quote-repeat (5 s), after
// quote-repeat's warm-up.
const (
	freshDue  = 300
	repeatDue = 3000
)

// spansPerQuote bounds the spans one replayed quote records: the request,
// four request-level spans, and four per variant cell of the default trio.
const spansPerQuote = 17

// solveSpan names each registered variant's solve span, built once so
// recording a span allocates nothing.
var solveSpan = func() map[string]string {
	m := make(map[string]string)
	for _, k := range variant.Keys() {
		m[k] = "variant.solve." + k
	}
	return m
}()

// quoteInputs returns the workload's quotes and the traced prefix of its
// open-loop schedule.
func quoteInputs(cfg passConfig, w string) (workload.Quotes, []workload.Request) {
	if w == workload.QuoteFresh {
		q := workload.Fresh(cfg.seed, freshDue*workload.FreshSpacing, 0)
		return q, q.Open
	}
	q := workload.Repeat(cfg.seed, repeatDue*workload.RepeatSpacing, 0)
	return q, q.Open
}

// replayPass replays a quote workload one request at a time through the
// public functions the daemon calls, in its order: parse the envelope,
// decode the parameters and the inline scenario, resolve the variants,
// then per variant cell key, shared model and solve, and finally marshal
// the response. A duplicated request is replayed once: its copy is
// answered by the daemon's single flight or response cache, which the
// serve pass measures.
func replayPass(cfg passConfig, w string, spans bool, res *passResult) error {
	q, sched := quoteInputs(cfg, w)
	rec := newRecorder(spans, len(sched)*spansPerQuote)
	off := newRecorder(false, 0)
	res.Digests = map[int]string{}
	// The warm-up runs untraced, as set-up does in the end-to-end run.
	for _, key := range q.Warm {
		if _, err := replayQuote(off, q.Bodies[key]); err != nil {
			return err
		}
	}
	before := solvecache.ReadStats()
	start := time.Now()
	for i, r := range sched {
		if i > 0 && sched[i-1].Key == r.Key && sched[i-1].Due == r.Due {
			continue
		}
		res.Attempted++
		body, err := replayQuote(rec, q.Bodies[r.Key])
		if err != nil {
			res.Failed++
			continue
		}
		d, err := workload.Digest(body)
		if err != nil {
			res.Failed++
			continue
		}
		res.Digests[r.Key] = d
	}
	res.WallNS = int64(time.Since(start))
	after := solvecache.ReadStats()
	res.Spans = rec.spans
	if !spans {
		return nil
	}
	res.ratio(w+".solvecache.model_hit_ratio", after.ModelHits-before.ModelHits, after.ModelMisses-before.ModelMisses)
	res.ratio(w+".solvecache.solve_hit_ratio", after.SolveHits-before.SolveHits, after.SolveMisses-before.SolveMisses)
	res.count(w+".solvecache.evicted", after.Evicted-before.Evicted)
	sums := summarize(rec.spans)
	self := func(metric, span string) {
		if s := sums[span]; s != nil {
			res.metric(metric, workload.NearestRank(s.Self, 0.5), "us", s.Count)
		}
	}
	self(w+".rpc.parse_us", "rpc.parse")
	self(w+".rpc.decode_us", "rpc.decode")
	self(w+".rpc.marshal_us", "rpc.marshal")
	if w == workload.QuoteFresh {
		self("solvecache.model_us", "solvecache.model")
		self("variant.cellkey_us", "variant.cellkey")
		for _, key := range variant.DefaultKeys() {
			self("variant.solve_us."+key, "variant.solve."+key)
		}
	}
	return nil
}

// replayQuote runs one swap.solve request through the layers and returns
// the response the daemon would send.
func replayQuote(rec *recorder, body []byte) ([]byte, error) {
	start := time.Now()
	root := rec.begin(active{}, "request")
	defer root.end()

	s := rec.begin(root, "rpc.parse")
	req, rerr := rpc.ParseRequest(body)
	s.end()
	if rerr != nil {
		return nil, rerr
	}

	s = rec.begin(root, "rpc.decode")
	var p rpc.SolveParams
	dec := json.NewDecoder(bytes.NewReader(req.Params))
	dec.DisallowUnknownFields()
	err := dec.Decode(&p)
	var sc scenario.Scenario
	if err == nil {
		sc, err = scenario.Load(bytes.NewReader(p.Scenario))
	}
	s.end()
	if err != nil {
		return nil, err
	}

	s = rec.begin(root, "variant.resolve")
	games, err := variant.Resolve(p.Variant, sc)
	s.end()
	if err != nil {
		return nil, err
	}

	opts := variant.RunOpts{MCWorkers: 1, SkipMC: !p.MC}
	reports := make([]rpc.ReportJSON, len(games))
	for i, g := range games {
		cell := rec.begin(root, "variant.cell")
		s = rec.begin(cell, "variant.cellkey")
		_, err := variant.CellKey(sc, g.Key(), opts)
		s.end()
		if err == nil {
			s = rec.begin(cell, "solvecache.model")
			_, err = solvecache.SharedModel(sc.Params)
			s.end()
		}
		var r variant.Report
		if err == nil {
			s = rec.begin(cell, solveSpan[g.Key()])
			r, err = g.Solve(&variant.Context{Opts: opts}, sc)
			s.end()
		}
		cell.end()
		if err != nil {
			return nil, err
		}
		r.Key, r.Desc = g.Key(), g.Describe()
		reports[i] = reportJSON(r)
	}

	s = rec.begin(root, "rpc.marshal")
	defer s.end()
	result := rpc.SolveResult{Scenario: sc.Name, Variants: reports, ElapsedUs: time.Since(start).Microseconds()}
	return json.Marshal(rpc.NewResponse(req.ID, result))
}

// reportJSON is the daemon's wire form of an analytic variant report.
func reportJSON(r variant.Report) rpc.ReportJSON {
	out := rpc.ReportJSON{
		Key: r.Key, Desc: r.Desc, SR: r.SR, SRLabel: r.SRLabel,
		Values: make(map[string]float64, len(r.Values)),
		Lines:  r.Lines,
	}
	for _, v := range r.Values {
		out.Values[v.Name] = v.V
	}
	return out
}

// servePass sends the same requests through the daemon's real HTTP
// handler in-process, with swapd's default configuration, timing each
// ServeHTTP as rpc.serve. The two copies of a duplicated request are
// served concurrently, so they can coalesce as they do on the wire.
func servePass(cfg passConfig, w string, res *passResult) error {
	q, sched := quoteInputs(cfg, w)
	h := rpc.NewServer(rpc.Config{}).Handler()
	rec := newRecorder(true, len(q.Warm)+len(sched))
	res.Digests = map[int]string{}
	var mu sync.Mutex
	var elapsed, outside []float64
	serve := func(key int) {
		body := q.Bodies[key]
		req := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
		resp := httptest.NewRecorder()
		s := rec.begin(active{}, "rpc.serve")
		t := time.Now()
		h.ServeHTTP(resp, req)
		took := time.Since(t)
		s.end()
		var r struct {
			Result struct {
				ElapsedUs int64 `json:"elapsedUs"`
			} `json:"result"`
		}
		d, err := workload.Digest(resp.Body.Bytes())
		if err == nil {
			err = json.Unmarshal(resp.Body.Bytes(), &r)
		}
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		if err != nil || resp.Code != http.StatusOK {
			res.Failed++
			return
		}
		if prev, ok := res.Digests[key]; ok && prev != d {
			res.mismatch("%s: the two copies of quote %d were answered differently", w, key)
		}
		res.Digests[key] = d
		elapsed = append(elapsed, float64(r.Result.ElapsedUs))
		outside = append(outside, float64(took.Microseconds()-r.Result.ElapsedUs))
	}
	for _, key := range q.Warm {
		serve(key)
	}
	elapsed, outside = nil, nil
	warm := rec.spans
	rec.spans = nil
	before, err := serverStats(h)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < len(sched); i++ {
		if i+1 < len(sched) && sched[i+1].Due == sched[i].Due {
			var wg sync.WaitGroup
			for _, r := range sched[i : i+2] {
				wg.Add(1)
				go func(key int) {
					defer wg.Done()
					serve(key)
				}(r.Key)
			}
			wg.Wait()
			i++
			continue
		}
		serve(sched[i].Key)
	}
	res.WallNS = int64(time.Since(start))
	after, err := serverStats(h)
	if err != nil {
		return err
	}
	res.Spans = append(warm, rec.spans...)
	sum := summarize(rec.spans)["rpc.serve"]
	res.metric(w+".rpc.serve_p50_us", workload.NearestRank(sum.Dur, 0.50), "us", sum.Count)
	res.metric(w+".rpc.serve_p99_us", workload.NearestRank(sum.Dur, 0.99), "us", sum.Count)
	sortFloats(elapsed, outside)
	res.metric(w+".rpc.elapsed_p50_us", workload.NearestRank(elapsed, 0.50), "us", len(elapsed))
	res.metric(w+".rpc.elapsed_p99_us", workload.NearestRank(elapsed, 0.99), "us", len(elapsed))
	res.metric(w+".rpc.outside_p50_us", workload.NearestRank(outside, 0.50), "us", len(outside))
	res.ratio(w+".rpc.resp_cache.hit_ratio", after.RespCache.Hits-before.RespCache.Hits,
		after.RespCache.Misses-before.RespCache.Misses)
	res.count(w+".rpc.resp_cache.evictions", after.RespCache.Evictions-before.RespCache.Evictions)
	res.ratio(w+".rpc.flight.hit_ratio", after.Coalescing.Waiters-before.Coalescing.Waiters,
		after.Coalescing.Leaders-before.Coalescing.Leaders)
	res.count(w+".rpc.admission.queued_total", after.Admission.QueuedTotal-before.Admission.QueuedTotal)
	res.count(w+".rpc.admission.shed", after.Admission.Shed-before.Admission.Shed)
	res.count(w+".rpc.errors", after.Requests.Errors-before.Requests.Errors)
	return nil
}

// serverStats reads swapd.stats through the handler.
func serverStats(h http.Handler) (rpc.StatsResult, error) {
	req := httptest.NewRequest(http.MethodPost, "/rpc",
		bytes.NewReader([]byte(`{"jsonrpc":"2.0","id":"trace","method":"swapd.stats"}`)))
	resp := httptest.NewRecorder()
	h.ServeHTTP(resp, req)
	var env struct {
		Result *rpc.StatsResult `json:"result"`
	}
	if err := json.Unmarshal(resp.Body.Bytes(), &env); err != nil {
		return rpc.StatsResult{}, err
	}
	if env.Result == nil {
		return rpc.StatsResult{}, fmt.Errorf("swapd.stats: %s", resp.Body.Bytes())
	}
	return *env.Result, nil
}
