package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
)

// newDaemon serves a real rpc.Server over httptest, so run's gates read
// the same swapd.stats and cached:true tallies a spawned swapd emits. Its
// counters carry priorTraffic, as a long-lived daemon's do.
func newDaemon(t *testing.T) string {
	t.Helper()
	s := rpc.NewServer(rpc.Config{})
	ts := httptest.NewServer(priorTraffic(s.Handler()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL
}

// priorTraffic adds traffic that predates a run to a daemon's
// swapd.stats counters: 90 coalescing leaders and 10 waiters (hit rate
// 0.1), 5 shed requests, 2 recovered panics and 1000 retained-cell hits.
// A report that carried the daemon's cumulative counters instead of its
// passes' deltas would show them.
func priorTraffic(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if !bytes.Contains(body, []byte(`"swapd.stats"`)) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var env struct {
			JSONRPC string          `json:"jsonrpc"`
			ID      json.RawMessage `json:"id"`
			Result  rpc.StatsResult `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c := &env.Result.Coalescing
		c.Leaders += 90
		c.Waiters += 10
		c.HitRate = float64(c.Waiters) / float64(c.Leaders+c.Waiters)
		env.Result.Admission.Shed += 5
		env.Result.Requests.PanicsRecovered += 2
		env.Result.RespCache.Hits += 1000
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(env)
	})
}

// TestRunGates drives run end to end against an in-process daemon: a warm
// replay that must be served from retained cells and records a digest, a
// second run that must solve to the recorded bytes, and a run whose
// throughput gate cannot be met. Both rows of the warm run report their
// own pass's server counters, not the daemon's history: the replay is
// served from retained cells, so it coalesces nothing and its hit rate
// is 0.
func TestRunGates(t *testing.T) {
	base := newDaemon(t)
	dir := t.TempDir()
	digest, report := filepath.Join(dir, "digest.json"), filepath.Join(dir, "report.json")
	short := []string{"-addr", base, "-duration", "150ms", "-qps", "100", "-workers", "4",
		"-dup-every", "5", "-dup-burst", "2", "-mc-runs", "200"}

	var sb strings.Builder
	args := append(append([]string{}, short...), "-warm", "-min-warm-hit", "0.9", "-digest-out", digest, "-o", report)
	if err := run(args, &sb); err != nil {
		t.Fatalf("warm run: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"result digests", "gates passed"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("warm run output missing %q:\n%s", want, sb.String())
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Warm == nil {
		t.Fatal("warm run wrote no warm row")
	}
	for name, r := range map[string]Results{"cold": rep.Results, "warm": *rep.Warm} {
		if r.ServerShed != 0 || r.PanicsRecovered != 0 || r.RespCacheHits > uint64(3*r.Requests) {
			t.Errorf("%s row: server shed %d, panics %d, retained-cell hits %d for %d requests: not the pass's own",
				name, r.ServerShed, r.PanicsRecovered, r.RespCacheHits, r.Requests)
		}
		if r.Coalesced == 0 && r.HitRate != 0 {
			t.Errorf("%s row: hit rate %v with no coalesced response in the pass", name, r.HitRate)
		}
	}
	if w := rep.Warm; w.Coalesced != 0 {
		t.Errorf("warm row: %d coalesced responses, want 0 (every cell retained)", w.Coalesced)
	}

	sb.Reset()
	if err := run(append(append([]string{}, short...), "-digest-against", digest), &sb); err != nil {
		t.Fatalf("digest-against run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "shared results byte-identical") {
		t.Errorf("digest-against run compared nothing:\n%s", sb.String())
	}

	sb.Reset()
	err = run(append(append([]string{}, short...), "-min-qps", "1e9"), &sb)
	if err == nil || !strings.Contains(err.Error(), "gates failed") || !strings.Contains(err.Error(), "QPS < required") {
		t.Errorf("unmeetable -min-qps: err = %v, want the gates-failed error", err)
	}
}

// TestGenerateWithoutSuccessReportsZeroLatency pins the empty pass: when
// every request is shed there is no latency sample, and the percentiles
// read zero instead of failing the pass.
func TestGenerateWithoutSuccessReportsZeroLatency(t *testing.T) {
	ts, _ := shedThenServe(1 << 30)
	defer ts.Close()
	r, _ := generate(newClient(2), ts.URL, genConfig{
		qps: 200, duration: 50 * time.Millisecond, seed: 1, weights: []string{"tableIII"}, workers: 2,
	})
	if r.Shed == 0 || r.Shed != r.Requests {
		t.Fatalf("shed %d of %d requests, want all", r.Shed, r.Requests)
	}
	if r.P50Us != 0 || r.P90Us != 0 || r.P99Us != 0 || r.MaxUs != 0 {
		t.Errorf("percentiles = %v/%v/%v/%v, want zeros", r.P50Us, r.P90Us, r.P99Us, r.MaxUs)
	}
}

// TestPanicTally checks the chaos harness's panic accounting: a pass
// against a daemon whose injector panics on a fifth of the requests that
// reach it recovers exactly the panics fired, and a pass whose recovered
// panics differ from the fires fails the check. Without fault tallies
// there is nothing to compare. Seed 11's rpc.panic draws spare the
// opening snapshot, fire on the pass's first visit and never fire three
// times in a row within 100 visits, so both snapshots are read.
func TestPanicTally(t *testing.T) {
	in, err := fault.NewFromSpec(11, "rpc.panic=0.2")
	if err != nil {
		t.Fatal(err)
	}
	s := rpc.NewServer(rpc.Config{Fault: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r, _, err := measure(newClient(2), ts.URL, genConfig{
		qps: 200, duration: 100 * time.Millisecond, seed: 1, weights: []string{"tableIII"},
		dupEvery: 2, dupBurst: 1, mcRuns: 100, workers: 2, chaos: true,
	})
	if err != nil || r.PanicsRecovered == 0 {
		t.Fatalf("pass against a panicking daemon: %d panics recovered, check %v; want > 0 and nil", r.PanicsRecovered, err)
	}

	var before, after rpc.StatsResult
	after.Requests.PanicsRecovered = 3
	if err := checkPanicTally(before, after); err != nil {
		t.Errorf("no fault tallies: %v, want no check", err)
	}
	after.Faults = map[string]uint64{fault.KeyRPCPanic: 3}
	if err := checkPanicTally(before, after); err != nil {
		t.Errorf("3 fires, 3 recoveries: %v", err)
	}
	after.Faults[fault.KeyRPCPanic] = 2
	if err := checkPanicTally(before, after); err == nil || !strings.Contains(err.Error(), "recovered 3 panics") {
		t.Errorf("3 recoveries, 2 fires: err = %v, want a mismatch", err)
	}
}

// TestFetchStatsRetries checks that a swapd.stats read answered with an
// error (a chaos daemon injects them into every cheap method) is retried
// rather than costing the pass its server-side counters.
func TestFetchStatsRetries(t *testing.T) {
	h := rpc.NewServer(rpc.Config{}).Handler()
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			io.WriteString(w, `{"jsonrpc":"2.0","id":"stats","error":{"code":-32603,"message":"injected fault: rpc.error"}}`)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	st, ok := fetchStats(http.DefaultClient, ts.URL)
	if !ok || st.Requests.ByMethod["swapd.stats"] != 1 {
		t.Fatalf("fetchStats after two injected errors: ok=%v, stats %+v", ok, st.Requests)
	}
}
