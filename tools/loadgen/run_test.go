package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
)

// newDaemon serves a real rpc.Server over httptest, so run's gates read
// the same swapd.stats and cached:true tallies a spawned swapd emits.
func newDaemon(t *testing.T) string {
	t.Helper()
	s := rpc.NewServer(rpc.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL
}

// TestRunGates drives run end to end against an in-process daemon: a warm
// replay that must be served from retained cells and records a digest, a
// second run that must solve to the recorded bytes, and a run whose
// throughput gate cannot be met.
func TestRunGates(t *testing.T) {
	base := newDaemon(t)
	digest := filepath.Join(t.TempDir(), "digest.json")
	short := []string{"-addr", base, "-duration", "150ms", "-qps", "100", "-workers", "4",
		"-dup-every", "5", "-dup-burst", "2", "-mc-runs", "200"}

	var sb strings.Builder
	args := append(append([]string{}, short...), "-warm", "-min-warm-hit", "0.9", "-digest-out", digest)
	if err := run(args, &sb); err != nil {
		t.Fatalf("warm run: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"result digests", "gates passed"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("warm run output missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if err := run(append(append([]string{}, short...), "-digest-against", digest), &sb); err != nil {
		t.Fatalf("digest-against run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "shared results byte-identical") {
		t.Errorf("digest-against run compared nothing:\n%s", sb.String())
	}

	sb.Reset()
	err := run(append(append([]string{}, short...), "-min-qps", "1e9"), &sb)
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
	rep, _ := generate(ts.URL, genConfig{
		qps: 200, duration: 50 * time.Millisecond, seed: 1, weights: []string{"tableIII"}, workers: 2,
	})
	r := rep.Results
	if r.Shed == 0 || r.Shed != r.Requests {
		t.Fatalf("shed %d of %d requests, want all", r.Shed, r.Requests)
	}
	if r.P50Us != 0 || r.P90Us != 0 || r.P99Us != 0 || r.MaxUs != 0 {
		t.Errorf("percentiles = %v/%v/%v/%v, want zeros", r.P50Us, r.P90Us, r.P99Us, r.MaxUs)
	}
}
