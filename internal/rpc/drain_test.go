package rpc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/variant"
)

// newDrainTestServer exposes an already-built Server over httptest;
// Close is called explicitly by the test (for the goroutine accounting)
// and again, idempotently, by the cleanup.
func newDrainTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestGracefulDrainUnderLoad is the drain contract under concurrent
// load: with several live streams and a POST burst in flight, Shutdown
// must hand every request a terminal response — a result,
// CodeShuttingDown, or CodeCanceled — and leave no goroutines behind.
func TestGracefulDrainUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()

	s := NewServer(Config{})
	ts := newDrainTestServer(t, s)
	// A slow solve keeps POSTs genuinely in flight across the drain.
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		time.Sleep(50 * time.Millisecond)
		return variant.Report{Key: g.Key()}, nil
	}

	// Streams and the POST burst share a dedicated transport, so their
	// connections can be torn down for the goroutine accounting.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	// Several live streams, each proven producing before the drain.
	const streams = 4
	live := make([]*stream, streams)
	for i := range live {
		live[i] = openStream(t, client, ts.URL, 1,
			`{"scenario":"tableIII","runs":1000000,"everyPaths":256,"budgetMs":60000}`)
		if first := live[i].next(t); first.isResponse() {
			t.Fatalf("stream %d ended before the drain: %+v", i, first)
		}
	}

	// A POST burst racing the shutdown.
	const posts = 16
	type postResult struct {
		resp Response
		err  error
	}
	results := make(chan postResult, posts)
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := rpcCall(i+1, "swap.solve", solveParams(i))
			httpResp, err := client.Post(ts.URL+"/rpc", "application/json", strings.NewReader(body))
			if err != nil {
				results <- postResult{err: err}
				return
			}
			defer httpResp.Body.Close()
			data, err := io.ReadAll(httpResp.Body)
			if err != nil {
				results <- postResult{err: err}
				return
			}
			var r Response
			if err := json.Unmarshal(data, &r); err != nil {
				results <- postResult{err: fmt.Errorf("decoding %q: %w", data, err)}
				return
			}
			results <- postResult{resp: r}
		}()
	}

	// Let part of the burst get in flight, then drain.
	time.Sleep(20 * time.Millisecond)
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(contextWithTimeout(t, 15*time.Second)) }()

	// Every stream receives a terminal line before its response ends.
	for i, st := range live {
		if m := st.terminal(t); m.Error == nil || m.Error.Code != CodeShuttingDown {
			t.Errorf("stream %d terminal = %+v, want code %d", i, m, CodeShuttingDown)
		}
		st.resp.Body.Close()
	}

	// Every POST receives a terminal response: a result, or an explicit
	// shutdown/cancellation error — never a hung or dropped connection.
	wg.Wait()
	close(results)
	var ok, refused int
	for r := range results {
		switch {
		case r.err != nil:
			t.Errorf("POST under drain failed at the transport level: %v", r.err)
		case r.resp.Error == nil:
			ok++
		case r.resp.Error.Code == CodeShuttingDown || r.resp.Error.Code == CodeCanceled:
			refused++
		default:
			t.Errorf("POST under drain = %+v, want result or shutdown error", r.resp.Error)
		}
	}
	if ok+refused != posts {
		t.Errorf("terminal responses = %d ok + %d refused, want %d total", ok, refused, posts)
	}

	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not return")
	}
	if n := s.stats.streamsActive.Load(); n != 0 {
		t.Errorf("active streams after drain = %d", n)
	}

	// Goroutine hygiene: tear down the clients and the listener, then the
	// count must return to (about) the pre-server baseline.
	tr.CloseIdleConnections()
	ts.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+5 },
		fmt.Sprintf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base))
}
