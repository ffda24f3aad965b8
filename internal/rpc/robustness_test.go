package rpc

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/variant"
)

// mustInjector builds a fault injector or fails the test.
func mustInjector(t *testing.T, seed int64, spec string) *fault.Injector {
	t.Helper()
	in, err := fault.NewFromSpec(seed, spec)
	if err != nil {
		t.Fatalf("NewFromSpec(%q): %v", spec, err)
	}
	return in
}

// TestSolvePanicIsolated checks panic isolation on the solve path: a
// panicking solve yields -32603 for its requester, bumps the recovered
// counter, and leaves the daemon serving.
func TestSolvePanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.solve = func(variant.Game, scenario.Scenario, variant.RunOpts) (variant.Report, error) { panic("boom") }

	resp, status := post(t, ts.URL, rpcCall(1, "swap.solve", solveParams(0)))
	if status != http.StatusOK {
		t.Errorf("status = %d, want 200 (the error is JSON-RPC level)", status)
	}
	if resp.Error == nil || resp.Error.Code != CodeInternalError {
		t.Fatalf("error = %+v, want %d", resp.Error, CodeInternalError)
	}
	if !strings.Contains(resp.Error.Message, "panicked") {
		t.Errorf("message = %q, want it to name the panic", resp.Error.Message)
	}
	if n := s.stats.panics.Load(); n != 1 {
		t.Errorf("panics recovered = %d, want 1", n)
	}

	// The daemon survived: an honest solve still works.
	s.solve = variant.RunCell
	if resp, _ := post(t, ts.URL, rpcCall(2, "swap.solve", `{"scenario":"tableIII"}`)); resp.Error != nil {
		t.Errorf("solve after recovered panic: %+v", resp.Error)
	}
}

// TestSolvePanicSettlesWaiters checks the coalescing contract under a
// leader panic: the waiter is settled with errCellPanicked, mapped to
// its own -32603 — never left hanging, never a dead daemon.
func TestSolvePanicSettlesWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.solve = func(variant.Game, scenario.Scenario, variant.RunOpts) (variant.Report, error) {
		entered <- struct{}{}
		<-release
		panic("boom")
	}

	params := `{"scenario":"tableIII","budgetMs":10000}`
	responses := make(chan Response, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts.URL, rpcCall(i+1, "swap.solve", params))
			responses <- resp
		}()
	}
	<-entered // the leader is inside the solve
	// The second request joins the leader's flight as a waiter.
	waitFor(t, func() bool { return snapshot(s.cells).Coalescing.Waiters >= 1 }, "waiter never coalesced")
	close(release) // leader panics; the cell tier settles the waiter, then re-raises
	wg.Wait()
	close(responses)

	for resp := range responses {
		if resp.Error == nil || resp.Error.Code != CodeInternalError {
			t.Errorf("response = %+v, want %d for both leader and waiter", resp.Error, CodeInternalError)
		}
	}
	if n := s.stats.panics.Load(); n != 1 {
		t.Errorf("panics recovered = %d, want 1 (one leader panic)", n)
	}
}

// TestStreamPanicIsolated checks a panicking stream body becomes its
// terminal -32603, releases its admission slot, and leaves the daemon
// streaming.
func TestStreamPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.stream = func(context.Context, json.RawMessage, simulateConfig, func(ProgressEvent) error) Response {
		panic("boom")
	}
	m := openStream(t, streamClient, ts.URL, 1, `{"scenario":"tableIII"}`).terminal(t)
	if m.Error == nil || m.Error.Code != CodeInternalError {
		t.Fatalf("terminal line = %+v, want -32603", m)
	}
	if !strings.Contains(m.Error.Message, "stream panicked") {
		t.Errorf("message = %q, want the stream panic named", m.Error.Message)
	}
	if n := s.stats.panics.Load(); n != 1 {
		t.Errorf("panics recovered = %d, want 1", n)
	}
	if n := s.stats.streamsActive.Load(); n != 0 {
		t.Errorf("active streams after the panic = %d, want 0", n)
	}
	if st := s.adm.stats(); st.InFlight != 0 {
		t.Errorf("admission inFlight = %d after stream panic, want 0", st.InFlight)
	}
	// The daemon survives: a real (short) stream completes after it.
	s.stream = s.runStream
	if _, rerr := simulateResult(t, ts.URL, 2, `{"scenario":"tableIII","runs":500,"budgetMs":30000}`); rerr != nil {
		t.Fatalf("stream after recovered panic: %+v", rerr)
	}
}

// TestInjectedPanic drives the call-path panic fault over HTTP: each
// panic becomes -32603 and the daemon keeps answering.
func TestInjectedPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 3, "rpc.panic=1")})
	for i, method := range []string{"swap.solve", "swapd.stats"} {
		r, _ := post(t, ts.URL, rpcCall(i+1, method, `{"scenario":"tableIII"}`))
		if r.Error == nil || r.Error.Code != CodeInternalError {
			t.Fatalf("%s: response %+v, want injected-panic -32603", method, r)
		}
	}
	// Both calls were answered — never a dead daemon.
	if n := s.stats.panics.Load(); n != 2 {
		t.Errorf("panics recovered = %d, want 2", n)
	}
}

// TestInjectedErrorAndLatency checks the rpc.error and rpc.latency fault
// points: the error surfaces as -32603 naming the injection, the latency
// stretches the request, and swapd.stats tallies both by registry key.
func TestInjectedErrorAndLatency(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Fault: mustInjector(t, 5, "rpc.error=1,rpc.latency=1:50ms"),
	})
	start := time.Now()
	resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII"}`))
	if resp.Error == nil || resp.Error.Code != CodeInternalError {
		t.Fatalf("error = %+v, want injected -32603", resp.Error)
	}
	if !strings.Contains(resp.Error.Message, "injected fault") {
		t.Errorf("message = %q, want the injection named", resp.Error.Message)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("request took %v, want >= ~50ms injected latency", elapsed)
	}
	counts := s.cfg.Fault.Counts()
	if counts[fault.KeyRPCError] < 1 || counts[fault.KeyRPCLatency] < 1 {
		t.Errorf("fault counts = %v, want both points fired", counts)
	}
}

// TestBodyReadDeadline checks the slow-loris guard on POST /rpc: a
// client that announces a body and trickles it is answered 400 and
// disconnected once the read deadline passes, instead of holding a
// handler forever.
func TestBodyReadDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.ioTimeout = 100 * time.Millisecond
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /rpc HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection still open 5s into a trickled body: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("trickled body cut off after %v, want ~100ms", elapsed)
	}
	if !strings.HasPrefix(string(got), "HTTP/1.1 400") || !strings.Contains(string(got), "unreadable body") {
		t.Errorf("response = %q, want a 400 naming the unreadable body", got)
	}
}
