package rpc

import (
	"context"
	"encoding/json"
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
// terminal -32603, releases its admission slot, and leaves the
// connection serving.
func TestStreamPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.stream = func(ctx context.Context, cancel context.CancelFunc, sess *wsSession, id json.RawMessage, cfg simulateConfig) Response {
		panic("boom")
	}
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "swap.simulate", `{"scenario":"tableIII"}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error == nil || m.Error.Code != CodeInternalError {
		t.Fatalf("terminal frame = %+v, want -32603", m)
	}
	if !strings.Contains(m.Error.Message, "stream panicked") {
		t.Errorf("message = %q, want the stream panic named", m.Error.Message)
	}
	if n := s.stats.panics.Load(); n != 1 {
		t.Errorf("panics recovered = %d, want 1", n)
	}
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 }, "panicked stream still active")
	if st := s.adm.stats(); st.InFlight != 0 {
		t.Errorf("admission inFlight = %d after stream panic, want 0", st.InFlight)
	}
	// The connection survives: a real (short) stream completes after it.
	s.stream = s.runStream
	if err := conn.WriteMessage([]byte(rpcCall(2, "swap.simulate",
		`{"scenario":"tableIII","runs":500,"budgetMs":30000}`))); err != nil {
		t.Fatalf("write after panic: %v", err)
	}
	for {
		m = readMsg(t, conn)
		if m.isResponse() && string(m.ID) == "2" {
			break
		}
	}
	if m.Error != nil {
		t.Fatalf("stream after recovered panic: %+v", m.Error)
	}
}

// TestWSInjectedPanic drives the call-path panic fault over the
// WebSocket channel: the panic becomes -32603 and both connection and
// daemon keep serving.
func TestWSInjectedPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 3, "rpc.panic=1")})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "swap.solve", `{"scenario":"tableIII"}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error == nil || m.Error.Code != CodeInternalError {
		t.Fatalf("frame = %+v, want injected-panic -32603", m)
	}
	if n := s.stats.panics.Load(); n < 1 {
		t.Errorf("panics recovered = %d, want >= 1", n)
	}
	// The connection and daemon survive the recovered panic: the next call
	// still gets a response (another injected panic at probability 1, but
	// answered — never a dead connection).
	if err := conn.WriteMessage([]byte(rpcCall(2, "swapd.stats", ""))); err != nil {
		t.Fatalf("write after panic: %v", err)
	}
	for {
		m = readMsg(t, conn)
		if m.isResponse() && string(m.ID) == "2" {
			break
		}
	}
	if n := s.stats.panics.Load(); n < 2 {
		t.Errorf("panics recovered = %d, want >= 2 (the daemon kept answering)", n)
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

// TestWSSlowLorisClosed checks the read deadline: a peer that starts a
// frame and stalls is disconnected once the read timeout passes, instead
// of holding the read loop (and the connection slot) forever.
func TestWSSlowLorisClosed(t *testing.T) {
	s, ts := newTestServer(t, Config{WSReadTimeout: 150 * time.Millisecond})
	conn := dialTest(t, ts.URL)

	// A whole request inside the window still answers.
	if err := conn.WriteMessage([]byte(rpcCall(1, "scenario.list", ""))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if m := readMsg(t, conn); m.Error != nil {
		t.Fatalf("scenario.list = %+v", m.Error)
	}

	// Now drip one header byte and stall: the server must cut us off.
	if _, err := conn.conn.Write([]byte{0x81}); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conn.ReadMessage()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned a message from a half-sent frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server kept a stalled connection past its read timeout")
	}
	waitFor(t, func() bool {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		return len(s.conns) == 0
	}, "stalled connection never left the registry")
}

// TestWSWriteFaultCancelsStream checks the stalled-writer contract via
// the ws.write.error fault: when progress writes fail, the stream is
// cancelled rather than left blocking the engine, the failure is
// counted, and the admission slot comes back.
func TestWSWriteFaultCancelsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 9, "ws.write.error=1")})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "swap.simulate",
		`{"scenario":"tableIII","runs":500000,"everyPaths":256,"budgetMs":60000}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Every server write fails (including the terminal response), so the
	// contract is observed server-side: the write failure is tallied, the
	// stream dies promptly, and its slot is released.
	waitFor(t, func() bool { return s.stats.wsWriteFailures.Load() >= 1 }, "write failure never tallied")
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 }, "stream outlived its dead writer")
	waitFor(t, func() bool { return s.adm.stats().InFlight == 0 }, "admission slot leaked")
}

// TestWSFrameDropFault checks dropped inbound frames vanish without a
// dispatch: the injector tallies the drop and no request is recorded.
func TestWSFrameDropFault(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 11, "ws.frame.drop=1")})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "scenario.list", ""))); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, func() bool { return s.cfg.Fault.Counts()[fault.KeyWSFrameDrop] >= 1 },
		"drop point never fired")
	if n := s.stats.requests.Load(); n != 0 {
		t.Errorf("requests = %d, want 0 (the frame was dropped before dispatch)", n)
	}
}

// TestWSFrameTruncateFault checks truncated inbound frames surface as
// parse errors — corruption degrades to a JSON-RPC error, not a wedged
// connection.
func TestWSFrameTruncateFault(t *testing.T) {
	_, ts := newTestServer(t, Config{Fault: mustInjector(t, 13, "ws.frame.truncate=1")})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "scenario.list", ""))); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error == nil || m.Error.Code != CodeParseError {
		t.Fatalf("frame = %+v, want parse error from the truncated request", m)
	}
}

// TestWSReadStallFault checks the ws.read.stall point delays dispatch
// without breaking it.
func TestWSReadStallFault(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 17, "ws.read.stall=1:30ms")})
	conn := dialTest(t, ts.URL)
	start := time.Now()
	if err := conn.WriteMessage([]byte(rpcCall(1, "scenario.list", ""))); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error != nil {
		t.Fatalf("scenario.list through a stalled read = %+v", m.Error)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("response in %v, want >= ~30ms injected stall", elapsed)
	}
	if s.cfg.Fault.Counts()[fault.KeyWSReadStall] < 1 {
		t.Error("stall point never tallied")
	}
}
