package rpc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// streamLine is one NDJSON line of a swap.simulate response: the terminal
// response (ID set, no Method) or a swap.progress notification.
type streamLine struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

func (m streamLine) isResponse() bool { return m.Method == "" }

// streamClient bounds every test stream, body reads included.
var streamClient = &http.Client{Timeout: 60 * time.Second}

// stream is one open swap.simulate response.
type stream struct {
	resp *http.Response
	br   *bufio.Reader
}

// openStream POSTs one swap.simulate request; the cleanup closes the
// response, which drops the connection if the stream is still live.
func openStream(t *testing.T, client *http.Client, url string, id int, params string) *stream {
	t.Helper()
	resp, err := client.Post(url+"/rpc", "application/json",
		strings.NewReader(rpcCall(id, "swap.simulate", params)))
	if err != nil {
		t.Fatalf("POST swap.simulate: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &stream{resp: resp, br: bufio.NewReader(resp.Body)}
}

// next reads the stream's next line.
func (st *stream) next(t *testing.T) streamLine {
	t.Helper()
	data, err := st.br.ReadBytes('\n')
	if len(data) == 0 {
		t.Fatalf("reading stream line: %v", err)
	}
	var m streamLine
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding stream line %q: %v", data, err)
	}
	return m
}

// terminal skips progress lines and returns the terminal response.
func (st *stream) terminal(t *testing.T) streamLine {
	t.Helper()
	for {
		if m := st.next(t); m.isResponse() {
			return m
		}
	}
}

// simulateResult runs one swap.simulate stream to its terminal line and
// returns the result or the error.
func simulateResult(t *testing.T, url string, id int, params string) (SimulateResult, *Error) {
	t.Helper()
	m := openStream(t, streamClient, url, id, params).terminal(t)
	if m.Error != nil {
		return SimulateResult{}, m.Error
	}
	var res SimulateResult
	if err := json.Unmarshal(m.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return res, nil
}

// recordStreams wraps the stream seam around runStream and hands each
// stream's terminal response to the returned channel, so a test can see
// how the engine ended even when the client never reads it.
func recordStreams(s *Server) <-chan Response {
	ends := make(chan Response, 16) // above any one test's stream count, so the seam never blocks
	s.stream = func(ctx context.Context, id json.RawMessage, cfg simulateConfig, progress func(ProgressEvent) error) Response {
		resp := s.runStream(ctx, id, cfg, progress)
		ends <- resp
		return resp
	}
	return ends
}

// TestStreamProgressAndResult runs a full stream over POST /rpc: an NDJSON
// response whose progress lines grow monotonically, then the terminal
// response, with the bookkeeping settled by the time it arrives.
func TestStreamProgressAndResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st := openStream(t, streamClient, ts.URL, 7,
		`{"scenario":"tableIII","runs":2000,"everyPaths":256,"budgetMs":30000}`)
	if ct := st.resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		snapshots int
		lastPaths int
		final     *SimulateResult
	)
	for final == nil {
		m := st.next(t)
		if m.isResponse() {
			if string(m.ID) != "7" {
				t.Fatalf("terminal response id = %s, want 7", m.ID)
			}
			if m.Error != nil {
				t.Fatalf("stream failed: %+v", m.Error)
			}
			final = new(SimulateResult)
			if err := json.Unmarshal(m.Result, final); err != nil {
				t.Fatalf("decoding result: %v", err)
			}
			continue
		}
		if m.Method != "swap.progress" {
			t.Fatalf("unexpected notification %q", m.Method)
		}
		var ev ProgressEvent
		if err := json.Unmarshal(m.Params, &ev); err != nil {
			t.Fatalf("decoding progress: %v", err)
		}
		if string(ev.ID) != "7" {
			t.Fatalf("progress id = %s, want 7", ev.ID)
		}
		if ev.Paths <= lastPaths {
			t.Fatalf("progress went backwards: %d after %d", ev.Paths, lastPaths)
		}
		if ev.Successes < 0 || ev.Successes > ev.Paths {
			t.Fatalf("successes = %d of %d paths", ev.Successes, ev.Paths)
		}
		lastPaths = ev.Paths
		snapshots++
	}
	if rest, _ := io.ReadAll(st.br); len(rest) != 0 {
		t.Errorf("bytes after the terminal line: %q", rest)
	}
	if snapshots < 4 {
		t.Errorf("snapshots = %d, want >= 4 (2000 paths / 256 everyPaths)", snapshots)
	}
	if final.Paths != 2000 || final.Scenario != "tableIII" || final.Variant != "basic" {
		t.Errorf("final = %+v", final)
	}
	if final.Snapshots != snapshots {
		t.Errorf("final.Snapshots = %d, client saw %d", final.Snapshots, snapshots)
	}
	if final.SR < 0 || final.SR > 1 || final.Lo > final.SR || final.Hi < final.SR {
		t.Errorf("interval ordering broken: %+v", final)
	}
	if n := s.stats.streamsActive.Load(); n != 0 {
		t.Errorf("active streams after completion = %d", n)
	}
	if n := s.adm.stats().InFlight; n != 0 {
		t.Errorf("admission inFlight after completion = %d", n)
	}
}

// TestStreamClientDisconnect drops the connection after the first
// progress line: the request context cancels the engine (its terminal
// response is -32002), the admission slot comes back and streams.active
// returns to 0.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ends := recordStreams(s)
	st := openStream(t, streamClient, ts.URL, 9,
		`{"scenario":"tableIII","runs":1000000,"everyPaths":256,"budgetMs":60000}`)
	if first := st.next(t); first.isResponse() {
		t.Fatalf("stream ended before the disconnect: %+v", first)
	}
	st.resp.Body.Close()
	select {
	case resp := <-ends:
		if resp.Error == nil || resp.Error.Code != CodeCanceled {
			t.Fatalf("engine ended with %+v, want code %d", resp, CodeCanceled)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine kept running after the client disconnected")
	}
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 }, "stream still active after disconnect")
	waitFor(t, func() bool { return s.adm.stats().InFlight == 0 }, "admission slot leaked")
}

// TestStreamCancelMidRun cancels the client's request context once the
// stream is producing, the way a caller abandons a run: the engine ends
// with -32002, the client's read fails with its own cancellation, and the
// server goes on to serve the next stream to completion.
func TestStreamCancelMidRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ends := recordStreams(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/rpc",
		strings.NewReader(rpcCall(9, "swap.simulate",
			`{"scenario":"tableIII","runs":1000000,"everyPaths":256,"budgetMs":60000}`)))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := streamClient.Do(req)
	if err != nil {
		t.Fatalf("POST swap.simulate: %v", err)
	}
	defer resp.Body.Close()
	st := &stream{resp: resp, br: bufio.NewReader(resp.Body)}
	if first := st.next(t); first.isResponse() {
		t.Fatalf("stream ended before cancellation: %+v", first)
	}
	cancel()
	select {
	case end := <-ends:
		if end.Error == nil || end.Error.Code != CodeCanceled {
			t.Fatalf("engine ended with %+v, want code %d", end, CodeCanceled)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine kept running after the client cancelled")
	}
	if _, err := io.ReadAll(st.br); err == nil {
		t.Error("reading a cancelled stream succeeded, want the cancellation error")
	}
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 }, "stream still active after cancellation")
	res, rpcErr := simulateResult(t, ts.URL, 10, `{"scenario":"tableIII","runs":500,"budgetMs":30000}`)
	if rpcErr != nil {
		t.Fatalf("stream after cancellation failed: %+v", rpcErr)
	}
	if res.Paths != 500 {
		t.Errorf("stream after cancellation ran %d paths, want 500", res.Paths)
	}
}

// TestStreamRequiresID checks a simulate notification (no stream handle)
// is rejected with a single JSON-RPC error, not a stream.
func TestStreamRequiresID(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, status := post(t, ts.URL, `{"jsonrpc":"2.0","method":"swap.simulate","params":{"scenario":"tableIII"}}`)
	if status != http.StatusOK || resp.Error == nil || resp.Error.Code != CodeInvalidRequest {
		t.Fatalf("status %d, response %+v; want 200 and invalid request", status, resp)
	}
	if n := s.stats.streamsStarted.Load(); n != 0 {
		t.Errorf("streams started = %d, want 0", n)
	}
}

// TestStreamBudget checks a stream that outlives its budget ends with a
// terminal CodeBudgetExceeded line.
func TestStreamBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := openStream(t, streamClient, ts.URL, 4,
		`{"scenario":"tableIII","runs":1000000,"everyPaths":1000000,"budgetMs":100}`).terminal(t)
	if m.Error == nil || m.Error.Code != CodeBudgetExceeded {
		t.Fatalf("terminal line = %+v, want code %d", m, CodeBudgetExceeded)
	}
}

// TestStreamShutdownDrains starts a long stream, shuts the server down,
// and checks the client reads a terminal CodeShuttingDown line before the
// response ends — the graceful-drain contract.
func TestStreamShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st := openStream(t, streamClient, ts.URL, 3,
		`{"scenario":"tableIII","runs":1000000,"everyPaths":256,"budgetMs":60000}`)
	if first := st.next(t); first.isResponse() {
		t.Fatalf("stream ended before shutdown: %+v", first)
	}
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(contextWithTimeout(t, 10*time.Second)) }()

	m := st.terminal(t)
	if string(m.ID) != "3" || m.Error == nil || m.Error.Code != CodeShuttingDown {
		t.Fatalf("terminal line = %+v, want id 3 and code %d", m, CodeShuttingDown)
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return")
	}
	if n := s.stats.streamsActive.Load(); n != 0 {
		t.Errorf("active streams after shutdown = %d", n)
	}
}

// TestStreamStalledReader checks the per-line write deadline: a client
// that stops reading blocks a progress write for at most the deadline,
// after which the write fails, the stream is cancelled, writeFailures
// counts it, and the slot comes back.
func TestStreamStalledReader(t *testing.T) {
	s := NewServer(Config{})
	s.ioTimeout = 50 * time.Millisecond
	// Small socket buffers on both ends, so a few kilobytes of unread
	// lines are enough to block the server's writes.
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			c.(*net.TCPConn).SetWriteBuffer(1024)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	// A seam that writes progress as fast as the socket takes it, so the
	// kernel buffers fill without waiting on the engine.
	s.stream = func(ctx context.Context, id json.RawMessage, cfg simulateConfig, progress func(ProgressEvent) error) Response {
		for n := 1; progress(ProgressEvent{ID: id, Paths: n}) == nil; n++ {
		}
		return NewErrorResponse(id, s.asRPCError(ctx.Err()))
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(1024)
	body := rpcCall(1, "swap.simulate", `{"scenario":"tableIII","budgetMs":60000}`)
	fmt.Fprintf(conn, "POST /rpc HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body)
	// Never read: the server's writes back up until the deadline trips.
	waitFor(t, func() bool { return s.stats.writeFailures.Load() >= 1 }, "stalled write never failed")
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 }, "stream outlived its stalled reader")
	waitFor(t, func() bool { return s.adm.stats().InFlight == 0 }, "admission slot leaked")
}

// TestStreamWriteFaultCancels drives the stream.write.error fault: the
// first progress write fails, the engine is cancelled rather than left
// running for nobody, the failure is counted, and the client still gets
// the terminal -32002 line.
func TestStreamWriteFaultCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Fault: mustInjector(t, 9, "stream.write.error=1")})
	m := openStream(t, streamClient, ts.URL, 1,
		`{"scenario":"tableIII","runs":1000000,"everyPaths":256,"budgetMs":60000}`).next(t)
	if !m.isResponse() || m.Error == nil || m.Error.Code != CodeCanceled {
		t.Fatalf("first line = %+v, want the terminal code %d (no progress line gets through)", m, CodeCanceled)
	}
	if n := s.stats.writeFailures.Load(); n != 1 {
		t.Errorf("writeFailures = %d, want 1", n)
	}
	if n := s.stats.streamsActive.Load(); n != 0 {
		t.Errorf("active streams = %d, want 0", n)
	}
	if n := s.adm.stats().InFlight; n != 0 {
		t.Errorf("admission inFlight = %d, want 0", n)
	}
}

// TestStreamShedBeforeStart checks a saturated daemon sheds a stream
// before its first line, with the HTTP status mapping of every other
// method: 503, Retry-After and a -32005 body.
func TestStreamShedBeforeStart(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1, QueueWait: 5 * time.Millisecond})
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatalf("occupying the slot: %+v", err)
	}
	defer s.adm.release()
	st := openStream(t, streamClient, ts.URL, 1, `{"scenario":"tableIII","runs":100}`)
	if st.resp.StatusCode != http.StatusServiceUnavailable || st.resp.Header.Get("Retry-After") == "" {
		t.Errorf("status %d, Retry-After %q; want 503 with a Retry-After", st.resp.StatusCode, st.resp.Header.Get("Retry-After"))
	}
	if m := st.next(t); m.Error == nil || m.Error.Code != CodeOverloaded {
		t.Fatalf("response = %+v, want code %d", m, CodeOverloaded)
	}
	if n := s.stats.streamsStarted.Load(); n != 0 {
		t.Errorf("streams started = %d, want 0", n)
	}
}
