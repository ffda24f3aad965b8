package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// wsMsg is the client-side demultiplexer: a WebSocket frame is either a
// response (ID set) or a swap.progress notification (Method set).
type wsMsg struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

func (m wsMsg) isResponse() bool { return m.Method == "" }

// dialTest opens a WebSocket client against the test server.
func dialTest(t *testing.T, httpURL string) *WSConn {
	t.Helper()
	conn, err := DialWS("ws"+strings.TrimPrefix(httpURL, "http")+"/ws", 5*time.Second)
	if err != nil {
		t.Fatalf("DialWS: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readMsg reads one frame with a test deadline (the read itself has no
// timeout; the cleanup closing the connection unblocks a stuck reader).
func readMsg(t *testing.T, conn *WSConn) wsMsg {
	t.Helper()
	type read struct {
		data []byte
		err  error
	}
	ch := make(chan read, 1)
	go func() {
		data, err := conn.ReadMessage()
		ch <- read{data, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("ReadMessage: %v", r.err)
		}
		var m wsMsg
		if err := json.Unmarshal(r.data, &m); err != nil {
			t.Fatalf("decoding frame %q: %v", r.data, err)
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a frame")
	}
	panic("unreachable")
}

// TestWSSolve runs a request/response method over the WebSocket channel.
func TestWSSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(1, "swap.solve", `{"scenario":"tableIII"}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if !m.isResponse() || m.Error != nil {
		t.Fatalf("frame = %+v, want success response", m)
	}
	var res SolveResult
	if err := json.Unmarshal(m.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Scenario != "tableIII" || len(res.Variants) == 0 {
		t.Fatalf("result = %+v", res)
	}
}

// TestWSSimulateStream runs a full stream: progress notifications with
// monotonically growing merged prefixes, then the terminal response.
func TestWSSimulateStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(7, "swap.simulate",
		`{"scenario":"tableIII","runs":2000,"everyPaths":256,"budgetMs":30000}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	var (
		snapshots int
		lastPaths int
		final     *SimulateResult
	)
	for final == nil {
		m := readMsg(t, conn)
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
}

// TestWSSimulateCancelMidRun cancels a long stream after the first
// snapshot and checks the terminal error is CodeCanceled.
func TestWSSimulateCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(9, "swap.simulate",
		`{"scenario":"tableIII","runs":500000,"everyPaths":256,"budgetMs":60000}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Wait for proof the stream is producing, then cancel it.
	first := readMsg(t, conn)
	if first.isResponse() {
		t.Fatalf("stream ended before cancellation: %+v", first)
	}
	if err := conn.WriteMessage([]byte(rpcCall(10, "swap.cancel", `{"id":9}`))); err != nil {
		t.Fatalf("write cancel: %v", err)
	}
	var sawCancelAck, sawTerminal bool
	for !sawCancelAck || !sawTerminal {
		m := readMsg(t, conn)
		switch {
		case !m.isResponse(): // late progress frames may interleave
		case string(m.ID) == "10":
			var ack struct {
				Canceled bool `json:"canceled"`
			}
			if err := json.Unmarshal(m.Result, &ack); err != nil || !ack.Canceled {
				t.Fatalf("cancel ack = %+v (%v), want canceled:true", m, err)
			}
			sawCancelAck = true
		case string(m.ID) == "9":
			if m.Error == nil || m.Error.Code != CodeCanceled {
				t.Fatalf("terminal frame = %+v, want code %d", m, CodeCanceled)
			}
			sawTerminal = true
		default:
			t.Fatalf("unexpected frame %+v", m)
		}
	}
	// Cancelling a dead stream reports canceled:false.
	if err := conn.WriteMessage([]byte(rpcCall(11, "swap.cancel", `{"id":9}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	for {
		m := readMsg(t, conn)
		if !m.isResponse() || string(m.ID) != "11" {
			continue
		}
		var ack struct {
			Canceled bool `json:"canceled"`
		}
		if err := json.Unmarshal(m.Result, &ack); err != nil || ack.Canceled {
			t.Fatalf("second cancel = %+v (%v), want canceled:false", m, err)
		}
		return
	}
}

// TestWSSimulateRequiresID checks that a simulate notification (no stream
// handle) is rejected.
func TestWSSimulateRequiresID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(`{"jsonrpc":"2.0","method":"swap.simulate","params":{"scenario":"tableIII"}}`)); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error == nil || m.Error.Code != CodeInvalidRequest {
		t.Fatalf("frame = %+v, want invalid request", m)
	}
}

// TestWSDuplicateStreamID checks that a second stream reusing a live
// stream's ID is rejected while the first keeps running.
func TestWSDuplicateStreamID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	start := rpcCall(5, "swap.simulate",
		`{"scenario":"tableIII","runs":500000,"everyPaths":256,"budgetMs":60000}`)
	if err := conn.WriteMessage([]byte(start)); err != nil {
		t.Fatalf("write: %v", err)
	}
	first := readMsg(t, conn) // stream is live once progress flows
	if first.isResponse() {
		t.Fatalf("stream ended immediately: %+v", first)
	}
	if err := conn.WriteMessage([]byte(start)); err != nil {
		t.Fatalf("write duplicate: %v", err)
	}
	for {
		m := readMsg(t, conn)
		if !m.isResponse() {
			continue // first stream's progress
		}
		if m.Error == nil || m.Error.Code != CodeInvalidRequest {
			t.Fatalf("duplicate response = %+v, want invalid request", m)
		}
		break
	}
	// Clean up the long stream.
	conn.WriteMessage([]byte(rpcCall(6, "swap.cancel", `{"id":5}`)))
}

// TestWSShutdownDrainsStreams starts a long stream, shuts the server
// down, and checks the client receives a CodeShuttingDown terminal
// response before the connection dies — the graceful-drain contract.
func TestWSShutdownDrainsStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(3, "swap.simulate",
		`{"scenario":"tableIII","runs":500000,"everyPaths":256,"budgetMs":60000}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	first := readMsg(t, conn)
	if first.isResponse() {
		t.Fatalf("stream ended before shutdown: %+v", first)
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(contextWithTimeout(t, 10*time.Second)) }()

	for {
		m := readMsg(t, conn)
		if !m.isResponse() {
			continue // progress raced the cancellation
		}
		if string(m.ID) != "3" {
			t.Fatalf("unexpected response %+v", m)
		}
		if m.Error == nil || m.Error.Code != CodeShuttingDown {
			t.Fatalf("terminal frame = %+v, want code %d", m, CodeShuttingDown)
		}
		break
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

// TestWSBadFramesAndUpgrade covers the handshake edges: /ws without an
// upgrade, and malformed JSON over an established socket.
func TestWSBadFramesAndUpgrade(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/ws")
	if err != nil {
		t.Fatalf("GET /ws: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("plain GET /ws status = %d, want 400/426", resp.StatusCode)
	}

	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(`{not json`)); err != nil {
		t.Fatalf("write: %v", err)
	}
	m := readMsg(t, conn)
	if m.Error == nil || m.Error.Code != CodeParseError {
		t.Fatalf("frame = %+v, want parse error", m)
	}
	// The connection survives a bad frame.
	if err := conn.WriteMessage([]byte(rpcCall(2, "scenario.list", ""))); err != nil {
		t.Fatalf("write after bad frame: %v", err)
	}
	m = readMsg(t, conn)
	if m.Error != nil || !m.isResponse() {
		t.Fatalf("frame = %+v, want scenario.list response", m)
	}
}

// TestWSStreamBudget checks a stream that outlives its budget ends with
// CodeBudgetExceeded.
func TestWSStreamBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(4, "swap.simulate",
		`{"scenario":"tableIII","runs":1000000,"everyPaths":1000000,"budgetMs":100}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	for {
		m := readMsg(t, conn)
		if !m.isResponse() {
			continue
		}
		if m.Error == nil || m.Error.Code != CodeBudgetExceeded {
			t.Fatalf("terminal frame = %+v, want code %d", m, CodeBudgetExceeded)
		}
		return
	}
}

// TestWSConnCloseCancelsStreams checks that dropping the connection kills
// its streams server-side.
func TestWSConnCloseCancelsStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	conn := dialTest(t, ts.URL)
	if err := conn.WriteMessage([]byte(rpcCall(8, "swap.simulate",
		`{"scenario":"tableIII","runs":500000,"everyPaths":256,"budgetMs":60000}`))); err != nil {
		t.Fatalf("write: %v", err)
	}
	first := readMsg(t, conn)
	if first.isResponse() {
		t.Fatalf("stream ended immediately: %+v", first)
	}
	conn.Close()
	waitFor(t, func() bool { return s.stats.streamsActive.Load() == 0 },
		fmt.Sprintf("stream survived its connection: %d active", s.stats.streamsActive.Load()))
}
