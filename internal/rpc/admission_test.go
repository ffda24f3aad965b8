package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/variant"
)

// TestAdmissionQueueFull drives the controller directly through its three
// outcomes: immediate admit, queue-then-admit, and the two shed paths
// (queue full, queue wait expired).
func TestAdmissionQueueFull(t *testing.T) {
	a := newAdmission(1, 1, time.Second, 100*time.Millisecond)
	ctx := context.Background()

	if err := a.acquire(ctx); err != nil {
		t.Fatalf("first acquire shed: %+v", err)
	}

	// Saturate the queue: a second acquirer waits for the slot.
	queuedDone := make(chan *Error, 1)
	go func() { queuedDone <- a.acquire(ctx) }()
	waitFor(t, func() bool { return a.queued.Load() == 1 }, "second acquire never queued")

	// Queue full: a third acquirer is shed immediately, not after queueWait.
	start := time.Now()
	rerr := a.acquire(ctx)
	if rerr == nil {
		t.Fatal("third acquire admitted past a full queue")
	}
	if rerr.Code != CodeOverloaded {
		t.Errorf("shed code = %d, want %d", rerr.Code, CodeOverloaded)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", elapsed)
	}
	data, ok := rerr.Data.(map[string]any)
	if !ok {
		t.Fatalf("shed Data = %#v, want a retryAfterMs object", rerr.Data)
	}
	if ms, _ := data["retryAfterMs"].(int); ms != 1000 {
		t.Errorf("retryAfterMs = %v, want 1000 (the queue wait)", data["retryAfterMs"])
	}
	if !a.overloaded() {
		t.Error("overloaded() = false right after a shed")
	}

	// Releasing the slot admits the queued waiter.
	a.release()
	select {
	case err := <-queuedDone:
		if err != nil {
			t.Fatalf("queued acquire shed after release: %+v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquire never admitted")
	}
	a.release()

	st := a.stats()
	if st.Admitted != 2 || st.QueuedTotal != 1 || st.Shed != 1 {
		t.Errorf("stats = %+v, want admitted=2 queuedTotal=1 shed=1", st)
	}

	// The health degradation clears one shed window after the last shed.
	waitFor(t, func() bool { return !a.overloaded() }, "overloaded() never cleared")
}

// TestAdmissionDeadlineAware checks a queued request never waits past its
// own context deadline: with a 10s queue wait but a ~10ms deadline, the
// shed arrives promptly.
func TestAdmissionDeadlineAware(t *testing.T) {
	a := newAdmission(1, 4, 10*time.Second, time.Second)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire shed: %+v", err)
	}
	defer a.release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	rerr := a.acquire(ctx)
	if rerr == nil {
		t.Fatal("acquire admitted on a saturated controller")
	}
	if rerr.Code != CodeOverloaded {
		t.Errorf("shed code = %d, want %d", rerr.Code, CodeOverloaded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bounded queue wait took %v, want ~10ms", elapsed)
	}
}

// TestAdmissionCancelIsNoShed checks a queued caller whose context is
// cancelled (the client went away) gets CodeCanceled and is no shed: the
// shed tally stays 0 and /healthz's overload window stays disarmed.
func TestAdmissionCancelIsNoShed(t *testing.T) {
	a := newAdmission(1, 4, 10*time.Second, time.Second)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire shed: %+v", err)
	}
	defer a.release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Error, 1)
	go func() { done <- a.acquire(ctx) }()
	waitFor(t, func() bool { return a.queued.Load() == 1 }, "second acquire never queued")
	cancel()
	rerr := <-done
	if rerr == nil || rerr.Code != CodeCanceled {
		t.Fatalf("cancelled acquire = %+v, want code %d", rerr, CodeCanceled)
	}
	if st := a.stats(); st.Shed != 0 || st.Overloaded {
		t.Errorf("stats = %+v, want shed=0 and not overloaded", st)
	}
}

// blockSolve gates the solve seam: each call parks on the returned
// channel until it is closed, so tests control slot occupancy exactly.
func blockSolve(s *Server) (started chan struct{}, unblock chan struct{}) {
	started = make(chan struct{}, 16)
	unblock = make(chan struct{})
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		started <- struct{}{}
		<-unblock
		return variant.Report{Key: g.Key()}, nil
	}
	return started, unblock
}

// solveParams builds single-cell swap.solve params whose cell keys differ
// by n, so concurrent test requests never coalesce into one computation
// and each request calls the solve seam once.
func solveParams(n int) string {
	return fmt.Sprintf(`{"scenario":"tableIII","variant":"basic","runs":%d}`, n+1)
}

// TestOverloadSheds exercises the full server path under saturation: the
// shed response carries -32005 with a retryAfterMs hint, HTTP surfaces
// 503 + Retry-After, /healthz degrades while shedding and recovers after
// the shed window, the exempt methods keep answering, and swapd.stats
// tallies it all.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		QueueDepth:  1,
		QueueWait:   5 * time.Millisecond,
	})
	s.adm.shedWindow = 300 * time.Millisecond
	started, unblock := blockSolve(s)

	// Occupy the only slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, status := post(t, ts.URL, rpcCall(1, "swap.solve", solveParams(0)))
		if status != http.StatusOK || resp.Error != nil {
			t.Errorf("occupying solve failed: status=%d error=%+v", status, resp.Error)
		}
	}()
	<-started

	// A second solve queues for 5ms, then is shed.
	httpResp, err := http.Post(ts.URL+"/rpc", "application/json",
		strings.NewReader(rpcCall(2, "swap.solve", solveParams(1))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shed status = %d, want 503", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	var shedResp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&shedResp); err != nil {
		t.Fatalf("decoding shed response: %v", err)
	}
	httpResp.Body.Close()
	if shedResp.Error == nil || shedResp.Error.Code != CodeOverloaded {
		t.Fatalf("shed error = %+v, want %d", shedResp.Error, CodeOverloaded)
	}
	data, ok := shedResp.Error.Data.(map[string]any)
	if !ok {
		t.Fatalf("shed Data = %#v, want an object", shedResp.Error.Data)
	}
	if ms, _ := data["retryAfterMs"].(float64); ms < 1 {
		t.Errorf("retryAfterMs = %v, want >= 1", data["retryAfterMs"])
	}

	// /healthz degrades to 503 while the daemon sheds.
	hs, body := healthz(t, ts.URL)
	if hs != http.StatusServiceUnavailable {
		t.Errorf("healthz while shedding = %d %q, want 503 overloaded", hs, body)
	}

	// The exempt observability methods keep answering at full saturation.
	if resp, status := post(t, ts.URL, rpcCall(3, "scenario.list", "")); status != http.StatusOK || resp.Error != nil {
		t.Errorf("scenario.list under overload: status=%d error=%+v", status, resp.Error)
	}
	resp, status := post(t, ts.URL, rpcCall(4, "swapd.stats", ""))
	if status != http.StatusOK || resp.Error != nil {
		t.Fatalf("swapd.stats under overload: status=%d error=%+v", status, resp.Error)
	}
	var stats StatsResult
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Admission.Shed < 1 {
		t.Errorf("stats.admission.shed = %d, want >= 1", stats.Admission.Shed)
	}
	if stats.Admission.MaxInflight != 1 || stats.Admission.InFlight != 1 {
		t.Errorf("stats.admission = %+v, want maxInflight=1 inFlight=1", stats.Admission)
	}
	if !stats.Admission.Overloaded {
		t.Error("stats.admission.overloaded = false while shedding")
	}

	// Drain the occupier and wait out the shed window: health recovers.
	close(unblock)
	wg.Wait()
	waitFor(t, func() bool {
		hs, _ := healthz(t, ts.URL)
		return hs == http.StatusOK
	}, "healthz never recovered after the shed window")
}

// TestQueuedThenAdmitted checks the queue is a real wait, not a reject:
// with a generous queue wait, a saturated request parks, is admitted when
// the slot frees, and completes successfully with no shed recorded.
func TestQueuedThenAdmitted(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		QueueDepth:  4,
		QueueWait:   5 * time.Second,
	})
	started, unblock := blockSolve(s)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, status := post(t, ts.URL, rpcCall(i+1, "swap.solve", solveParams(i)))
			if status != http.StatusOK || resp.Error != nil {
				t.Errorf("solve %d: status=%d error=%+v", i, status, resp.Error)
			}
		}()
	}
	// One solve holds the slot; the other is queued, not started.
	<-started
	waitFor(t, func() bool { return s.adm.queued.Load() == 1 }, "second solve never queued")

	close(unblock)
	<-started // the queued solve is admitted once the slot frees
	wg.Wait()

	st := s.adm.stats()
	if st.Shed != 0 {
		t.Errorf("shed = %d, want 0", st.Shed)
	}
	if st.QueuedTotal < 1 {
		t.Errorf("queuedTotal = %d, want >= 1", st.QueuedTotal)
	}
	if st.Admitted != 2 {
		t.Errorf("admitted = %d, want 2", st.Admitted)
	}
	if st.InFlight != 0 {
		t.Errorf("inFlight = %d after completion, want 0", st.InFlight)
	}
}

// healthz fetches /healthz and returns the status and body.
func healthz(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var buf [64]byte
	n, _ := resp.Body.Read(buf[:])
	return resp.StatusCode, string(buf[:n])
}
