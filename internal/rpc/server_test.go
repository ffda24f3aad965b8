package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/variant"
)

// contextWithTimeout builds a test-scoped context.
func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newTestServer spins up a Server behind httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one JSON-RPC request over HTTP and decodes the response.
func post(t *testing.T, url, body string) (Response, int) {
	t.Helper()
	resp, err := http.Post(url+"/rpc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if resp.StatusCode == http.StatusNoContent {
		return Response{}, resp.StatusCode
	}
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decoding response %q: %v", data, err)
	}
	return r, resp.StatusCode
}

// rpcCall builds a request envelope with an object params payload.
func rpcCall(id int, method, params string) string {
	if params == "" {
		return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q}`, id, method)
	}
	return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q,"params":%s}`, id, method, params)
}

// TestSolvePreset solves a preset end to end over HTTP.
func TestSolvePreset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, status := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII"}`))
	if status != http.StatusOK || resp.Error != nil {
		t.Fatalf("solve failed: status=%d error=%+v", status, resp.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Scenario != "tableIII" {
		t.Errorf("scenario = %q, want tableIII", res.Scenario)
	}
	if len(res.Variants) == 0 {
		t.Fatal("no variants solved")
	}
	for _, v := range res.Variants {
		if v.SR < 0 || v.SR > 1 {
			t.Errorf("variant %s: SR = %v out of [0,1]", v.Key, v.SR)
		}
		if v.MC != nil {
			t.Errorf("variant %s: MC check present without mc:true", v.Key)
		}
	}
}

// TestSolveInlineScenario solves an inline scenario definition, with MC
// validation on a named variant.
func TestSolveInlineScenario(t *testing.T) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	sc.Name = "inline-test"
	sc.MCRuns = 400
	sc.Variants = nil
	inline, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve",
		`{"scenario":`+string(inline)+`,"variant":"basic","mc":true}`))
	if resp.Error != nil {
		t.Fatalf("solve failed: %+v", resp.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if len(res.Variants) != 1 || res.Variants[0].Key != "basic" {
		t.Fatalf("variants = %+v, want exactly [basic]", res.Variants)
	}
	mc := res.Variants[0].MC
	if mc == nil {
		t.Fatal("mc:true produced no Monte Carlo check")
	}
	if mc.Runs != 400 {
		t.Errorf("mc.Runs = %d, want 400", mc.Runs)
	}
	if !mc.Agrees {
		t.Errorf("Monte Carlo disagrees with analytic SR: %+v", mc)
	}
}

// TestHTTPErrorSurface walks the error taxonomy over HTTP.
func TestHTTPErrorSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		wantCode int
	}{
		{"unknown method", rpcCall(1, "swap.frobnicate", ""), CodeMethodNotFound},
		{"bad json", `{"jsonrpc":`, CodeParseError},
		{"batch", `[` + rpcCall(1, "scenario.list", "") + `]`, CodeInvalidRequest},
		{"missing params", rpcCall(1, "swap.solve", ""), CodeInvalidParams},
		{"unknown preset", rpcCall(1, "swap.solve", `{"scenario":"no-such"}`), CodeInvalidParams},
		{"param typo", rpcCall(1, "swap.solve", `{"scenario":"tableIII","runz":9}`), CodeInvalidParams},
		{"bad variant", rpcCall(1, "swap.solve", `{"scenario":"tableIII","variant":"bogus"}`), CodeInvalidParams},
		{"negative runs", rpcCall(1, "swap.solve", `{"scenario":"tableIII","runs":-1}`), CodeInvalidParams},
		{"runs over cap", rpcCall(1, "swap.solve", `{"scenario":"tableIII","runs":2000000}`), CodeInvalidParams},
		{"simulate over http", rpcCall(1, "swap.simulate", `{"scenario":"tableIII","variant":"uncertain"}`), CodeInvalidParams},
		{"cancel over http", rpcCall(1, "swap.cancel", `{"id":1}`), CodeMethodNotFound},
		{"inline scenario invalid", rpcCall(1, "swap.solve", `{"scenario":{"name":"x","params":{},"pstar":-2}}`), CodeInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := post(t, ts.URL, tc.body)
			if resp.Error == nil {
				t.Fatalf("want error code %d, got success", tc.wantCode)
			}
			if resp.Error.Code != tc.wantCode {
				t.Fatalf("code = %d (%s), want %d", resp.Error.Code, resp.Error.Message, tc.wantCode)
			}
		})
	}

	// Non-POST is rejected at the HTTP layer.
	get, err := http.Get(ts.URL + "/rpc")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rpc status = %d, want 405", get.StatusCode)
	}
}

// TestNotificationGetsNoBody checks that notifications return 204 with no
// response envelope.
func TestNotificationGetsNoBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, status := post(t, ts.URL, `{"jsonrpc":"2.0","method":"scenario.list"}`)
	if status != http.StatusNoContent {
		t.Fatalf("notification status = %d, want 204", status)
	}
}

// TestScenarioList mirrors cmd/scenarios' listing.
func TestScenarioList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL, rpcCall(1, "scenario.list", ""))
	if resp.Error != nil {
		t.Fatalf("list failed: %+v", resp.Error)
	}
	var res ListResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if len(res.Presets) < 10 {
		t.Errorf("presets = %d, want >= 10", len(res.Presets))
	}
	if len(res.Variants) < 5 {
		t.Errorf("variants = %d, want >= 5", len(res.Variants))
	}
	if len(res.Default) == 0 {
		t.Error("empty default variant selection")
	}
	if res.Presets[0].Name != "tableIII" {
		t.Errorf("first preset = %q, want tableIII", res.Presets[0].Name)
	}
}

// TestScenarioDiff mirrors cmd/scenarios -diff.
func TestScenarioDiff(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL, rpcCall(1, "scenario.diff",
		`{"a":"tableIII","b":"high-vol","variant":"basic"}`))
	if resp.Error != nil {
		t.Fatalf("diff failed: %+v", resp.Error)
	}
	var res DiffResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.A != "tableIII" || res.B != "high-vol" {
		t.Errorf("diff names = %q/%q", res.A, res.B)
	}
	if len(res.Params) == 0 {
		t.Error("no parameter differences between tableIII and high-vol")
	}
	if res.Text == "" {
		t.Error("empty rendered diff")
	}
}

// TestSolveCoalescing fires N concurrent identical solves of the default
// trio through a gated solve seam and checks each cell is computed exactly
// once, with every follower's response marked Coalesced. Run under -race.
func TestSolveCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var calls atomic.Int32
	gate := make(chan struct{})
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		calls.Add(1)
		<-gate
		return variant.RunCell(g, sc, opts)
	}

	const n = 16
	results := make([]SolveResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup

	// Establish the leader first so no goroutine can arrive after the
	// first cell settles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = solveOnce(ts.URL)
	}()
	waitFor(t, func() bool { return calls.Load() == 1 }, "leader did not start")

	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = solveOnce(ts.URL)
		}(i)
	}
	// Release the computation only once all followers wait on the first
	// cell.
	waitFor(t, func() bool { return snapshot(s.cells).Coalescing.Waiters == n-1 }, "waiters did not join")
	close(gate)
	wg.Wait()

	cells := int32(len(variant.DefaultKeys()))
	if got := calls.Load(); got != cells {
		t.Fatalf("underlying cell solves = %d, want %d (one per cell)", got, cells)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Scenario != "tableIII" || len(results[i].Variants) != int(cells) {
			t.Fatalf("request %d solved %q with %d cells", i, results[i].Scenario, len(results[i].Variants))
		}
		if i > 0 && !results[i].Coalesced {
			t.Errorf("follower %d not marked coalesced", i)
		}
	}

	// Nothing is in flight any more and the counters agree: one leader
	// per cell, every other cell request a waiter or a retained hit.
	st := snapshot(s.cells)
	if st.Coalescing.InFlight != 0 {
		t.Errorf("in-flight after drain = %d, want 0", st.Coalescing.InFlight)
	}
	if st.Coalescing.Leaders != uint64(cells) {
		t.Errorf("leaders = %d, want %d", st.Coalescing.Leaders, cells)
	}
	if got := st.Coalescing.Waiters + st.RespCache.Hits; got != uint64(n-1)*uint64(cells) {
		t.Errorf("waiters + hits = %d, want %d", got, (n-1)*int(cells))
	}
}

// solveOnce posts one tableIII solve outside the testing.T plumbing (for
// use from goroutines).
func solveOnce(url string) (SolveResult, error) {
	body := rpcCall(1, "swap.solve", `{"scenario":"tableIII","budgetMs":30000}`)
	resp, err := http.Post(url+"/rpc", "application/json", strings.NewReader(body))
	if err != nil {
		return SolveResult{}, err
	}
	defer resp.Body.Close()
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return SolveResult{}, err
	}
	if r.Error != nil {
		return SolveResult{}, r.Error
	}
	var res SolveResult
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return SolveResult{}, err
	}
	return res, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveBudgetExceeded checks that a request outliving its budget gets
// CodeBudgetExceeded while the leader's computation still completes.
func TestSolveBudgetExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		<-gate
		return variant.RunCell(g, sc, opts)
	}
	resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII","budgetMs":30}`))
	if resp.Error == nil || resp.Error.Code != CodeBudgetExceeded {
		t.Fatalf("error = %+v, want code %d", resp.Error, CodeBudgetExceeded)
	}
	close(gate)
	// The detached leader still finishes; Shutdown waits for it.
	if err := s.Shutdown(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatalf("shutdown did not drain the detached solve: %v", err)
	}
}

// TestBudgetResolution checks how budgetMs resolves: none takes the
// default, anything past the cap takes the cap, and a count too large for
// a time.Duration is capped rather than wrapped into a lapsed budget.
func TestBudgetResolution(t *testing.T) {
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, defaultBudget}, {-5, defaultBudget}, {250, 250 * time.Millisecond},
		{120_000, maxBudget}, {1e13, maxBudget}, {math.MaxInt, maxBudget},
	} {
		if got := budget(tc.ms); got != tc.want {
			t.Errorf("budget(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
	_, ts := newTestServer(t, Config{})
	if resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII","variant":"basic","budgetMs":10000000000000}`)); resp.Error != nil {
		t.Errorf("solve with an overlong budgetMs: %+v", resp.Error)
	}
}

// TestShutdownRejectsNewRequests checks the draining behaviour: 503 +
// CodeShuttingDown on /rpc, 503 on /healthz, and Shutdown drains
// in-flight work.
func TestShutdownRejectsNewRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown = %d", hz.StatusCode)
	}

	if err := s.Shutdown(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	resp, status := post(t, ts.URL, rpcCall(1, "scenario.list", ""))
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status = %d, want 503", status)
	}
	if resp.Error == nil || resp.Error.Code != CodeShuttingDown {
		t.Errorf("post-shutdown error = %+v, want code %d", resp.Error, CodeShuttingDown)
	}

	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", hz.StatusCode)
	}
}

// TestStatsCounters checks swapd.stats reflects traffic.
func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, rpcCall(1, "scenario.list", ""))
	post(t, ts.URL, rpcCall(2, "swap.nope", ""))
	resp, _ := post(t, ts.URL, rpcCall(3, "swapd.stats", ""))
	if resp.Error != nil {
		t.Fatalf("stats failed: %+v", resp.Error)
	}
	var res StatsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Requests.Total < 3 {
		t.Errorf("total requests = %d, want >= 3", res.Requests.Total)
	}
	if res.Requests.Errors < 1 {
		t.Errorf("errors = %d, want >= 1", res.Requests.Errors)
	}
	if res.Requests.ByMethod["scenario.list"] < 1 {
		t.Errorf("byMethod = %+v, missing scenario.list", res.Requests.ByMethod)
	}
	if res.Draining {
		t.Error("draining reported on a live server")
	}
}

// TestStatsByMethodBounded checks that client-chosen method names cannot
// grow swapd.stats: 2000 distinct junk methods all count as requests and
// errors, but byMethod keeps at most one key per served method.
func TestStatsByMethodBounded(t *testing.T) {
	s := NewServer(Config{})
	const junk = 2000
	for i := range junk {
		req := Request{JSONRPC: Version, ID: json.RawMessage(`1`), Method: fmt.Sprintf("junk.%d.%s", i, strings.Repeat("x", 64))}
		if resp, _ := s.dispatch(context.Background(), req); resp.Error == nil || resp.Error.Code != CodeMethodNotFound {
			t.Fatalf("junk method: error %+v, want code %d", resp.Error, CodeMethodNotFound)
		}
	}
	resp, _ := s.dispatch(context.Background(), Request{JSONRPC: Version, ID: json.RawMessage(`2`), Method: "swapd.stats"})
	var res StatsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Requests.ByMethod) > 5 {
		t.Fatalf("byMethod holds %d keys after %d junk methods, want at most 5", len(res.Requests.ByMethod), junk)
	}
	if res.Requests.ByMethod["swapd.stats"] != 1 {
		t.Errorf("byMethod = %v, want swapd.stats counted once", res.Requests.ByMethod)
	}
	if res.Requests.Total != junk+1 || res.Requests.Errors != junk {
		t.Errorf("total %d, errors %d; want %d and %d", res.Requests.Total, res.Requests.Errors, junk+1, junk)
	}
}

// TestOversizedBody checks the request size cap: an oversized POST is
// detected (not silently truncated and mis-parsed) and rejected with
// 413 + -32600 naming the limit.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := bytes.Repeat([]byte("x"), maxRequestBytes+2)
	resp, err := http.Post(ts.URL+"/rpc", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if r.Error == nil || r.Error.Code != CodeInvalidRequest {
		t.Fatalf("error = %+v, want invalid request (too large)", r.Error)
	}
	if !strings.Contains(r.Error.Message, "request too large") {
		t.Errorf("message = %q, want it to name the size cap", r.Error.Message)
	}

	// A body exactly at the cap still parses (as garbage JSON here, but
	// through the normal parse path, not the size rejection).
	exact := bytes.Repeat([]byte("x"), maxRequestBytes)
	resp2, err := http.Post(ts.URL+"/rpc", "application/json", bytes.NewReader(exact))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp2.Body.Close()
	var r2 Response
	if err := json.NewDecoder(resp2.Body).Decode(&r2); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if r2.Error == nil || r2.Error.Code != CodeParseError {
		t.Fatalf("at-cap error = %+v, want parse error", r2.Error)
	}
}
