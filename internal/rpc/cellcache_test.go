package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/variant"
)

// put computes key into c with a constant value.
func put(t *testing.T, c *cellCache, key, val string) {
	t.Helper()
	if _, _, err := c.do(context.Background(), key, func() ([]byte, error) { return []byte(val), nil }); err != nil {
		t.Fatal(err)
	}
}

// snapshot reads c's swapd.stats blocks.
func snapshot(c *cellCache) StatsResult {
	var st StatsResult
	st.RespCache, st.Coalescing = c.stats()
	return st
}

func TestRespCacheLRU(t *testing.T) {
	c := newCellCache(2)
	if _, ok := c.lookup([]string{"a"}); ok {
		t.Fatal("hit on an empty cache")
	}
	put(t, c, "a", `{"key":"a"}`)
	put(t, c, "b", `{"key":"b"}`)
	if v, ok := c.lookup([]string{"a"}); !ok || string(v[0]) != `{"key":"a"}` {
		t.Fatal("a not served back")
	}
	// a is now most recent; retaining c must evict b.
	put(t, c, "c", `{"key":"c"}`)
	if _, ok := c.lookup([]string{"b"}); ok {
		t.Fatal("LRU victim b still retained")
	}
	if v, ok := c.lookup([]string{"c", "a"}); !ok || string(v[0]) != `{"key":"c"}` || string(v[1]) != `{"key":"a"}` {
		t.Fatal("a multi-cell lookup did not return the cells in key order")
	}
	st := snapshot(c).RespCache
	if st.Entries != 2 || st.Evictions != 1 || st.MaxEntries != 2 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Bytes != int64(2*len(`{"key":"a"}`)) {
		t.Fatalf("bytes = %d, want exact payload accounting", st.Bytes)
	}
	// Hits count cells: 1 (a) + 2 (c, a); misses the three computes.
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", st.Hits, st.Misses)
	}
	// A retained cell is served by do without computing.
	v, shared, err := c.do(context.Background(), "a", func() ([]byte, error) {
		t.Error("retained cell recomputed")
		return nil, nil
	})
	if err != nil || shared || string(v) != `{"key":"a"}` {
		t.Fatalf("do on a retained cell = (%s, %v, %v)", v, shared, err)
	}
}

func TestRespCacheDisabled(t *testing.T) {
	c := newCellCache(-1)
	put(t, c, "a", "1")
	if _, ok := c.lookup([]string{"a"}); ok {
		t.Fatal("disabled cache served a hit")
	}
	st := snapshot(c)
	if st.RespCache.MaxEntries != 0 || st.RespCache.Entries != 0 || st.RespCache.Misses != 1 {
		t.Fatalf("stats = %+v", st.RespCache)
	}
	if st.Coalescing.InFlight != 0 {
		t.Fatalf("in flight = %d after completion, want 0", st.Coalescing.InFlight)
	}
}

// TestCellCacheCoalesces is the single-flight contract: N concurrent calls
// with one key run the computation exactly once, every caller sees the
// leader's value, and exactly one caller reports shared == false.
func TestCellCacheCoalesces(t *testing.T) {
	const n = 64
	var (
		c        = newCellCache(8)
		computes atomic.Int64
		leaders  atomic.Int64
		gate     = make(chan struct{})
		done     sync.WaitGroup
	)
	call := func() {
		defer done.Done()
		v, shared, err := c.do(context.Background(), "cell", func() ([]byte, error) {
			computes.Add(1)
			<-gate // hold the flight open until every waiter has joined
			return []byte("42"), nil
		})
		if err != nil {
			t.Errorf("do: %v", err)
		}
		if string(v) != "42" {
			t.Errorf("do = %s, want 42", v)
		}
		if !shared {
			leaders.Add(1)
		}
	}
	// Establish the leader first, then pile the waiters on and release the
	// gate only once the waiter counter proves all of them joined the
	// flight — deterministic under any scheduling.
	done.Add(1)
	go call()
	waitFor(t, func() bool { return snapshot(c).Coalescing.InFlight == 1 }, "leader never started")
	for i := 0; i < n-1; i++ {
		done.Add(1)
		go call()
	}
	waitFor(t, func() bool { return snapshot(c).Coalescing.Waiters == n-1 }, "waiters never joined")
	close(gate)
	done.Wait()

	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Errorf("%d callers report shared=false, want 1", got)
	}
	st := snapshot(c)
	if st.Coalescing.Leaders != 1 || st.Coalescing.Waiters != n-1 {
		t.Errorf("stats = %+v, want 1 leader, %d waiters", st.Coalescing, n-1)
	}
	if hr := st.Coalescing.HitRate; hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %g, want in (0, 1)", hr)
	}
	if st.Coalescing.InFlight != 0 || st.RespCache.Entries != 1 {
		t.Errorf("after completion: in flight %d, retained %d; want 0, 1",
			st.Coalescing.InFlight, st.RespCache.Entries)
	}
}

// TestCellCacheDistinctKeysDoNotCoalesce checks distinct keys compute
// independently and do not block each other.
func TestCellCacheDistinctKeysDoNotCoalesce(t *testing.T) {
	c := newCellCache(4) // fewer slots than keys: eviction runs concurrently
	var wg sync.WaitGroup
	const n = 16
	var computes atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprint(i * i)
			v, shared, err := c.do(context.Background(), fmt.Sprint(i), func() ([]byte, error) {
				computes.Add(1)
				return []byte(want), nil
			})
			if err != nil || shared || string(v) != want {
				t.Errorf("do(%d) = (%s, %v, %v), want (%s, false, nil)", i, v, shared, err, want)
			}
		}(i)
	}
	wg.Wait()
	if computes.Load() != n {
		t.Errorf("computed %d times, want %d", computes.Load(), n)
	}
	if st := snapshot(c).RespCache; st.Entries != 4 || st.Evictions != n-4 {
		t.Errorf("stats = %+v, want 4 retained, %d evicted", st, n-4)
	}
}

// TestCellCacheRecomputesAfterError checks a failed computation is not
// retained: the next call computes anew, and its success is retained.
func TestCellCacheRecomputesAfterError(t *testing.T) {
	c := newCellCache(4)
	computes := 0
	compute := func() ([]byte, error) {
		computes++
		if computes == 1 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	if _, _, err := c.do(context.Background(), "k", compute); err == nil {
		t.Fatal("first call: want the compute error")
	}
	for i := 0; i < 2; i++ {
		v, shared, err := c.do(context.Background(), "k", compute)
		if err != nil || shared || string(v) != "ok" {
			t.Fatalf("call %d = (%s, %v, %v), want (ok, false, nil)", i, v, shared, err)
		}
	}
	if computes != 2 {
		t.Errorf("computed %d times, want 2 (error forgotten, success retained)", computes)
	}
}

// TestCellCacheErrorShared checks the leader's error reaches every waiter.
func TestCellCacheErrorShared(t *testing.T) {
	c := newCellCache(4)
	sentinel := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var sharedErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(context.Background(), "k", func() ([]byte, error) {
			<-gate
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("leader err = %v, want %v", err, sentinel)
		}
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.InFlight == 1 }, "leader never started")
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, shared, err := c.do(context.Background(), "k", func() ([]byte, error) {
			t.Error("waiter ran the computation")
			return nil, nil
		})
		if shared && errors.Is(err, sentinel) {
			sharedErrs.Add(1)
		}
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.Waiters == 1 }, "waiter never joined")
	close(gate)
	wg.Wait()
	if sharedErrs.Load() != 1 {
		t.Errorf("waiter did not observe the shared error")
	}
	if st := snapshot(c); st.RespCache.Entries != 0 || st.Coalescing.InFlight != 0 {
		t.Errorf("failed cell left behind: %+v / %+v", st.RespCache, st.Coalescing)
	}
}

// TestCellCacheWaiterContextCancel checks a waiter abandons the flight
// when its ctx is done while the leader keeps computing — and the leader's
// result is still retained.
func TestCellCacheWaiterContextCancel(t *testing.T) {
	c := newCellCache(4)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.do(context.Background(), "k", func() ([]byte, error) {
			<-gate
			return []byte("7"), nil
		})
		if err != nil || string(v) != "7" {
			t.Errorf("leader = (%s, %v), want (7, nil)", v, err)
		}
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.InFlight == 1 }, "leader never started")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := c.do(ctx, "k", func() ([]byte, error) { return nil, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter = (shared=%v, %v), want (true, context.Canceled)", shared, err)
	}
	close(gate)
	wg.Wait()
	if v, ok := c.lookup([]string{"k"}); !ok || string(v[0]) != "7" {
		t.Error("the leader's result was not retained")
	}
}

// TestCellCachePanicPropagates checks a panicking leader settles the entry
// (waiters get errCellPanicked, later calls recompute) and re-panics.
func TestCellCachePanicPropagates(t *testing.T) {
	c := newCellCache(4)
	gate := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.do(context.Background(), "k", func() ([]byte, error) {
			<-gate
			panic("kaboom")
		})
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.InFlight == 1 }, "leader never started")
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "k", func() ([]byte, error) { return nil, nil })
		waiterErr <- err
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.Waiters == 1 }, "waiter never joined")
	close(gate)
	if r := <-recovered; r == nil {
		t.Error("leader panic did not propagate")
	}
	if err := <-waiterErr; !errors.Is(err, errCellPanicked) {
		t.Errorf("waiter err = %v, want errCellPanicked", err)
	}
	if st := snapshot(c); st.Coalescing.InFlight != 0 || st.RespCache.Entries != 0 {
		t.Fatalf("after panic: %+v / %+v, want nothing in flight or retained", st.Coalescing, st.RespCache)
	}
	v, shared, err := c.do(context.Background(), "k", func() ([]byte, error) { return []byte("5"), nil })
	if string(v) != "5" || shared || err != nil {
		t.Errorf("post-panic do = (%s, %v, %v), want (5, false, nil)", v, shared, err)
	}
}

// TestCellCacheEvictionSkipsInFlight checks eviction only ever removes
// retained cells: with room for one, a cell in flight stays joinable while
// others settle and evict each other around it.
func TestCellCacheEvictionSkipsInFlight(t *testing.T) {
	c := newCellCache(1)
	gate := make(chan struct{})
	leader := make(chan []byte, 1)
	go func() {
		v, _, _ := c.do(context.Background(), "slow", func() ([]byte, error) {
			<-gate
			return []byte("slow"), nil
		})
		leader <- v
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.InFlight == 1 }, "leader never started")
	for i := 0; i < 3; i++ {
		put(t, c, fmt.Sprint(i), "x")
	}
	waiter := make(chan []byte, 1)
	go func() {
		v, _, _ := c.do(context.Background(), "slow", func() ([]byte, error) {
			t.Error("in-flight cell was evicted and recomputed")
			return nil, nil
		})
		waiter <- v
	}()
	waitFor(t, func() bool { return snapshot(c).Coalescing.Waiters == 1 }, "waiter never joined")
	close(gate)
	if v := <-leader; string(v) != "slow" {
		t.Errorf("leader = %s", v)
	}
	if v := <-waiter; string(v) != "slow" {
		t.Errorf("waiter = %s", v)
	}
	if st := snapshot(c).RespCache; st.Entries != 1 || st.Evictions != 3 {
		t.Errorf("stats = %+v, want 1 retained, 3 evicted", st)
	}
}

// TestJoinCellsMatchesMarshal pins the wire bytes: the variants block
// joined from per-cell bytes equals json.Marshal of the []ReportJSON it
// encodes, for the default trio with Monte Carlo validation on.
func TestJoinCellsMatchesMarshal(t *testing.T) {
	s := NewServer(Config{})
	req, rerr := s.resolveSolve(SolveParams{Scenario: json.RawMessage(`"tableIII"`), MC: true, Runs: 400})
	if rerr != nil {
		t.Fatal(rerr)
	}
	cells, _, err := s.solveCells(req)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]ReportJSON, len(req.games))
	for i, g := range req.games {
		r, err := variant.RunCell(g, req.sc, req.opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.MC == nil && i == 0 {
			t.Fatal("no Monte Carlo block on the basic cell")
		}
		reports[i] = reportJSON(r)
	}
	want, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	if got := joinCells(cells); string(got) != string(want) {
		t.Fatalf("joined block differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestSolveResultWire pins the field compatibility between the server's
// preserialized response form and the client-facing SolveResult.
func TestSolveResultWire(t *testing.T) {
	wire := solveResultWire{
		Scenario:  "tableIII",
		Variants:  json.RawMessage(`[{"key":"basic","desc":"d","sr":0.5,"srLabel":"l","values":{"sr":0.5},"lines":["x"]}]`),
		Coalesced: true,
		Cached:    true,
		ElapsedUs: 7,
	}
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var res SolveResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "tableIII" || !res.Coalesced || !res.Cached || res.ElapsedUs != 7 {
		t.Fatalf("decoded %+v", res)
	}
	if len(res.Variants) != 1 || res.Variants[0].Key != "basic" || res.Variants[0].SR != 0.5 {
		t.Fatalf("variants decoded as %+v", res.Variants)
	}
	// Same JSON field set both ways (wire must never grow a field the
	// client type cannot see, or vice versa).
	var wireMap, resMap map[string]any
	resData, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &wireMap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resData, &resMap); err != nil {
		t.Fatal(err)
	}
	wk := make([]string, 0)
	for k := range wireMap {
		wk = append(wk, k)
	}
	for _, k := range wk {
		if _, ok := resMap[k]; !ok {
			t.Errorf("wire field %q missing from SolveResult", k)
		}
	}
	if len(wireMap) != len(resMap) {
		t.Errorf("field sets differ: wire %d, client %d", len(wireMap), len(resMap))
	}
}

// TestRepeatSolveServedFromResponseCache pins the warm path: an identical
// repeat request is answered from cached bytes (cached:true, identical
// variants block) without consuming an admission slot, and the counters
// surface in swapd.stats.
func TestRepeatSolveServedFromResponseCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := rpcCall(1, "swap.solve", `{"scenario":"tableIII","variant":"basic"}`)
	resp, status := post(t, ts.URL, body)
	if status != http.StatusOK || resp.Error != nil {
		t.Fatalf("cold solve: status=%d error=%+v", status, resp.Error)
	}
	var cold SolveResult
	if err := json.Unmarshal(resp.Result, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first request reported cached")
	}
	admitted := s.adm.stats().Admitted

	resp, _ = post(t, ts.URL, body)
	if resp.Error != nil {
		t.Fatalf("warm solve: %+v", resp.Error)
	}
	var warm SolveResult
	if err := json.Unmarshal(resp.Result, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat request not served from the response cache")
	}
	if !reflect.DeepEqual(cold.Variants, warm.Variants) {
		t.Fatal("cached variants differ from the solved ones")
	}
	if got := s.adm.stats().Admitted; got != admitted {
		t.Errorf("cache hit consumed an admission slot (admitted %d -> %d)", admitted, got)
	}
	if st := snapshot(s.cells).RespCache; st.Hits != 1 || st.Entries != 1 {
		t.Errorf("resp cache stats = %+v, want 1 hit, 1 entry", st)
	}
	// A different request must not hit the cache.
	resp, _ = post(t, ts.URL, rpcCall(2, "swap.solve", `{"scenario":"high-vol","variant":"basic"}`))
	if resp.Error != nil {
		t.Fatalf("distinct solve: %+v", resp.Error)
	}
	var other SolveResult
	if err := json.Unmarshal(resp.Result, &other); err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("distinct request wrongly served from cache")
	}
}

// solveResult posts one swap.solve and decodes its result, failing the
// test on any error.
func solveResult(t *testing.T, url, params string) SolveResult {
	t.Helper()
	resp, _ := post(t, url, rpcCall(1, "swap.solve", params))
	if resp.Error != nil {
		t.Fatalf("solve %s: %+v", params, resp.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSolveReadsThroughStore pins the cross-restart warm path: a fresh
// daemon pointed at a populated store dir answers each cell from disk
// instead of re-solving, then from its own retained cells, and swapd.stats
// carries the store counters.
func TestSolveReadsThroughStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: s1})
	const params = `{"scenario":"tableIII"}`
	cells := uint64(len(variant.DefaultKeys()))
	cold := solveResult(t, ts1.URL, params)
	if st := s1.Stats(); st.Puts != cells {
		t.Fatalf("store stats after cold solve = %+v, want one put per cell", st)
	}

	// "Restart": a new server over a new handle to the same directory. Its
	// cell tier is empty, so each cell walks down to the store.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{Store: s2})
	warm := solveResult(t, ts2.URL, params)
	if warm.Cached {
		t.Error("store-served solve flagged as a retained-cell hit")
	}
	if !reflect.DeepEqual(cold.Variants, warm.Variants) {
		t.Fatal("store-served variants differ from the solved ones")
	}
	if st := s2.Stats(); st.Hits != cells || st.Puts != 0 {
		t.Fatalf("warm store stats = %+v, want one hit per cell and no puts", st)
	}
	if st := snapshot(srv2.cells).RespCache; st.Misses != cells || st.Entries != int(cells) {
		t.Fatalf("cell tier after the store read = %+v, want %d misses, %d retained", st, cells, cells)
	}
	// The retained cells now front the store: a repeat never reaches it.
	if again := solveResult(t, ts2.URL, params); !again.Cached {
		t.Error("repeat after the store read not served from retained cells")
	}
	if st := s2.Stats(); st.Hits != cells {
		t.Errorf("store hits = %d after a retained-cell hit, want %d", st.Hits, cells)
	}

	statsResp, _ := post(t, ts2.URL, rpcCall(2, "swapd.stats", ""))
	var st StatsResult
	if err := json.Unmarshal(statsResp.Result, &st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil || st.Store.Hits != cells || st.Store.Dir != dir {
		t.Fatalf("swapd.stats store block = %+v", st.Store)
	}
	if st.RespCache.Hits != cells {
		t.Fatalf("swapd.stats respCache.hits = %d, want %d (counted in cells)", st.RespCache.Hits, cells)
	}
}

// TestLapsedBudgetRetainsCells checks a request whose budget lapses while
// its cells compute still leaves them retained: the computation runs to
// completion, and the next identical request is a cached answer with no
// further solve.
func TestLapsedBudgetRetainsCells(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	var calls atomic.Int32
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		calls.Add(1)
		<-gate
		return variant.RunCell(g, sc, opts)
	}
	resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII","budgetMs":30}`))
	if resp.Error == nil || resp.Error.Code != CodeBudgetExceeded {
		t.Fatalf("error = %+v, want code %d", resp.Error, CodeBudgetExceeded)
	}
	close(gate)
	cells := len(variant.DefaultKeys())
	waitFor(t, func() bool {
		st := snapshot(s.cells)
		return st.Coalescing.InFlight == 0 && st.RespCache.Entries == cells
	}, "the lapsed request's cells were never retained")
	before := calls.Load()
	if res := solveResult(t, ts.URL, `{"scenario":"tableIII","budgetMs":5000}`); !res.Cached {
		t.Error("repeat of a lapsed request not served from retained cells")
	}
	if got := calls.Load() - before; got != 0 {
		t.Errorf("repeat ran %d solves, want 0", got)
	}
	if got := calls.Load(); got != int32(cells) {
		t.Errorf("solves = %d, want one per cell (%d)", got, cells)
	}
}

// TestSelectionsShareCells checks overlapping variant selections share
// retained cells: a single-variant request after a default-trio request
// for the same scenario is a cached answer with no solve, and a selection
// that only partly overlaps solves just its missing cells.
func TestSelectionsShareCells(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var calls atomic.Int32
	s.solve = func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error) {
		calls.Add(1)
		return variant.RunCell(g, sc, opts)
	}
	trio := solveResult(t, ts.URL, `{"scenario":"tableIII"}`)
	if got := calls.Load(); got != int32(len(trio.Variants)) {
		t.Fatalf("trio solves = %d, want %d", got, len(trio.Variants))
	}
	basic := solveResult(t, ts.URL, `{"scenario":"tableIII","variant":"basic"}`)
	if !basic.Cached {
		t.Error("basic after the trio not served from retained cells")
	}
	if !reflect.DeepEqual(basic.Variants[0], trio.Variants[0]) {
		t.Error("the shared basic cell differs between selections")
	}
	before := calls.Load()
	all := solveResult(t, ts.URL, `{"scenario":"tableIII","variant":"all"}`)
	if all.Cached {
		t.Error("a selection with unsolved cells reported cached")
	}
	if got, want := calls.Load()-before, int32(len(all.Variants)-len(trio.Variants)); got != want {
		t.Errorf("\"all\" after the trio ran %d solves, want %d (its missing cells only)", got, want)
	}
}

// TestStatsCarriesCacheAndStoreBlocks exercises swapd.stats' new blocks.
func TestStatsCarriesCacheAndStoreBlocks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL, rpcCall(1, "swapd.stats", ""))
	if resp.Error != nil {
		t.Fatalf("stats: %+v", resp.Error)
	}
	var st StatsResult
	if err := json.Unmarshal(resp.Result, &st); err != nil {
		t.Fatal(err)
	}
	if st.RespCache.MaxEntries != 1024 {
		t.Errorf("respCache.maxEntries = %d, want the 1024 default", st.RespCache.MaxEntries)
	}
	if st.Store != nil {
		t.Error("store block present without a configured store")
	}
	if st.SolveCache.Limit == 0 {
		t.Error("solveCache.limit missing")
	}
}
