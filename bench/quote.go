package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/bench/internal/workload"
)

// Quote-workload shape.
const (
	// openShare of the measured time runs open loop, the rest closed loop.
	openShare = 0.7
	// quoteBlocks: the open and closed loops alternate in this many
	// blocks, so both sample the whole run. The host's speed drifts by
	// tens of percent over 10–20 s, and a metric read in one stretch of
	// the run would inherit that stretch's speed.
	quoteBlocks = 6
	// Closed-loop input is generated up front, sized well above the rates
	// the daemon reaches today; a phase that exhausts it ends early.
	freshClosedPerSec  = 4000
	repeatClosedPerSec = 50000
	// repeatKeepEvery thins the bodies kept from quote-repeat's closed
	// loop, which completes tens of thousands of requests; the rest are
	// covered by the status code and the daemon's error counter.
	repeatKeepEvery = 16
	// maxGenLag is the generator lateness above which a run is invalid.
	maxGenLag = time.Millisecond
)

// quoteReply is the part of a swap.solve response the checks read.
type quoteReply struct {
	ID     int `json:"id"`
	Result struct {
		ElapsedUs int64 `json:"elapsedUs"`
	} `json:"result"`
}

// inspect decodes and digests one response, checking it answers request
// key.
func inspect(body []byte, key int) (quoteReply, string, error) {
	var r quoteReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, "", err
	}
	d, err := workload.Digest(body)
	if err != nil {
		return r, "", err
	}
	if r.ID != key {
		return r, "", fmt.Errorf("response id %d answers request %d", r.ID, key)
	}
	return r, d, nil
}

// measured is the timed part of a quote run, pooled over its blocks.
type measured struct {
	open   openResult   // backlogEnd is the largest over the blocks
	closed closedResult // done is not pooled; see rates
	rates  []float64    // closed-loop completion rates per bin
	cpu    time.Duration
	// stats are the daemon's counters over the open-loop blocks; closed
	// its error count over the closed-loop blocks.
	stats        swapdStats
	closedErrors uint64
}

// runBlocks alternates open-loop and closed-loop blocks against d,
// calling between before each block and after the last.
func runBlocks(d *daemon, clients []*http.Client, url string, q workload.Quotes, open, closed time.Duration, keepEvery int, host *hostSpeed, between func() error) (measured, error) {
	var m measured
	span := open / quoteBlocks
	cursor := 0
	for b := 0; b < quoteBlocks; b++ {
		if err := between(); err != nil {
			return m, err
		}
		var sched []workload.Request
		for _, r := range q.Open {
			if r.Due >= time.Duration(b)*span && (r.Due < time.Duration(b+1)*span || b == quoteBlocks-1) {
				sched = append(sched, workload.Request{Due: r.Due - time.Duration(b)*span, Key: r.Key})
			}
		}
		before, err := d.stats(clients[0])
		if err != nil {
			return m, err
		}
		cpu0, err := processCPU(d.pid)
		if err != nil {
			return m, err
		}
		op := runOpen(clients, url, q.Bodies, sched, host)
		cpu1, err := processCPU(d.pid)
		if err != nil {
			return m, err
		}
		after, err := d.stats(clients[0])
		if err != nil {
			return m, err
		}
		m.cpu += cpu1 - cpu0
		m.stats.addDelta(after, before)
		m.open.samples = append(m.open.samples, op.samples...)
		m.open.lag = append(m.open.lag, op.lag...)
		m.open.backlogEnd = max(m.open.backlogEnd, op.backlogEnd)
		m.open.elapsed += op.elapsed

		cl := runClosed(clients, url, q.Bodies, q.Closed[cursor:], closed/quoteBlocks, keepEvery)
		cursor += cl.used
		end, err := d.stats(clients[0])
		if err != nil {
			return m, err
		}
		m.closedErrors += end.Requests.Errors - after.Requests.Errors
		m.rates = append(m.rates, completionRates(cl.done, cl.elapsed)...)
		m.closed.kept = append(m.closed.kept, cl.kept...)
		m.closed.attempts += cl.attempts
		m.closed.failures += cl.failures
		m.closed.elapsed += cl.elapsed
	}
	return m, between()
}

// warmDaemon starts swapd and sends it the warm-up quotes once each,
// checking every answer against ref (which it fills on first sight). It
// returns the daemon and the set-up time: spawn to healthy, plus the
// warm-up.
func warmDaemon(cfg runConfig, q workload.Quotes, ref map[int]string, res *result) (*daemon, float64, error) {
	d, err := startDaemon(cfg.bin("swapd"))
	if err != nil {
		return nil, 0, err
	}
	warm := time.Now()
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	for _, key := range q.Warm {
		res.Attempted++
		status, body, err := post(client, d.base+"/rpc", q.Bodies[key], true, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		var dg string
		if err == nil {
			_, dg, err = inspect(body, key)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up quote %d: %w", key, err)
		}
		if want, ok := ref[key]; !ok {
			ref[key] = dg
		} else if dg != want {
			res.mismatch("hot quote %d answered differently by two daemons", key)
		}
	}
	return d, (d.healthyIn + time.Since(warm)).Seconds(), nil
}

// runQuote measures quote-fresh or quote-repeat against the swapd binary.
func runQuote(cfg runConfig, name string) (*result, error) {
	open := time.Duration(float64(cfg.measure) * openShare)
	closed := cfg.measure - open
	repeat := name == workload.QuoteRepeat
	var q workload.Quotes
	keepEvery := 1
	if repeat {
		q = workload.Repeat(cfg.seed, open, int(closed.Seconds()*repeatClosedPerSec))
		keepEvery = repeatKeepEvery
	} else {
		q = workload.Fresh(cfg.seed, open, int(closed.Seconds()*freshClosedPerSec))
	}
	res := newResult(name)
	clients := newClients()
	defer closeClients(clients)

	// Set-up: spawn the measured daemon (and, for quote-repeat, send each
	// hot quote once).
	ref := make(map[int]string) // hot key -> digest of its first answer
	d, first, err := warmDaemon(cfg, q, ref, res)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setups := []float64{first}
	// Before each block and after the last, one more daemon is started,
	// its set-up timed, and stopped, so set-up too is sampled across the
	// run.
	setupProbe := func() error {
		p, secs, err := warmDaemon(cfg, q, ref, res)
		if err != nil {
			return err
		}
		if _, err := p.stop(); err != nil {
			return err
		}
		setups = append(setups, secs)
		return nil
	}

	// Start the timed part from a collected heap, so a collection of the
	// inputs does not land in it.
	runtime.GC()
	m, err := runBlocks(d, clients, d.base+"/rpc", q, open, closed, keepEvery, &res.host, setupProbe)
	if err != nil {
		return nil, err
	}
	res.metric(mSetup, median(setups), "s", len(setups), timeLike)
	closeClients(clients)
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	// Check every kept body, then score the phases.
	op, cl := m.open, m.closed
	var lat, elapsed, outside []float64
	digests := make([]string, len(op.samples))
	res.Attempted += len(op.samples)
	for i := range op.samples {
		s := &op.samples[i]
		if !s.ok() {
			res.Failed++
			continue
		}
		r, dg, err := inspect(s.body, s.key)
		if err != nil {
			res.Failed++
			continue
		}
		digests[i] = dg
		if repeat && dg != ref[s.key] {
			res.mismatch("quote-repeat open-loop response for hot quote %d differs from its first answer", s.key)
			continue
		}
		lat = append(lat, ms(s.latency()))
		elapsed = append(elapsed, float64(r.Result.ElapsedUs))
		outside = append(outside, float64((s.done-s.sent).Microseconds()-r.Result.ElapsedUs))
	}
	closedDigests := make([]string, len(cl.kept))
	badKept := 0
	for i, s := range cl.kept {
		if !s.ok() {
			continue // already counted in cl.failures
		}
		_, dg, err := inspect(s.body, s.key)
		if err != nil {
			badKept++
			continue
		}
		closedDigests[i] = dg
		if repeat && dg != ref[s.key] {
			res.mismatch("quote-repeat closed-loop response for hot quote %d differs from its first answer", s.key)
		}
	}
	// Unkept closed-loop bodies are not read, so an error answer among
	// them shows only in the daemon's error counter; a kept one shows in
	// both, hence the larger of the two counts.
	res.Attempted += cl.attempts
	res.Failed += max(cl.failures+badKept, int(m.closedErrors))
	if !repeat {
		if err := checkFresh(cfg, res, op, digests, cl, closedDigests, q); err != nil {
			return nil, err
		}
	}

	if res.host.units == 0 {
		return nil, errors.New("the server was never idle long enough to time the host")
	}
	if len(lat) == 0 {
		return nil, errors.New("no open-loop request succeeded")
	}
	if len(m.rates) == 0 {
		return nil, fmt.Errorf("each closed-loop block ran under one %v bin; measure 12 s or more", rateBin)
	}
	lat = sorted(lat)
	res.metric(mP50, workload.NearestRank(lat, 0.50), "ms", len(lat), timeLike)
	if workload.TailSupported(len(lat), 0.99) {
		res.metric(mTail, workload.NearestRank(lat, 0.99), "ms", len(lat), timeLike)
	}
	res.metric(mThroughput, median(m.rates), "1/s", len(m.rates), rateLike)
	res.metric(mCPU, ms(m.cpu)/float64(len(lat)), "ms", len(lat), timeLike)
	res.metric(mRSS, rss, "MB", 1, plain)

	// Run validity and the daemon's own counters over the open loop.
	lags := make([]float64, len(op.lag))
	waits := make([]float64, len(op.samples))
	for i := range op.samples {
		lags[i] = ms(op.lag[i])
		waits[i] = ms(op.samples[i].sent - op.samples[i].enqueued)
	}
	lagP99 := workload.NearestRank(sorted(lags), 0.99)
	res.layer("bench.gen_lag_p99_ms", lagP99, "ms", len(lags), "")
	res.layer("bench.wait_p99_ms", workload.NearestRank(sorted(waits), 0.99), "ms", len(waits), "")
	res.layer("bench.backlog_end", float64(op.backlogEnd), "count", quoteBlocks, "")
	if lagP99 > ms(maxGenLag) {
		res.invalidate("generator lag p99 %.3f ms exceeds %v", lagP99, maxGenLag)
	}
	if op.backlogEnd > 0 {
		res.invalidate("%d requests still queued at a block's last due time", op.backlogEnd)
	}
	elapsed, outside = sorted(elapsed), sorted(outside)
	res.layer("rpc.elapsed_p50_us", workload.NearestRank(elapsed, 0.50), "us", len(elapsed), "")
	res.layer("rpc.elapsed_p99_us", workload.NearestRank(elapsed, 0.99), "us", len(elapsed), "")
	res.layer("rpc.outside_p50_us", workload.NearestRank(outside, 0.50), "us", len(outside), "")
	st := m.stats
	res.ratio("rpc.resp_cache.hit_ratio", st.RespCache.Hits, st.RespCache.Misses)
	res.count("rpc.resp_cache.evictions", st.RespCache.Evictions)
	res.ratio("rpc.flight.hit_ratio", st.Coalescing.Waiters, st.Coalescing.Leaders)
	res.count("rpc.admission.queued_total", st.Admission.QueuedTotal)
	res.count("rpc.admission.shed", st.Admission.Shed)
	res.count("rpc.errors", st.Requests.Errors)
	res.ratio("solvecache.model_hit_ratio", st.SolveCache.ModelHits, st.SolveCache.ModelMisses)
	res.ratio("solvecache.solve_hit_ratio", st.SolveCache.SolveHits, st.SolveCache.SolveMisses)
	res.count("solvecache.solve_misses", st.SolveCache.SolveMisses)
	res.count("solvecache.evicted", st.SolveCache.Evicted)
	res.Phases = map[string]string{
		"open": fmt.Sprintf("%d blocks, %v in all, %d requests",
			quoteBlocks, op.elapsed.Round(time.Millisecond), len(op.samples)),
		"closed": fmt.Sprintf("%d blocks, %v in all, on %d connections, %d requests",
			quoteBlocks, cl.elapsed.Round(time.Millisecond), loadConns, cl.attempts),
	}
	return res, nil
}

// checkFresh replays a sample of quote-fresh's requests, serially, against
// a second daemon with the response cache off, and compares digests: every
// DupEvery-th quote (offset from the duplicated ones), both copies of every
// duplicate pair, and every DupEvery-th closed-loop quote.
func checkFresh(cfg runConfig, res *result, op openResult, digests []string, cl closedResult, closedDigests []string, q workload.Quotes) error {
	type check struct {
		key    int
		digest string
	}
	var checks []check
	for i, s := range op.samples {
		if digests[i] != "" && (s.key%workload.DupEvery == workload.DupEvery/2 || workload.IsDup(s.key)) {
			checks = append(checks, check{s.key, digests[i]})
		}
	}
	for i, s := range cl.kept {
		if closedDigests[i] != "" && s.key%workload.DupEvery == workload.DupEvery/2 {
			checks = append(checks, check{s.key, closedDigests[i]})
		}
	}
	d, err := startDaemon(cfg.bin("swapd"), "-resp-cache", "0")
	if err != nil {
		return err
	}
	defer d.stop()
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	want := make(map[int]string)
	for _, c := range checks {
		dg, ok := want[c.key]
		if !ok {
			res.Attempted++
			status, body, err := post(client, d.base+"/rpc", q.Bodies[c.key], true, nil)
			if err != nil || status != http.StatusOK {
				res.Failed++
				continue
			}
			if _, dg, err = inspect(body, c.key); err != nil {
				res.Failed++
				continue
			}
			want[c.key] = dg
		}
		if dg != c.digest {
			res.mismatch("quote-fresh response for quote %d differs from the uncached daemon's", c.key)
		}
	}
	res.layer("bench.fresh_checked", float64(len(checks)), "count", len(want), "")
	_, err = d.stop()
	return err
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
