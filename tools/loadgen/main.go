// Command loadgen drives cmd/swapd with a paced, seeded request stream
// and emits a BENCH_rpc.json-style artifact: sustained QPS, latency
// percentiles, the single-flight coalescing hit rate, and an error
// taxonomy (shed / RPC / transport). It is the RPC layer's regression
// gate (`make bench-rpc-json` writes the baseline, `make bench-check`
// and CI's swapd-smoke job replay it with gates) and, with -chaos, the
// chaos harness's client (`make chaos-smoke`).
//
// Usage:
//
//	loadgen -spawn ./bin/swapd -duration 10s -qps 1200 -o BENCH_rpc.json
//	loadgen -addr http://127.0.0.1:8547 -duration 5s -qps 800 \
//	  -min-qps 600 -max-p99-ms 80 -require-coalesce
//	loadgen -spawn ./bin/swapd -spawn-args "-fault rpc.error=0.05 -fault-seed 42" \
//	  -chaos -duration 6s -require-shed -min-goodput 50 -digest-against d.json
//	loadgen -spawn ./bin/swapd -hot-frac 0.6 -hot-keys 8 -warm \
//	  -duration 5s -qps 400 -min-warm-hit 0.5 -warm-faster
//
// The stream mixes cheap cached solves across a weighted preset mix with
// periodic bursts of identical Monte Carlo solves (every -dup-every
// dispatches, -dup-burst concurrent copies with a fresh per-burst seed),
// so the single-flight layer always sees coalesceable load: within one
// burst exactly one request computes and the rest ride along with
// coalesced=true. Everything is seeded; two runs with the same flags
// issue the same request sequence — which is what the digest flags
// exploit: -digest-out records a canonical hash of every successful
// result by request index, and -digest-against fails the run if any
// request that succeeded in both runs solved to different bytes (the
// chaos harness's correctness gate: faults may shed or delay requests,
// never corrupt them).
//
// In -chaos mode, shed (-32005), internal (-32603) and transport errors
// are retried with jittered exponential backoff that honors the server's
// retryAfterMs hint; the report then carries goodput (successful QPS)
// and a retry histogram alongside the latency percentiles.
//
// -hot-frac switches the non-burst stream to a hot-key mix (that
// fraction of requests draws Zipf-style from -hot-keys stable keyed
// solves, the rest are unique per request) and -warm replays the
// byte-identical seeded stream a second time against the same daemon:
// the report grows a warm row with the pass's cached responses (the
// client's own tally of cached:true answers) and the server's per-cell
// retained-cell and solve-store hit deltas, gated by -min-warm-hit (on
// the client tally) and -warm-faster — the cache tiers' regression
// checks.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// Report is the BENCH_rpc.json schema.
type Report struct {
	// Note says how to regenerate the artifact.
	Note string `json:"note"`
	// Config echoes the generator settings the numbers were measured under.
	Config runConfig `json:"config"`
	// Results is the first (cold) pass; Warm, when -warm replayed the
	// stream, the second pass against the already-populated caches.
	Results Results  `json:"results"`
	Warm    *Results `json:"warm,omitempty"`
}

// runConfig is the generator settings of one report. Two reports' numbers
// are comparable only under equal settings.
type runConfig struct {
	QPS       int     `json:"qps"`
	DurationS float64 `json:"duration_s"`
	Seed      int64   `json:"seed"`
	Mix       string  `json:"mix"`
	DupEvery  int     `json:"dup_every"`
	DupBurst  int     `json:"dup_burst"`
	MCRuns    int     `json:"mc_runs"`
	// Chaos records that the run retried retryable errors with
	// backoff (the chaos-smoke client mode).
	Chaos bool `json:"chaos,omitempty"`
	// HotFrac/HotKeys describe the hot-key mix: HotFrac of non-burst
	// requests draw Zipf-style from HotKeys distinct keyed solves, the
	// rest are unique per request (0 = the classic preset mix).
	HotFrac float64 `json:"hot_frac,omitempty"`
	HotKeys int     `json:"hot_keys,omitempty"`
	// WarmReplay records that the identical seeded stream ran twice
	// against the same daemon; the second pass is the warm row.
	WarmReplay bool `json:"warm_replay,omitempty"`
}

// Results are one pass's measured aggregates. Latency percentiles are
// over successful responses only; errors are tallied separately, by
// class.
type Results struct {
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	SustainedQPS float64 `json:"sustained_qps"`
	P50Us        float64 `json:"p50_us"`
	P90Us        float64 `json:"p90_us"`
	P99Us        float64 `json:"p99_us"`
	MaxUs        float64 `json:"max_us"`
	// Coalesced counts responses served from another request's
	// in-flight computation; HitRate is the server's waiters /
	// (leaders + waiters) over this pass.
	Coalesced int     `json:"coalesced"`
	HitRate   float64 `json:"coalesce_hit_rate"`
	// The error taxonomy: Shed counts requests that ended -32005
	// overloaded, RPCErrors other JSON-RPC errors, TransportErrors
	// requests that never produced a decodable response. The three
	// sum to Errors. All are terminal outcomes — in chaos mode, after
	// the retry budget.
	Shed            int `json:"shed"`
	RPCErrors       int `json:"rpc_errors"`
	TransportErrors int `json:"transport_errors"`
	// GoodputQPS is successful responses per second of wall clock —
	// the chaos harness's floor metric. Attempts counts every HTTP
	// round trip (retries included); Retries is attempts beyond each
	// request's first. RetryHistogram[k] counts requests that
	// succeeded after exactly k retries (omitted when no retries ran).
	GoodputQPS     float64 `json:"goodput_qps"`
	Attempts       int     `json:"attempts"`
	Retries        int     `json:"retries"`
	RetryHistogram []int   `json:"retry_histogram,omitempty"`
	// ServerShed and PanicsRecovered are this pass's server-side shed
	// tally (the -require-shed gate) and the panics the daemon absorbed
	// instead of crashing.
	ServerShed      uint64 `json:"server_shed"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	// CachedResponses is the client's tally of successful responses
	// marked cached:true (every cell served from retained bytes) — the
	// -min-warm-hit gate reads it.
	CachedResponses int `json:"cached_responses"`
	// RespCacheHits and StoreHits are this pass's retained-cell and
	// solve-store hits; both count cells, not requests. Every server-side
	// field is the delta of two swapd.stats snapshots bracketing the pass.
	RespCacheHits uint64 `json:"resp_cache_hits"`
	StoreHits     uint64 `json:"store_hits"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "swapd base URL (e.g. http://127.0.0.1:8547); empty requires -spawn")
		spawn     = fs.String("spawn", "", "path to a swapd binary to spawn on a free port for the run")
		spawnArgs = fs.String("spawn-args", "", "extra arguments for the spawned swapd (space-separated)")
		duration  = fs.Duration("duration", 10*time.Second, "how long to generate load")
		qps       = fs.Int("qps", 1200, "target request rate")
		seed      = fs.Int64("seed", 1, "RNG seed for the request sequence")
		mix       = fs.String("mix", "tableIII:4,high-vol:2,low-vol:2,fee-stress:1,deep-collateral:1",
			"weighted preset mix (name:weight,...)")
		dupEvery = fs.Int("dup-every", 100, "dispatch a coalesceable burst every N requests (0 disables)")
		dupBurst = fs.Int("dup-burst", 4, "identical concurrent requests per burst")
		mcRuns   = fs.Int("mc-runs", 2000, "Monte Carlo runs of each burst request (the coalesceable work)")
		hotFrac  = fs.Float64("hot-frac", 0, "fraction of non-burst requests drawn Zipf-style from -hot-keys keyed solves; the rest get a unique key each (0 = classic preset mix)")
		hotKeys  = fs.Int("hot-keys", 8, "distinct hot keys behind -hot-frac")
		warm     = fs.Bool("warm", false, "replay the identical seeded stream a second time against the same daemon and report it as the warm row")
		workers  = fs.Int("workers", 32, "sender goroutines")
		chaos    = fs.Bool("chaos", false, "retry shed/internal/transport errors with jittered backoff honoring retryAfterMs")
		output   = fs.String("o", "", "write the JSON report here ('-' or empty = stdout only)")
		note     = fs.String("note", "regenerate with `make bench-rpc-json`", "note field of the report")

		digestOut     = fs.String("digest-out", "", "write a result-digest file (request index -> canonical result hash)")
		digestAgainst = fs.String("digest-against", "", "digest file to compare against: shared successes must hash identically")

		minQPS          = fs.Float64("min-qps", 0, "fail unless sustained QPS >= this (0 = no gate)")
		maxP99Ms        = fs.Float64("max-p99-ms", 0, "fail unless p99 latency <= this (0 = no gate)")
		requireCoalesce = fs.Bool("require-coalesce", false, "fail unless the coalescing hit rate is > 0")
		maxErrorRate    = fs.Float64("max-error-rate", 0.01, "fail when errors/requests exceeds this")
		requireShed     = fs.Bool("require-shed", false, "fail unless the server shed at least one request (overload proof)")
		minGoodput      = fs.Float64("min-goodput", 0, "fail unless goodput (successful QPS) >= this (0 = no gate)")
		minWarmHit      = fs.Float64("min-warm-hit", 0, "fail unless the warm pass's cached:true responses / requests >= this (needs -warm; 0 = no gate)")
		warmFaster      = fs.Bool("warm-faster", false, "fail unless the warm pass's p50 and p99 beat the cold pass (needs -warm)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}
	if *qps <= 0 || *duration <= 0 || *workers <= 0 {
		return fmt.Errorf("qps, duration and workers must be > 0")
	}
	if *hotFrac < 0 || *hotFrac > 1 {
		return fmt.Errorf("-hot-frac %v out of [0,1]", *hotFrac)
	}
	if *hotFrac > 0 && *hotKeys < 1 {
		return fmt.Errorf("-hot-keys must be >= 1 with -hot-frac")
	}

	base := *addr
	var stop func() error
	if *spawn != "" {
		var url string
		stop, url, err = spawnSwapd(*spawn, strings.Fields(*spawnArgs))
		if err != nil {
			return err
		}
		base = url
	}
	stopDaemon := func() error {
		if stop == nil {
			return nil
		}
		s := stop
		stop = nil
		return s()
	}
	defer stopDaemon()
	if base == "" {
		return fmt.Errorf("need -addr or -spawn")
	}
	if err := waitHealthy(base, 10*time.Second); err != nil {
		return err
	}

	cfg := genConfig{
		qps: *qps, duration: *duration, seed: *seed, weights: weights,
		dupEvery: *dupEvery, dupBurst: *dupBurst, mcRuns: *mcRuns, workers: *workers,
		hotFrac: *hotFrac, hotKeys: *hotKeys,
		chaos:       *chaos,
		wantDigests: *digestOut != "" || *digestAgainst != "" || *warm,
	}
	client := newClient(cfg.workers)
	var (
		rep      Report
		digests  map[int]string
		failures []string
	)
	rep.Results, digests, err = measure(client, base, cfg)
	if err != nil {
		failures = append(failures, err.Error())
	}
	// A -warm replay reissues the byte-identical seeded stream against the
	// populated caches; its pass is the warm row.
	var warmDiverged int
	if *warm {
		w, wdigests, err := measure(client, base, cfg)
		if err != nil {
			failures = append(failures, "warm pass: "+err.Error())
		}
		rep.Warm = &w
		// Cached bytes must decode to exactly what the cold pass solved:
		// any request that succeeded in both passes must digest identically.
		for id, d := range wdigests {
			if cold, ok := digests[id]; ok && cold != d {
				warmDiverged++
			}
		}
	}
	rep.Note = fmt.Sprintf("%s. Recorded with %s %s/%s, GOMAXPROCS=%d.",
		strings.TrimSuffix(*note, "."), runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	rep.Config.QPS = *qps
	rep.Config.DurationS = duration.Seconds()
	rep.Config.Seed = *seed
	rep.Config.Mix = *mix
	rep.Config.DupEvery = *dupEvery
	rep.Config.DupBurst = *dupBurst
	rep.Config.MCRuns = *mcRuns
	rep.Config.Chaos = *chaos
	rep.Config.HotFrac = *hotFrac
	rep.Config.HotKeys = 0
	if *hotFrac > 0 {
		rep.Config.HotKeys = *hotKeys
	}
	rep.Config.WarmReplay = *warm

	printReport(out, rep)
	if *output != "" && *output != "-" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*output, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *output)
	}
	if *digestOut != "" {
		if err := writeDigests(*digestOut, digests); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d result digests)\n", *digestOut, len(digests))
	}

	// A spawned daemon must exit cleanly on SIGINT — a premature death or
	// a refusal to drain is a crash (the chaos harness's zero-escaped-
	// panics gate).
	if err := stopDaemon(); err != nil {
		failures = append(failures, err.Error())
	}

	r := rep.Results
	if frac := errorRate(r.Errors, r.Requests); frac > *maxErrorRate {
		failures = append(failures, fmt.Sprintf("error rate %.2f%% > %.2f%%", frac*100, *maxErrorRate*100))
	}
	if r.Requests == 0 {
		failures = append(failures, "no requests completed")
	}
	if *minQPS > 0 && r.SustainedQPS < *minQPS {
		failures = append(failures, fmt.Sprintf("sustained %.0f QPS < required %.0f", r.SustainedQPS, *minQPS))
	}
	if *maxP99Ms > 0 && r.P99Us > *maxP99Ms*1000 {
		failures = append(failures, fmt.Sprintf("p99 %.2fms > allowed %.2fms", r.P99Us/1000, *maxP99Ms))
	}
	if *requireCoalesce && r.HitRate <= 0 {
		failures = append(failures, "coalescing hit rate is 0")
	}
	if *requireShed && r.ServerShed == 0 {
		failures = append(failures, "server shed 0 requests (overload never engaged admission control)")
	}
	if *minGoodput > 0 && r.GoodputQPS < *minGoodput {
		failures = append(failures, fmt.Sprintf("goodput %.0f QPS < required %.0f", r.GoodputQPS, *minGoodput))
	}
	if warmDiverged > 0 {
		failures = append(failures, fmt.Sprintf("%d warm results differ from the cold pass (cache served wrong bytes)", warmDiverged))
	}
	if *minWarmHit > 0 {
		switch w := rep.Warm; {
		case w == nil:
			failures = append(failures, "-min-warm-hit needs -warm")
		case w.Requests == 0 || float64(w.CachedResponses)/float64(w.Requests) < *minWarmHit:
			failures = append(failures, fmt.Sprintf("warm cached responses %d/%d < required %.2f",
				w.CachedResponses, w.Requests, *minWarmHit))
		}
	}
	if *warmFaster {
		switch w := rep.Warm; {
		case w == nil:
			failures = append(failures, "-warm-faster needs -warm")
		case w.P50Us >= r.P50Us || w.P99Us >= r.P99Us:
			failures = append(failures, fmt.Sprintf("warm pass not faster: p50 %.0fus vs cold %.0fus, p99 %.0fus vs cold %.0fus",
				w.P50Us, r.P50Us, w.P99Us, r.P99Us))
		}
	}
	if *digestAgainst != "" {
		if err := compareDigests(out, *digestAgainst, digests); err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gates failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(out, "gates passed")
	return nil
}

func errorRate(errors, requests int) float64 {
	if requests == 0 {
		return 0
	}
	return float64(errors) / float64(requests)
}

// parseMix parses "name:weight,..." into an expanded weighted list.
func parseMix(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, ":")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w <= 0 {
				return nil, fmt.Errorf("mix entry %q: weight must be a positive integer", part)
			}
		}
		if _, err := scenario.Lookup(name); err != nil {
			return nil, fmt.Errorf("mix entry %q: %v", part, err)
		}
		for i := 0; i < w; i++ {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return out, nil
}

// spawnSwapd starts a swapd child on a free loopback port and returns a
// stop function plus the base URL. The stop function reports a daemon
// that died before being asked to — a crash under load is a failed run,
// not a silent restart.
func spawnSwapd(bin string, extraArgs []string) (func() error, string, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", err
	}
	hostport := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", hostport}, extraArgs...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("spawning %s: %w", bin, err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	stop := func() error {
		select {
		case err := <-waited:
			return fmt.Errorf("swapd crashed mid-run: %v", err)
		default:
		}
		cmd.Process.Signal(os.Interrupt)
		select {
		case <-waited:
			return nil
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-waited
			return fmt.Errorf("swapd did not drain within 10s of SIGINT")
		}
	}
	return stop, "http://" + hostport, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("swapd at %s not healthy after %v", base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// genConfig parameterises one load run.
type genConfig struct {
	qps      int
	duration time.Duration
	seed     int64
	weights  []string
	dupEvery int
	dupBurst int
	mcRuns   int
	workers  int
	// hotFrac > 0 switches the non-burst stream to the hot-key mix:
	// hotFrac of dispatches draw Zipf-style from hotKeys stable keyed
	// solves, the rest carry a unique key each.
	hotFrac float64
	hotKeys int
	// chaos enables the retry loop; wantDigests turns on canonical result
	// hashing (skipped otherwise — it re-parses every response).
	chaos       bool
	wantDigests bool
}

// job is one dispatched request (burst jobs share a body; id is the
// request index in the seeded sequence, the digest key).
type job struct {
	id   int
	body []byte
}

// outcome classifies one request's terminal result.
type outcome struct {
	latencyUs    float64
	coalesced    bool
	cached       bool
	shed         bool
	rpcErr       bool
	transportErr bool
	retries      int
	attempts     int
	result       json.RawMessage // successful result payload (digesting only)
}

func (o outcome) success() bool { return !o.shed && !o.rpcErr && !o.transportErr }

// newClient returns the run's HTTP client: pooled for the sender
// workers, with a per-request timeout.
func newClient(workers int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		},
		Timeout: 30 * time.Second,
	}
}

// measure runs one pass of the stream between two swapd.stats snapshots
// and reports the server's counters as the pass's deltas; the error is a
// failed checkPanicTally. Without both snapshots the hit rate falls back
// to the client's coalesced share of successful responses.
func measure(client *http.Client, base string, cfg genConfig) (Results, map[int]string, error) {
	before, okBefore := fetchStats(client, base)
	r, digests := generate(client, base, cfg)
	after, okAfter := fetchStats(client, base)
	if !okBefore || !okAfter {
		if ok := r.Requests - r.Errors; ok > 0 {
			r.HitRate = float64(r.Coalesced) / float64(ok)
		}
		return r, digests, nil
	}
	leaders := after.Coalescing.Leaders - before.Coalescing.Leaders
	waiters := after.Coalescing.Waiters - before.Coalescing.Waiters
	if leaders+waiters > 0 {
		r.HitRate = float64(waiters) / float64(leaders+waiters)
	}
	r.ServerShed = after.Admission.Shed - before.Admission.Shed
	r.PanicsRecovered = after.Requests.PanicsRecovered - before.Requests.PanicsRecovered
	r.RespCacheHits = after.RespCache.Hits - before.RespCache.Hits
	if after.Store != nil && before.Store != nil {
		r.StoreHits = after.Store.Hits - before.Store.Hits
	}
	return r, digests, checkPanicTally(before, after)
}

// checkPanicTally checks that a pass's recovered panics equal its injected
// rpc.panic fires, once the closing snapshot reports fault tallies; a key
// the opening snapshot omits had fired 0 times. (Sheds are not compared:
// chaos clients retry them.)
func checkPanicTally(before, after rpc.StatsResult) error {
	if after.Faults == nil {
		return nil
	}
	fired := after.Faults[fault.KeyRPCPanic] - before.Faults[fault.KeyRPCPanic]
	recovered := after.Requests.PanicsRecovered - before.Requests.PanicsRecovered
	if recovered != fired {
		return fmt.Errorf("server recovered %d panics but the injector fired %s %d times", recovered, fault.KeyRPCPanic, fired)
	}
	return nil
}

// generate runs the paced stream and aggregates the client-side
// measurements of one pass.
func generate(client *http.Client, base string, cfg genConfig) (Results, map[int]string) {
	var (
		mu        sync.Mutex
		latencies []float64
		coalesced int
		cached    int
		shed      int
		rpcErrs   int
		transport int
		retries   int
		attempts  int
		histogram []int
		digests   = make(map[int]string)
	)
	record := func(id int, o outcome) {
		mu.Lock()
		defer mu.Unlock()
		attempts += o.attempts
		retries += o.retries
		switch {
		case o.transportErr:
			transport++
		case o.shed:
			shed++
		case o.rpcErr:
			rpcErrs++
		default:
			latencies = append(latencies, o.latencyUs)
			if o.coalesced {
				coalesced++
			}
			if o.cached {
				cached++
			}
			for len(histogram) <= o.retries {
				histogram = append(histogram, 0)
			}
			histogram[o.retries]++
			if cfg.wantDigests && o.result != nil {
				if d, err := digestResult(o.result); err == nil {
					digests[id] = d
				}
			}
		}
	}

	jobs := make(chan job, cfg.workers*4)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				record(j.id, send(client, base, j, cfg))
			}
		}()
	}

	// Paced dispatch: each request has a target send time; the dispatcher
	// catches up after stalls instead of silently lagging the rate.
	rng := rand.New(rand.NewSource(cfg.seed))
	var zipf *rand.Zipf
	if cfg.hotFrac > 0 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.hotKeys-1))
	}
	interval := time.Second / time.Duration(cfg.qps)
	start := time.Now()
	end := start.Add(cfg.duration)
	for i := 0; ; i++ {
		target := start.Add(time.Duration(i) * interval)
		if target.After(end) {
			break
		}
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		if cfg.dupEvery > 0 && i%cfg.dupEvery == 0 {
			body := burstBody(rng, cfg, i)
			for b := 0; b < cfg.dupBurst; b++ {
				jobs <- job{id: i, body: body}
			}
			continue
		}
		if zipf != nil {
			if rng.Float64() < cfg.hotFrac {
				jobs <- job{id: i, body: keyedBody(cfg, i, int64(zipf.Uint64()))}
			} else {
				jobs <- job{id: i, body: keyedBody(cfg, i, coldKeyBase+int64(i))}
			}
			continue
		}
		jobs <- job{id: i, body: solveBody(cfg.weights[rng.Intn(len(cfg.weights))], i)}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	var r Results
	errs := shed + rpcErrs + transport
	r.Requests = len(latencies) + errs
	r.Errors = errs
	r.Shed = shed
	r.RPCErrors = rpcErrs
	r.TransportErrors = transport
	r.SustainedQPS = float64(r.Requests) / elapsed.Seconds()
	r.GoodputQPS = float64(len(latencies)) / elapsed.Seconds()
	r.Attempts = attempts
	r.Retries = retries
	if retries > 0 {
		r.RetryHistogram = histogram
	}
	qs := percentiles(latencies, 0.50, 0.90, 0.99, 1)
	r.P50Us, r.P90Us, r.P99Us, r.MaxUs = qs[0], qs[1], qs[2], qs[3]
	r.Coalesced = coalesced
	r.CachedResponses = cached
	return r, digests
}

// solveBody builds a cheap cached solve of a preset.
func solveBody(preset string, id int) []byte {
	return []byte(fmt.Sprintf(
		`{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%q,"budgetMs":20000}}`,
		id, preset))
}

// coldKeyBase offsets per-request unique keys past every hot slot, so
// the hot and cold halves of the mix can never collide on a solve key.
const coldKeyBase = int64(1) << 32

// keyedBody builds a keyed inline-scenario solve: the key picks the
// preset and becomes the seed, so equal keys are byte-identical params
// (a cache-hittable repeat) and distinct keys are distinct solve keys.
// id is only the JSON-RPC envelope id — the server's solve key hashes
// params alone.
func keyedBody(cfg genConfig, id int, key int64) []byte {
	sc, err := scenario.Lookup(cfg.weights[int(uint64(key)%uint64(len(cfg.weights)))])
	if err != nil { // mix is pre-validated; defensive only
		panic(err)
	}
	sc.Seed = key + 1
	sc.MCRuns = cfg.mcRuns
	sc.Variants = []string{"basic"}
	inline, err := json.Marshal(sc)
	if err != nil {
		panic(err)
	}
	return []byte(fmt.Sprintf(
		`{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%s,"mc":true,"budgetMs":20000}}`,
		id, inline))
}

// burstBody builds one burst's shared request: an inline scenario with a
// fresh per-burst seed (so the flight key is new each burst) and a Monte
// Carlo validation expensive enough that the copies overlap in flight.
func burstBody(rng *rand.Rand, cfg genConfig, id int) []byte {
	sc, err := scenario.Lookup(cfg.weights[rng.Intn(len(cfg.weights))])
	if err != nil { // mix is pre-validated; defensive only
		panic(err)
	}
	sc.Seed = rng.Int63()
	sc.MCRuns = cfg.mcRuns
	sc.Variants = []string{"basic"}
	inline, err := json.Marshal(sc)
	if err != nil {
		panic(err)
	}
	return []byte(fmt.Sprintf(
		`{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%s,"mc":true,"budgetMs":20000}}`,
		id, inline))
}

// Error codes the client reacts to (mirrors internal/rpc).
const (
	codeOverloaded    = -32005
	codeInternalError = -32603
)

// postResult is one HTTP attempt's classified response.
type postResult struct {
	coalesced    bool
	cached       bool
	result       json.RawMessage
	errCode      int
	errSet       bool
	retryAfterMs int
	transportErr error
}

// send issues one request, retrying retryable failures when chaos mode
// is on: shed (-32005, honoring the server's retryAfterMs hint),
// injected/internal (-32603), and transport errors, under jittered
// exponential backoff. The jitter is seeded per job, so the retry
// schedule is as reproducible as the request stream.
func send(client *http.Client, base string, j job, cfg genConfig) outcome {
	maxAttempts := 1
	if cfg.chaos {
		maxAttempts = 6
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ int64(j.id)*0x5851f42d4c957f2d))
	backoff := 5 * time.Millisecond
	var out outcome
	for attempt := 0; ; attempt++ {
		start := time.Now()
		res := post(client, base, j.body)
		latency := float64(time.Since(start).Microseconds())
		out.attempts = attempt + 1
		out.retries = attempt
		switch {
		case res.transportErr != nil:
			out.transportErr, out.shed, out.rpcErr = true, false, false
		case res.errSet:
			out.shed = res.errCode == codeOverloaded
			out.rpcErr = !out.shed
			out.transportErr = false
		default:
			out.latencyUs = latency
			out.coalesced = res.coalesced
			out.cached = res.cached
			out.result = res.result
			out.shed, out.rpcErr, out.transportErr = false, false, false
			return out
		}
		retryable := res.transportErr != nil || res.errCode == codeOverloaded || res.errCode == codeInternalError
		if !cfg.chaos || !retryable || attempt == maxAttempts-1 {
			return out
		}
		delay := backoff
		if hint := time.Duration(res.retryAfterMs) * time.Millisecond; hint > delay {
			delay = hint
		}
		// Full jitter on top of the floor, so retry storms decorrelate.
		delay += time.Duration(rng.Int63n(int64(delay) + 1))
		time.Sleep(delay)
		backoff *= 2
	}
}

// post sends one request and classifies the response.
func post(client *http.Client, base string, body []byte) postResult {
	resp, err := client.Post(base+"/rpc", "application/json", bytes.NewReader(body))
	if err != nil {
		return postResult{transportErr: err}
	}
	defer resp.Body.Close()
	var envelope struct {
		Result json.RawMessage `json:"result"`
		Error  *struct {
			Code    int             `json:"code"`
			Message string          `json:"message"`
			Data    json.RawMessage `json:"data"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		return postResult{transportErr: err}
	}
	if envelope.Error != nil {
		out := postResult{errCode: envelope.Error.Code, errSet: true}
		if len(envelope.Error.Data) > 0 {
			var hint struct {
				RetryAfterMs int `json:"retryAfterMs"`
			}
			if json.Unmarshal(envelope.Error.Data, &hint) == nil {
				out.retryAfterMs = hint.RetryAfterMs
			}
		}
		return out
	}
	var served struct {
		Coalesced bool `json:"coalesced"`
		Cached    bool `json:"cached"`
	}
	json.Unmarshal(envelope.Result, &served)
	return postResult{coalesced: served.Coalesced, cached: served.Cached, result: envelope.Result}
}

// fetchStats reads the server's cumulative counters (swapd.stats), in up
// to three tries: a chaos daemon injects errors into swapd.stats too.
func fetchStats(client *http.Client, base string) (rpc.StatsResult, bool) {
	body := []byte(`{"jsonrpc":"2.0","id":"stats","method":"swapd.stats"}`)
	for range 3 {
		resp, err := client.Post(base+"/rpc", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var envelope struct {
			Result *rpc.StatsResult `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err == nil && envelope.Result != nil {
			return *envelope.Result, true
		}
	}
	return rpc.StatsResult{}, false
}

// digestResult canonicalises one solve result and hashes it: volatile
// per-request fields (latency, coalescing luck, cache luck) are dropped, the rest is
// re-marshalled (Go sorts object keys) and SHA-256'd. Two runs of the
// same seeded request must digest identically — faults may delay or shed
// a request, never change what it solves to.
func digestResult(result json.RawMessage) (string, error) {
	var v map[string]any
	if err := json.Unmarshal(result, &v); err != nil {
		return "", err
	}
	delete(v, "elapsedUs")
	delete(v, "coalesced")
	delete(v, "cached")
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digestFile is the -digest-out schema.
type digestFile struct {
	Note    string            `json:"note"`
	Digests map[string]string `json:"digests"`
}

// writeDigests persists the run's result digests.
func writeDigests(path string, digests map[int]string) error {
	out := digestFile{
		Note:    "canonical solve-result hashes by request index; compare with -digest-against",
		Digests: make(map[string]string, len(digests)),
	}
	for id, d := range digests {
		out.Digests[strconv.Itoa(id)] = d
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareDigests checks every request that succeeded in both runs solved
// to byte-identical canonical results — the chaos correctness gate.
func compareDigests(out io.Writer, path string, digests map[int]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("digest baseline: %v", err)
	}
	var base digestFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("digest baseline %s: %v", path, err)
	}
	shared, mismatched := 0, 0
	for id, d := range digests {
		want, ok := base.Digests[strconv.Itoa(id)]
		if !ok {
			continue
		}
		shared++
		if d != want {
			mismatched++
		}
	}
	if shared == 0 {
		return fmt.Errorf("digest compare vs %s: no shared successful requests", path)
	}
	if mismatched > 0 {
		return fmt.Errorf("digest compare vs %s: %d of %d shared results differ (faults corrupted a solve)",
			path, mismatched, shared)
	}
	fmt.Fprintf(out, "digest compare vs %s: %d shared results byte-identical\n", path, shared)
	return nil
}

// percentiles reads the qs-quantiles of latencies by the nearest-rank
// method of stats.Quantiles: the q-quantile is the ceil(q·n)-th smallest.
// A pass with no successes has no sample and reads zeros.
func percentiles(latencies []float64, qs ...float64) []float64 {
	out, err := stats.Quantiles(latencies, qs...)
	if err != nil {
		return make([]float64, len(qs))
	}
	return out
}

// printReport renders the human-readable summary.
func printReport(out io.Writer, rep Report) {
	r := rep.Results
	fmt.Fprintf(out, "loadgen: %d requests (%d errors: %d shed, %d rpc, %d transport), sustained %.0f QPS, goodput %.0f QPS\n",
		r.Requests, r.Errors, r.Shed, r.RPCErrors, r.TransportErrors, r.SustainedQPS, r.GoodputQPS)
	fmt.Fprintf(out, "latency: p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		r.P50Us/1000, r.P90Us/1000, r.P99Us/1000, r.MaxUs/1000)
	fmt.Fprintf(out, "coalescing: %d coalesced responses, server hit rate %.1f%%\n",
		r.Coalesced, r.HitRate*100)
	if r.Retries > 0 {
		fmt.Fprintf(out, "chaos: %d attempts, %d retries, histogram %v, server shed %d, panics recovered %d\n",
			r.Attempts, r.Retries, r.RetryHistogram, r.ServerShed, r.PanicsRecovered)
	}
	if r.CachedResponses > 0 || r.RespCacheHits > 0 || r.StoreHits > 0 {
		fmt.Fprintf(out, "caches: %d cached responses, %d retained-cell hits, %d store hits\n",
			r.CachedResponses, r.RespCacheHits, r.StoreHits)
	}
	if w := rep.Warm; w != nil {
		fmt.Fprintf(out, "warm: %d requests (%d errors), p50 %.2fms  p99 %.2fms, %d cached responses, %d retained-cell hits, %d store hits\n",
			w.Requests, w.Errors, w.P50Us/1000, w.P99Us/1000, w.CachedResponses, w.RespCacheHits, w.StoreHits)
	}
}
