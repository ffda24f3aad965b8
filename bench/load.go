package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/internal/workload"
)

// loadConns is the number of keep-alive connections the load generator
// holds: one per sender goroutine, each on its own transport.
const loadConns = 2

// newClients returns loadConns clients, each pinned to one keep-alive
// connection.
func newClients() []*http.Client {
	out := make([]*http.Client, loadConns)
	for i := range out {
		out[i] = &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: time.Minute,
		}
	}
	return out
}

// closeClients drops the clients' idle connections.
func closeClients(clients []*http.Client) {
	for _, c := range clients {
		c.CloseIdleConnections()
	}
}

// post sends one JSON-RPC request. With keep it returns the response body;
// otherwise the body is read into scratch and discarded.
func post(c *http.Client, url string, body []byte, keep bool, scratch *bytes.Buffer) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	scratch.Reset()
	_, err = scratch.ReadFrom(resp.Body)
	return resp.StatusCode, nil, err
}

// sample is one request of a timed phase. Times are offsets from the
// start of the phase.
type sample struct {
	key      int
	due      time.Duration // when the schedule said to send it
	enqueued time.Duration // when the generator handed it to the senders
	sent     time.Duration // when a connection took it
	done     time.Duration // when its last response byte arrived
	status   int
	err      error
	body     []byte
}

// ok reports a transport-level success; the body is checked separately.
func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latency is the request's time from due to last byte: a stall is
// charged to every request queued behind it.
func (s *sample) latency() time.Duration { return s.done - s.due }

// openResult is one open-loop phase.
type openResult struct {
	samples []sample
	// lag is how late the generator handed each request over, per
	// request.
	lag []time.Duration
	// backlogEnd is the number of requests still waiting for a connection
	// when the schedule's last due time arrived.
	backlogEnd int
	elapsed    time.Duration
}

// Host probes during an open loop: at most one per probeSpacing, and only
// when no request is in flight and the next is due at least probeRoom
// later, so a probe neither waits for the server's work nor delays a send.
// probePoll is how often the generator looks for that moment.
const (
	probeSpacing = 50 * time.Millisecond
	probeRoom    = time.Millisecond
	probePoll    = 100 * time.Microsecond
)

// runOpen sends the schedule open-loop: each request is handed to the
// senders at its due time whether or not earlier ones have finished.
// Every response body is kept for checking after the phase. While the
// server is idle between due times, the generator times the host's speed
// on host (when not nil).
func runOpen(clients []*http.Client, url string, bodies [][]byte, sched []workload.Request, host *hostSpeed) openResult {
	res := openResult{samples: make([]sample, len(sched)), lag: make([]time.Duration, len(sched))}
	// Sized to the number of sends, so the generator never blocks on a
	// slow server: the queue is where a stall's backlog waits.
	queue := make(chan int, len(sched))
	var inflight atomic.Int64 // enqueued and not yet answered
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				s := &res.samples[i]
				s.sent = time.Since(start)
				s.status, s.body, s.err = post(c, url, bodies[s.key], true, nil)
				s.done = time.Since(start)
				inflight.Add(-1)
			}
		}(c)
	}
	// last is the first request of the final due time.
	last := len(sched) - 1
	for last > 0 && sched[last-1].Due == sched[last].Due {
		last--
	}
	defer lockPreciseSleep()()
	var nextProbe time.Duration
	for i, r := range sched {
		if host != nil && time.Since(start) >= nextProbe {
			for now := time.Since(start); r.Due-now >= probeRoom; now = time.Since(start) {
				if inflight.Load() == 0 {
					host.probe(1)
					nextProbe = time.Since(start) + probeSpacing
					break
				}
				sleepUntil(start, now+probePoll)
			}
		}
		sleepUntil(start, r.Due)
		if i == last {
			res.backlogEnd = len(queue)
		}
		now := time.Since(start)
		res.samples[i] = sample{key: r.Key, due: r.Due, enqueued: now}
		res.lag[i] = now - r.Due
		inflight.Add(1)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// lockPreciseSleep pins the calling goroutine to its thread and cuts the
// thread's timer slack from the default 50µs to 1ns, so sleepUntil wakes
// close to its deadline. It returns the unpin.
func lockPreciseSleep() func() {
	runtime.LockOSThread()
	// Best effort: without it, sleeps run up to the default slack late,
	// and the lateness is measured either way.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return runtime.UnlockOSThread
}

// sleepUntil blocks the thread until due after start. It sleeps in
// nanosleep rather than time.Sleep: the runtime's timers wait in the
// network poller, whose epoll timeout has millisecond resolution, which
// made the generator about 0.5ms late on the median on a 2-vCPU Linux VM.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep ends early; the generator then sends early
		// by at most the remainder, and its lag reads negative.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// closedResult is one closed-loop phase.
type closedResult struct {
	// done holds every completion time, as an offset from phase start.
	done []time.Duration
	// kept holds the requests whose bodies were kept for checking.
	kept     []sample
	attempts int
	failures int
	// used is how many keys the phase drew, sent or not.
	used    int
	elapsed time.Duration
}

// runClosed drives the connections back to back for dur: each sender
// issues its next request as soon as the previous one completes, drawing
// keys in order. It stops early if keys run out. One response in
// keepEvery is kept for checking; the others are counted.
func runClosed(clients []*http.Client, url string, bodies [][]byte, keys []int, dur time.Duration, keepEvery int) closedResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res closedResult
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var done []time.Duration
			var kept []sample
			var scratch bytes.Buffer
			attempts, failures := 0, 0
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) || time.Since(start) >= dur {
					break
				}
				keep := i%keepEvery == 0
				s := sample{key: keys[i], sent: time.Since(start)}
				s.status, s.body, s.err = post(c, url, bodies[s.key], keep, &scratch)
				s.done = time.Since(start)
				attempts++
				if !s.ok() {
					failures++
				} else {
					done = append(done, s.done)
				}
				if keep {
					kept = append(kept, s)
				}
			}
			mu.Lock()
			res.done = append(res.done, done...)
			res.kept = append(res.kept, kept...)
			res.attempts += attempts
			res.failures += failures
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.used = min(int(next.Load()), len(keys))
	return res
}

// rateBin is the width of the bins a closed loop's completion rate is
// read over.
const rateBin = 500 * time.Millisecond

// completionRates returns the completion rate, per second, in each whole
// rateBin of a closed-loop phase; a trailing partial bin is left out.
func completionRates(done []time.Duration, elapsed time.Duration) []float64 {
	n := int(elapsed / rateBin)
	counts := make([]float64, n)
	for _, d := range done {
		if b := int(d / rateBin); b < n {
			counts[b]++
		}
	}
	for i := range counts {
		counts[i] /= rateBin.Seconds()
	}
	return counts
}
