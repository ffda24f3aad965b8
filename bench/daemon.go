package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// daemon is one running swapd.
type daemon struct {
	base string // http://host:port
	pid  int
	// healthyIn is the time from spawn to the first /healthz 200.
	healthyIn time.Duration
	stop      func() (rssMB float64, err error)
}

// listenLine matches swapd's start-up log line and captures its address.
var listenLine = regexp.MustCompile(`listening on (\S+)`)

// addrWriter receives swapd's standard output and reports the listen
// address from the first "listening on" line; the rest is discarded.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if m := listenLine.FindSubmatch(w.buf); m != nil {
		w.sent = true
		w.addr <- string(m[1])
		w.buf = nil
	}
	return len(p), nil
}

// startupTimeout bounds how long swapd may take to become healthy.
const startupTimeout = 20 * time.Second

// startDaemon spawns swapd on an ephemeral loopback port and waits until
// it has printed its listening line and answered /healthz with 200,
// polling every millisecond.
func startDaemon(bin string, args ...string) (*daemon, error) {
	argv := append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := command(bin, argv...)
	w := &addrWriter{addr: make(chan string, 1)}
	cmd.Stdout = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting swapd: %w", err)
	}
	var once sync.Once
	var rss float64
	var waitErr error
	stop := func() (float64, error) {
		once.Do(func() {
			// SIGTERM drains in-flight work; a daemon that will not drain
			// within the timeout is killed.
			_ = cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case waitErr = <-done:
				// swapd installs its SIGTERM handler just after it starts
				// serving, so a daemon stopped right after start-up can
				// die of the signal instead of draining; either way it
				// has stopped.
				var exit *exec.ExitError
				if errors.As(waitErr, &exit) {
					if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signal() == syscall.SIGTERM {
						waitErr = nil
					}
				}
			case <-time.After(startupTimeout):
				_ = cmd.Process.Kill()
				waitErr = fmt.Errorf("swapd did not drain: %w", <-done)
			}
			if cmd.ProcessState != nil {
				rss = maxRSSMB(cmd.ProcessState)
			}
		})
		return rss, waitErr
	}
	d := &daemon{pid: cmd.Process.Pid, stop: stop}
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
	case <-time.After(startupTimeout):
		stop()
		return nil, errors.New("swapd printed no listening line")
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > startupTimeout {
			stop()
			return nil, fmt.Errorf("swapd at %s never became healthy", d.base)
		}
		time.Sleep(time.Millisecond)
	}
	d.healthyIn = time.Since(start)
	client.CloseIdleConnections()
	return d, nil
}

// swapdStats is the slice of swapd.stats the benchmark reads.
type swapdStats struct {
	Requests struct {
		Errors uint64 `json:"errors"`
	} `json:"requests"`
	Admission struct {
		QueuedTotal uint64 `json:"queuedTotal"`
		Shed        uint64 `json:"shed"`
	} `json:"admission"`
	Coalescing struct {
		Leaders uint64 `json:"leaders"`
		Waiters uint64 `json:"waiters"`
	} `json:"coalescing"`
	SolveCache struct {
		ModelHits   uint64 `json:"modelHits"`
		ModelMisses uint64 `json:"modelMisses"`
		Evicted     uint64 `json:"evicted"`
		SolveHits   uint64 `json:"solveHits"`
		SolveMisses uint64 `json:"solveMisses"`
	} `json:"solveCache"`
	RespCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"respCache"`
}

// addDelta adds the counters' growth from before to after.
func (s *swapdStats) addDelta(after, before swapdStats) {
	s.Requests.Errors += after.Requests.Errors - before.Requests.Errors
	s.Admission.QueuedTotal += after.Admission.QueuedTotal - before.Admission.QueuedTotal
	s.Admission.Shed += after.Admission.Shed - before.Admission.Shed
	s.Coalescing.Leaders += after.Coalescing.Leaders - before.Coalescing.Leaders
	s.Coalescing.Waiters += after.Coalescing.Waiters - before.Coalescing.Waiters
	s.SolveCache.ModelHits += after.SolveCache.ModelHits - before.SolveCache.ModelHits
	s.SolveCache.ModelMisses += after.SolveCache.ModelMisses - before.SolveCache.ModelMisses
	s.SolveCache.Evicted += after.SolveCache.Evicted - before.SolveCache.Evicted
	s.SolveCache.SolveHits += after.SolveCache.SolveHits - before.SolveCache.SolveHits
	s.SolveCache.SolveMisses += after.SolveCache.SolveMisses - before.SolveCache.SolveMisses
	s.RespCache.Hits += after.RespCache.Hits - before.RespCache.Hits
	s.RespCache.Misses += after.RespCache.Misses - before.RespCache.Misses
	s.RespCache.Evictions += after.RespCache.Evictions - before.RespCache.Evictions
}

// stats reads swapd.stats over client.
func (d *daemon) stats(client *http.Client) (swapdStats, error) {
	body := []byte(`{"jsonrpc":"2.0","id":"bench","method":"swapd.stats"}`)
	resp, err := client.Post(d.base+"/rpc", "application/json", bytes.NewReader(body))
	if err != nil {
		return swapdStats{}, fmt.Errorf("swapd.stats: %w", err)
	}
	defer resp.Body.Close()
	var env struct {
		Result *swapdStats      `json:"result"`
		Error  *json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return swapdStats{}, fmt.Errorf("swapd.stats: %w", err)
	}
	if env.Result == nil {
		return swapdStats{}, errors.New("swapd.stats: no result")
	}
	return *env.Result, nil
}
