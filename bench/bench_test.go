package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/bench/internal/workload"
)

// schedule is n due times spacing apart, each with its own key.
func schedule(n int, spacing time.Duration) []workload.Request {
	out := make([]workload.Request, n)
	for i := range out {
		out[i] = workload.Request{Due: time.Duration(i) * spacing, Key: i}
	}
	return out
}

func bodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte("{}")
	}
	return out
}

// TestOpenLoopChargesStall stalls the whole server once for 200ms: the
// requests due during the stall must be charged the wait from their due
// time, while the generator keeps to its schedule.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		mu.Lock()
		if first {
			first = false
			time.Sleep(stall)
		}
		mu.Unlock()
		_, _ = io.WriteString(w, `{"result":{}}`)
	}))
	defer srv.Close()
	clients := newClients()
	defer closeClients(clients)

	sched := schedule(40, 10*time.Millisecond)
	res := runOpen(clients, srv.URL, bodies(len(sched)), sched, nil)
	for i, s := range res.samples {
		if !s.ok() {
			t.Fatalf("request %d failed: %v (status %d)", i, s.err, s.status)
		}
		// Requests due while the stall lasts cannot finish before it ends.
		if s.due < stall-20*time.Millisecond && s.done < stall {
			t.Errorf("request %d due at %v finished at %v, inside the stall", i, s.due, s.done)
		}
		if s.due >= 100*time.Millisecond && s.due < 150*time.Millisecond && s.latency() < 40*time.Millisecond {
			t.Errorf("request %d due at %v has latency %v; the stall was not charged from its due time", i, s.due, s.latency())
		}
		if res.lag[i] > 50*time.Millisecond {
			t.Errorf("generator handed request %d over %v late: it must not wait for the server", i, res.lag[i])
		}
		if s.enqueued-s.due != res.lag[i] {
			t.Errorf("request %d: lag %v is not enqueue time %v minus due time %v", i, res.lag[i], s.enqueued, s.due)
		}
	}
	if res.backlogEnd != 0 {
		t.Errorf("backlog at the last due time = %d, want 0 once the stall has drained", res.backlogEnd)
	}
}

// TestOpenLoopBacklog checks the end-of-schedule backlog: a server slower
// than the schedule leaves requests waiting for a connection.
func TestOpenLoopBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		_, _ = io.WriteString(w, `{}`)
	}))
	defer srv.Close()
	clients := newClients()
	defer closeClients(clients)
	// 20 requests 5ms apart against two connections at 30ms each: by the
	// last due time (95ms) at most eight have been sent.
	sched := schedule(20, 5*time.Millisecond)
	res := runOpen(clients, srv.URL, bodies(len(sched)), sched, nil)
	if res.backlogEnd < 5 {
		t.Errorf("backlog at the last due time = %d, want at least 5", res.backlogEnd)
	}
	for i, s := range res.samples {
		if s.sent < s.enqueued {
			t.Errorf("request %d sent at %v before it was enqueued at %v", i, s.sent, s.enqueued)
		}
	}
}

// TestOpenLoopProbesHost checks that the generator times the host between
// due times, at most once per probeSpacing.
func TestOpenLoopProbesHost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{}`)
	}))
	defer srv.Close()
	clients := newClients()
	defer closeClients(clients)

	var host hostSpeed
	sched := schedule(40, 10*time.Millisecond) // 400ms: room for several probes
	res := runOpen(clients, srv.URL, bodies(len(sched)), sched, &host)
	for i, s := range res.samples {
		if !s.ok() {
			t.Fatalf("request %d failed: %v (status %d)", i, s.err, s.status)
		}
	}
	// At most one probe per probeSpacing, and at least one.
	if host.units < 1 || host.units > int(sched[len(sched)-1].Due/probeSpacing)+1 {
		t.Errorf("%d host probes over %v, want between 1 and one per %v", host.units, sched[len(sched)-1].Due, probeSpacing)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) and median to statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v, %v and median %v; want %v, %v and %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

func TestCompletionRates(t *testing.T) {
	var done []time.Duration
	for i, n := range []int{10, 30, 20, 5} { // per half second; the last bin is partial
		for j := 0; j < n; j++ {
			done = append(done, time.Duration(i)*rateBin+time.Duration(j)*time.Millisecond)
		}
	}
	got := completionRates(done, 3*rateBin+rateBin/2)
	if want := []float64{20, 60, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("completionRates = %v, want %v", got, want)
	}
	if got := completionRates(done, rateBin/2); len(got) != 0 {
		t.Errorf("a phase shorter than one bin gave rates %v", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; fields 14 and 15
	// (utime, stime) count from the last ')'.
	stat := "4242 (swap (d) x) S 1 4242 4242 0 -1 4194560 1203 0 0 0 250 75 0 0 20 0 9 0 1234 1000 500\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 325 {
		t.Errorf("parseStatCPU = %d, %v; want 325", got, err)
	}
	for _, bad := range []string{"", "4242 swapd S 1 2", "4242 (swapd) S 1 2 3", "4242 (swapd) S 1 2 3 4 5 6 7 8 9 10 x 75 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
	if _, err := processCPU(os.Getpid()); err != nil {
		t.Errorf("processCPU(self): %v", err)
	}
}

// TestGoldenOutput builds the expected cmd/figures output from a fixture
// of golden files: the files in the given order, then the artifact count.
func TestGoldenOutput(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "figures", "testdata", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"a": "==== a ====\nalpha\n\n",
		"b": "==== b1 ====\nbeta ==== not a header\n\n==== b2 ====\ngamma\n\n",
	}
	for id, body := range files {
		if err := os.WriteFile(filepath.Join(dir, id+".golden"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := goldenOutput(root, []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	want := files["b"] + files["a"] + "generated 3 artifacts\n"
	if string(got) != want {
		t.Errorf("goldenOutput =\n%q\nwant\n%q", got, want)
	}
	if _, err := goldenOutput(root, []string{"missing"}); err == nil {
		t.Error("a missing golden file must be an error")
	}
}
