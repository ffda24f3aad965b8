package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	err := run([]string{"-fault", "nope"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-fault") {
		t.Fatalf("err = %v, want a -fault parse error", err)
	}
}

func TestRunRejectsUnusableStoreDir(t *testing.T) {
	// A regular file where the store directory should be: Open must fail
	// before the daemon ever listens.
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-store", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("err = %v, want a -store open error", err)
	}
}

// TestPartialHeaderClosed checks the header guard: the server swapd
// builds carries the connection deadlines (and no whole-request
// ReadTimeout, which would cancel long streams), and a client that sends
// part of a request header and stalls is disconnected, not held.
func TestPartialHeaderClosed(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.ReadTimeout != 0 {
		t.Fatalf("server deadlines = header %v, idle %v, read %v; want %v, %v, 0",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the guard itself, at test speed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /rpc HTTP/1.1\r\nHost: test\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("partial-header connection still open after 5s: %v", err)
	}
}

// TestRunServesAndDrains runs the daemon end to end: it announces its
// address, answers a request and streams a simulation over POST /rpc,
// then drains and returns cleanly on SIGINT.
func TestRunServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	var addr string
	for addr == "" && lines.Scan() {
		if _, rest, ok := strings.Cut(lines.Text(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address (run: %v)", <-done)
	}
	go io.Copy(io.Discard, pr) // keep the log pipe drained

	post := func(body string) string {
		resp, err := http.Post("http://"+addr+"/rpc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		return string(data)
	}
	if got := post(`{"jsonrpc":"2.0","id":1,"method":"scenario.list"}`); !strings.Contains(got, `"tableIII"`) {
		t.Errorf("scenario.list = %.200s", got)
	}
	got := post(`{"jsonrpc":"2.0","id":2,"method":"swap.simulate","params":{"scenario":"tableIII","runs":600,"everyPaths":256}}`)
	streamed := strings.Split(strings.TrimSpace(got), "\n")
	if len(streamed) < 2 || !strings.Contains(streamed[0], `"swap.progress"`) ||
		!strings.Contains(streamed[len(streamed)-1], `"paths":600`) {
		t.Errorf("swap.simulate stream = %q, want progress lines then the 600-path result", streamed)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGINT: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain on SIGINT")
	}
}
