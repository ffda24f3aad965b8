// Command swapd is the long-running quote daemon over the solve/simulate
// core: a JSON-RPC 2.0 server (internal/rpc) that serves any cell of the
// (scenario × variant) matrix, streams Monte Carlo convergence snapshots
// as NDJSON, and mirrors cmd/scenarios' list/diff queries — the
// repository's batch CLIs, as a service.
//
// Usage:
//
//	swapd [-addr :8547] [-drain-timeout 30s]
//	      [-max-inflight 64] [-queue-depth 64] [-queue-wait 25ms]
//	      [-store dir] [-resp-cache 1024]
//	      [-fault key=prob[:delay],...] [-fault-seed 1]
//
// Endpoints:
//
//	POST /rpc      JSON-RPC 2.0: swap.solve, scenario.list, scenario.diff,
//	               swapd.stats, and swap.simulate, whose response is an
//	               application/x-ndjson stream (swap.progress
//	               notifications, then the terminal response; closing the
//	               connection cancels the run)
//	GET  /healthz  liveness (503 while draining)
//
// swap.solve works per (scenario × variant) cell, keyed by the same
// content key as the persistent store: concurrent requests for a cell
// coalesce on one computation, and a solved cell stays retained as wire
// bytes (up to -resp-cache cells, 0 retains none), so a repeat request —
// or any selection sharing its cells — is answered without solving.
// -store points at a persistent content-addressed result store shared
// with `scenarios atlas`, so a restarted daemon starts warm. The shared
// solve-model cache holds at most 512 models. Every request runs under a
// context budget: its budgetMs parameter (default 2s, capped at 60s). A
// request's Monte Carlo runs on one worker and at most 1e6 runs.
// SIGINT/SIGTERM trigger a graceful shutdown: new requests are rejected
// with code -32000, in-flight solves drain for up to -drain-timeout, and
// streams end with a terminal error response.
//
// Expensive requests pass an admission controller (-max-inflight slots,
// a -queue-depth x -queue-wait wait queue); saturation sheds with code
// -32005 and a retryAfterMs hint, and /healthz degrades to 503 while
// shedding. Every socket edge has a deadline: request headers must
// arrive within 10s, a request body within 10s, each stream line must be
// written within 10s, and an idle kept-alive connection is closed after
// 2m. The -fault flags arm the deterministic chaos injector
// (internal/fault) for harness runs — never in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/store"
)

// The connection-level deadlines: a request's headers must arrive within
// readHeaderTimeout (the slow-loris guard before the handler runs; the
// rpc layer bounds the body and each stream line itself), and a
// kept-alive connection idle for idleTimeout is closed. There is
// deliberately no http.Server.ReadTimeout: it would also bound the
// connection's background read during a long stream and cancel the
// stream's context mid-run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in its connection deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swapd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("swapd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8547", "listen address (host:port)")
		drainFor = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")

		maxInflight = fs.Int("max-inflight", 0, "cap on concurrent expensive requests (0 = default 64)")
		queueDepth  = fs.Int("queue-depth", 0, "cap on requests waiting for an admission slot (0 = default 64)")
		queueWait   = fs.Duration("queue-wait", 0, "longest a saturated request queues before being shed (0 = default 25ms)")
		faultSpec   = fs.String("fault", "", "arm the chaos injector: key=prob[:delay],... (see internal/fault; empty = off)")
		faultSeed   = fs.Int64("fault-seed", 1, "seed of the fault injector's deterministic draws")

		storeDir  = fs.String("store", "", "persistent solve-store directory (empty = no on-disk tier)")
		respCache = fs.Int("resp-cache", 1024, "solved swap.solve cells retained as wire bytes (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	injector, err := fault.NewFromSpec(*faultSeed, *faultSpec)
	if err != nil {
		return fmt.Errorf("-fault: %w", err)
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("-store: %w", err)
		}
	}
	respSize := *respCache
	if respSize == 0 {
		respSize = -1 // Config treats 0 as "use the default"; the user said off.
	}
	logf := log.New(out, "swapd: ", log.LstdFlags).Printf

	srv := rpc.NewServer(rpc.Config{
		MaxInflight:   *maxInflight,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		Fault:         injector,
		Logf:          logf,
		Store:         st,
		RespCacheSize: respSize,
	})
	httpSrv := newHTTPServer(srv.Handler())

	// Catch the drain signals before announcing the address, so a
	// signal sent by whoever read it cannot kill the process instead.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on %s", ln.Addr())
	if st != nil {
		logf("solve store: %s (%d entries)", *storeDir, st.Len())
	}
	if injector.Enabled() {
		logf("CHAOS: fault injector armed (seed %d): %s", *faultSeed, *faultSpec)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case s := <-sig:
		logf("received %v, draining", s)
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	}

	// Drain order: mark the RPC layer draining first (new requests get
	// CodeShuttingDown, streams get their terminal responses), then close
	// the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	if drainErr != nil {
		return fmt.Errorf("draining: %w", drainErr)
	}
	logf("bye")
	return nil
}
