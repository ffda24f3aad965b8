package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/variant"
)

// Config parameterises a Server. The zero value selects the defaults.
type Config struct {
	// MaxInflight bounds the expensive requests (swap.solve,
	// scenario.diff, swap.simulate streams) running concurrently (default
	// 64). Beyond it, requests queue briefly and are then shed with
	// CodeOverloaded — see admission.
	MaxInflight int
	// QueueDepth bounds how many saturated requests may wait for a slot
	// (default 64); QueueWait bounds how long (default 25ms). Both small
	// by design: under overload the daemon prefers fast explicit sheds
	// over deep queues.
	QueueDepth int
	QueueWait  time.Duration
	// Store, when non-nil, is the persistent content-addressed result
	// store the solve path reads through (variant.RunOpts.Store): a
	// restarted daemon sharing a store directory serves warm quotes from
	// its first request.
	Store *store.Store
	// RespCacheSize bounds the cells swap.solve retains as wire bytes
	// after solving them (default 1024; negative retains none, leaving
	// only the coalescing of concurrent requests). A request whose cells
	// are all retained skips admission, solve and marshal — see cellCache.
	RespCacheSize int
	// Fault is the chaos harness's injector; nil (the default) injects
	// nothing. See internal/fault for the registry keys.
	Fault *fault.Injector
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 25 * time.Millisecond
	}
	if c.RespCacheSize == 0 {
		c.RespCacheSize = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// The daemon's fixed request policies.
const (
	// defaultBudget is the context deadline of a request that names no
	// budgetMs (a lapsed solve returns CodeBudgetExceeded, a stream its
	// terminal error); maxBudget caps the budget a request may ask for.
	defaultBudget = 2 * time.Second
	maxBudget     = 60 * time.Second
	// mcWorkers is one request's Monte Carlo concurrency: the daemon
	// spends its parallelism across requests, as the batch runner does
	// across cells.
	mcWorkers = 1
	// maxRuns caps the Monte Carlo runs one request may demand, so one
	// client cannot monopolise the process.
	maxRuns = 1_000_000
	// shedWindow is how long /healthz stays 503 after a shed, so load
	// balancers steer away while the daemon recovers.
	shedWindow = time.Second
)

// maxRequestBytes caps a request body (a request is a few hundred bytes;
// a megabyte is already adversarial).
const maxRequestBytes = 1 << 20

// ioTimeout bounds each blocking socket edge a handler owns: reading the
// request body (the slow-loris guard) and writing one stream line (the
// stalled-reader guard).
const ioTimeout = 10 * time.Second

// Server is the JSON-RPC quote service over the solve/simulate core: HTTP
// POST /rpc for every method (swap.simulate answers with a streamed
// NDJSON response), GET /healthz for liveness.
type Server struct {
	cfg Config

	// baseCtx is cancelled by Shutdown: it wakes coalesced waiters and
	// ends every stream.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	// inflight counts requests and streams that must drain on shutdown.
	inflight sync.WaitGroup

	// cells is swap.solve's per-cell tier, keyed by variant.CellKey: it
	// coalesces concurrent requests for a cell and retains solved cells'
	// wire bytes, in front of the persistent store and the process-wide
	// solvecache.
	cells *cellCache

	// solve produces one cell's report; a test seam, defaulting to the
	// variant runner's store read-through.
	solve func(g variant.Game, sc scenario.Scenario, opts variant.RunOpts) (variant.Report, error)

	// stream runs one simulate stream body and returns its terminal
	// response; a test seam, defaulting to runStream.
	stream func(ctx context.Context, id json.RawMessage, cfg simulateConfig, progress func(ProgressEvent) error) Response

	// ioTimeout is the body-read and stream-line-write bound; maxRuns the
	// per-request Monte Carlo run cap. Test seams, defaulting to the
	// constants of the same names.
	ioTimeout time.Duration
	maxRuns   int

	// adm is the admission controller in front of the expensive methods.
	adm *admission

	stats serverStats
}

// methods are the served JSON-RPC methods; byMethod counts exactly these.
var methods = [...]string{"swap.solve", "scenario.list", "scenario.diff", "swapd.stats", "swap.simulate"}

// serverStats owns the request and stream counters; requestStats and
// streamStats, their swapd.stats blocks, say what each one counts.
type serverStats struct {
	start          time.Time
	requests       atomic.Uint64
	errors         atomic.Uint64
	panics         atomic.Uint64
	streamsStarted atomic.Uint64
	streamsActive  atomic.Int64
	snapshots      atomic.Uint64
	writeFailures  atomic.Uint64
	// byMethod[i] counts requests for methods[i]. The set is fixed, so a
	// client inventing method names grows no counter.
	byMethod [len(methods)]atomic.Uint64
}

func (s *serverStats) record(method string) {
	s.requests.Add(1)
	for i, m := range methods {
		if m == method {
			s.byMethod[i].Add(1)
			return
		}
	}
}

// requestStats is swapd.stats' requests block.
type requestStats struct {
	Total  uint64 `json:"total"`
	Errors uint64 `json:"errors"`
	// ByMethod holds the served methods requested at least once.
	ByMethod map[string]uint64 `json:"byMethod"`
	// PanicsRecovered counts handler panics converted to -32603
	// responses instead of crashing the daemon.
	PanicsRecovered uint64 `json:"panicsRecovered"`
}

// streamStats is swapd.stats' streams block.
type streamStats struct {
	Started   uint64 `json:"started"`
	Active    int64  `json:"active"`
	Snapshots uint64 `json:"snapshots"`
	// WriteFailures counts streams cancelled after a progress write
	// failed or timed out.
	WriteFailures uint64 `json:"writeFailures"`
}

// snapshot reads the request and stream counters.
func (s *serverStats) snapshot() (requestStats, streamStats) {
	req := requestStats{
		Total:           s.requests.Load(),
		Errors:          s.errors.Load(),
		ByMethod:        make(map[string]uint64),
		PanicsRecovered: s.panics.Load(),
	}
	for i, m := range methods {
		if n := s.byMethod[i].Load(); n > 0 {
			req.ByMethod[m] = n
		}
	}
	return req, streamStats{
		Started:       s.streamsStarted.Load(),
		Active:        s.streamsActive.Load(),
		Snapshots:     s.snapshots.Load(),
		WriteFailures: s.writeFailures.Load(),
	}
}

// NewServer builds a Server; Handler exposes it, Shutdown drains it.
func NewServer(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg.withDefaults(),
		baseCtx:    ctx,
		cancelBase: cancel,
		ioTimeout:  ioTimeout,
		maxRuns:    maxRuns,
		stats:      serverStats{start: time.Now()},
	}
	s.adm = newAdmission(s.cfg.MaxInflight, s.cfg.QueueDepth, s.cfg.QueueWait, shedWindow)
	s.cells = newCellCache(s.cfg.RespCacheSize)
	s.solve = variant.RunCell
	s.stream = s.runStream
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rpc", s.handleHTTP)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.draining.Load():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case s.adm.overloaded():
			// Degraded while shedding: load balancers steer away until a
			// full shed window passes without a rejection.
			w.Header().Set("Retry-After", retryAfterSeconds(s.adm.retryAfterMs()))
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		default:
			io.WriteString(w, "ok\n")
		}
	})
	return mux
}

// Shutdown drains the server: new requests are rejected with
// CodeShuttingDown, streams are cancelled (each writes its terminal error
// line before its handler returns), and in-flight solves run to
// completion. It returns ctx's error if draining outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancelBase()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("rpc: shutdown: %w", ctx.Err())
	}
	s.cfg.Logf("rpc: shutdown complete (drained=%v)", err == nil)
	return err
}

// budget resolves a request's time budget from its budgetMs parameter.
// The cap is applied before the conversion, which a client-sent count of
// milliseconds could otherwise overflow into a negative budget.
func budget(budgetMs int) time.Duration {
	if budgetMs <= 0 {
		return defaultBudget
	}
	return time.Duration(min(budgetMs, int(maxBudget/time.Millisecond))) * time.Millisecond
}

// handleHTTP serves one JSON-RPC request over plain HTTP.
func (s *Server) handleHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.stats.errors.Add(1)
		writeHTTPResponse(w, http.StatusBadRequest,
			NewErrorResponse(nil, Errorf(CodeParseError, "unreadable body: %v", err)))
		return
	}
	if len(body) > maxRequestBytes {
		s.stats.errors.Add(1)
		writeHTTPResponse(w, http.StatusRequestEntityTooLarge,
			NewErrorResponse(nil, Errorf(CodeInvalidRequest,
				"request too large: body exceeds %d bytes", maxRequestBytes)))
		return
	}
	req, rerr := ParseRequest(body)
	if rerr != nil {
		s.stats.errors.Add(1)
		writeHTTPResponse(w, http.StatusBadRequest, NewErrorResponse(req.ID, rerr))
		return
	}
	if s.draining.Load() {
		writeHTTPResponse(w, http.StatusServiceUnavailable,
			NewErrorResponse(req.ID, Errorf(CodeShuttingDown, "server is shutting down")))
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	if req.Method == "swap.simulate" {
		s.serveStream(w, r, req)
		return
	}
	resp, ok := s.dispatch(r.Context(), req)
	if !ok { // notification: no response body
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.writeResponse(w, resp)
}

// readBody reads the request body under the ioTimeout deadline, one byte
// past the cap so truncation is detectable: a body of maxRequestBytes+1
// read bytes means the client sent more than the cap, which is a size
// rejection (413), not a parse error. The deadline is cleared afterwards:
// once the body is read, net/http's background read watches the
// connection for a client disconnect, and an expiring deadline there
// would cancel a long stream's context mid-run. Writers without deadline
// support (httptest.ResponseRecorder) read unbounded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rc := http.NewResponseController(w)
	if err := rc.SetReadDeadline(time.Now().Add(s.ioTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		return nil, err
	}
	if err := rc.SetReadDeadline(time.Time{}); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return nil, err
	}
	return body, nil
}

// writeResponse writes one JSON-RPC response, surfacing a shed at the
// HTTP layer too (503 + Retry-After), so plain HTTP clients and proxies
// can back off without parsing JSON-RPC.
func (s *Server) writeResponse(w http.ResponseWriter, resp Response) {
	status := http.StatusOK
	if resp.Error != nil && resp.Error.Code == CodeOverloaded {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.adm.retryAfterMs()))
	}
	writeHTTPResponse(w, status, resp)
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// rounded up, at least 1).
func retryAfterSeconds(ms int) string {
	secs := (ms + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// writeHTTPResponse encodes one JSON-RPC response over HTTP.
func writeHTTPResponse(w http.ResponseWriter, status int, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(resp)
	if err != nil {
		return
	}
	w.Write(data)
}

// dispatch routes one parsed request to its method handler. ok is false
// for notifications (no response is due).
func (s *Server) dispatch(ctx context.Context, req Request) (Response, bool) {
	s.stats.record(req.Method)
	result, rerr := s.call(ctx, req)
	if req.IsNotification() {
		return Response{}, false
	}
	if rerr != nil {
		s.stats.errors.Add(1)
		return NewErrorResponse(req.ID, rerr), true
	}
	return NewResponse(req.ID, result), true
}

// call runs one method handler under the robustness envelope: admission
// control for the expensive methods, fault injection when armed, and a
// recover that converts a handler panic into CodeInternalError — the
// daemon never dies for one request.
func (s *Server) call(ctx context.Context, req Request) (result any, rerr *Error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			s.cfg.Logf("rpc: %s handler panicked (recovered): %v", req.Method, r)
			result, rerr = nil, Errorf(CodeInternalError, "internal error: %s handler panicked", req.Method)
		}
	}()
	// swap.solve runs its own admission + fault sequence inside
	// handleSolve, after the cell-tier lookup: a request whose cells are
	// all retained must not burn an admission slot (or an injected fault)
	// on work the daemon is not doing.
	if req.Method != "swap.solve" {
		if req.Method == "scenario.diff" {
			if rerr := s.adm.acquire(ctx); rerr != nil {
				return nil, rerr
			}
			defer s.adm.release()
		}
		// Faults fire while the admission slot is held, so injected
		// latency creates genuine in-flight pressure.
		if rerr := s.injectFaults(ctx); rerr != nil {
			return nil, rerr
		}
	}
	switch req.Method {
	case "swap.solve":
		result, rerr = s.handleSolve(ctx, req.Params)
	case "scenario.list":
		result, rerr = s.handleList()
	case "scenario.diff":
		result, rerr = s.handleDiff(ctx, req.Params)
	case "swapd.stats":
		result, rerr = s.handleStats()
	default:
		rerr = Errorf(CodeMethodNotFound, "unknown method %q", req.Method)
	}
	return result, rerr
}

// injectFaults fires the armed RPC faults (latency, error, panic), in
// that order. It returns the injected error, if any.
func (s *Server) injectFaults(ctx context.Context) *Error {
	if d, ok := s.cfg.Fault.Delay(fault.KeyRPCLatency); ok {
		sleepCtx(ctx, d)
	}
	if s.cfg.Fault.Fire(fault.KeyRPCError) {
		return Errorf(CodeInternalError, "injected fault: %s", fault.KeyRPCError)
	}
	if s.cfg.Fault.Fire(fault.KeyRPCPanic) {
		panic("injected fault: " + fault.KeyRPCPanic)
	}
	return nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// asRPCError maps a handler error onto a JSON-RPC error object,
// classifying context errors as budget/cancellation outcomes.
func (s *Server) asRPCError(err error) *Error {
	var rerr *Error
	switch {
	case errors.As(err, &rerr):
		return rerr
	case errors.Is(err, errCellPanicked):
		// The coalesced leader panicked; waiters get the same isolation
		// contract the leader's own requester does.
		return Errorf(CodeInternalError, "internal error: coalesced computation panicked")
	case errors.Is(err, context.DeadlineExceeded):
		return Errorf(CodeBudgetExceeded, "request budget exceeded")
	case errors.Is(err, context.Canceled):
		if s.draining.Load() {
			return Errorf(CodeShuttingDown, "server is shutting down")
		}
		return Errorf(CodeCanceled, "request cancelled")
	default:
		return Errorf(CodeInternalError, "%v", err)
	}
}
