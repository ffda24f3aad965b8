package rpc

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/qmc"
	"repro/internal/swapsim"
	"repro/internal/variant"
)

// SimulateParams are the parameters of swap.simulate (WebSocket only).
type SimulateParams struct {
	// Scenario is a preset name or inline Scenario object.
	Scenario json.RawMessage `json:"scenario"`
	// Variant selects the simulated protocol: "basic" (default) or
	// "collateral" (the collateral game's thresholds with the scenario's
	// deposit Q staked; see variant.ProtocolConfig).
	Variant string `json:"variant,omitempty"`
	// Runs is the fixed sample size — and the adaptive cap (default: the
	// scenario's own Monte Carlo run count).
	Runs int `json:"runs,omitempty"`
	// CIWidth, when > 0, streams until the Wilson 95% half-width of the
	// success rate reaches it (the adaptive stopper), capped at Runs.
	CIWidth float64 `json:"ciWidth,omitempty"`
	// EveryPaths throttles the stream: one progress notification per at
	// least this many merged paths (default 512; 1 streams every chunk of
	// mc.ChunkSize paths).
	EveryPaths int `json:"everyPaths,omitempty"`
	// Sampler selects the sampling mode: "" or "pseudo" (default), or
	// "sobol" (see internal/qmc). In sobol mode the streamed halfWidth is
	// the sampler-aware estimator interval the adaptive stopper watches,
	// not the Wilson width.
	Sampler string `json:"sampler,omitempty"`
	// BudgetMs overrides the server's default request budget.
	BudgetMs int `json:"budgetMs,omitempty"`
}

// ProgressEvent is one swap.progress notification: a merged-prefix
// convergence snapshot of the running simulation.
type ProgressEvent struct {
	// ID echoes the originating swap.simulate request's ID.
	ID json.RawMessage `json:"id"`
	// Paths and Successes count the merged prefix; Chunks the merged
	// chunks.
	Paths     int `json:"paths"`
	Successes int `json:"successes"`
	Chunks    int `json:"chunks"`
	// SR is the running success rate with its Wilson 95% interval.
	SR float64 `json:"sr"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// HalfWidth is the interval half-width the adaptive stopper watches.
	HalfWidth float64 `json:"halfWidth"`
	// Stopped reports the adaptive stopper fired at this snapshot.
	Stopped bool `json:"stopped,omitempty"`
}

// SimulateResult is the terminal response of a completed stream.
type SimulateResult struct {
	Scenario string  `json:"scenario"`
	Variant  string  `json:"variant"`
	Paths    int     `json:"paths"`
	SR       float64 `json:"sr"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	// Sampler names the run's sampling mode; omitted for the pseudo
	// default. EstHalfWidth accompanies it: the sampler-aware estimator
	// half-width the adaptive stopper compared against ciWidth.
	Sampler      string  `json:"sampler,omitempty"`
	EstHalfWidth float64 `json:"estHalfWidth,omitempty"`
	// Stopped reports an adaptive early stop; Violations counts
	// non-atomic outcomes (zero without failure injection).
	Stopped    bool           `json:"stopped"`
	Violations int            `json:"violations"`
	Stages     map[string]int `json:"stages"`
	// MeanDurationHours averages simulated completion time; Snapshots is
	// the number of progress notifications the stream sent.
	MeanDurationHours float64 `json:"meanDurationHours"`
	Snapshots         int     `json:"snapshots"`
	ElapsedUs         int64   `json:"elapsedUs"`
}

// CancelParams are the parameters of swap.cancel.
type CancelParams struct {
	// ID is the request ID of the stream to cancel.
	ID json.RawMessage `json:"id"`
}

// wsSession is the per-connection state of the WebSocket channel: the
// connection plus the cancel functions of its live streams, keyed by the
// originating request ID's raw JSON.
type wsSession struct {
	conn *WSConn

	mu      sync.Mutex
	streams map[string]context.CancelFunc
}

// cancelStream cancels one stream by ID, reporting whether it was live.
func (ws *wsSession) cancelStream(id string) bool {
	ws.mu.Lock()
	cancel, ok := ws.streams[id]
	ws.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

// cancelAll cancels every live stream (connection teardown).
func (ws *wsSession) cancelAll() {
	ws.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(ws.streams))
	for _, c := range ws.streams {
		cancels = append(cancels, c)
	}
	ws.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// handleWS serves the WebSocket channel: every request/response method
// plus swap.simulate streams and swap.cancel.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	conn, err := Upgrade(w, r)
	if err != nil {
		return // Upgrade already wrote the HTTP error
	}
	// Deadline hygiene: every inbound frame must complete within the read
	// timeout (slow-loris guard), every outbound frame within the write
	// timeout (stalled-reader guard).
	conn.readTimeout = s.cfg.WSReadTimeout
	conn.writeTimeout = s.cfg.WSWriteTimeout
	conn.fault = s.cfg.Fault
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	sess := &wsSession{conn: conn, streams: make(map[string]context.CancelFunc)}
	defer func() {
		sess.cancelAll()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return // closed or broken connection; deferred cleanup cancels streams
		}
		// Read-side fault points: a stalled reader, a lost frame, a
		// corrupted frame. Truncation feeds the parse-error path below.
		if d, ok := s.cfg.Fault.Delay(fault.KeyWSReadStall); ok {
			sleepCtx(s.baseCtx, d)
		}
		if s.cfg.Fault.Fire(fault.KeyWSFrameDrop) {
			continue
		}
		if s.cfg.Fault.Fire(fault.KeyWSFrameTruncate) {
			msg = msg[:len(msg)/2]
		}
		req, rerr := ParseRequest(msg)
		if rerr != nil {
			s.stats.errors.Add(1)
			conn.WriteJSON(NewErrorResponse(req.ID, rerr))
			continue
		}
		if s.draining.Load() {
			conn.WriteJSON(NewErrorResponse(req.ID, Errorf(CodeShuttingDown, "server is shutting down")))
			continue
		}
		switch req.Method {
		case "swap.simulate":
			s.startStream(sess, req)
		case "swap.cancel":
			s.stats.record(req.Method)
			var p CancelParams
			if rerr := decodeParams(req.Params, &p); rerr != nil {
				conn.WriteJSON(NewErrorResponse(req.ID, rerr))
				continue
			}
			found := sess.cancelStream(string(p.ID))
			if !req.IsNotification() {
				conn.WriteJSON(NewResponse(req.ID, map[string]bool{"canceled": found}))
			}
		default:
			// Request/response methods share the HTTP dispatch path. Run
			// them off the read loop so a slow solve cannot delay cancels.
			s.inflight.Add(1)
			go func(req Request) {
				defer s.inflight.Done()
				if resp, ok := s.dispatch(s.baseCtx, req); ok {
					conn.WriteJSON(resp)
				}
			}(req)
		}
	}
}

// startStream validates a swap.simulate request and launches its stream
// goroutine.
func (s *Server) startStream(sess *wsSession, req Request) {
	conn := sess.conn
	s.stats.record(req.Method)
	if req.IsNotification() {
		s.stats.errors.Add(1)
		conn.WriteJSON(NewErrorResponse(nil, Errorf(CodeInvalidRequest, "swap.simulate requires an id (the stream handle)")))
		return
	}
	var p SimulateParams
	if rerr := decodeParams(req.Params, &p); rerr != nil {
		s.stats.errors.Add(1)
		conn.WriteJSON(NewErrorResponse(req.ID, rerr))
		return
	}
	cfg, rerr := s.resolveSimulate(p)
	if rerr != nil {
		s.stats.errors.Add(1)
		conn.WriteJSON(NewErrorResponse(req.ID, rerr))
		return
	}
	// A stream is in-flight Monte Carlo work for its whole lifetime, so it
	// holds an admission slot for its whole lifetime; saturation sheds it
	// here with CodeOverloaded before any engine state is built. The
	// bounded queue wait is the longest this can block the read loop.
	if rerr := s.adm.acquire(s.baseCtx); rerr != nil {
		s.stats.errors.Add(1)
		conn.WriteJSON(NewErrorResponse(req.ID, rerr))
		return
	}
	id := string(req.ID)
	ctx, cancel := context.WithTimeout(s.baseCtx, s.budget(p.BudgetMs))
	sess.mu.Lock()
	if _, dup := sess.streams[id]; dup {
		sess.mu.Unlock()
		cancel()
		s.adm.release()
		s.stats.errors.Add(1)
		conn.WriteJSON(NewErrorResponse(req.ID, Errorf(CodeInvalidRequest, "a stream with id %s is already running", id)))
		return
	}
	sess.streams[id] = cancel
	sess.mu.Unlock()

	s.stats.streamsStarted.Add(1)
	s.stats.streamsActive.Add(1)
	s.inflight.Add(1)
	streamDone := make(chan struct{})
	// Watchdog: a stream that outlives its budget by more than the grace
	// period has a wedged connection (the terminal write should complete
	// within the write timeout); force-close it so the goroutine and the
	// admission slot cannot leak behind a peer that never reads.
	go func() {
		select {
		case <-streamDone:
			return
		case <-ctx.Done():
		}
		grace := time.NewTimer(s.cfg.WatchdogGrace)
		defer grace.Stop()
		select {
		case <-streamDone:
		case <-grace.C:
			s.stats.watchdogCloses.Add(1)
			s.cfg.Logf("rpc: watchdog force-closing connection of stream %s", id)
			conn.Close()
		}
	}()
	go func() {
		resp := s.guardStream(ctx, cancel, sess, req.ID, cfg)
		// Settle the bookkeeping before the terminal frame goes out: a
		// client that has read the frame must see the stream gone (no
		// longer cancelable, not counted active, its slot released).
		// inflight is released last, so drain still waits for the frame.
		sess.mu.Lock()
		delete(sess.streams, id)
		sess.mu.Unlock()
		cancel()
		s.adm.release()
		s.stats.streamsActive.Add(-1)
		conn.WriteJSON(resp)
		close(streamDone)
		s.inflight.Done()
	}()
}

// guardStream runs one stream body with panic isolation: a stream panic
// becomes its terminal error response, never a dead daemon.
func (s *Server) guardStream(ctx context.Context, cancel context.CancelFunc, sess *wsSession, id json.RawMessage, cfg simulateConfig) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			s.cfg.Logf("rpc: stream %s panicked (recovered): %v", id, r)
			resp = NewErrorResponse(id, Errorf(CodeInternalError, "internal error: stream panicked"))
		}
	}()
	return s.stream(ctx, cancel, sess, id, cfg)
}

// simulateConfig is a resolved swap.simulate request.
type simulateConfig struct {
	scenarioName string
	variantKey   string
	everyPaths   int
	mcc          swapsim.MCConfig
}

// resolveSimulate validates simulate parameters and builds the Monte
// Carlo configuration: the protocol run variant.ProtocolConfig defines
// for the selected variant — the one the batch validations run.
func (s *Server) resolveSimulate(p SimulateParams) (simulateConfig, *Error) {
	sc, rerr := resolveScenario(p.Scenario)
	if rerr != nil {
		return simulateConfig{}, rerr
	}
	key := p.Variant
	if key == "" {
		key = "basic"
	}
	runs := p.Runs
	if runs == 0 {
		runs = sc.Runs()
	}
	if runs < 0 || runs > s.cfg.MaxRuns {
		return simulateConfig{}, Errorf(CodeInvalidParams, "runs must be in [0, %d]", s.cfg.MaxRuns)
	}
	if p.CIWidth < 0 || math.IsNaN(p.CIWidth) {
		return simulateConfig{}, Errorf(CodeInvalidParams, "ciWidth must be >= 0")
	}
	if p.EveryPaths < 0 {
		return simulateConfig{}, Errorf(CodeInvalidParams, "everyPaths must be >= 0")
	}
	sampler, err := qmc.ParseMode(p.Sampler)
	if err != nil {
		return simulateConfig{}, Errorf(CodeInvalidParams, "%v", err)
	}
	cfg, _, _, err := variant.ProtocolConfig(key, sc)
	if err != nil {
		return simulateConfig{}, Errorf(CodeInvalidParams, "scenario %q: %v", sc.Name, err)
	}
	cfg.Sampler = sampler
	every := p.EveryPaths
	if every == 0 {
		every = 512
	}
	return simulateConfig{
		scenarioName: sc.Name,
		variantKey:   key,
		everyPaths:   every,
		mcc: swapsim.MCConfig{
			Config: cfg, Runs: runs, Workers: s.cfg.MCWorkers, CIWidth: p.CIWidth,
		},
	}, nil
}

// runStream executes one simulate stream: progress notifications while
// the engine runs, then it returns the terminal response (result, budget
// error, or cancellation) for the caller to write. cancel aborts the
// engine when the peer stops reading: a progress write that fails or
// times out cancels the stream instead of blocking the Monte Carlo engine
// behind a dead connection.
func (s *Server) runStream(ctx context.Context, cancel context.CancelFunc, sess *wsSession, id json.RawMessage, cfg simulateConfig) Response {
	start := time.Now()
	conn := sess.conn
	snapshots := 0
	lastSent := 0
	writeFailed := false
	cfg.mcc.OnProgress = func(p mc.Progress) {
		if writeFailed || (p.Paths-lastSent < cfg.everyPaths && !p.Stopped) {
			return
		}
		lastSent = p.Paths
		snapshots++
		s.stats.snapshots.Add(1)
		err := conn.WriteJSON(Notification{
			JSONRPC: Version,
			Method:  "swap.progress",
			Params: ProgressEvent{
				ID: id, Paths: p.Paths, Successes: p.Successes, Chunks: p.Chunks,
				SR: p.SuccessRate.P, Lo: p.SuccessRate.Lo, Hi: p.SuccessRate.Hi,
				HalfWidth: p.EstHalfWidth, Stopped: p.Stopped,
			},
		})
		if err != nil {
			// OnProgress runs between engine waves on one goroutine, so
			// plain variables suffice; the cancel bites at the next wave.
			writeFailed = true
			s.stats.wsWriteFailures.Add(1)
			s.cfg.Logf("rpc: stream %s progress write failed, cancelling: %v", id, err)
			cancel()
		}
	}
	res, err := swapsim.MonteCarloCtx(ctx, cfg.mcc)
	if err != nil {
		s.stats.errors.Add(1)
		return NewErrorResponse(id, s.asRPCError(err))
	}
	out := SimulateResult{
		Scenario: cfg.scenarioName, Variant: cfg.variantKey,
		Paths: res.Paths, SR: res.SuccessRate.P, Lo: res.SuccessRate.Lo, Hi: res.SuccessRate.Hi,
		Stopped: res.Stopped, Violations: res.Violations, Stages: res.Stages,
		MeanDurationHours: res.Duration.Mean,
		Snapshots:         snapshots, ElapsedUs: time.Since(start).Microseconds(),
	}
	if res.Sampler.VarianceReduced() {
		out.Sampler = string(res.Sampler)
		out.EstHalfWidth = res.EstHalfWidth
	}
	return NewResponse(id, out)
}
