package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"time"

	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/swapsim"
	"repro/internal/variant"
)

// SimulateParams are the parameters of swap.simulate.
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

// serveStream runs one swap.simulate request as a streamed HTTP response:
// application/x-ndjson, one JSON object per line, each line flushed —
// zero or more swap.progress notifications, then the terminal JSON-RPC
// response. Errors before the first line (no id, bad params, a shed) are
// ordinary single-response replies under handleHTTP's status mapping.
//
// The stream runs on the handler goroutine under the request's context,
// so a client that disconnects cancels it; the budget caps it, and drain
// cancels it through baseCtx. Every line is written under the ioTimeout
// deadline, and a progress write that fails cancels the engine: there is
// no point computing snapshots nobody reads.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, req Request) {
	s.stats.record(req.Method)
	reply := func(rerr *Error) {
		s.stats.errors.Add(1)
		s.writeResponse(w, NewErrorResponse(req.ID, rerr))
	}
	if req.IsNotification() {
		reply(Errorf(CodeInvalidRequest, "swap.simulate requires an id (the stream handle)"))
		return
	}
	var p SimulateParams
	if rerr := decodeParams(req.Params, &p); rerr != nil {
		reply(rerr)
		return
	}
	cfg, rerr := s.resolveSimulate(p)
	if rerr != nil {
		reply(rerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget(p.BudgetMs))
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	// A stream is in-flight Monte Carlo work for its whole lifetime, so it
	// holds an admission slot for its whole lifetime; saturation sheds it
	// here, before any engine state is built.
	if rerr := s.adm.acquire(ctx); rerr != nil {
		reply(rerr)
		return
	}
	s.stats.streamsStarted.Add(1)
	s.stats.streamsActive.Add(1)

	rc := http.NewResponseController(w)
	// The deadline outlives the handler on a kept-alive connection; clear
	// it so the connection's next response is not bound by this stream.
	defer rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	writeLine := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if err := rc.SetWriteDeadline(time.Now().Add(s.ioTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
		return rc.Flush()
	}
	progress := func(ev ProgressEvent) error {
		var err error
		if s.cfg.Fault.Fire(fault.KeyStreamWriteError) {
			err = errors.New("injected fault: " + fault.KeyStreamWriteError)
		} else {
			err = writeLine(Notification{JSONRPC: Version, Method: "swap.progress", Params: ev})
		}
		if err != nil {
			s.stats.writeFailures.Add(1)
			s.cfg.Logf("rpc: stream %s progress write failed, cancelling: %v", req.ID, err)
			cancel()
		}
		return err
	}
	resp := s.guardStream(ctx, req.ID, cfg, progress)
	// Settle the bookkeeping before the terminal line goes out: a client
	// that has read it must see the stream gone (not counted active, its
	// slot released). inflight is released by handleHTTP after the line,
	// so drain still waits for it.
	s.adm.release()
	s.stats.streamsActive.Add(-1)
	// A failed terminal write leaves nothing to do: the client is gone.
	_ = writeLine(resp)
}

// guardStream runs one stream body with panic isolation: a stream panic
// becomes its terminal error response, never a dead daemon.
func (s *Server) guardStream(ctx context.Context, id json.RawMessage, cfg simulateConfig, progress func(ProgressEvent) error) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			s.cfg.Logf("rpc: stream %s panicked (recovered): %v", id, r)
			resp = NewErrorResponse(id, Errorf(CodeInternalError, "internal error: stream panicked"))
		}
	}()
	return s.stream(ctx, id, cfg, progress)
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
	runs, rerr := s.resolveRuns(p.Runs, sc)
	if rerr != nil {
		return simulateConfig{}, rerr
	}
	if p.CIWidth < 0 || math.IsNaN(p.CIWidth) {
		return simulateConfig{}, Errorf(CodeInvalidParams, "ciWidth must be >= 0")
	}
	if p.EveryPaths < 0 {
		return simulateConfig{}, Errorf(CodeInvalidParams, "everyPaths must be >= 0")
	}
	cfg, _, _, err := variant.ProtocolConfig(key, sc)
	if err != nil {
		return simulateConfig{}, Errorf(CodeInvalidParams, "scenario %q: %v", sc.Name, err)
	}
	every := p.EveryPaths
	if every == 0 {
		every = 512
	}
	return simulateConfig{
		scenarioName: sc.Name,
		variantKey:   key,
		everyPaths:   every,
		mcc: swapsim.MCConfig{
			Config: cfg, Runs: runs, Workers: mcWorkers, CIWidth: p.CIWidth,
		},
	}, nil
}

// runStream executes one simulate stream: progress notifications while
// the engine runs, then it returns the terminal response (result, budget
// error, or cancellation) for the caller to write. A progress write that
// fails has already cancelled ctx, so the engine stops at its next wave.
func (s *Server) runStream(ctx context.Context, id json.RawMessage, cfg simulateConfig, progress func(ProgressEvent) error) Response {
	start := time.Now()
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
		// OnProgress runs between engine waves on the handler goroutine,
		// so plain variables suffice.
		writeFailed = progress(ProgressEvent{
			ID: id, Paths: p.Paths, Successes: p.Successes, Chunks: p.Chunks,
			SR: p.SuccessRate.P, Lo: p.SuccessRate.Lo, Hi: p.SuccessRate.Hi,
			HalfWidth: p.EstHalfWidth, Stopped: p.Stopped,
		}) != nil
	}
	res, err := swapsim.MonteCarloCtx(ctx, cfg.mcc)
	if err != nil {
		s.stats.errors.Add(1)
		return NewErrorResponse(id, s.asRPCError(err))
	}
	return NewResponse(id, SimulateResult{
		Scenario: cfg.scenarioName, Variant: cfg.variantKey,
		Paths: res.Paths, SR: res.SuccessRate.P, Lo: res.SuccessRate.Lo, Hi: res.SuccessRate.Hi,
		Stopped: res.Stopped, Violations: res.Violations, Stages: res.Stages,
		MeanDurationHours: res.Duration.Mean,
		Snapshots:         snapshots, ElapsedUs: time.Since(start).Microseconds(),
	})
}
