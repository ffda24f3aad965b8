package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/store"
	"repro/internal/variant"
)

// SolveParams are the parameters of swap.solve.
type SolveParams struct {
	// Scenario is a preset name (JSON string) or an inline Scenario
	// object (the cmd/scenarios -file schema).
	Scenario json.RawMessage `json:"scenario"`
	// Variant selects the cells: "" solves the scenario's own selection
	// (or the default trio), "all" every registered variant, otherwise a
	// comma-separated key list — the CLIs' -variant grammar.
	Variant string `json:"variant,omitempty"`
	// MC enables the per-variant Monte Carlo validation (off by default:
	// a quote needs the analytic solve; the simulation surface is
	// swap.simulate).
	MC bool `json:"mc,omitempty"`
	// Runs is the validation's run count, meaningful with MC (default:
	// the scenario's own, capped by the server's run cap).
	Runs int `json:"runs,omitempty"`
	// BudgetMs overrides the server's default request budget.
	BudgetMs int `json:"budgetMs,omitempty"`
}

// ReportJSON is one solved (scenario × variant) cell on the wire.
type ReportJSON struct {
	Key     string             `json:"key"`
	Desc    string             `json:"desc"`
	SR      float64            `json:"sr"`
	SRLabel string             `json:"srLabel"`
	Values  map[string]float64 `json:"values"`
	Lines   []string           `json:"lines"`
	MC      *MCCheckJSON       `json:"mc,omitempty"`
}

// MCCheckJSON is a variant's Monte Carlo validation on the wire.
type MCCheckJSON struct {
	Game              string         `json:"game"`
	Runs              int            `json:"runs"`
	Seed              int64          `json:"seed"`
	SR                float64        `json:"sr"`
	Lo                float64        `json:"lo"`
	Hi                float64        `json:"hi"`
	Analytic          float64        `json:"analytic"`
	Agrees            bool           `json:"agrees"`
	Stages            map[string]int `json:"stages,omitempty"`
	MeanDurationHours float64        `json:"meanDurationHours,omitempty"`
}

// SolveResult is swap.solve's result as a client decodes it. The server
// side responds with solveResultWire — identical JSON, with the variants
// block joined from the cells' preserialized bytes so cached cells skip
// the marshal; the two must stay field-compatible (see
// TestSolveResultWire).
type SolveResult struct {
	// Scenario echoes the solved scenario's name.
	Scenario string `json:"scenario"`
	// Variants holds one report per solved cell, in selection order.
	Variants []ReportJSON `json:"variants"`
	// Coalesced reports that at least one cell was served from another
	// request's in-flight computation (single-flight dedup).
	Coalesced bool `json:"coalesced"`
	// Cached reports that every cell was served from the daemon's
	// retained cell bytes without admission or solving.
	Cached bool `json:"cached,omitempty"`
	// ElapsedUs is the request's server-side latency in microseconds.
	ElapsedUs int64 `json:"elapsedUs"`
}

// solveResultWire is the server-side form of SolveResult: the variants
// block is the join of the cells' bytes, each marshaled once at solve time
// (see joinCells).
type solveResultWire struct {
	Scenario  string          `json:"scenario"`
	Variants  json.RawMessage `json:"variants"`
	Coalesced bool            `json:"coalesced"`
	Cached    bool            `json:"cached,omitempty"`
	ElapsedUs int64           `json:"elapsedUs"`
}

// resolvedSolve is a fully resolved solve request: the scenario, its
// selected games with one variant.CellKey each, and the run options.
type resolvedSolve struct {
	sc    scenario.Scenario
	games []variant.Game
	keys  []string
	opts  variant.RunOpts
}

// decodeParams decodes a params object strictly (unknown fields are
// CodeInvalidParams, so typos fail loudly instead of being ignored).
func decodeParams(raw json.RawMessage, into any) *Error {
	if len(raw) == 0 {
		return Errorf(CodeInvalidParams, "missing params")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return Errorf(CodeInvalidParams, "decoding params: %v", err)
	}
	return nil
}

// resolveScenario turns the scenario parameter — a preset name or an
// inline definition — into a validated Scenario.
func resolveScenario(raw json.RawMessage) (scenario.Scenario, *Error) {
	if len(raw) == 0 {
		return scenario.Scenario{}, Errorf(CodeInvalidParams, "missing scenario")
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return scenario.Scenario{}, Errorf(CodeInvalidParams, "%v", err)
		}
		return sc, nil
	}
	sc, err := scenario.Load(bytes.NewReader(raw))
	if err != nil {
		return scenario.Scenario{}, Errorf(CodeInvalidParams, "inline scenario: %v", err)
	}
	return sc, nil
}

// resolveRuns resolves the run count a request executes on sc — the
// request's runs, else the scenario's own — and applies the run cap to it.
// swap.solve and scenario.diff apply it whether or not the request asks
// for validation, because a sampled variant's report is itself a run-sized
// Monte Carlo.
func (s *Server) resolveRuns(runs int, sc scenario.Scenario) (int, *Error) {
	if runs == 0 {
		runs = sc.Runs()
	}
	if runs < 0 || runs > s.maxRuns {
		return 0, Errorf(CodeInvalidParams, "runs must be in [0, %d]", s.maxRuns)
	}
	return runs, nil
}

// resolveSolve validates and resolves swap.solve parameters.
func (s *Server) resolveSolve(p SolveParams) (resolvedSolve, *Error) {
	sc, rerr := resolveScenario(p.Scenario)
	if rerr != nil {
		return resolvedSolve{}, rerr
	}
	games, err := variant.Resolve(p.Variant, sc)
	if err != nil {
		return resolvedSolve{}, Errorf(CodeInvalidParams, "%v", err)
	}
	if _, rerr := s.resolveRuns(p.Runs, sc); rerr != nil {
		return resolvedSolve{}, rerr
	}
	opts := variant.RunOpts{
		Runs:      p.Runs,
		MCWorkers: mcWorkers,
		SkipMC:    !p.MC,
		// The persistent store is plumbing, not a solve input: the cell
		// key ignores it.
		Store: s.cfg.Store,
	}
	// Two requests share a cell — and so coalesce on it and share its
	// bytes — exactly when its computation would be identical.
	keys := make([]string, len(games))
	for i, g := range games {
		if keys[i], err = variant.CellKey(sc, g.Key(), opts); err != nil {
			return resolvedSolve{}, Errorf(CodeInternalError, "keying solve: %v", err)
		}
	}
	return resolvedSolve{sc: sc, games: games, keys: keys, opts: opts}, nil
}

// solveCells produces the request's cells in selection order through the
// cell tier, each either retained, joined in flight, or computed here —
// solved (or read from the persistent store) and marshaled once. shared
// reports whether any cell came from another request's computation.
func (s *Server) solveCells(req resolvedSolve) (cells [][]byte, shared bool, err error) {
	cells = make([][]byte, len(req.games))
	for i, g := range req.games {
		var sh bool
		// Waiters select on baseCtx (so shutdown unblocks them); the
		// requester's own deadline is enforced by handleSolve.
		cells[i], sh, err = s.cells.do(s.baseCtx, req.keys[i], func() ([]byte, error) {
			r, err := s.solve(g, req.sc, req.opts)
			if err != nil {
				return nil, err
			}
			return json.Marshal(reportJSON(r))
		})
		if err != nil {
			return nil, false, err
		}
		shared = shared || sh
	}
	return cells, shared, nil
}

// joinCells builds the variants block from the cells' bytes: byte for
// byte what json.Marshal produces for the []ReportJSON they encode.
func joinCells(cells [][]byte) json.RawMessage {
	n := len(cells) + 1
	for _, c := range cells {
		n += len(c)
	}
	out := make([]byte, 0, n)
	out = append(out, '[')
	for i, c := range cells {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, c...)
	}
	return append(out, ']')
}

// reportJSON converts a variant report to its wire form.
func reportJSON(r variant.Report) ReportJSON {
	out := ReportJSON{
		Key: r.Key, Desc: r.Desc, SR: r.SR, SRLabel: r.SRLabel,
		Values: make(map[string]float64, len(r.Values)),
		Lines:  r.Lines,
	}
	for _, v := range r.Values {
		out.Values[v.Name] = v.V
	}
	if mc := r.MC; mc != nil {
		out.MC = &MCCheckJSON{
			Game: mc.Game, Runs: mc.Runs, Seed: mc.Seed,
			SR: mc.SR.P, Lo: mc.SR.Lo, Hi: mc.SR.Hi,
			Analytic: mc.Analytic, Agrees: mc.Agrees,
			Stages: mc.Stages, MeanDurationHours: mc.MeanDurationHours,
		}
	}
	return out
}

// handleSolve serves swap.solve: resolve, answer from retained cells, else
// admit and produce the missing cells through the cell tier. The requester
// waits under its budget; the cells' computations run to completion
// regardless, because their results serve every waiter and stay retained.
// Admission control and fault injection run here rather than in call(): a
// request whose cells are all retained answers from memory and must not
// burn an admission slot.
func (s *Server) handleSolve(ctx context.Context, raw json.RawMessage) (any, *Error) {
	start := time.Now()
	var p SolveParams
	if rerr := decodeParams(raw, &p); rerr != nil {
		return nil, rerr
	}
	req, rerr := s.resolveSolve(p)
	if rerr != nil {
		return nil, rerr
	}
	if cells, ok := s.cells.lookup(req.keys); ok {
		return solveResultWire{
			Scenario:  req.sc.Name,
			Variants:  joinCells(cells),
			Cached:    true,
			ElapsedUs: time.Since(start).Microseconds(),
		}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, budget(p.BudgetMs))
	defer cancel()
	if rerr := s.adm.acquire(ctx); rerr != nil {
		return nil, rerr
	}
	defer s.adm.release()
	// Faults fire while the admission slot is held, so injected latency
	// creates genuine in-flight pressure.
	if rerr := s.injectFaults(ctx); rerr != nil {
		return nil, rerr
	}

	type outcome struct {
		cells  [][]byte
		shared bool
		err    error
	}
	ch := make(chan outcome, 1)
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		// A solve panic must not kill the daemon: the cell tier settles
		// the cell's waiters (they see errCellPanicked) and re-raises on
		// the leader, whose requester gets the recover below.
		defer func() {
			if r := recover(); r != nil {
				s.stats.panics.Add(1)
				s.cfg.Logf("rpc: solve panicked (recovered): %v", r)
				ch <- outcome{err: Errorf(CodeInternalError, "internal error: solve panicked")}
			}
		}()
		cells, shared, err := s.solveCells(req)
		ch <- outcome{cells, shared, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, s.asRPCError(o.err)
		}
		return solveResultWire{
			Scenario:  req.sc.Name,
			Variants:  joinCells(o.cells),
			Coalesced: o.shared,
			ElapsedUs: time.Since(start).Microseconds(),
		}, nil
	case <-ctx.Done():
		return nil, s.asRPCError(ctx.Err())
	}
}

// ListResult is scenario.list's result.
type ListResult struct {
	// Presets are the registered scenarios in registry order.
	Presets []PresetJSON `json:"presets"`
	// Variants are the registered variant games in registration order.
	Variants []VariantJSON `json:"variants"`
	// Default is the variant selection of scenarios that name none.
	Default []string `json:"default"`
}

// PresetJSON is one scenario preset on the wire.
type PresetJSON struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	PStar       float64  `json:"pstar"`
	Collateral  float64  `json:"collateral"`
	BobBudget   float64  `json:"bobBudget"`
	Variants    []string `json:"variants,omitempty"`
}

// VariantJSON is one registered variant game on the wire.
type VariantJSON struct {
	Key  string `json:"key"`
	Desc string `json:"desc"`
}

// handleList serves scenario.list.
func (s *Server) handleList() (any, *Error) {
	reg := scenario.Registry()
	out := ListResult{
		Presets:  make([]PresetJSON, len(reg)),
		Default:  variant.DefaultKeys(),
		Variants: make([]VariantJSON, 0, len(variant.Keys())),
	}
	for i, sc := range reg {
		out.Presets[i] = PresetJSON{
			Name: sc.Name, Description: sc.Description,
			PStar: sc.PStar, Collateral: sc.Collateral, BobBudget: sc.BobBudget,
			Variants: sc.Variants,
		}
	}
	for _, key := range variant.Keys() {
		g, err := variant.Lookup(key)
		if err != nil {
			return nil, Errorf(CodeInternalError, "%v", err)
		}
		out.Variants = append(out.Variants, VariantJSON{Key: key, Desc: g.Describe()})
	}
	return out, nil
}

// DiffParams are the parameters of scenario.diff.
type DiffParams struct {
	// A and B are the two scenarios (preset names or inline objects).
	A json.RawMessage `json:"a"`
	B json.RawMessage `json:"b"`
	// Variant is the CLI -variant grammar; "" uses each scenario's own
	// selection.
	Variant string `json:"variant,omitempty"`
	// Eps is the report-value threshold (default 1e-4).
	Eps float64 `json:"eps,omitempty"`
	// MC enables Monte Carlo validation on both solves.
	MC bool `json:"mc,omitempty"`
	// Runs sizes the validation; BudgetMs bounds the request.
	Runs     int `json:"runs,omitempty"`
	BudgetMs int `json:"budgetMs,omitempty"`
}

// DiffResult is scenario.diff's result.
type DiffResult struct {
	A string `json:"a"`
	B string `json:"b"`
	// Params lists the parameter-level differences ("sigma: 0.1 -> 0.2").
	Params []string `json:"params"`
	// Text is the rendered per-variant diff (cmd/scenarios -diff).
	Text string `json:"text"`
}

// handleDiff serves scenario.diff: solve both rows, diff them. Diffs are
// rare operator queries; they run outside the single-flight layer.
func (s *Server) handleDiff(ctx context.Context, raw json.RawMessage) (any, *Error) {
	var p DiffParams
	if rerr := decodeParams(raw, &p); rerr != nil {
		return nil, rerr
	}
	eps := p.Eps
	if eps == 0 {
		eps = 1e-4
	}
	if eps < 0 {
		return nil, Errorf(CodeInvalidParams, "eps must be >= 0")
	}
	ctx, cancel := context.WithTimeout(ctx, budget(p.BudgetMs))
	defer cancel()
	opts := variant.RunOpts{
		Runs: p.Runs, MCWorkers: mcWorkers, SkipMC: !p.MC,
		Variants: p.Variant,
	}
	var scs [2]scenario.Scenario
	for i, raw := range []json.RawMessage{p.A, p.B} {
		sc, rerr := resolveScenario(raw)
		if rerr == nil {
			_, rerr = s.resolveRuns(p.Runs, sc)
		}
		if rerr != nil {
			return nil, rerr
		}
		scs[i] = sc
	}
	var rows [2]variant.ScenarioReport
	for i, sc := range scs {
		row, err := variant.Run(sc, opts)
		if err != nil {
			return nil, s.asRPCError(err)
		}
		rows[i] = row
		if err := ctx.Err(); err != nil {
			return nil, s.asRPCError(err)
		}
	}
	return DiffResult{
		A:      rows[0].Scenario.Name,
		B:      rows[1].Scenario.Name,
		Params: scenario.DiffParams(rows[0].Scenario, rows[1].Scenario),
		Text:   variant.Diff(rows[0], rows[1], eps),
	}, nil
}

// StatsResult is swapd.stats' result: each block is its owner's snapshot.
type StatsResult struct {
	UptimeMs int64        `json:"uptimeMs"`
	Draining bool         `json:"draining"`
	Requests requestStats `json:"requests"`
	// Admission is the load-shedding front door's state and tallies.
	Admission  admissionStats  `json:"admission"`
	Coalescing coalescingStats `json:"coalescing"`
	Streams    streamStats     `json:"streams"`
	// Faults tallies injected faults by registry key (absent when no
	// injector is armed — the production default).
	Faults     map[string]uint64 `json:"faults,omitempty"`
	SolveCache solvecache.Stats  `json:"solveCache"`
	// RespCache is the cell tier's retained wire bytes (hits skip
	// admission, solve and marshal); Coalescing above is the same tier's
	// in-flight side. Both count cells.
	RespCache cellCacheStats `json:"respCache"`
	// Store reports the persistent content-addressed store, when one is
	// configured.
	Store *store.Stats `json:"store,omitempty"`
}

// handleStats serves swapd.stats.
func (s *Server) handleStats() (any, *Error) {
	out := StatsResult{
		UptimeMs:   time.Since(s.stats.start).Milliseconds(),
		Draining:   s.draining.Load(),
		Admission:  s.adm.stats(),
		Faults:     s.cfg.Fault.Counts(),
		SolveCache: solvecache.ReadStats(),
	}
	out.Requests, out.Streams = s.stats.snapshot()
	out.RespCache, out.Coalescing = s.cells.stats()
	if st := s.cfg.Store; st != nil {
		snap := st.Stats()
		out.Store = &snap
	}
	return out, nil
}
