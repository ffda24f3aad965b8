package variant

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// RunOpts configures a batch run across the (scenario × variant) matrix.
type RunOpts struct {
	// Runs overrides every scenario's Monte Carlo run count (0 keeps each
	// scenario's own setting — MCRuns, or scenario.DefaultMCRuns). A
	// validation always runs exactly this many paths under the pseudo
	// sampler.
	Runs int
	// MCWorkers bounds the concurrency of the inner Monte Carlo of a
	// single cell. RunAll parallelises across cells and pins this to 1;
	// Run on its own uses all CPUs when 0.
	MCWorkers int
	// Variants overrides every scenario's variant selection: "" defers to
	// the scenario (or the default trio), "all" solves every registered
	// variant, otherwise a comma-separated key list.
	Variants string
	// SkipMC skips the Monte Carlo validations (analytic solves only) —
	// the mode cmd/swapsolve's -variant runs in.
	SkipMC bool
	// Store, when non-nil, is the persistent content-addressed L2 the
	// runner reads each cell through: a cell whose CellKey is present is
	// loaded instead of solved, and every freshly solved cell is written
	// back. Excluded from serialization — the store is plumbing, not part
	// of any cell's solve input.
	Store *store.Store `json:"-"`
}

// cellSchema versions the serialized Report payload stored under a cell
// key. Bump it whenever the Report schema (or anything influencing a solve
// that is not captured in cellKeyMaterial) changes shape or meaning: old
// entries then read as misses and re-solve, instead of decoding into a
// struct they no longer match. Schema 2: the basic game's feasibility and
// optimum scans moved to a unit-rate probe kernel, which moves the last
// bits of stored feasibleLo/feasibleHi/optimalSR and plateau optimalRate
// values. Schema 3: the uncertain game solves B's best response once in
// the scaled amount z = X·y/a, which moves the last bits (~1e-8) of stored
// uncertain sr/aliceExcess values. Schema 4: every basic-game t2 region is
// the model's unit-rate region scaled by P*, found by a scan that keeps
// regions narrower than one panel, which moves the last bits of stored
// basic region bounds and SRs (and the SR of cells whose region the old
// scan dropped). Schema 5: every t2 region, collateral included, is the
// unit-rate region of its deposit ratio Q/P* scaled by P*, a region that
// reaches the scan floor starts at 0, and the t1 integrals run over the
// transition density's bulk only, which moves collateral region bounds
// and SRs (by up to 0.02 where the density is narrow) and the last bits
// of other t1 values. Schema 6: every pseudo-random draw comes from
// math/rand/v2's PCG (sweep.Rand) instead of math/rand v1's stream, and
// pseudo packetized runs each reseed from (seed, run), which moves every
// stored Monte Carlo check and the sampled packetized and repeated
// reports; the analytic basic, collateral and uncertain bytes stay put.
const cellSchema = 6

// reportDigest pins the bytes the current cellSchema stands for: the
// SHA-256 of the marshalled analytic reports of a fixed cell set (every
// preset under every variant, plus generated universe cells under basic;
// see TestReportBytesPinned). A change that moves any of those bytes fails
// that test until cellSchema is bumped and this digest re-pinned, so
// stored reports cannot silently mix with newly solved ones.
const reportDigest = "5eb88c0fc47660a025850547b3fca61da96f00ff1786d506b52334b9f65366af"

// mcReportDigest pins the Monte Carlo half of the same bytes: the SHA-256
// of the marshalled validation checks of three presets under basic and
// collateral at 200 runs (see TestMCReportBytesPinned). A change that
// moves them needs a cellSchema bump exactly as reportDigest does.
const mcReportDigest = "a2e33298b90a422637eb0152a4ee83e2036d9d863b3bb88e0983980eb16b9c4f"

// cellKeyMaterial is the complete solve input of one (scenario × variant)
// cell, in canonical field order. MCWorkers is deliberately absent —
// results are bit-reproducible per seed at any worker count — and
// so are both variant selections (RunOpts.Variants and the scenario's own
// Variants), which pick cells but do not parameterize one.
type cellKeyMaterial struct {
	Schema   int               `json:"schema"`
	Scenario scenario.Scenario `json:"scenario"`
	Variant  string            `json:"variant"`
	Runs     int               `json:"runs"`
	SkipMC   bool              `json:"skipMC"`
}

// CellKey returns the canonical content key of one (scenario × variant)
// cell under the given run options: the store.Key of everything that
// determines the cell's Report. Two invocations produce the same key iff
// they would produce the same report, so a key lookup can never serve a
// stale result — a changed input is a different key — and overlapping
// selections of one scenario share their common cells.
func CellKey(sc scenario.Scenario, variantKey string, opts RunOpts) (string, error) {
	sc.Variants = nil
	return store.Key(cellKeyMaterial{
		Schema:   cellSchema,
		Scenario: sc,
		Variant:  variantKey,
		Runs:     opts.Runs,
		SkipMC:   opts.SkipMC,
	})
}

// ScenarioReport is the solved (scenario × variant) row of one scenario:
// one report per selected variant, in selection order.
type ScenarioReport struct {
	// Scenario echoes the definition the reports were produced from.
	Scenario scenario.Scenario
	// Reports holds one entry per selected variant.
	Reports []Report
}

// Disagreements lists the keys of variants whose validation failed.
func (sr ScenarioReport) Disagreements() []string {
	var out []string
	for _, r := range sr.Reports {
		if !r.MCAgrees() {
			out = append(out, r.Key)
		}
	}
	return out
}

// Report returns the report for the given variant key.
func (sr ScenarioReport) Report(key string) (Report, bool) {
	for _, r := range sr.Reports {
		if r.Key == key {
			return r, true
		}
	}
	return Report{}, false
}

// RunCell produces one (scenario × variant) cell's report, reading through
// the persistent store when RunOpts.Store is set: a present, decodable
// entry is returned without solving; otherwise the cell is solved and the
// report written back (best effort — a failed Put costs nothing but the
// amortization). The scenario must already be valid.
func RunCell(g Game, sc scenario.Scenario, opts RunOpts) (Report, error) {
	if opts.Store == nil {
		return solveCell(g, sc, opts)
	}
	key, err := CellKey(sc, g.Key(), opts)
	if err != nil {
		// Unkeyable cell (cannot happen for validated scenarios, but a
		// keying failure must never fail the run): solve uncached.
		return solveCell(g, sc, opts)
	}
	if data, ok := opts.Store.Get(key); ok {
		var r Report
		if err := json.Unmarshal(data, &r); err == nil {
			return r, nil
		}
		// Undecodable payload under a valid key (schema drift without a
		// cellSchema bump): fall through, re-solve, overwrite.
	}
	r, err := solveCell(g, sc, opts)
	if err != nil {
		return r, err
	}
	if data, err := json.Marshal(r); err == nil {
		opts.Store.Put(key, data)
	}
	return r, nil
}

// solveCell solves one (scenario × variant) cell: the analytic solve, then
// the variant's Monte Carlo validation when it has one.
func solveCell(g Game, sc scenario.Scenario, opts RunOpts) (Report, error) {
	ctx := &Context{Opts: opts}
	r, err := g.Solve(ctx, sc)
	if err != nil {
		return Report{}, fmt.Errorf("scenario %q: variant %q: %w", sc.Name, g.Key(), err)
	}
	r.Key, r.Desc = g.Key(), g.Describe()
	if v, ok := g.(MCValidator); ok && !opts.SkipMC {
		check, err := v.MCValidate(ctx, sc, r)
		if err != nil {
			return Report{}, fmt.Errorf("scenario %q: variant %q: MC validation: %w", sc.Name, g.Key(), err)
		}
		r.MC = check
	}
	return r, nil
}

// Run solves one scenario across its selected variants sequentially.
func Run(sc scenario.Scenario, opts RunOpts) (ScenarioReport, error) {
	if err := sc.Validate(); err != nil {
		return ScenarioReport{}, err
	}
	games, err := Resolve(opts.Variants, sc)
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	out := ScenarioReport{Scenario: sc, Reports: make([]Report, len(games))}
	for i, g := range games {
		if out.Reports[i], err = RunCell(g, sc, opts); err != nil {
			return ScenarioReport{}, err
		}
	}
	return out, nil
}

// cell is one (scenario × variant) unit of the batch fan-out.
type cell struct {
	scenarioIdx int
	reportIdx   int
	game        Game
}

// RunAll fans the full (scenario × variant) matrix through the sweep
// worker pool — cross-cell parallelism with reports returned in input
// order, bit-identical for any worker count. Each cell's inner Monte
// Carlo runs single-worker; the parallelism budget is spent across cells.
func RunAll(ctx context.Context, scs []scenario.Scenario, workers int, opts RunOpts) ([]ScenarioReport, error) {
	opts.MCWorkers = 1
	out := make([]ScenarioReport, len(scs))
	var cells []cell
	for i, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		games, err := Resolve(opts.Variants, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		out[i] = ScenarioReport{Scenario: sc, Reports: make([]Report, len(games))}
		for j, g := range games {
			cells = append(cells, cell{scenarioIdx: i, reportIdx: j, game: g})
		}
	}
	reports, err := sweep.Map(ctx, len(cells), workers, func(i int) (Report, error) {
		c := cells[i]
		return RunCell(c.game, scs[c.scenarioIdx], opts)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range reports {
		c := cells[i]
		out[c.scenarioIdx].Reports[c.reportIdx] = r
	}
	return out, nil
}

// renderMC writes the validation block of one report.
func renderMC(b *strings.Builder, mc *MCCheck) {
	fmt.Fprintf(b, "  Monte Carlo (%s, %d runs, seed %d):\n", mc.Game, mc.Runs, mc.Seed)
	fmt.Fprintf(b, "    simulated SR: %.4f, Wilson 95%% [%.4f, %.4f], analytic %.4f, agrees: %v\n",
		mc.SR.P, mc.SR.Lo, mc.SR.Hi, mc.Analytic, mc.Agrees)
	if mc.Stages != nil {
		fmt.Fprintf(b, "    mean completion %.2fh; outcomes:", mc.MeanDurationHours)
		for _, s := range slices.Sorted(maps.Keys(mc.Stages)) {
			fmt.Fprintf(b, " %s=%d", s, mc.Stages[s])
		}
		b.WriteString("\n")
	}
}

// Render produces the human-readable per-scenario block used by
// cmd/scenarios: the scenario header once, then one section per variant.
func (sr ScenarioReport) Render() string {
	var b strings.Builder
	sc := sr.Scenario
	fmt.Fprintf(&b, "scenario %s — %s\n", sc.Name, sc.Description)
	fmt.Fprintf(&b, "  params: αA=%g rA=%g | αB=%g rB=%g | τa=%gh τb=%gh εb=%gh | µ=%g σ=%g P0=%g\n",
		sc.Params.Alice.Alpha, sc.Params.Alice.R, sc.Params.Bob.Alpha, sc.Params.Bob.R,
		sc.Params.Chains.TauA, sc.Params.Chains.TauB, sc.Params.Chains.EpsB,
		sc.Params.Price.Mu, sc.Params.Price.Sigma, sc.Params.P0)
	fmt.Fprintf(&b, "  knobs:  P*=%g Q=%g budget=%g\n", sc.PStar, sc.Collateral, sc.BobBudget)
	for _, r := range sr.Reports {
		fmt.Fprintf(&b, " variant %s — %s\n", r.Key, r.Desc)
		for _, line := range r.Lines {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		if r.MC != nil {
			renderMC(&b, r.MC)
		}
	}
	return b.String()
}

// Matrix renders the per-variant summary columns of a batch: one row per
// scenario, one column per variant that appears in any report, cells
// holding the variant's headline success metric.
func Matrix(reports []ScenarioReport) string {
	var keys []string
	seen := map[string]bool{}
	for _, sr := range reports {
		for _, r := range sr.Reports {
			if !seen[r.Key] {
				seen[r.Key] = true
				keys = append(keys, r.Key)
			}
		}
	}
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "scenario")
	for _, k := range keys {
		fmt.Fprintf(&b, " %12s", k)
	}
	b.WriteString("\n")
	for _, sr := range reports {
		fmt.Fprintf(&b, "%-20s", sr.Scenario.Name)
		for _, k := range keys {
			if r, ok := sr.Report(k); ok {
				fmt.Fprintf(&b, " %12.4f", r.SR)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Diff compares two scenario rows: parameter differences first, then —
// per variant present in both — every named value that moved by more than
// eps, one per-variant column block at a time.
func Diff(a, b ScenarioReport, eps float64) string {
	var out strings.Builder
	fmt.Fprintf(&out, "diff %s -> %s\n", a.Scenario.Name, b.Scenario.Name)
	lines := 0
	for _, d := range scenario.DiffParams(a.Scenario, b.Scenario) {
		fmt.Fprintf(&out, "  param %s\n", d)
		lines++
	}
	for _, ra := range a.Reports {
		rb, ok := b.Report(ra.Key)
		if !ok {
			continue
		}
		for _, va := range ra.Values {
			vb, ok := rb.Value(va.Name)
			if !ok {
				// Conditional values (feasible/continuation bounds, quoted
				// rates) vanish when the region empties or the market
				// freezes — the most decision-relevant difference between
				// two regimes, so it must not drop out of the diff.
				fmt.Fprintf(&out, "  %s %s: %.4f -> absent\n", ra.Key, va.Name, va.V)
				lines++
				continue
			}
			if math.Abs(va.V-vb) > eps {
				fmt.Fprintf(&out, "  %s %s: %.4f -> %.4f (Δ %+.4f)\n", ra.Key, va.Name, va.V, vb, vb-va.V)
				lines++
			}
		}
		for _, vb := range rb.Values {
			if _, ok := ra.Value(vb.Name); !ok {
				fmt.Fprintf(&out, "  %s %s: absent -> %.4f\n", ra.Key, vb.Name, vb.V)
				lines++
			}
		}
		if ma, mb := ra.MC, rb.MC; ma != nil && mb != nil && math.Abs(ma.SR.P-mb.SR.P) > eps {
			fmt.Fprintf(&out, "  %s MC SR: %.4f -> %.4f (Δ %+.4f)\n", ra.Key, ma.SR.P, mb.SR.P, mb.SR.P-ma.SR.P)
			lines++
		}
	}
	if lines == 0 {
		out.WriteString("  no differences above eps\n")
	}
	return out.String()
}
