// Package figures regenerates every table and figure of the paper's
// evaluation from the solvers and simulators in this repository. Each
// generator returns structured Figure data (series for curves, rows for
// tables, notes for derived scalars such as thresholds and feasible
// ranges); rendering to ASCII or CSV is delegated to internal/plot.
//
// The experiment index in DESIGN.md maps each generator to its paper
// artifact; EXPERIMENTS.md records the measured values these generators
// produce against the paper's claims.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/utility"
)

// ErrUnknownFigure reports a request for an unregistered figure ID.
var ErrUnknownFigure = errors.New("figures: unknown figure")

// Figure is one renderable artifact: either a chart (Series non-empty) or a
// table (TableHeader non-empty), with measured notes either way.
type Figure struct {
	// ID is the artifact identifier ("fig6-alphaA", "tableI").
	ID string
	// Title describes the artifact.
	Title string
	// XLabel and YLabel annotate chart axes.
	XLabel, YLabel string
	// Series holds chart curves (empty for tables).
	Series []plot.Series
	// TableHeader and TableRows hold tabular artifacts (empty for charts).
	TableHeader []string
	TableRows   [][]string
	// Notes records derived scalars (thresholds, ranges, viability flags).
	Notes []string
}

// Render produces the ASCII form of the figure (chart or table) followed by
// its notes.
func (f Figure) Render(w, h int) (string, error) {
	var body string
	var err error
	switch {
	case len(f.Series) > 0:
		body, err = plot.ASCII(f.Title, f.XLabel, f.YLabel, w, h, f.Series...)
	case len(f.TableHeader) > 0:
		body, err = plot.Table(f.TableHeader, f.TableRows)
		if err == nil {
			body = f.Title + "\n" + body
		}
	default:
		return "", fmt.Errorf("figures: %q has no content", f.ID)
	}
	if err != nil {
		return "", fmt.Errorf("figures: rendering %q: %w", f.ID, err)
	}
	if len(f.Notes) > 0 {
		body += "notes:\n"
		for _, n := range f.Notes {
			body += "  - " + n + "\n"
		}
	}
	return body, nil
}

// Opts configures artifact generation.
type Opts struct {
	// Workers bounds the concurrency of each grid scan (they run through
	// internal/sweep); 0 uses all CPUs. Output is identical for any value.
	Workers int
	// Scenario names a registered scenario (internal/scenario) whose
	// parameter set replaces the caller's params in Generate, so every
	// artifact can be regenerated under an alternative regime. Empty keeps
	// the caller's params.
	Scenario string
}

// Generator produces one or more figures from a parameter set.
type Generator func(p utility.Params, o Opts) ([]Figure, error)

// RegistryEntry binds an artifact group ID to its generator.
type RegistryEntry struct {
	ID  string
	Gen Generator
}

// Registry maps artifact group IDs to generators, in the paper's order.
// The MC validation scale and the §IV.B budget are fixed here.
func Registry() []RegistryEntry {
	return []RegistryEntry{
		{"tableI", TableI},
		{"tableIII", TableIII},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10a", func(p utility.Params, o Opts) ([]Figure, error) { return Fig10a(p, DefaultBobBudget, o) }},
		{"fig10b", func(p utility.Params, o Opts) ([]Figure, error) { return Fig10b(p, DefaultBobBudget, o) }},
		{"fig11", func(p utility.Params, o Opts) ([]Figure, error) { return Fig11(p, DefaultBobBudget, o) }},
		{"montecarlo", func(p utility.Params, o Opts) ([]Figure, error) { return MCValidation(p, DefaultMCRuns, o) }},
		{"baseline", BaselineComparison},
		{"uncertainty", Uncertainty},
		{"reputation", Reputation},
		{"packetized", Packetized},
	}
}

// DefaultBobBudget is B's Token_b holdings used to reproduce Figs. 10–11
// (see DESIGN.md deviation 6: Fig. 10a's axis tops out at 5).
const DefaultBobBudget = 5.0

// DefaultMCRuns sizes the Monte Carlo validation in the registry.
const DefaultMCRuns = 20000

// parseOnly resolves a comma-separated ID filter against the registry.
// Empty IDs (trailing or doubled commas) are skipped and duplicates are
// deduplicated; IDs that match no registry entry fail with every offender
// named. A filter selecting nothing returns nil, meaning "all".
func parseOnly(only string, reg []RegistryEntry) (map[string]bool, error) {
	wanted := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	if len(wanted) == 0 {
		return nil, nil
	}
	known := map[string]bool{}
	for _, e := range reg {
		known[e.ID] = true
	}
	var unknown []string
	for id := range wanted {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("%w: %s", ErrUnknownFigure, strings.Join(unknown, ", "))
	}
	return wanted, nil
}

// Timing is one artifact group's generation wall time, in registry order.
type Timing struct {
	ID      string
	Elapsed time.Duration
}

// Generate runs the registered generator(s). only filters by a
// comma-separated list of IDs; empty means all. o.Workers bounds the
// concurrency of every grid scan without affecting the output; o.Scenario,
// when set, swaps p for the named scenario's parameter set.
func Generate(p utility.Params, only string, o Opts) ([]Figure, error) {
	figs, _, err := GenerateTimed(p, only, o)
	return figs, err
}

// GenerateTimed is Generate with a per-group wall-time breakdown (the
// -timing flag on cmd/figures). Artifact groups fan out across the sweep
// pool — each group's scans already run through the same pool, so nested
// parallelism stays bounded — and results are collected in registry order,
// so the output is byte-identical to a sequential registry walk at any
// worker count. A failing group's error still names that group.
func GenerateTimed(p utility.Params, only string, o Opts) ([]Figure, []Timing, error) {
	if o.Scenario != "" {
		sc, err := scenario.Lookup(o.Scenario)
		if err != nil {
			return nil, nil, err
		}
		p = sc.Params
	}
	reg := Registry()
	wanted, err := parseOnly(only, reg)
	if err != nil {
		return nil, nil, err
	}
	entries := reg[:0:0]
	for _, entry := range reg {
		if wanted == nil || wanted[entry.ID] {
			entries = append(entries, entry)
		}
	}
	type group struct {
		figs    []Figure
		elapsed time.Duration
	}
	groups, err := sweep.Map(context.Background(), len(entries), o.Workers, func(i int) (group, error) {
		start := time.Now()
		figs, err := entries[i].Gen(p, o)
		if err != nil {
			return group{}, fmt.Errorf("figures: generating %s: %w", entries[i].ID, err)
		}
		return group{figs: figs, elapsed: time.Since(start)}, nil
	})
	if err != nil {
		// Strip sweep.Map's task-index wrapper: the group error already
		// names the failing artifact. Context errors unwrap to nil and
		// pass through unchanged.
		if inner := errors.Unwrap(err); inner != nil {
			err = inner
		}
		return nil, nil, err
	}
	var out []Figure
	timings := make([]Timing, len(entries))
	for i, g := range groups {
		out = append(out, g.figs...)
		timings[i] = Timing{ID: entries[i].ID, Elapsed: g.elapsed}
	}
	return out, timings, nil
}
