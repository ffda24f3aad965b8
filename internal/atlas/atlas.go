// Package atlas sweeps a generated scenario universe (internal/config)
// through the variant batch runner and renders success-rate frontier
// artifacts over it. The sweep is incremental by construction: every
// (scenario × variant) cell is content-addressed (variant.CellKey) in the
// persistent store, so a run re-solves only cells whose key is absent or
// changed — a second run over an unchanged universe solves zero cells and
// merely re-renders the artifacts, byte-identically.
//
// Artifacts are pure functions of the universe's reports: no timestamps,
// no machine identity, fixed iteration order, so cold and warm runs (and
// runs on different machines sharing a store) produce identical bytes.
// The solved/loaded split is run diagnostics and deliberately lives in the
// CLI summary, not in any artifact.
package atlas

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/variant"
)

// Options configures one atlas sweep.
type Options struct {
	// Spec is the generated universe to sweep.
	Spec config.UniverseSpec
	// Variants is the variant selection for every cell ("" = "basic": the
	// frontier's headline game; "all" or a comma list widen it).
	Variants string
	// Runs and SkipMC configure each cell's Monte Carlo validation
	// exactly as in variant.RunOpts. The atlas default (SkipMC true) is
	// analytic-only: frontiers need the solved success rate, not a
	// re-validation of the solver per cell.
	Runs   int
	SkipMC bool
	// Workers sizes the cross-cell worker pool (0 = all CPUs).
	Workers int
	// Store is the persistent cell store. Nil runs the sweep uncached
	// (every cell solves).
	Store *store.Store
}

// Cell is one solved (scenario × variant) point of the universe.
type Cell struct {
	// Scenario is the generated cell name ("u-btc-evm-017").
	Scenario string `json:"scenario"`
	// From and To are the swap direction's chain profiles.
	From string `json:"from"`
	To   string `json:"to"`
	// Variant is the game the cell was solved under.
	Variant string `json:"variant"`
	// SR is the variant's headline success metric.
	SR float64 `json:"sr"`
	// Sigma and Mu are the cell's sampled GBM law.
	Sigma float64 `json:"sigma"`
	Mu    float64 `json:"mu"`
	// TauA, TauB and EpsB are the congestion-scaled, block-quantized chain
	// timings in hours.
	TauA float64 `json:"tauA"`
	TauB float64 `json:"tauB"`
	EpsB float64 `json:"epsB"`
}

// Result is one completed sweep.
type Result struct {
	// Spec echoes the generated universe.
	Spec config.UniverseSpec `json:"spec"`
	// Cells holds every solved cell in deterministic universe order.
	Cells []Cell `json:"cells"`
	// Solved and Loaded split the cells by how this run obtained them:
	// freshly solved versus read from the store. They describe the run,
	// not the universe, and are excluded from serialized artifacts.
	Solved int `json:"-"`
	Loaded int `json:"-"`
	// Checks counts the cells that carry a Monte Carlo check, and
	// Disagree names ("scenario/variant") those whose check disagrees
	// with the analytic solve, in universe order. A loaded cell carries
	// its stored check, so cold and warm sweeps report the same verdicts.
	// Like the split above, they are excluded from serialized artifacts.
	Checks   int      `json:"-"`
	Disagree []string `json:"-"`
}

// Run sweeps the universe once.
func Run(ctx context.Context, opts Options) (*Result, error) {
	scs, err := opts.Spec.Generate()
	if err != nil {
		return nil, err
	}
	ropts := variant.RunOpts{
		Runs:     opts.Runs,
		SkipMC:   opts.SkipMC,
		Variants: opts.Variants,
		Store:    opts.Store,
	}
	if ropts.Variants == "" {
		ropts.Variants = "basic"
	}
	var before store.Stats
	if opts.Store != nil {
		before = opts.Store.Stats()
	}
	reports, err := variant.RunAll(ctx, scs, opts.Workers, ropts)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: opts.Spec}
	for _, sr := range reports {
		from, to := pairOf(sr.Scenario.Name)
		for _, r := range sr.Reports {
			if r.MC != nil {
				res.Checks++
				if !r.MC.Agrees {
					res.Disagree = append(res.Disagree, sr.Scenario.Name+"/"+r.Key)
				}
			}
			res.Cells = append(res.Cells, Cell{
				Scenario: sr.Scenario.Name,
				From:     from,
				To:       to,
				Variant:  r.Key,
				SR:       r.SR,
				Sigma:    sr.Scenario.Params.Price.Sigma,
				Mu:       sr.Scenario.Params.Price.Mu,
				TauA:     sr.Scenario.Params.Chains.TauA,
				TauB:     sr.Scenario.Params.Chains.TauB,
				EpsB:     sr.Scenario.Params.Chains.EpsB,
			})
		}
	}
	if opts.Store != nil {
		after := opts.Store.Stats()
		res.Loaded = int(after.Hits - before.Hits)
		res.Solved = int(after.Misses - before.Misses)
	} else {
		res.Solved = len(res.Cells)
	}
	return res, nil
}

// pairOf recovers the swap direction from a generated cell name
// ("u-<from>-<to>-NNN"; profile names never contain dashes).
func pairOf(name string) (from, to string) {
	parts := strings.Split(name, "-")
	if len(parts) != 4 || parts[0] != "u" {
		return "", ""
	}
	return parts[1], parts[2]
}

// Summary is the one-line run diagnostic the CLI prints (and atlas-smoke
// greps): cell counts plus the solved/loaded split.
func (r *Result) Summary() string {
	return fmt.Sprintf("atlas: %d cells over %d scenarios, solved %d, loaded %d",
		len(r.Cells), r.Spec.Cells(), r.Solved, r.Loaded)
}

// MCSummary is the one-line verdict of the sweep's Monte Carlo checks,
// naming every cell whose check disagrees.
func (r *Result) MCSummary() string {
	s := fmt.Sprintf("mc: %d of %d checks disagree", len(r.Disagree), r.Checks)
	if len(r.Disagree) > 0 {
		s += " (" + strings.Join(r.Disagree, ", ") + ")"
	}
	return s
}

// frontierBuckets is the σ resolution of the frontier table.
const frontierBuckets = 5

// WriteArtifacts renders the sweep into dir: atlas_cells.json (the full
// cell table) and atlas_frontier.txt (per variant, mean success rate by
// swap direction × volatility bucket). Both are deterministic functions of
// the result.
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cells, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	cells = append(cells, '\n')
	if err := os.WriteFile(filepath.Join(dir, "atlas_cells.json"), cells, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "atlas_frontier.txt"), []byte(r.Frontier()), 0o644)
}

// Frontier renders the success-rate frontier: for every variant, a table
// of mean SR per ordered chain pair × σ bucket (buckets span the observed
// σ range), with a per-pair overall mean. Rows follow the universe's pair
// order, so the rendering is deterministic.
func (r *Result) Frontier() string {
	var b strings.Builder
	fmt.Fprintf(&b, "atlas frontier — mean success rate by swap direction and volatility\n")
	fmt.Fprintf(&b, "universe: chains=%s samples=%d seed=%d cells=%d\n",
		strings.Join(r.Spec.Chains, ","), r.Spec.Samples, r.Spec.Seed, len(r.Cells))
	if len(r.Cells) == 0 {
		return b.String()
	}
	loSigma, hiSigma := r.Cells[0].Sigma, r.Cells[0].Sigma
	variants, pairs := orderedKeys(r.Cells)
	for _, c := range r.Cells {
		loSigma = math.Min(loSigma, c.Sigma)
		hiSigma = math.Max(hiSigma, c.Sigma)
	}
	bucket := func(sigma float64) int {
		if hiSigma == loSigma {
			return 0
		}
		i := int(float64(frontierBuckets) * (sigma - loSigma) / (hiSigma - loSigma))
		if i >= frontierBuckets {
			i = frontierBuckets - 1
		}
		return i
	}
	edge := func(i int) float64 {
		return loSigma + float64(i)*(hiSigma-loSigma)/frontierBuckets
	}
	for _, v := range variants {
		fmt.Fprintf(&b, "\nvariant %s:\n", v)
		fmt.Fprintf(&b, "  %-12s", "pair")
		for i := 0; i < frontierBuckets; i++ {
			fmt.Fprintf(&b, " σ[%.3f,%.3f)", edge(i), edge(i+1))
		}
		fmt.Fprintf(&b, " %14s\n", "all")
		for _, p := range pairs {
			sum := make([]float64, frontierBuckets)
			n := make([]int, frontierBuckets)
			total, cnt := 0.0, 0
			for _, c := range r.Cells {
				if c.Variant != v || c.From+"→"+c.To != p {
					continue
				}
				i := bucket(c.Sigma)
				sum[i] += c.SR
				n[i]++
				total += c.SR
				cnt++
			}
			if cnt == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s", p)
			for i := 0; i < frontierBuckets; i++ {
				if n[i] == 0 {
					fmt.Fprintf(&b, " %14s", "-")
				} else {
					fmt.Fprintf(&b, " %14.4f", sum[i]/float64(n[i]))
				}
			}
			fmt.Fprintf(&b, " %14.4f\n", total/float64(cnt))
		}
	}
	return b.String()
}

// orderedKeys returns the distinct variants and pairs in first-appearance
// order (the universe's deterministic generation order).
func orderedKeys(cells []Cell) (variants, pairs []string) {
	seenV := map[string]bool{}
	seenP := map[string]bool{}
	for _, c := range cells {
		if !seenV[c.Variant] {
			seenV[c.Variant] = true
			variants = append(variants, c.Variant)
		}
		p := c.From + "→" + c.To
		if !seenP[p] {
			seenP[p] = true
			pairs = append(pairs, p)
		}
	}
	return variants, pairs
}
