// Package variant promotes every game in the repository to a first-class,
// uniformly addressable variant. A Game is one solvable model of the
// atomic-swap interaction — the paper's §III basic game, the §IV.A
// collateral and §IV.B uncertain-rate extensions, the packetized-payments
// comparator of the authors' companion work (arXiv:2103.02056), the
// repeated-engagement extension of §V.B (arXiv:2211.15804) and the
// one-sided initiator-optionality baseline the paper argues against — and
// the process-wide registry makes each reachable by key from the scenario
// batch runner, the CLIs' -variant flags, the golden suite and the bench
// gates, instead of only the hand-wired trio of earlier revisions.
//
// Every variant's expensive solves route through internal/solvecache (and,
// for the repeated game's quote solver, internal/memo), so a (scenario ×
// variant) batch shares one model per distinct parameter set. Variants
// that can be cross-validated implement MCValidator: an independent Monte
// Carlo protocol run whose Wilson interval must contain the analytic
// solve, the same regression gate the basic game has carried since the
// scenario subsystem landed.
package variant

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/stats"
	"repro/internal/utility"
)

// Errors returned by the package.
var (
	// ErrUnknown reports a lookup for an unregistered variant key.
	ErrUnknown = errors.New("variant: unknown variant")
)

// agreeSlack is the repository's customary tolerance around the Monte
// Carlo Wilson interval when checking the analytic solve.
const agreeSlack = 0.01

// Game is one first-class variant of the swap game. Implementations must
// be stateless (or internally synchronised): the batch runner solves
// (scenario × variant) cells concurrently through the sweep pool.
type Game interface {
	// Key is the stable registry identifier ("basic", "packetized", …).
	Key() string
	// Describe says in one line what regime the variant models.
	Describe() string
	// Solve produces the variant's report for one scenario. Analytic
	// solves must route through ctx's shared solve cache; inherently
	// sampled games (packetized, repeated) must be deterministic in the
	// scenario's seed.
	Solve(ctx *Context, sc scenario.Scenario) (Report, error)
}

// MCValidator is the optional interface of variants that can validate
// their solved report against an independent Monte Carlo protocol run. A
// nil check (with nil error) means the validation does not apply under
// this scenario (e.g. a repeated engagement that never quotes).
type MCValidator interface {
	MCValidate(ctx *Context, sc scenario.Scenario, r Report) (*MCCheck, error)
}

// Context carries the shared solve machinery of one (scenario × variant)
// cell: the Monte Carlo knobs of the batch run plus access to the
// process-wide solve cache. A zero Context is valid and uses the default
// run options. Not safe for concurrent use.
type Context struct {
	// Opts are the batch runner's Monte Carlo knobs.
	Opts RunOpts

	// model is the last model Model returned, for params: a cell's solve
	// and its Monte Carlo validation read one model, even when the shared
	// cache evicts it in between and would rebuild it and repeat its
	// scans.
	model  *core.Model
	params utility.Params
}

// Model returns the process-wide shared solver for the parameter set,
// looking it up once per Context.
func (c *Context) Model(p utility.Params) (*core.Model, error) {
	if c.model != nil && c.params == p {
		return c.model, nil
	}
	m, err := solvecache.SharedModel(p)
	if err != nil {
		return nil, err
	}
	c.model, c.params = m, p
	return m, nil
}

// Runs resolves a scenario's Monte Carlo run count under the batch
// options (the override, the scenario's own setting, or the default).
func (c *Context) Runs(sc scenario.Scenario) int {
	if c.Opts.Runs > 0 {
		return c.Opts.Runs
	}
	return sc.Runs()
}

// Value is one named, diffable quantity of a variant report.
type Value struct {
	// Name is the machine-readable key ("sr", "cutoffT3").
	Name string
	// V is the value.
	V float64
}

// Report is the solved summary of one (scenario × variant) cell.
type Report struct {
	// Key and Desc echo the variant the report came from.
	Key, Desc string
	// SR is the variant's headline success metric; SRLabel says what it
	// measures ("SR(P*) (Eq. 31)", "expected completed fraction", …).
	SR      float64
	SRLabel string
	// Values lists the diffable quantities in render order; the headline
	// SR is always present under the name "sr".
	Values []Value
	// Lines are the rendered detail lines (unindented; Render indents).
	Lines []string
	// MC is the Monte Carlo validation, nil when the variant has none or
	// it did not apply under this scenario.
	MC *MCCheck
}

// Value returns the named quantity and whether the report carries it.
func (r Report) Value(name string) (float64, bool) {
	for _, v := range r.Values {
		if v.Name == name {
			return v.V, true
		}
	}
	return 0, false
}

// MCAgrees reports the acceptance check: the validation ran and its
// Wilson interval (with the customary slack) contains the analytic value,
// or no validation applies (vacuously true).
func (r Report) MCAgrees() bool {
	return r.MC == nil || r.MC.Agrees
}

// MCCheck is one Monte Carlo validation of an analytic solve.
type MCCheck struct {
	// Game names the protocol experiment that was simulated.
	Game string
	// Runs is the number of protocol executions.
	Runs int
	// Seed is the RNG seed the simulation ran under.
	Seed int64
	// SR is the empirical success proportion with its Wilson 95%
	// interval; Analytic is the solved value it validates.
	SR       stats.Proportion
	Analytic float64
	// Agrees reports Agrees(Analytic, SR).
	Agrees bool
	// Stages counts simulated outcomes by end stage, keyed as the Monte
	// Carlo engine keys them (nil for samplers without stage detail), and
	// MeanDurationHours averages completion time (0 when not tracked).
	Stages            map[string]int
	MeanDurationHours float64
}

// Agrees is the repository's one agreement rule between an analytic
// success rate and its Monte Carlo estimate: analytic must lie within the
// estimate's Wilson interval widened by agreeSlack on both sides.
func Agrees(analytic float64, sr stats.Proportion) bool {
	return analytic >= sr.Lo-agreeSlack && analytic <= sr.Hi+agreeSlack
}

// newMCCheck assembles a check, computing the agreement flag.
func newMCCheck(game string, analytic float64, sr stats.Proportion, runs int, seed int64) *MCCheck {
	return &MCCheck{
		Game:     game,
		Runs:     runs,
		Seed:     seed,
		SR:       sr,
		Analytic: analytic,
		Agrees:   Agrees(analytic, sr),
	}
}

// registry is the process-wide variant registry. Registration happens in
// this package's init for the built-in variants; tests may register
// additional variants.
var registry = struct {
	mu    sync.RWMutex
	games map[string]Game
	order []string
}{games: map[string]Game{}}

// Register adds a variant to the process-wide registry. It panics on an
// empty or duplicate key — registration is a program-shape invariant, not
// a runtime condition.
func Register(g Game) {
	key := g.Key()
	if key == "" || strings.ContainsAny(key, ", \t\n") {
		panic(fmt.Sprintf("variant: invalid key %q", key))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.games[key]; dup {
		panic(fmt.Sprintf("variant: duplicate key %q", key))
	}
	registry.games[key] = g
	registry.order = append(registry.order, key)
}

// Lookup returns the registered variant with the given key.
func Lookup(key string) (Game, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if g, ok := registry.games[key]; ok {
		return g, nil
	}
	known := append([]string(nil), registry.order...)
	sort.Strings(known)
	return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknown, key, strings.Join(known, ", "))
}

// Keys lists the registered variant keys in registration order.
func Keys() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]string(nil), registry.order...)
}

// DefaultKeys is the variant set solved when a scenario selects none: the
// basic game and the paper's two §IV extensions — the trio the scenario
// batch has always solved.
func DefaultKeys() []string {
	return []string{"basic", "collateral", "uncertain"}
}

// Resolve expands a variant specification into games: "" selects the
// scenario's own Variants (or DefaultKeys when it has none), "all" every
// registered variant, and otherwise a comma-separated key list.
func Resolve(spec string, sc scenario.Scenario) ([]Game, error) {
	var keys []string
	switch spec {
	case "":
		keys = sc.Variants
		if len(keys) == 0 {
			keys = DefaultKeys()
		}
	case "all":
		keys = Keys()
	default:
		for _, k := range strings.Split(spec, ",") {
			keys = append(keys, strings.TrimSpace(k))
		}
	}
	games := make([]Game, len(keys))
	for i, k := range keys {
		g, err := Lookup(k)
		if err != nil {
			return nil, err
		}
		games[i] = g
	}
	return games, nil
}

func init() {
	// Canonical registration order: the paper's games first, then the
	// related-work comparators, then the baseline the paper argues
	// against. List/summary columns follow this order.
	Register(basicGame{})
	Register(collateralGame{})
	Register(uncertainGame{})
	Register(packetizedGame{})
	Register(repeatedGame{})
	Register(baselineGame{})
}
