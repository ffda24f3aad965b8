// Package scenario is the repository's declarative experiment subsystem: a
// Scenario bundles a complete model configuration — agent preferences, chain
// timings, the price process, the agreed exchange rate, and the collateral,
// budget and Monte Carlo knobs of the extensions — under a stable name, so
// that every solver and simulator in the repository can be pointed at a
// regime with one identifier instead of a hand-assembled utility.Params.
//
// The paper's evaluation fixes the single Table III point and varies one
// axis per figure; the interesting regimes (high volatility, asymmetric
// discounting, fee stress, short timelocks — see arXiv:2103.02056 and
// arXiv:2211.15804) live off that point. Registry names ten of them as
// presets and JSON load/save admits user-defined ones.
//
// A Scenario is pure data: it names the regime and, through the Variants
// field, selects which of the registered variant games internal/variant
// solves for it. The batch
// runner that fans the (scenario × variant) matrix through the
// internal/sweep worker pool lives in internal/variant, which layers on
// top of this package.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"unicode/utf8"

	"repro/internal/utility"
)

// Errors returned by the package.
var (
	// ErrBadScenario reports an invalid scenario definition.
	ErrBadScenario = errors.New("scenario: invalid scenario")
	// ErrUnknown reports a lookup for an unregistered scenario name.
	ErrUnknown = errors.New("scenario: unknown scenario")
)

// DefaultMCRuns sizes the Monte Carlo validation of a scenario whose MCRuns
// field is zero.
const DefaultMCRuns = 4000

// Scenario is one named model regime: the full parameter set plus the knobs
// of the §IV extensions and the seed of its Monte Carlo validation.
type Scenario struct {
	// Name identifies the scenario ("tableIII", "high-vol"). It must be
	// non-empty and free of commas and whitespace, so CLI lists parse.
	Name string `json:"name"`
	// Description says what regime the scenario probes.
	Description string `json:"description,omitempty"`
	// Params is the complete model configuration (preferences, timings,
	// GBM law, initial price).
	Params utility.Params `json:"params"`
	// PStar is the agreed exchange rate the games are solved at; it doubles
	// as A's committed amount in the uncertain-exchange-rate game.
	PStar float64 `json:"pstar"`
	// Collateral is the per-agent deposit Q of §IV.A; 0 skips the
	// collateral solve.
	Collateral float64 `json:"collateral,omitempty"`
	// BobBudget caps B's lockable amount in the §IV.B game; 0 leaves the
	// printed Eq. 44 unconstrained.
	BobBudget float64 `json:"bobBudget,omitempty"`
	// MCRuns sizes the Monte Carlo validation (0 = DefaultMCRuns).
	MCRuns int `json:"mcRuns,omitempty"`
	// Seed is the base RNG seed of the scenario's Monte Carlo validation;
	// run i draws from the decorrelated stream sweep.Seed(Seed, i).
	Seed int64 `json:"seed,omitempty"`
	// Variants selects the variant games solved for this scenario, by
	// registry key ("basic", "packetized", …; see internal/variant). Empty
	// keeps the classic basic/collateral/uncertain trio. Key syntax is
	// validated here; whether a key is actually registered is checked by
	// the variant runner, which owns the registry.
	Variants []string `json:"variants,omitempty"`
}

// Validate checks the scenario for use by the solvers and the simulator.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadScenario)
	}
	if strings.ContainsAny(s.Name, ", \t\n") {
		return fmt.Errorf("%w: name %q must not contain commas or whitespace", ErrBadScenario, s.Name)
	}
	if !utf8.ValidString(s.Name) || !utf8.ValidString(s.Description) {
		return fmt.Errorf("%w: name and description must be valid UTF-8", ErrBadScenario)
	}
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadScenario, s.Name, err)
	}
	if s.PStar <= 0 || math.IsNaN(s.PStar) || math.IsInf(s.PStar, 0) {
		return fmt.Errorf("%w: %q: pstar=%g must be > 0", ErrBadScenario, s.Name, s.PStar)
	}
	if s.Collateral < 0 || math.IsNaN(s.Collateral) || math.IsInf(s.Collateral, 0) {
		return fmt.Errorf("%w: %q: collateral=%g must be >= 0", ErrBadScenario, s.Name, s.Collateral)
	}
	if s.BobBudget < 0 || math.IsNaN(s.BobBudget) || math.IsInf(s.BobBudget, 0) {
		return fmt.Errorf("%w: %q: bobBudget=%g must be >= 0", ErrBadScenario, s.Name, s.BobBudget)
	}
	if s.MCRuns < 0 {
		return fmt.Errorf("%w: %q: mcRuns=%d must be >= 0", ErrBadScenario, s.Name, s.MCRuns)
	}
	seen := make(map[string]bool, len(s.Variants))
	for _, v := range s.Variants {
		if v == "" || strings.ContainsAny(v, ", \t\n") || !utf8.ValidString(v) {
			return fmt.Errorf("%w: %q: variant key %q must be non-empty without commas or whitespace", ErrBadScenario, s.Name, v)
		}
		if seen[v] {
			return fmt.Errorf("%w: %q: duplicate variant key %q", ErrBadScenario, s.Name, v)
		}
		seen[v] = true
	}
	return nil
}

// Runs resolves the Monte Carlo run count (MCRuns or DefaultMCRuns).
func (s Scenario) Runs() int {
	if s.MCRuns > 0 {
		return s.MCRuns
	}
	return DefaultMCRuns
}

// Registry returns the named presets, Table III first. Each probes a regime
// the paper's single-point evaluation leaves unexplored; DESIGN.md's
// scenario table records the rationale per preset.
func Registry() []Scenario {
	def := utility.Default()
	return []Scenario{
		{
			Name:        "tableIII",
			Description: "the paper's canonical Table III point at the fair rate",
			Params:      def, PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 1,
		},
		{
			Name:        "high-vol",
			Description: "doubled volatility: wider price swings erode both agents' commitment",
			Params:      def.WithSigma(0.2), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 2,
		},
		{
			Name:        "low-vol",
			Description: "calm market: near-deterministic prices make continuation nearly certain",
			Params:      def.WithSigma(0.04), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 3,
		},
		{
			Name:        "fee-stress",
			Description: "thin success premiums: fees eat the trading motive, little surplus holds the swap together",
			Params:      def.WithAliceAlpha(0.05).WithBobAlpha(0.05), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 4,
		},
		{
			Name:        "asymmetric-discount",
			Description: "patient Alice vs costly-capital Bob: one-sided time preference skews the thresholds",
			Params:      def.WithAliceR(0.002).WithBobR(0.03), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 5,
		},
		{
			Name:        "short-timelock",
			Description: "fast chains: confirmation times of 1-1.5h shrink the option value of waiting",
			Params: func() utility.Params {
				p := def.WithTauA(1).WithTauB(1.5)
				p.Chains.EpsB = 0.5
				return p
			}(), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 6,
		},
		{
			Name:        "deep-collateral",
			Description: "deposits of 0.5 Token_a per agent: enough skin in the game to pin both continuations",
			Params:      def, PStar: 2.0, Collateral: 0.5, BobBudget: 5, Seed: 7,
		},
		{
			Name:        "uncertain-wide",
			Description: "volatile market with a deep Bob budget for the uncertain-rate game of SIV.B",
			Params:      def.WithSigma(0.15), PStar: 2.0, Collateral: 0.1, BobBudget: 20, Seed: 8,
		},
		{
			Name:        "impatient-bob",
			Description: "Bob discounts at 8%/h: the responder walks away from all but immediate payoffs",
			Params:      def.WithBobR(0.08), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 9,
		},
		{
			Name:        "adversarial-premium",
			Description: "Bob's success premium barely above zero (SIII.E.3): the responder is nearly indifferent and rarely locks",
			Params:      def.WithBobAlpha(0.02), PStar: 2.0, Collateral: 0.1, BobBudget: 5, Seed: 10,
		},
	}
}

// Names lists the registered preset names in registry order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, s := range reg {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the preset with the given name.
func Lookup(name string) (Scenario, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("%w: %q (have %s)", ErrUnknown, name, strings.Join(Names(), ", "))
}

// Save writes the scenario as indented JSON.
func (s Scenario) Save(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("scenario: encoding %q: %w", s.Name, err)
	}
	return nil
}

// Load reads and validates one JSON scenario.
func Load(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// SaveFile writes the scenario to a JSON file.
func (s Scenario) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("scenario: closing %s: %w", path, cerr)
		}
	}()
	return s.Save(f)
}

// LoadFile reads one scenario from a JSON file.
func LoadFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// DiffParams lists the parameter fields on which two scenarios differ, one
// "field: a -> b" line per difference, in a fixed field order.
func DiffParams(a, b Scenario) []string {
	var out []string
	add := func(field string, va, vb float64) {
		if va != vb {
			out = append(out, fmt.Sprintf("%s: %g -> %g", field, va, vb))
		}
	}
	add("alphaA", a.Params.Alice.Alpha, b.Params.Alice.Alpha)
	add("rA", a.Params.Alice.R, b.Params.Alice.R)
	add("alphaB", a.Params.Bob.Alpha, b.Params.Bob.Alpha)
	add("rB", a.Params.Bob.R, b.Params.Bob.R)
	add("tauA", a.Params.Chains.TauA, b.Params.Chains.TauA)
	add("tauB", a.Params.Chains.TauB, b.Params.Chains.TauB)
	add("epsB", a.Params.Chains.EpsB, b.Params.Chains.EpsB)
	add("mu", a.Params.Price.Mu, b.Params.Price.Mu)
	add("sigma", a.Params.Price.Sigma, b.Params.Price.Sigma)
	add("p0", a.Params.P0, b.Params.P0)
	add("pstar", a.PStar, b.PStar)
	add("collateral", a.Collateral, b.Collateral)
	add("bobBudget", a.BobBudget, b.BobBudget)
	if va, vb := strings.Join(a.Variants, "+"), strings.Join(b.Variants, "+"); va != vb {
		out = append(out, fmt.Sprintf("variants: %q -> %q", va, vb))
	}
	return out
}
