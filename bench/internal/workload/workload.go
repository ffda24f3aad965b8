// Package workload holds the benchmark's seeded inputs and the facts both
// the end-to-end driver and the traced run share: the quote request
// streams, the canonical response digest, the paper-artifact group order,
// the atlas universe and the percentile rule.
//
// It imports nothing from the repository under test. The inline scenarios
// are drawn by this package's own generator from fixed ranges, so a change
// to the repository's presets or universe generator cannot move the
// workload.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Workload names, in the order a full run measures them.
const (
	QuoteFresh  = "quote-fresh"
	QuoteRepeat = "quote-repeat"
	Figures     = "figures"
	Atlas       = "atlas"
)

// Names lists every workload.
var Names = []string{QuoteFresh, QuoteRepeat, Figures, Atlas}

// Valid reports whether name is a workload.
func Valid(name string) bool {
	for _, n := range Names {
		if n == name {
			return true
		}
	}
	return false
}

// Open-loop rates and the quote-stream shape.
const (
	// FreshSpacing is quote-fresh's open-loop interval (100 req/s).
	FreshSpacing = 10 * time.Millisecond
	// DupEvery makes every DupEvery-th quote-fresh due time send its quote
	// twice, so the two copies can coalesce in the daemon's single flight.
	DupEvery = 10
	// RepeatSpacing is quote-repeat's open-loop interval (600 req/s).
	RepeatSpacing = time.Second / 600
	// HotQuotes is the size of quote-repeat's working set, far below the
	// daemon's default 1024-entry response cache.
	HotQuotes = 64
	// ZipfS is the skew of quote-repeat's draws over the hot set.
	ZipfS = 1.1
)

// Scenario is the inline scenario object of swap.solve, written out field
// by field so the wire schema is pinned here rather than borrowed.
type Scenario struct {
	Name       string  `json:"name"`
	Params     Params  `json:"params"`
	PStar      float64 `json:"pstar"`
	Collateral float64 `json:"collateral"`
	BobBudget  float64 `json:"bobBudget"`
}

// Params is the model configuration of an inline scenario.
type Params struct {
	Alice  Agent   `json:"Alice"`
	Bob    Agent   `json:"Bob"`
	Chains Chains  `json:"Chains"`
	Price  Price   `json:"Price"`
	P0     float64 `json:"P0"`
}

// Agent is one agent's success premium and discount rate.
type Agent struct {
	Alpha float64 `json:"Alpha"`
	R     float64 `json:"R"`
}

// Chains holds the confirmation times in hours.
type Chains struct {
	TauA float64 `json:"TauA"`
	TauB float64 `json:"TauB"`
	EpsB float64 `json:"EpsB"`
}

// Price is the GBM law of the exchange rate.
type Price struct {
	Mu    float64 `json:"Mu"`
	Sigma float64 `json:"Sigma"`
}

// The generator's ranges bracket the repository's ten scenario presets
// (σ 0.04–0.2, α 0.02–0.3, r 0.002–0.08, τa 1–3 h, τb 1.5–4 h, εb 0.5–1 h,
// µ 0.002), so generated quotes sit in the regimes the presets probe.
func drawScenario(rng *rand.Rand, name string) Scenario {
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	return Scenario{
		Name: name,
		Params: Params{
			Alice:  Agent{Alpha: u(0.02, 0.35), R: u(0.002, 0.08)},
			Bob:    Agent{Alpha: u(0.02, 0.35), R: u(0.002, 0.08)},
			Chains: Chains{TauA: u(1, 3.5), TauB: u(1.5, 4.5), EpsB: u(0.5, 1)},
			Price:  Price{Mu: u(0, 0.004), Sigma: u(0.03, 0.22)},
			P0:     2,
		},
		PStar:      2,
		Collateral: 0.1,
		BobBudget:  5,
	}
}

// Scenarios draws n scenarios from the stream named tag under seed. Equal
// (seed, tag, n) give equal scenarios; the draws are continuous, so two
// scenarios of one run never share parameters.
func Scenarios(seed int64, tag string, n int) []Scenario {
	rng := rand.New(rand.NewSource(derive(seed, tag)))
	out := make([]Scenario, n)
	for i := range out {
		out[i] = drawScenario(rng, tag+"-"+strconv.Itoa(i))
	}
	return out
}

// derive mixes a tag into the seed (FNV-1a, then a SplitMix64 finaliser)
// so each stream is independent of the others under one seed.
func derive(seed int64, tag string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	z := h ^ uint64(seed)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SolveBody is the swap.solve request for one inline scenario: the
// default variant trio, analytic only.
func SolveBody(id int, sc Scenario) []byte {
	inline, err := json.Marshal(sc)
	if err != nil {
		// Scenario holds only finite floats and strings.
		panic(err)
	}
	return fmt.Appendf(nil, `{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%s}}`, id, inline)
}

// Request is one due time of an open-loop phase: when it is due, measured
// from the start of the phase, and which body it sends.
type Request struct {
	Due time.Duration
	Key int
}

// Quotes is one quote workload's inputs.
type Quotes struct {
	// Bodies holds the request bodies; Requests and Closed index it.
	Bodies [][]byte
	// Warm lists the keys sent once, in order, before any timed phase.
	Warm []int
	// Open is the open-loop schedule, ordered by due time.
	Open []Request
	// Closed is the order in which the closed-loop phase draws keys.
	Closed []int
}

// Fresh builds quote-fresh: open-loop due times every FreshSpacing over
// open, each a never-seen quote, every DupEvery-th sent twice, then up to
// closedCap further never-seen quotes for the closed loop.
func Fresh(seed int64, open time.Duration, closedCap int) Quotes {
	n := int(open / FreshSpacing)
	scs := Scenarios(seed, "fresh", n+closedCap)
	q := Quotes{Bodies: make([][]byte, len(scs))}
	for i, sc := range scs {
		q.Bodies[i] = SolveBody(i, sc)
	}
	for i := 0; i < n; i++ {
		r := Request{Due: time.Duration(i) * FreshSpacing, Key: i}
		q.Open = append(q.Open, r)
		if IsDup(i) {
			q.Open = append(q.Open, r)
		}
	}
	for i := n; i < len(scs); i++ {
		q.Closed = append(q.Closed, i)
	}
	return q
}

// IsDup reports whether quote-fresh's i-th due time sends its quote twice.
func IsDup(i int) bool { return i%DupEvery == 0 }

// Repeat builds quote-repeat: HotQuotes quotes sent once as warm-up, then
// open-loop due times every RepeatSpacing over open and closedCap
// closed-loop draws, all Zipf(ZipfS) over the hot set.
func Repeat(seed int64, open time.Duration, closedCap int) Quotes {
	scs := Scenarios(seed, "hot", HotQuotes)
	q := Quotes{Bodies: make([][]byte, len(scs))}
	for i, sc := range scs {
		q.Bodies[i] = SolveBody(i, sc)
		q.Warm = append(q.Warm, i)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(derive(seed, "zipf"))), ZipfS, 1, HotQuotes-1)
	n := int(open / RepeatSpacing)
	for i := 0; i < n; i++ {
		q.Open = append(q.Open, Request{Due: time.Duration(i) * RepeatSpacing, Key: int(zipf.Uint64())})
	}
	for i := 0; i < closedCap; i++ {
		q.Closed = append(q.Closed, int(zipf.Uint64()))
	}
	return q
}

// Metric is one reported number with the count of samples behind it; a
// ratio also names its numerator and denominator.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Base  string  `json:"base,omitempty"`
}

// LayerReport is what the traced run writes for the driver: every
// per-layer metric and the outcome of the run's own output checks.
type LayerReport struct {
	Metrics    map[string]Metric `json:"metrics"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches []string          `json:"mismatches,omitempty"`
}

// ErrRPC reports a JSON-RPC error response.
var ErrRPC = errors.New("rpc error response")

// Digest canonicalises one swap.solve response and hashes it: the fields
// that describe how the daemon answered (elapsedUs, coalesced, cached) are
// dropped and the rest is re-encoded with sorted keys, so equal solves
// digest equally however they were served.
func Digest(response []byte) (string, error) {
	var env struct {
		Result map[string]any  `json:"result"`
		Error  json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(response, &env); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	if len(env.Error) > 0 {
		return "", fmt.Errorf("%w: %s", ErrRPC, env.Error)
	}
	if env.Result == nil {
		return "", errors.New("response has no result")
	}
	delete(env.Result, "elapsedUs")
	delete(env.Result, "coalesced")
	delete(env.Result, "cached")
	data, err := json.Marshal(env.Result)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// FigureGroups are the paper-artifact groups in the order cmd/figures
// prints them; each has a golden file under
// internal/figures/testdata/golden.
var FigureGroups = []string{
	"tableI", "tableIII", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10a", "fig10b", "fig11", "montecarlo", "baseline", "uncertainty",
	"reputation", "packetized",
}

// The atlas workload's universe: four chain profiles (twelve ordered
// pairs) at 128 Sobol samples each, with 1000-run Monte Carlo validation.
const (
	AtlasChains  = "btc,ltc,doge,evm"
	AtlasSamples = 128
	AtlasRuns    = 1000
	AtlasCells   = 12 * AtlasSamples
)

// AtlasArgs are the `scenarios atlas` arguments of the atlas workload.
func AtlasArgs(seed int64, storeDir, outDir string) []string {
	return []string{"atlas", "-chains", AtlasChains, "-samples", strconv.Itoa(AtlasSamples),
		"-mc", "-runs", strconv.Itoa(AtlasRuns), "-seed", strconv.FormatInt(seed, 10),
		"-store", storeDir, "-out", outDir}
}

// tailBeyond is how many samples a reported percentile must leave above
// it: a p99 read from fewer than 1000 samples is the maximum, not a tail.
const tailBeyond = 10

// NearestRank returns the q-quantile of xs by nearest rank: the value at
// rank ceil(q·n) of the sorted samples. xs must be sorted and non-empty.
func NearestRank(xs []float64, q float64) float64 {
	return xs[rank(len(xs), q)-1]
}

// TailSupported reports whether n samples leave at least tailBeyond of
// them above the q-quantile's rank.
func TailSupported(n int, q float64) bool {
	return n-rank(n, q) >= tailBeyond
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}
