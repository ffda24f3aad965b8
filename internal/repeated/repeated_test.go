package repeated

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/utility"
)

func baseConfig() Config {
	return Config{
		Params:         utility.Default(),
		Rounds:         60,
		GapHours:       24,
		ReputationGain: 0.01,
		ReputationLoss: 0.05,
		AlphaMin:       0,
		AlphaMax:       0.6,
		Seed:           7,
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zeroRounds", func(c *Config) { c.Rounds = 0 }},
		{"zeroGap", func(c *Config) { c.GapHours = 0 }},
		{"negativeGain", func(c *Config) { c.ReputationGain = -0.1 }},
		{"negativeLoss", func(c *Config) { c.ReputationLoss = -0.1 }},
		{"invertedBounds", func(c *Config) { c.AlphaMin = 0.5; c.AlphaMax = 0.1 }},
		{"badIdleRecovery", func(c *Config) { c.IdleRecovery = 1.5 }},
		{"badParams", func(c *Config) { c.Params.P0 = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig()
			tt.mutate(&cfg)
			if _, err := Play(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestPlayDeterministicForSeed(t *testing.T) {
	a, err := Play(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Play(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes || a.Initiations != b.Initiations ||
		a.FinalAlphaA != b.FinalAlphaA || a.FinalAlphaB != b.FinalAlphaB {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestPremiaStayInBounds(t *testing.T) {
	cfg := baseConfig()
	cfg.Rounds = 120
	cfg.ReputationGain = 0.2
	cfg.ReputationLoss = 0.3
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.AlphaA < cfg.AlphaMin-1e-12 || r.AlphaA > cfg.AlphaMax+1e-12 {
			t.Fatalf("round %d: alphaA %v out of [%v, %v]", r.Index, r.AlphaA, cfg.AlphaMin, cfg.AlphaMax)
		}
		if r.AlphaB < cfg.AlphaMin-1e-12 || r.AlphaB > cfg.AlphaMax+1e-12 {
			t.Fatalf("round %d: alphaB %v out of bounds", r.Index, r.AlphaB)
		}
	}
	if res.FinalAlphaA > cfg.AlphaMax || res.FinalAlphaB > cfg.AlphaMax {
		t.Error("final premia exceed the cap")
	}
}

func TestStaticReputationMatchesStageGameSR(t *testing.T) {
	// With zero reputation dynamics every round is the same stage game (up
	// to the price level, which re-quoting absorbs); the long-run success
	// rate must approximate the analytic SR at the optimal rate.
	cfg := baseConfig()
	cfg.ReputationGain = 0
	cfg.ReputationLoss = 0
	cfg.Rounds = 3000
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(utility.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := m.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	got := res.SuccessRate()
	if math.Abs(got-want) > 0.04 {
		t.Errorf("repeated SR %v, stage-game optimum %v", got, want)
	}
	if res.Initiations == 0 || res.Quotes == 0 {
		t.Error("market never opened")
	}
}

func TestReputationSpiralFreezesMarket(t *testing.T) {
	// Brutal reputation loss without recovery: after enough withdrawals the
	// premia fall below the viability threshold and the market closes
	// (no quotes in the tail rounds).
	cfg := baseConfig()
	cfg.ReputationGain = 0
	cfg.ReputationLoss = 0.2
	cfg.AlphaMin = 0
	cfg.Rounds = 200
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := res.Rounds[len(res.Rounds)-20:]
	for _, r := range tail {
		if r.Quoted {
			t.Fatalf("round %d still quoted with α = (%.3f, %.3f); expected frozen market",
				r.Index, r.AlphaA, r.AlphaB)
		}
	}
	if res.Successes == 0 {
		t.Error("expected some early successes before the spiral")
	}
}

func TestRecoveryDynamicsKeepMarketOpen(t *testing.T) {
	// With idle reputation recovery (fading memory of defections) the
	// market reopens after freezes: quotes keep appearing and cooperation
	// persists. Without it the premium cap acts as a ratchet (gains clamp,
	// losses do not) and the market can freeze permanently — see
	// TestReputationSpiralFreezesMarket.
	cfg := baseConfig()
	cfg.ReputationGain = 0.02
	cfg.ReputationLoss = 0.2
	cfg.IdleRecovery = 0.15
	cfg.Rounds = 300
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastQuoted := false
	for _, r := range res.Rounds[len(res.Rounds)-50:] {
		if r.Quoted {
			lastQuoted = true
		}
	}
	if !lastQuoted {
		t.Error("market closed despite recovery dynamics")
	}
	if res.SuccessRate() < 0.5 {
		t.Errorf("success rate %v too low under healthy dynamics", res.SuccessRate())
	}
}

func TestRoundRecordsAreConsistent(t *testing.T) {
	res, err := Play(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != baseConfig().Rounds {
		t.Fatalf("got %d rounds, want %d", len(res.Rounds), baseConfig().Rounds)
	}
	for _, r := range res.Rounds {
		if r.Success && (!r.Initiated || !r.Quoted) {
			t.Errorf("round %d: success without initiation/quote", r.Index)
		}
		if r.Initiated && !r.Quoted {
			t.Errorf("round %d: initiated without a quote", r.Index)
		}
		if r.WithdrewA && r.WithdrewB {
			t.Errorf("round %d: both sides cannot be the first withdrawer", r.Index)
		}
		if r.Success && (r.WithdrewA || r.WithdrewB) {
			t.Errorf("round %d: success with a withdrawal", r.Index)
		}
		if r.Price <= 0 {
			t.Errorf("round %d: price %v", r.Index, r.Price)
		}
	}
	if res.CooperationSummary() == "" || res.CooperationSummary() == "no rounds" {
		t.Error("summary empty")
	}
	if (Result{}).CooperationSummary() != "no rounds" {
		t.Error("empty-result summary mismatch")
	}
	if (Result{}).SuccessRate() != 0 {
		t.Error("empty-result success rate should be 0")
	}
}

func TestPlayPropagatesStageErrors(t *testing.T) {
	cfg := baseConfig()
	cfg.Params.Chains.EpsB = 10 // violates Eq. 3
	if _, err := Play(cfg); err == nil {
		t.Error("invalid chain timing should fail")
	}
	var zero Config
	if _, err := Play(zero); !errors.Is(err, ErrBadConfig) {
		// Params validation fires first; either error class is acceptable,
		// but there must be an error.
		if err == nil {
			t.Error("zero config should fail")
		}
	}
}

func TestQuoteAtMatchesFreshSolve(t *testing.T) {
	p := utility.Default()
	pstar, sr, viable, err := QuoteAt(p, p.Alice.Alpha, p.Bob.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !viable {
		t.Fatal("Table III must quote")
	}
	if pstar <= 0 || sr <= 0 || sr > 1 {
		t.Errorf("quote (%v, %v) out of range", pstar, sr)
	}
	// The quote is served from the shared cache; asking again must return
	// the identical solution.
	pstar2, sr2, viable2, err := QuoteAt(p, p.Alice.Alpha, p.Bob.Alpha)
	if err != nil || !viable2 || pstar2 != pstar || sr2 != sr {
		t.Errorf("cached quote drifted: (%v, %v, %v, %v)", pstar2, sr2, viable2, err)
	}
	if _, _, _, err := QuoteAt(utility.Params{}, 0.3, 0.3); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestQuoteAtReportsFrozenMarketAsNotViable(t *testing.T) {
	p := utility.Default()
	// Near-zero premia with an impatient responder leave no viable rate.
	p.Bob.R = 0.08
	_, _, viable, err := QuoteAt(p, 0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if viable {
		t.Error("frozen market reported viable")
	}
}

// TestPlayConcurrentEngagementsShareQuoteCache drives many engagements
// through the process-wide quote memo at once — the access pattern of the
// (scenario × variant) sweep pool. The race detector (CI's -race job)
// turns any unsynchronised cache access into a failure, and identical
// seeds must keep producing identical trajectories while sharing solves.
func TestPlayConcurrentEngagementsShareQuoteCache(t *testing.T) {
	cfg := Config{
		Params:         utility.Default(),
		Rounds:         40,
		GapHours:       24,
		Seed:           9,
		ReputationLoss: 0.2,
		ReputationGain: 0.02,
		AlphaMax:       0.6,
	}
	ref, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]Result, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Play(cfg)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], ref) {
			t.Errorf("goroutine %d produced a different trajectory", i)
		}
	}
	if hits, misses := quotes.Stats(); hits == 0 || misses == 0 {
		t.Errorf("quote cache not exercised: hits %d, misses %d", hits, misses)
	}
}

// TestAbsorbedPriceStaysAtZero pins the underflow convention: a long
// engagement under strongly negative drift walks the float price to
// exactly 0 (the GBM's absorbing boundary), and from then on every
// round records a zero price with no panic and no NaN, instead of the
// NaN-tainted garbage a naive Step(0) could produce.
func TestAbsorbedPriceStaysAtZero(t *testing.T) {
	cfg := baseConfig()
	cfg.Params = cfg.Params.WithSigma(0.2)
	cfg.Rounds = 2500
	cfg.Seed = 2
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	absorbed := false
	for i, r := range res.Rounds {
		if math.IsNaN(r.Price) || r.Price < 0 {
			t.Fatalf("round %d: invalid price %v", i, r.Price)
		}
		if absorbed && r.Price != 0 {
			t.Fatalf("round %d: price %v resurrected after absorption", i, r.Price)
		}
		if r.Price == 0 {
			absorbed = true
		}
	}
	if !absorbed {
		t.Skip("trajectory never underflowed; widen drift or rounds to exercise absorption")
	}
}

// TestQuoteCacheBounded drives the quote cache past maxQuotes distinct
// premium pairs: it never holds more than maxQuotes quotes, counts the
// flushed ones as evictions, and a flushed quote re-solves identically.
func TestQuoteCacheBounded(t *testing.T) {
	p := utility.Default()
	alphaA := func(i int) float64 { return 0.05 + 1e-3*float64(i) }
	const alphaB = 0.123
	first, err := solveQuote(p, p.P0, alphaA(0), alphaB)
	if err != nil {
		t.Fatal(err)
	}
	// Other tests may already have cached some of these pairs, so keep
	// inserting until a flush is seen; 2×maxQuotes pairs always suffice.
	before := quotes.Evictions()
	for i := 1; quotes.Evictions() == before; i++ {
		if i > 2*maxQuotes {
			t.Fatalf("no evictions after %d distinct quotes", i-1)
		}
		if _, err := solveQuote(p, p.P0, alphaA(i), alphaB); err != nil {
			t.Fatal(err)
		}
		if n := quotes.Len(); n > maxQuotes {
			t.Fatalf("quote cache holds %d quotes, bound is %d", n, maxQuotes)
		}
	}
	again, err := solveQuote(p, p.P0, alphaA(0), alphaB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("re-solved quote %+v differs from the first solve %+v", again, first)
	}
}
