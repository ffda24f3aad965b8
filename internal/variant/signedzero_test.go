package variant

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/repeated"
	"repro/internal/scenario"
	"repro/internal/solvecache"
	"repro/internal/utility"
)

// TestSignedZeroParamsShareReports pins what lets the process-wide caches
// key on utility.Params with ==, which equates +0 and −0: for every preset
// and every variant, setting the drift or either premium to +0 or to −0
// yields byte-identical analytic reports. The shared caches are flushed
// between the two runs, so each sign is solved on its own models.
func TestSignedZeroParamsShareReports(t *testing.T) {
	fields := map[string]func(*utility.Params) *float64{
		"Price.Mu":    func(p *utility.Params) *float64 { return &p.Price.Mu },
		"Alice.Alpha": func(p *utility.Params) *float64 { return &p.Alice.Alpha },
		"Bob.Alpha":   func(p *utility.Params) *float64 { return &p.Bob.Alpha },
	}
	opts := RunOpts{Runs: 256, Variants: "all", SkipMC: true}
	for _, preset := range scenario.Registry() {
		for name, field := range fields {
			var got [2][]byte
			for i, zero := range []float64{0, math.Copysign(0, -1)} {
				sc := preset
				*field(&sc.Params) = zero
				flushSharedCaches(t, sc.Params)
				row, err := Run(sc, opts)
				if err != nil {
					t.Fatalf("%s with %s = %v: %v", preset.Name, name, zero, err)
				}
				if got[i], err = json.Marshal(row.Reports); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Errorf("%s: %s = +0 and -0 give different reports:\n%s\n%s", preset.Name, name, got[0], got[1])
			}
		}
	}
}

// flushSharedCaches pushes one more distinct parameter set than each
// bound (512 models, 256 quotes) through the shared model cache and the
// repeated game's quote cache, so each flushes at least once and no model
// or quote solved before the call is served after it.
func flushSharedCaches(t *testing.T, p utility.Params) {
	t.Helper()
	before := solvecache.ReadStats().Evicted
	for i := 1; i <= 513; i++ {
		q := p
		q.Alice.R += 1e-9 * float64(i)
		if _, err := solvecache.SharedModel(q); err != nil {
			t.Fatal(err)
		}
		if i <= 257 {
			if _, _, _, err := repeated.QuoteAt(q, p.Alice.Alpha, p.Bob.Alpha); err != nil {
				t.Fatal(err)
			}
		}
	}
	if solvecache.ReadStats().Evicted == before {
		t.Fatal("the shared model cache did not flush")
	}
}
