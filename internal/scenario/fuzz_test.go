package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gbm"
	"repro/internal/timeline"
	"repro/internal/utility"
)

// FuzzScenarioJSON checks that any scenario accepted by Validate survives a
// Save/Load round trip unchanged — the invariant behind user-defined
// scenario files.
func FuzzScenarioJSON(f *testing.F) {
	for _, sc := range Registry() {
		f.Add(sc.Name, sc.Params.Alice.Alpha, sc.Params.Alice.R,
			sc.Params.Bob.Alpha, sc.Params.Bob.R,
			sc.Params.Chains.TauA, sc.Params.Chains.TauB, sc.Params.Chains.EpsB,
			sc.Params.Price.Mu, sc.Params.Price.Sigma, sc.Params.P0,
			sc.PStar, sc.Collateral, sc.BobBudget, sc.MCRuns, sc.Seed,
			"basic+packetized+repeated")
	}
	f.Fuzz(func(t *testing.T, name string,
		alphaA, rA, alphaB, rB, tauA, tauB, epsB, mu, sigma, p0,
		pstar, collateral, budget float64, runs int, seed int64,
		variants string) {
		// The fuzzer cannot supply a []string directly; "+" joins variant
		// keys (a character Validate permits inside a key).
		var vs []string
		if variants != "" {
			vs = strings.Split(variants, "+")
		}
		sc := Scenario{
			Name:        name,
			Description: "fuzzed",
			Params: utility.Params{
				Alice:  utility.AgentParams{Alpha: alphaA, R: rA},
				Bob:    utility.AgentParams{Alpha: alphaB, R: rB},
				Chains: timeline.Chains{TauA: tauA, TauB: tauB, EpsB: epsB},
				Price:  gbm.Process{Mu: mu, Sigma: sigma},
				P0:     p0,
			},
			PStar:      pstar,
			Collateral: collateral,
			BobBudget:  budget,
			MCRuns:     runs,
			Seed:       seed,
			Variants:   vs,
		}
		if sc.Validate() != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			t.Fatalf("Save of a valid scenario failed: %v", err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved scenario failed: %v\njson: %s", err, buf.String())
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("round trip changed the scenario:\n got %+v\nwant %+v\njson: %s", got, sc, buf.String())
		}
	})
}
