package rpc

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/variant"
)

// TestSimulateAgreesWithBatchValidation pins the one-resolver property:
// for every preset under both protocol variants, the swap.simulate stream
// and the batch runner's Monte Carlo validation run the same protocol, so
// at equal runs, seed and sampler they count the same paths and
// successes. Deep-collateral's collateral cell also checks that SR_c
// agrees with the simulation under variant.Agrees, at a run count sized
// so that a correct simulator fails with probability at most
// agreeFalseFailure: Agrees accepts SR_c within the Wilson 95% interval
// (half-width ≈ 1.96σ) widened by 0.01, so a failure needs |p̂ − SR_c| >
// 1.96σ + 0.01, and σ ≤ 0.5/√n for any SR. Setting 1.96σ + 0.01 = zσ for
// the two-sided normal quantile z of agreeFalseFailure gives
// n = ((z − 1.96)/(2·0.01))², 9318 runs at 1e-4.
func TestSimulateAgreesWithBatchValidation(t *testing.T) {
	const (
		runs              = 300
		agreeFalseFailure = 1e-4
	)
	z := math.Sqrt2 * math.Erfinv(1-agreeFalseFailure)
	deepRuns := int(math.Ceil(math.Pow((z-1.96)/(2*0.01), 2)))
	_, ts := newTestServer(t, Config{})
	id := 0
	for _, sc := range scenario.Registry() {
		for _, key := range []string{"basic", "collateral"} {
			runs := runs
			deep := sc.Name == "deep-collateral" && key == "collateral"
			if deep {
				runs = deepRuns
			}
			id++
			got, rerr := simulateResult(t, ts.URL, id, fmt.Sprintf(
				`{"scenario":%q,"variant":%q,"runs":%d,"everyPaths":1000000,"budgetMs":60000}`, sc.Name, key, runs))
			if rerr != nil {
				t.Fatalf("%s/%s: simulate failed: %+v", sc.Name, key, rerr)
			}
			row, err := variant.Run(sc, variant.RunOpts{Runs: runs, Variants: key})
			if err != nil {
				t.Fatalf("%s/%s: batch run: %v", sc.Name, key, err)
			}
			check := row.Reports[0].MC
			if check == nil {
				t.Fatalf("%s/%s: batch run has no Monte Carlo check", sc.Name, key)
			}
			if got.Paths != check.Runs || got.SR != check.SR.P {
				t.Errorf("%s/%s: simulate %d paths at SR %.4f, batch validation %d paths at SR %.4f",
					sc.Name, key, got.Paths, got.SR, check.Runs, check.SR.P)
			}
			if sr := row.Reports[0].SR; deep && !variant.Agrees(sr, stats.Proportion{P: got.SR, Lo: got.Lo, Hi: got.Hi}) {
				t.Errorf("deep-collateral: SR_c %.4f disagrees with the simulated Wilson interval [%.4f, %.4f] over %d runs",
					sr, got.Lo, got.Hi, got.Paths)
			}
		}
	}
	// A variant without a protocol run is rejected before the stream starts.
	if _, rerr := simulateResult(t, ts.URL, id+1, `{"scenario":"tableIII","variant":"uncertain"}`); rerr == nil || rerr.Code != CodeInvalidParams {
		t.Errorf("simulate variant uncertain: error %+v, want code %d", rerr, CodeInvalidParams)
	}
}

// TestSolveMaxRunsAppliesToScenarioRuns checks the run cap bounds the run
// count a cell would execute — the request's runs, else the inline
// scenario's mcRuns — as swap.simulate does, on swap.solve and
// scenario.diff alike. The cap holds without mc too: the packetized
// variant's analytic report is itself a run-sized Monte Carlo.
func TestSolveMaxRunsAppliesToScenarioRuns(t *testing.T) {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "inline-runs"
	sc.Variants = nil
	inline := func(mcRuns int) string {
		sc.MCRuns = mcRuns
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	s, ts := newTestServer(t, Config{})
	s.maxRuns = 100
	for _, tc := range []struct {
		name, params string
	}{
		{"request runs", `{"scenario":"tableIII","variant":"basic","mc":true,"runs":5000}`},
		{"scenario mcRuns", `{"scenario":` + inline(5000) + `,"variant":"basic","mc":true}`},
		{"sampled solve", `{"scenario":` + inline(5000) + `,"variant":"packetized"}`},
	} {
		resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", tc.params))
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Errorf("%s over the cap: error %+v, want code %d", tc.name, resp.Error, CodeInvalidParams)
		}
	}
	under := inline(80)
	for _, b := range []string{under + `,"runs":5000`, inline(5000)} {
		params := `{"a":` + under + `,"b":` + b + `,"variant":"packetized"}`
		resp, _ := post(t, ts.URL, rpcCall(1, "scenario.diff", params))
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Errorf("scenario.diff over the cap: error %+v, want code %d", resp.Error, CodeInvalidParams)
		}
	}
	resp, _ := post(t, ts.URL, rpcCall(1, "scenario.diff", `{"a":`+under+`,"b":`+under+`,"variant":"packetized"}`))
	if resp.Error != nil {
		t.Errorf("scenario.diff under the cap: %+v", resp.Error)
	}
	res := solveResult(t, ts.URL, `{"scenario":`+inline(80)+`,"variant":"basic","mc":true}`)
	if mc := res.Variants[0].MC; mc == nil || mc.Runs != 80 {
		t.Errorf("scenario mcRuns under the cap: check %+v, want 80 runs", mc)
	}
}

// TestRetiredMCParamsRejected checks the retired chunk and maxPaths
// parameters fail strict decoding on both methods.
func TestRetiredMCParamsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, param := range []string{`"chunk":256`, `"maxPaths":1000`} {
		resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII","mc":true,`+param+`}`))
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Errorf("swap.solve with %s: error %+v, want code %d", param, resp.Error, CodeInvalidParams)
		}
		_, rerr := simulateResult(t, ts.URL, i+1, `{"scenario":"tableIII","runs":100,`+param+`}`)
		if rerr == nil || rerr.Code != CodeInvalidParams {
			t.Errorf("swap.simulate with %s: error %+v, want code %d", param, rerr, CodeInvalidParams)
		}
	}
}
