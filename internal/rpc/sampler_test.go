package rpc

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestSolveSamplerParam pins the sampler parameter end to end: a sobol
// solve succeeds and its MC check names the mode, the pseudo default
// omits the field (historical responses unchanged), an unknown or retired
// mode is CodeInvalidParams, and requests with different samplers never
// share a cell key.
func TestSolveSamplerParam(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, status := post(t, ts.URL, rpcCall(1, "swap.solve",
		`{"scenario":"tableIII","variant":"basic","mc":true,"runs":400,"sampler":"sobol"}`))
	if status != http.StatusOK || resp.Error != nil {
		t.Fatalf("sobol solve failed: status=%d error=%+v", status, resp.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if len(res.Variants) != 1 || res.Variants[0].MC == nil {
		t.Fatalf("result = %+v, want one variant with an MC check", res)
	}
	if got := res.Variants[0].MC.Sampler; got != "sobol" {
		t.Errorf("MC check sampler = %q, want sobol", got)
	}

	resp, _ = post(t, ts.URL, rpcCall(2, "swap.solve",
		`{"scenario":"tableIII","variant":"basic","mc":true,"runs":400}`))
	if resp.Error != nil {
		t.Fatalf("default solve failed: %+v", resp.Error)
	}
	res = SolveResult{} // Unmarshal merges into existing slice elements
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if got := res.Variants[0].MC.Sampler; got != "" {
		t.Errorf("pseudo MC check sampler = %q, want omitted", got)
	}

	for _, bad := range []string{"halton", "antithetic"} {
		resp, _ = post(t, ts.URL, rpcCall(3, "swap.solve",
			`{"scenario":"tableIII","sampler":"`+bad+`"}`))
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Fatalf("sampler %q: error = %+v, want CodeInvalidParams", bad, resp.Error)
		}
	}

	key := func(sampler string) string {
		req, rerr := s.resolveSolve(SolveParams{
			Scenario: json.RawMessage(`"tableIII"`),
			Variant:  "basic", MC: true, Runs: 400, Sampler: sampler,
		})
		if rerr != nil {
			t.Fatalf("resolve sampler=%q: %+v", sampler, rerr)
		}
		return req.keys[0]
	}
	if key("pseudo") != key("") {
		t.Error("explicit pseudo and the default must coalesce")
	}
	if key("sobol") == key("pseudo") {
		t.Error("different samplers must not share a cell key")
	}
}

// TestStreamSampler streams a sobol simulation: the terminal result
// names the mode and carries the estimator half-width the adaptive
// stopper uses; an unknown or retired mode fails before the stream starts.
func TestStreamSampler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	final, rerr := simulateResult(t, ts.URL, 11, `{"scenario":"tableIII","runs":2000,"sampler":"sobol","budgetMs":30000}`)
	if rerr != nil {
		t.Fatalf("stream failed: %+v", rerr)
	}
	if final.Sampler != "sobol" {
		t.Errorf("final sampler = %q, want sobol", final.Sampler)
	}
	if final.Paths != 2000 {
		t.Errorf("paths = %d, want 2000", final.Paths)
	}
	if final.EstHalfWidth <= 0 || final.EstHalfWidth >= 1 {
		t.Errorf("estimator half-width = %v, want in (0, 1)", final.EstHalfWidth)
	}

	for _, bad := range []string{"halton", "antithetic"} {
		_, rerr := simulateResult(t, ts.URL, 12, `{"scenario":"tableIII","runs":100,"sampler":"`+bad+`"}`)
		if rerr == nil || rerr.Code != CodeInvalidParams {
			t.Fatalf("sampler %q: error = %+v, want CodeInvalidParams", bad, rerr)
		}
	}
}
