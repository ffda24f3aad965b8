package rpc

import "testing"

// TestSolveSamplerParam pins swap.solve's Monte Carlo knobs. A batch
// validation is defined by its scenario, seed and run count, so
// swap.solve takes neither a sampler nor a CI target: each is an unknown
// field under strict decoding, even at its old default.
func TestSolveSamplerParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, param := range []string{`"sampler":"pseudo"`, `"sampler":"sobol"`, `"ciWidth":0.01`} {
		resp, _ := post(t, ts.URL, rpcCall(1, "swap.solve", `{"scenario":"tableIII","mc":true,"runs":400,`+param+`}`))
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Errorf("swap.solve with %s: error %+v, want code %d", param, resp.Error, CodeInvalidParams)
		}
	}
}

// TestStreamSampler pins swap.simulate's Monte Carlo knobs: a sampler is
// an unknown field, rejected before the stream starts, while ciWidth
// stays, because the stream runs until the adaptive stop fires.
func TestStreamSampler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, param := range []string{`"sampler":"pseudo"`, `"sampler":"sobol"`} {
		_, rerr := simulateResult(t, ts.URL, 2, `{"scenario":"tableIII","runs":400,`+param+`}`)
		if rerr == nil || rerr.Code != CodeInvalidParams {
			t.Errorf("swap.simulate with %s: error %+v, want code %d", param, rerr, CodeInvalidParams)
		}
	}

	const runs = 50000
	final, rerr := simulateResult(t, ts.URL, 3, `{"scenario":"tableIII","runs":50000,"ciWidth":0.05,"budgetMs":30000}`)
	if rerr != nil {
		t.Fatalf("adaptive stream failed: %+v", rerr)
	}
	if !final.Stopped || final.Paths >= runs {
		t.Errorf("ciWidth 0.05 ran %d of %d paths (stopped=%v), want an early stop", final.Paths, runs, final.Stopped)
	}
	if half := (final.Hi - final.Lo) / 2; half > 0.05 {
		t.Errorf("half-width at stop %g, want <= 0.05", half)
	}
}
