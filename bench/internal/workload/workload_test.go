package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestFreshIsSeedDetermined(t *testing.T) {
	a := Fresh(1, time.Second, 50)
	b := Fresh(1, time.Second, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different quote-fresh inputs")
	}
	c := Fresh(2, time.Second, 50)
	if bytes.Equal(a.Bodies[0], c.Bodies[0]) {
		t.Error("different seeds gave the same first quote")
	}
	// 100 due times at 10ms, every tenth twice; 50 closed-loop quotes.
	if len(a.Open) != 110 || len(a.Closed) != 50 || len(a.Bodies) != 150 || len(a.Warm) != 0 {
		t.Fatalf("open %d, closed %d, bodies %d, warm %d; want 110, 50, 150, 0",
			len(a.Open), len(a.Closed), len(a.Bodies), len(a.Warm))
	}
	seen := make(map[string]bool)
	for i, r := range a.Open {
		if i > 0 && r.Due < a.Open[i-1].Due {
			t.Fatalf("schedule not ordered at %d", i)
		}
		if r.Due != time.Duration(r.Key)*FreshSpacing {
			t.Errorf("quote %d due at %v, want %v", r.Key, r.Due, time.Duration(r.Key)*FreshSpacing)
		}
		seen[string(a.Bodies[r.Key])] = true
	}
	if len(seen) != 100 {
		t.Errorf("%d distinct open-loop bodies, want 100 (every quote never seen before)", len(seen))
	}
	for _, k := range a.Closed {
		if seen[string(a.Bodies[k])] {
			t.Errorf("closed-loop quote %d repeats an open-loop one", k)
		}
	}
}

func TestRepeatIsSeedDetermined(t *testing.T) {
	a := Repeat(7, time.Second, 1000)
	if !reflect.DeepEqual(a, Repeat(7, time.Second, 1000)) {
		t.Fatal("equal seeds gave different quote-repeat inputs")
	}
	if reflect.DeepEqual(a.Open, Repeat(8, time.Second, 1000).Open) {
		t.Error("different seeds gave the same Zipf draws")
	}
	if len(a.Warm) != HotQuotes || len(a.Open) != 600 || len(a.Closed) != 1000 {
		t.Fatalf("warm %d, open %d, closed %d; want %d, 600, 1000", len(a.Warm), len(a.Open), len(a.Closed), HotQuotes)
	}
	counts := make([]int, HotQuotes)
	for _, r := range a.Open {
		counts[r.Key]++
	}
	for _, k := range a.Closed {
		counts[k]++
	}
	// Zipf: the hottest key is drawn far more often than the median one.
	if counts[0] < 5*counts[HotQuotes/2] {
		t.Errorf("key 0 drawn %d times, key %d %d times: not Zipf-skewed", counts[0], HotQuotes/2, counts[HotQuotes/2])
	}
}

// TestScenariosStayInRange checks the generated parameters keep to the
// documented ranges and satisfy εb < τb.
func TestScenariosStayInRange(t *testing.T) {
	for _, sc := range Scenarios(3, "range", 2000) {
		p := sc.Params
		for _, a := range []Agent{p.Alice, p.Bob} {
			if a.Alpha < 0.02 || a.Alpha > 0.35 || a.R < 0.002 || a.R > 0.08 {
				t.Fatalf("%s: agent %+v out of range", sc.Name, a)
			}
		}
		c := p.Chains
		if c.TauA < 1 || c.TauA > 3.5 || c.TauB < 1.5 || c.TauB > 4.5 || c.EpsB < 0.5 || c.EpsB >= c.TauB {
			t.Fatalf("%s: chains %+v out of range", sc.Name, c)
		}
		if p.Price.Sigma < 0.03 || p.Price.Sigma > 0.22 || p.Price.Mu < 0 || p.Price.Mu > 0.004 {
			t.Fatalf("%s: price %+v out of range", sc.Name, p.Price)
		}
	}
}

func TestSolveBodyWireFormat(t *testing.T) {
	body := SolveBody(5, Scenarios(1, "wire", 1)[0])
	var req struct {
		ID     int    `json:"id"`
		Method string `json:"method"`
		Params struct {
			Scenario map[string]any `json:"scenario"`
		} `json:"params"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	params, _ := req.Params.Scenario["params"].(map[string]any)
	if req.ID != 5 || req.Method != "swap.solve" || req.Params.Scenario["name"] != "wire-0" || params["P0"] != 2.0 {
		t.Errorf("unexpected request %s", body)
	}
}

func TestDigestIgnoresHowTheAnswerWasServed(t *testing.T) {
	a := []byte(`{"jsonrpc":"2.0","id":1,"result":{"scenario":"s","variants":[{"sr":0.5,"key":"basic"}],"coalesced":false,"elapsedUs":31}}`)
	b := []byte(`{"id":9,"jsonrpc":"2.0","result":{"cached":true,"elapsedUs":2,"variants":[{"key":"basic","sr":0.5}],"scenario":"s","coalesced":true}}`)
	c := []byte(`{"jsonrpc":"2.0","id":1,"result":{"scenario":"s","variants":[{"sr":0.51,"key":"basic"}],"elapsedUs":31}}`)
	da, err := Digest(a)
	if err != nil {
		t.Fatal(err)
	}
	if db, _ := Digest(b); db != da {
		t.Error("responses differing only in elapsedUs/coalesced/cached and key order digest differently")
	}
	if dc, _ := Digest(c); dc == da {
		t.Error("responses with different results digest equally")
	}
	if _, err := Digest([]byte(`{"jsonrpc":"2.0","id":1,"error":{"code":-32602,"message":"bad"}}`)); !errors.Is(err, ErrRPC) {
		t.Errorf("error response: %v, want ErrRPC", err)
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := NearestRank(xs, c.q); got != c.want {
			t.Errorf("NearestRank(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := NearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("NearestRank of one sample = %v, want 7", got)
	}
	if got := NearestRank([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("NearestRank(1..3, 0.5) = %v, want 2", got)
	}
}

// TestTailSupported pins the rule that a reported percentile leaves at
// least ten samples beyond it: p99 needs 1000 samples.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := TailSupported(c.n, c.q); got != c.want {
			t.Errorf("TailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}
