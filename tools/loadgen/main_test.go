package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestParseMix(t *testing.T) {
	got, err := parseMix("tableIII:2,high-vol")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	want := []string{"tableIII", "tableIII", "high-vol"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseMix = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "no-such-preset", "tableIII:0", "tableIII:x"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} // p99 of 10: rank ceil(9.9) = 10
	for _, tc := range cases {
		if got := percentiles(sorted, tc.q)[0]; got != tc.want {
			t.Errorf("percentiles(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentiles(nil, 0.5, 1); !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Errorf("percentiles(nil) = %v, want [0 0]", got)
	}
}

func TestKeyedBodyStableAndDistinct(t *testing.T) {
	cfg := genConfig{weights: []string{"tableIII", "high-vol"}, mcRuns: 500}
	// Same key, different envelope ids: params must be byte-identical
	// (the server's solve key hashes params alone).
	a, b := keyedBody(cfg, 1, 3), keyedBody(cfg, 2, 3)
	paramsOf := func(body []byte) string {
		var env struct {
			Params json.RawMessage `json:"params"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		return string(env.Params)
	}
	if paramsOf(a) != paramsOf(b) {
		t.Error("same key produced different params")
	}
	// Distinct keys must differ, including a hot slot vs the cold key
	// sharing its low bits.
	if paramsOf(keyedBody(cfg, 1, 0)) == paramsOf(keyedBody(cfg, 1, coldKeyBase)) {
		t.Error("hot slot 0 collides with cold key 0")
	}
	if paramsOf(keyedBody(cfg, 1, 4)) == paramsOf(keyedBody(cfg, 1, 5)) {
		t.Error("adjacent keys collide")
	}
}
