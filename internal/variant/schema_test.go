package variant

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/scenario"
)

// TestReportBytesPinned guards the persistent store against staleness: the
// analytic reports of every preset (all variants) and of 16 generated
// universe cells (basic) are marshalled exactly as RunCell stores them and
// hashed, and the hash must equal reportDigest. Goldens round what they
// print, so a change can move stored report bytes with every golden still
// byte-identical; this test catches it. Other architectures may fuse
// multiply-adds, which moves float bits, so the pin is amd64-only.
func TestReportBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("report bytes are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	spec := config.UniverseSpec{Chains: []string{"btc", "ltc", "doge", "evm"}, Samples: 128, Seed: 1}
	universe, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hash := func(sc scenario.Scenario, opts RunOpts) {
		row, err := Run(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range row.Reports {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	// Runs sizes the seeded experiments of the sampled variants
	// (packetized, repeated), which run even under SkipMC.
	for _, sc := range scenario.Registry() {
		hash(sc, RunOpts{Runs: 256, Variants: "all", SkipMC: true})
	}
	for i := 0; i < len(universe); i += len(universe) / 16 {
		hash(universe[i], RunOpts{Variants: "basic", SkipMC: true})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reportDigest {
		t.Fatalf("report bytes changed: bump cellSchema and re-pin (reportDigest = %q)", got)
	}
}

// TestMCReportBytesPinned is TestReportBytesPinned's sibling for the Monte
// Carlo half of stored reports: the validations of three presets under
// basic and collateral, marshalled exactly as RunCell stores them (a
// report's MC field) and hashed against mcReportDigest. A change to the
// protocol simulator, its seeding or the MCCheck shape moves these bytes
// while every analytic report stays put, and stored checks would then mix
// with fresh ones. amd64-only for the same reason as its sibling.
func TestMCReportBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("report bytes are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	for _, name := range []string{"tableIII", "high-vol", "deep-collateral"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := Run(sc, RunOpts{Runs: 200, Variants: "basic,collateral"})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range row.Reports {
			if r.MC == nil {
				t.Fatalf("%s/%s: no Monte Carlo check", name, r.Key)
			}
			data, err := json.Marshal(r.MC)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != mcReportDigest {
		t.Fatalf("MC report bytes changed: bump cellSchema and re-pin (mcReportDigest = %q)", got)
	}
}
