package variant

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// update regenerates the golden variant reports instead of diffing:
//
//	go test ./internal/variant -run TestGoldenVariantReports -update
var update = flag.Bool("update", false, "rewrite the golden report files under testdata/golden")

// goldenRuns keeps the pinned Monte Carlo small and fast; the reports are
// bit-reproducible for a fixed (seed, run-count) pair at any worker
// count. 1200 runs is the smallest round count at which every pinned
// validation agrees on every preset — the golden suite must never
// enshrine a statistically unlucky seed as expected output.
const goldenRuns = 1200

// TestGoldenVariantReports pins the newly promoted packetized and
// repeated variants byte-for-byte on every registry preset — the same
// regression net internal/figures casts over the artifact groups. The
// rendered report covers the solve values, the seeded sampling and the
// Monte Carlo cross-validation, so a drift in any layer (scenario knobs,
// quote memoization, solve cache, packet loop, RNG decorrelation) fails
// here first. Intentional changes are re-pinned with -update.
func TestGoldenVariantReports(t *testing.T) {
	for _, sc := range scenario.Registry() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			row, err := Run(sc, RunOpts{Runs: goldenRuns, Variants: "packetized,repeated"})
			if err != nil {
				t.Fatal(err)
			}
			// A golden file must pin healthy output: every validation that
			// ran at the pinned size has to agree, or -update would
			// enshrine a failing batch as the expected state.
			if bad := row.Disagreements(); len(bad) > 0 {
				t.Fatalf("pinned run disagrees for %v; raise goldenRuns", bad)
			}
			got := []byte(row.Render())
			path := filepath.Join("testdata", "golden", sc.Name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to pin): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
