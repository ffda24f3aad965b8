package dist

import (
	"math"
	"testing"
)

// TestAtLogVariantsMatchPlainBitwise pins the hoisted-logarithm variants to
// their plain counterparts exactly: the solve engine relies on them being
// interchangeable without any ULP drift.
func TestAtLogVariantsMatchPlainBitwise(t *testing.T) {
	dists := []LogNormal{
		{Mu: 0, Sigma: 1},
		{Mu: 0.6931471805599453, Sigma: 0.05},
		{Mu: -3.2, Sigma: 2.7},
	}
	points := []float64{1e-12, 0.37, 1, 2.5, 42, 1e9, 0, -1}
	for _, l := range dists {
		for _, x := range points {
			lx := math.Log(x)
			check := func(name string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v.%s(%g): AtLog %v != plain %v", l, name, x, got, want)
				}
			}
			check("CDF", l.CDFAtLog(x, lx), l.CDF(x))
			check("TailProb", l.TailProbAtLog(x, lx), l.TailProb(x))
			check("PartialExpectationBelow", l.PartialExpectationBelowAtLog(x, lx), l.PartialExpectationBelow(x))
			check("PartialExpectationAbove", l.PartialExpectationAboveAtLog(x, lx), l.PartialExpectationAbove(x))
		}
	}
}
