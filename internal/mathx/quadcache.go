package mathx

import "repro/internal/memo"

// sharedGH caches one immutable Gauss–Hermite table per order for every
// Model and worker in the process: the Newton construction of a 48-point
// rule costs tens of microseconds, a measurable slice of a figure sweep.
var sharedGH memo.Map[int, *GaussHermite]

// SharedGaussHermite returns the process-wide n-point Gauss–Hermite rule,
// computing it on first use. The returned rule is shared: it is safe for
// concurrent use (all methods are read-only) and must not be mutated.
// It panics on n <= 0, like MustGaussHermite.
func SharedGaussHermite(n int) *GaussHermite {
	return sharedGH.Do(n, func() *GaussHermite { return MustGaussHermite(n) })
}

// QuadCacheStats reports the hit/miss counters of the shared Gauss–Hermite
// table cache, for cache introspection tooling.
func QuadCacheStats() (hits, misses uint64) {
	return sharedGH.Stats()
}
