// Package qmc provides the variance-reduction sampling layer of the Monte
// Carlo engine: the sampler-mode vocabulary shared by every layer that
// names one (engine config, batch runner, CLIs, RPC params), a scrambled
// Sobol low-discrepancy sequence with vendored direction numbers
// (stdlib-only), and the slab-fronted normal source the sobol-mode
// simulators draw price increments from.
//
// The two modes trade structure for statistical efficiency:
//
//   - Pseudo is plain pseudo-random sampling from the repository's one
//     PCG stream (sweep.Rand, reseeded per path) and is the default.
//   - Sobol replaces the price increments with a digitally shifted Sobol
//     sequence mapped through the normal quantile, run as R independent
//     randomizations (replicates) so the estimator keeps an unbiased,
//     assumption-free error estimate (Owen-style randomized QMC).
package qmc

import (
	"errors"
	"fmt"
)

// ErrBadMode reports an unrecognised sampler mode.
var ErrBadMode = errors.New("qmc: unknown sampler mode")

// Mode names a sampling strategy. The zero value is ModePseudo, so every
// existing configuration keeps the golden default without changes.
type Mode string

// The registered sampler modes.
const (
	// ModePseudo is plain pseudo-random sampling (the golden default).
	ModePseudo Mode = "pseudo"
	// ModeSobol samples price increments from a scrambled Sobol sequence
	// in replicated randomizations.
	ModeSobol Mode = "sobol"
)

// ParseMode resolves a mode name; "" resolves to ModePseudo so untouched
// configurations keep the default.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModePseudo:
		return ModePseudo, nil
	case ModeSobol:
		return ModeSobol, nil
	}
	return "", fmt.Errorf("%w: %q (have pseudo, sobol)", ErrBadMode, s)
}

// Canon returns the canonical spelling of m ("" canonicalises to
// "pseudo"); it errors like ParseMode on unknown modes.
func (m Mode) Canon() (Mode, error) { return ParseMode(string(m)) }

// String renders the canonical name (the zero value prints "pseudo").
func (m Mode) String() string {
	if m == "" {
		return string(ModePseudo)
	}
	return string(m)
}

// VarianceReduced reports whether the mode carries its own estimator CI:
// raw-count Wilson intervals cannot see variance reduction (they observe
// only successes out of n), so Sobol runs stop on a sampler-aware
// interval instead.
func (m Mode) VarianceReduced() bool { return m == ModeSobol }

// SobolReplicates is the number of independent randomizations a
// sobol-mode run interleaves. Path i belongs to replicate
// SobolReplicate(i) at point SobolPoint(i), so every prefix of the path
// stream spreads evenly over the replicates and the spread of replicate
// means yields an unbiased error estimate (Owen-style randomized QMC)
// with SobolReplicates−1 degrees of freedom.
const SobolReplicates = 8

// SobolReplicate maps a path index to its randomization replicate.
func SobolReplicate(index int) int { return index % SobolReplicates }

// SobolPoint maps a path index to its point index within its replicate's
// Sobol sequence.
func SobolPoint(index int) uint32 { return uint32(index / SobolReplicates) }
