// Package agent implements the transacting agents of the swap game: a
// lazily-sampled GBM price feed shared by both parties (complete-information
// Assumption 7 — both observe the same price), and Alice/Bob protocol agents
// that execute threshold strategies from internal/core on the simulated
// chains. Honest, rational and adversarial behaviours are all expressed as
// strategy values (§II: "we do not define honest or malicious actors
// explicitly … both actors act rationally").
package agent

import (
	"errors"
	"fmt"

	"repro/internal/gbm"
)

// ErrFeed reports invalid price-feed usage.
var ErrFeed = errors.New("agent: invalid price feed query")

// PriceFeed samples a single GBM trajectory lazily: each query at a time not
// earlier than the previous one extends the path with an exact lognormal
// increment. Queries at a previously observed time return the cached value,
// so all agents see one consistent market.
type PriceFeed struct {
	proc  gbm.Process
	rng   gbm.NormalSource
	lastT float64
	lastP float64
}

// NewPriceFeed starts a feed at price p0 (time 0). The rng may be any
// standard-normal source: *rand.Rand for pseudo sampling, or the
// slab-fronted qmc.SlabNormals feeding low-discrepancy increments.
func NewPriceFeed(proc gbm.Process, p0 float64, rng gbm.NormalSource) (*PriceFeed, error) {
	if p0 <= 0 {
		return nil, fmt.Errorf("%w: p0=%g must be > 0", ErrFeed, p0)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrFeed)
	}
	return &PriceFeed{proc: proc, rng: rng, lastP: p0}, nil
}

// Reset rewinds the feed to price p0 at time zero, keeping its process and
// RNG. Reseed the RNG separately when the next trajectory must be a fixed
// function of a path seed.
func (f *PriceFeed) Reset(p0 float64) error {
	if p0 <= 0 {
		return fmt.Errorf("%w: p0=%g must be > 0", ErrFeed, p0)
	}
	f.lastT, f.lastP = 0, p0
	return nil
}

// At returns the price at simulated time t. Queries must be monotone in t
// (the event scheduler guarantees this); repeated queries at the same time
// return the same price.
func (f *PriceFeed) At(t float64) (float64, error) {
	switch {
	case t < f.lastT:
		return 0, fmt.Errorf("%w: time %g before last query %g", ErrFeed, t, f.lastT)
	case t == f.lastT:
		return f.lastP, nil
	default:
		f.lastP = f.proc.Step(f.rng, f.lastP, t-f.lastT)
		f.lastT = t
		return f.lastP, nil
	}
}

// Last returns the most recently sampled (time, price) pair.
func (f *PriceFeed) Last() (t, p float64) { return f.lastT, f.lastP }
