// Package timeline implements the swap's decision and receipt timeline of
// §III.B of the paper: the points t0..t8 and the contract expiries ta, tb,
// derived from the chain confirmation times τa, τb and the mempool
// discoverability lag εb. It supports both the general timeline with
// arbitrary waiting (Fig. 2a, Eq. 12) and the idealized zero-waiting-time
// timeline (Fig. 2b, Eq. 13) that the game analysis uses.
package timeline

import (
	"errors"
	"fmt"
)

// ErrBadTiming reports chain-timing parameters that violate the paper's
// ordering constraints (Eq. 3: εb < τb; positivity of τa, τb, εb).
var ErrBadTiming = errors.New("timeline: invalid timing parameters")

// Chains holds the timing characteristics of the two ledgers
// (paper Assumption 1 and Table II).
type Chains struct {
	// TauA is the transaction confirmation time on Chain_a, in hours.
	TauA float64
	// TauB is the transaction confirmation time on Chain_b, in hours.
	TauB float64
	// EpsB is the time for an initiated transaction to become discoverable
	// in the mempool of Chain_b, in hours. Must satisfy EpsB < TauB (Eq. 3).
	EpsB float64
}

// Validate checks positivity and the mempool constraint εb < τb.
func (c Chains) Validate() error {
	if c.TauA <= 0 {
		return fmt.Errorf("%w: τa=%g must be > 0", ErrBadTiming, c.TauA)
	}
	if c.TauB <= 0 {
		return fmt.Errorf("%w: τb=%g must be > 0", ErrBadTiming, c.TauB)
	}
	if c.EpsB <= 0 {
		return fmt.Errorf("%w: εb=%g must be > 0", ErrBadTiming, c.EpsB)
	}
	if c.EpsB >= c.TauB {
		return fmt.Errorf("%w: εb=%g must be < τb=%g (Eq. 3)", ErrBadTiming, c.EpsB, c.TauB)
	}
	return nil
}

// Timeline lists the swap's canonical points in time (Table II / §III.B).
// All fields are absolute times in hours from T0.
type Timeline struct {
	// T0: agreement on swap conditions; A generates the secret.
	T0 float64
	// T1: A locks P* Token_a on Chain_a via HTLC expiring at TA.
	T1 float64
	// T2: B locks 1 Token_b on Chain_b via HTLC expiring at TB.
	T2 float64
	// T3: A reveals the secret to unlock Token_b on Chain_b.
	T3 float64
	// T4: B uses the secret to unlock Token_a on Chain_a.
	T4 float64
	// T5: A receives Token_b (success path).
	T5 float64
	// T6: B receives Token_a (success path).
	T6 float64
	// T7: B's original Token_b is returned at TB + τb (failure path).
	T7 float64
	// T8: A's original Token_a is returned at TA + τa (failure path).
	T8 float64
	// TA is the expiry of the HTLC on Chain_a.
	TA float64
	// TB is the expiry of the HTLC on Chain_b.
	TB float64
}

// Idealized constructs the zero-waiting-time timeline of Eq. 13 (Fig. 2b):
// each actor moves at the earliest protocol-feasible moment, which the paper
// argues is the rational choice (§III.C).
func Idealized(c Chains) (Timeline, error) {
	if err := c.Validate(); err != nil {
		return Timeline{}, err
	}
	tl := Timeline{
		T0: 0,
		T1: 0,
		T2: c.TauA,
		T3: c.TauA + c.TauB,
		T4: c.TauA + c.TauB + c.EpsB,
	}
	tl.T5 = tl.T3 + c.TauB
	tl.TB = tl.T5
	tl.T6 = tl.T4 + c.TauA
	tl.TA = tl.T6
	tl.T7 = tl.TB + c.TauB
	tl.T8 = tl.TA + c.TauA
	return tl, nil
}

// WithWaits constructs the general timeline of Eq. 12 (Fig. 2a): each wait_i
// is the non-negative extra delay an agent inserts before acting at t_i
// (wait1 before A locks, wait2 before B locks, wait3 before A reveals,
// wait4 before B claims). Expiries are set at the earliest feasible times
// given those waits, i.e. the contract deadlines bind exactly.
func WithWaits(c Chains, wait1, wait2, wait3, wait4 float64) (Timeline, error) {
	if err := c.Validate(); err != nil {
		return Timeline{}, err
	}
	for i, w := range []float64{wait1, wait2, wait3, wait4} {
		if w < 0 {
			return Timeline{}, fmt.Errorf("%w: wait%d=%g must be >= 0", ErrBadTiming, i+1, w)
		}
	}
	tl := Timeline{T0: 0}
	tl.T1 = tl.T0 + wait1
	tl.T2 = tl.T1 + c.TauA + wait2
	tl.T3 = tl.T2 + c.TauB + wait3
	tl.T4 = tl.T3 + c.EpsB + wait4
	tl.T5 = tl.T3 + c.TauB
	tl.TB = tl.T5
	tl.T6 = tl.T4 + c.TauA
	tl.TA = tl.T6
	tl.T7 = tl.TB + c.TauB
	tl.T8 = tl.TA + c.TauA
	return tl, nil
}

// Validate checks the ordering chain of Eq. 12 on an arbitrary timeline.
func (tl Timeline) Validate(c Chains) error {
	if err := c.Validate(); err != nil {
		return err
	}
	type rel struct {
		name string
		ok   bool
	}
	rels := []rel{
		{"t0 <= t1", tl.T0 <= tl.T1},
		{"t1 + τa <= t2", tl.T1+c.TauA <= tl.T2+1e-12},
		{"t2 + τb <= t3", tl.T2+c.TauB <= tl.T3+1e-12},
		{"t3 + εb <= t4", tl.T3+c.EpsB <= tl.T4+1e-12},
		{"t5 = t3 + τb", approxEq(tl.T5, tl.T3+c.TauB)},
		{"t5 <= tb", tl.T5 <= tl.TB+1e-12},
		{"t7 = tb + τb", approxEq(tl.T7, tl.TB+c.TauB)},
		{"t6 = t4 + τa", approxEq(tl.T6, tl.T4+c.TauA)},
		{"t6 <= ta", tl.T6 <= tl.TA+1e-12},
		{"t8 = ta + τa", approxEq(tl.T8, tl.TA+c.TauA)},
	}
	for _, r := range rels {
		if !r.ok {
			return fmt.Errorf("%w: ordering %q violated", ErrBadTiming, r.name)
		}
	}
	return nil
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
