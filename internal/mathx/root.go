package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned by Brent when the supplied endpoints do not
// bracket a sign change.
var ErrNoBracket = errors.New("mathx: endpoints do not bracket a root")

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs. tol is the absolute tolerance on the argument.
func Brent(f Func1, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, nil
}

// FindAllRoots scans [a, b] with n equally spaced panels, brackets every
// sign change of f, and refines each bracket with Brent's method. Roots are
// returned in increasing order. Panels where f touches zero without crossing
// may be missed, as with any sampling-based scan; callers choose n densely
// enough for their problem (the swap-game utilities are smooth with at most
// three crossings).
func FindAllRoots(f Func1, a, b float64, n int, tol float64) []float64 {
	if n < 1 || b <= a {
		return nil
	}
	var roots []float64
	h := (b - a) / float64(n)
	x0 := a
	f0 := f(x0)
	for i := 1; i <= n; i++ {
		x1 := a + float64(i)*h
		if i == n {
			x1 = b // avoid accumulation error at the right endpoint
		}
		f1 := f(x1)
		switch {
		case f0 == 0:
			if len(roots) == 0 || roots[len(roots)-1] != x0 {
				roots = append(roots, x0)
			}
		case (f0 > 0) != (f1 > 0):
			if r, err := Brent(f, x0, x1, tol); err == nil {
				roots = append(roots, r)
			}
		}
		x0, f0 = x1, f1
	}
	if f0 == 0 && (len(roots) == 0 || roots[len(roots)-1] != x0) {
		roots = append(roots, x0)
	}
	return roots
}

// LinSpace returns n points linearly spaced between a and b inclusive.
// n must be at least 2; otherwise nil is returned.
func LinSpace(a, b float64, n int) []float64 {
	if n < 2 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	out[n-1] = b
	return out
}
