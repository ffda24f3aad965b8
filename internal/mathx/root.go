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
// returned in increasing order. It samples each panel once, so a pair of
// roots inside one panel — a region where f is positive (or negative) that
// is narrower than the panel — is dropped, as is a touch without a
// crossing; FindAllRootsRefined adds the search that recovers such a
// region. Callers choose n densely enough for their problem.
func FindAllRoots(f Func1, a, b float64, n int, tol float64) []float64 {
	return scanRoots(f, a, b, n, tol, false)
}

// FindAllRootsRefined is FindAllRoots plus near-touch refinement. At every
// interior sample where |f| has a discrete local minimum and f keeps its
// sign over the two adjacent panels, it golden-section searches those
// panels, to tol, for the extremum of f toward zero; when that extremum
// crosses zero, Brent's method refines the root on each side of it. A
// region narrower than one panel is thus found whenever f is unimodal
// across the two panels around it. The cost is one golden-section search
// (about log(2h/tol)/log(φ) evaluations for panel width h) per such local
// minimum; when no search crosses zero, the result equals FindAllRoots'
// bit for bit.
func FindAllRootsRefined(f Func1, a, b float64, n int, tol float64) []float64 {
	return scanRoots(f, a, b, n, tol, true)
}

// scanRoots is the panel scan behind FindAllRoots and FindAllRootsRefined.
func scanRoots(f Func1, a, b float64, n int, tol float64, refine bool) []float64 {
	if n < 1 || b <= a {
		return nil
	}
	var roots []float64
	h := (b - a) / float64(n)
	var xp, fp float64 // the sample before x0, once x0 is interior
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
		case refine && i > 1 && f1 != 0 && (fp > 0) == (f0 > 0) &&
			math.Abs(f0) <= math.Abs(fp) && math.Abs(f0) < math.Abs(f1):
			roots = appendTouchRoots(roots, f, xp, x1, f0 > 0, tol)
		}
		xp, fp = x0, f0
		x0, f0 = x1, f1
	}
	if f0 == 0 && (len(roots) == 0 || roots[len(roots)-1] != x0) {
		roots = append(roots, x0)
	}
	return roots
}

// appendTouchRoots searches [lo, hi], where f has the sign of pos at every
// sample, for the extremum of f toward zero and appends the two roots
// around it when f crosses zero there.
func appendTouchRoots(roots []float64, f Func1, lo, hi float64, pos bool, tol float64) []float64 {
	toward := f // minimised: positive f dips toward zero
	if !pos {
		toward = func(x float64) float64 { return -f(x) }
	}
	x := GoldenMin(toward, lo, hi, tol)
	if toward(x) >= 0 {
		return roots
	}
	for _, br := range [2][2]float64{{lo, x}, {x, hi}} {
		if r, err := Brent(f, br[0], br[1], tol); err == nil {
			roots = append(roots, r)
		}
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
