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
// crossing; FindRootsNear's scan adds the search that recovers such a
// region. Callers choose n densely enough for their problem.
func FindAllRoots(f Func1, a, b float64, n int, tol float64) []float64 {
	return scanRoots(f, a, b, n, 0, n, tol, false)
}

// FindRootsWithin is FindAllRoots for an f known to keep one nonzero sign
// on [a, lo] and one on [hi, b]: it samples only the nodes of the same
// n-panel grid from two below lo to two above hi (the window of
// FindRootsNear's scan), so every bracket, and every root, is
// FindAllRoots' bit for bit.
func FindRootsWithin(f Func1, a, b float64, n int, lo, hi, tol float64) []float64 {
	first, last := window(a, b, n, lo, hi)
	return scanRoots(f, a, b, n, first, last, tol, false)
}

// FindRootsNear returns the roots of f on [a, b] for an f known to keep
// one nonzero sign on [a, lo] and one on [hi, b], with at most maxRoots
// roots between, given prev, the sorted roots of a nearby member of f's
// family.
//
// Without a usable prev it scans the nodes of FindAllRoots' n-panel grid
// from two below lo to two above hi (lo ≤ a and hi ≥ b, ±Inf included,
// scan it all): every panel and bracket it skips lies where f has a fixed
// sign. The scan adds near-touch refinement: at every interior sample
// where |f| has a discrete local minimum and f keeps its sign over the
// two adjacent panels, it golden-section searches them, to tol, for the
// extremum of f toward zero, and Brent refines a root on each side of one
// that crosses it. A region narrower than one panel is thus found
// whenever f is unimodal across the two panels around it; when no search
// crosses zero, the roots equal FindAllRoots' bit for bit.
//
// When prev holds maxRoots roots it carries them instead of scanning:
// each is mapped to its fractional node index on f's own grid, nodes are
// evaluated outward from there until the sign changes, and Brent refines
// exactly that panel. That is the bracket the scan finds, and with
// maxRoots sign changes found no further root (no near-touch pair either)
// can exist, so the roots equal the scan's bit for bit. carried is false
// when it scanned instead: prev has another count (with fewer roots a
// pair can be born anywhere f turns toward zero, which only the scan's
// near-touch search sees), two of prev's roots lie within carryMinGap
// panels of each other (a pair about to die), a root walks more than
// carryMaxWalk panels or leaves the window, a panel crosses the wrong way
// or out of order, the window's edge signs disagree with the count, or a
// node is exactly zero.
func FindRootsNear(f Func1, a, b float64, n int, lo, hi, tol float64, prev []float64, maxRoots int) (roots []float64, carried bool) {
	first, last := window(a, b, n, lo, hi)
	if len(prev) > 0 && len(prev) == maxRoots && n >= 1 && b > a && last > first {
		if roots = carryRoots(f, a, b, n, first, last, tol, prev); roots != nil {
			return roots, true
		}
	}
	return scanRoots(f, a, b, n, first, last, tol, true), false
}

// carryMaxWalk bounds how many panels FindRootsNear walks from a carried
// root's node before it scans instead; carryMinGap is the closest, in
// panels, that two carried roots may lie.
const carryMaxWalk, carryMinGap = 8, 3

// carryRoots finds prev's roots on the grid as FindRootsNear describes,
// or returns nil when it cannot vouch for the result.
func carryRoots(f Func1, a, b float64, n, first, last int, tol float64, prev []float64) []float64 {
	h := (b - a) / float64(n)
	zero := false
	at := func(i int) float64 {
		v := f(node(a, b, h, i, n))
		zero = zero || v == 0
		return v
	}
	// The signs alternate from the window's first node, and an odd count
	// flips the sign at its last.
	startPos := at(first) > 0
	if (at(last) > 0) != (startPos != (len(prev)%2 == 1)) {
		return nil
	}
	roots := make([]float64, 0, len(prev))
	done := first - 1 // the panel of the root before
	for j, p := range prev {
		i := min(max(int(math.Floor((p-a)/h)), first), last-1)
		if j > 0 && p-prev[j-1] < carryMinGap*h {
			return nil
		}
		leftPos := startPos == (j%2 == 0) // f's sign just left of root j
		fi, fj := at(i), at(i+1)
		for walk := 0; (fi > 0) == (fj > 0); walk++ {
			switch {
			case walk == carryMaxWalk:
				return nil
			case (fi > 0) == leftPos: // both left of the root
				if i++; i == last {
					return nil
				}
				fi, fj = fj, at(i+1)
			default:
				if i--; i < first {
					return nil
				}
				fi, fj = at(i), fi
			}
		}
		if (fi > 0) != leftPos || i <= done || zero {
			return nil
		}
		r, err := Brent(f, node(a, b, h, i, n), node(a, b, h, i+1, n), tol)
		if err != nil {
			return nil
		}
		roots = append(roots, r)
		done = i
	}
	return roots
}

// window returns the first and last nodes of the n-panel grid over [a, b]
// that FindRootsNear's scan samples for the unsettled range [lo, hi].
func window(a, b float64, n int, lo, hi float64) (first, last int) {
	h := (b - a) / float64(n)
	first, last = 0, n
	if lo > a && lo < b {
		first = int(math.Floor((lo-a)/h)) - 2
	}
	if hi > a && hi < b {
		last = int(math.Ceil((hi-a)/h)) + 2
	}
	return max(first, 0), min(last, n)
}

// node returns the i-th of the n+1 nodes of the n-panel grid over [a, b].
func node(a, b, h float64, i, n int) float64 {
	if i == n {
		return b // avoid accumulation error at the right endpoint
	}
	return a + float64(i)*h
}

// scanRoots is the panel scan behind FindAllRoots and FindRootsNear: it
// samples nodes first..last of the n-panel grid over [a, b], with
// near-touch refinement when refine is set.
func scanRoots(f Func1, a, b float64, n, first, last int, tol float64, refine bool) []float64 {
	if n < 1 || b <= a || last <= first {
		return nil
	}
	var roots []float64
	h := (b - a) / float64(n)
	var xp, fp float64 // the sample before x0, once x0 is interior
	x0 := node(a, b, h, first, n)
	f0 := f(x0)
	for i := first + 1; i <= last; i++ {
		x1 := node(a, b, h, i, n)
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
		case refine && i > first+1 && f1 != 0 && (fp > 0) == (f0 > 0) &&
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
