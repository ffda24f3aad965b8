package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrQuadOrder is returned when a quadrature rule is requested with a
// non-positive number of nodes.
var ErrQuadOrder = errors.New("mathx: quadrature order must be positive")

// Func1 is a real-valued function of one real variable.
type Func1 func(x float64) float64

// GaussLegendre is an n-point Gauss–Legendre quadrature rule on [-1, 1].
// The zero value is not usable; construct with NewGaussLegendre.
type GaussLegendre struct {
	nodes   []float64
	weights []float64
}

// NewGaussLegendre computes the nodes and weights of the n-point
// Gauss–Legendre rule by Newton iteration on the Legendre polynomial P_n.
// The rule integrates polynomials of degree up to 2n-1 exactly.
func NewGaussLegendre(n int) (*GaussLegendre, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrQuadOrder, n)
	}
	gl := &GaussLegendre{
		nodes:   make([]float64, n),
		weights: make([]float64, n),
	}
	// Roots are symmetric about zero; compute the first half and mirror.
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess (Abramowitz & Stegun 25.4.38 style).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, x
			// Recurrence: (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.
			for k := 1; k < n; k++ {
				p0, p1 = p1, ((2*float64(k)+1)*x*p1-float64(k)*p0)/float64(k+1)
			}
			// Derivative: P'_n = n (x P_n - P_{n-1}) / (x^2 - 1).
			dp = float64(n) * (x*p1 - p0) / (x*x - 1)
			dx := p1 / dp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - x*x) * dp * dp)
		gl.nodes[i] = -x
		gl.nodes[n-1-i] = x
		gl.weights[i] = w
		gl.weights[n-1-i] = w
	}
	return gl, nil
}

// MustGaussLegendre is like NewGaussLegendre but panics on invalid input.
// It is intended for package-level construction with constant arguments.
func MustGaussLegendre(n int) *GaussLegendre {
	gl, err := NewGaussLegendre(n)
	if err != nil {
		panic(err)
	}
	return gl
}

// N reports the number of nodes in the rule.
func (gl *GaussLegendre) N() int { return len(gl.nodes) }

// Integrate approximates the integral of f over [a, b]. If a > b the result
// has the conventional negated sign. Integration over an empty interval
// returns zero.
func (gl *GaussLegendre) Integrate(f Func1, a, b float64) float64 {
	if a == b {
		return 0
	}
	mid := 0.5 * (a + b)
	half := 0.5 * (b - a)
	var sum float64
	for i, x := range gl.nodes {
		sum += gl.weights[i] * f(mid+half*x)
	}
	return half * sum
}

// MapNodes appends the rule's nodes affinely mapped onto [a, b] to dst
// (usually dst[:0] of a reusable scratch buffer) and returns the extended
// slice. Together with IntegrateMapped it forms the scratch-free evaluation
// path: callers evaluate the integrand over the mapped nodes in place —
// vals[i] = f(nodes[i]) may overwrite the node buffer — and combine with
// IntegrateMapped, reproducing Integrate's result bit for bit without a
// closure or per-call allocation.
func (gl *GaussLegendre) MapNodes(dst []float64, a, b float64) []float64 {
	mid := 0.5 * (a + b)
	half := 0.5 * (b - a)
	for _, x := range gl.nodes {
		dst = append(dst, mid+half*x)
	}
	return dst
}

// MapWeights appends the rule's weights scaled onto [a, b] — half-width
// times each weight — to dst and returns the extended slice, so that
// Σ w[i]·f(nodes[i]) over MapWeights and MapNodes approximates the
// integral of f. It serves callers that fold the weights into a reusable
// node table.
func (gl *GaussLegendre) MapWeights(dst []float64, a, b float64) []float64 {
	half := 0.5 * (b - a)
	for _, w := range gl.weights {
		dst = append(dst, half*w)
	}
	return dst
}

// IntegrateMapped combines integrand values evaluated at MapNodes(dst, a, b)
// into the quadrature sum. The accumulation order matches Integrate exactly,
// so for the same integrand the two paths return identical floats.
func (gl *GaussLegendre) IntegrateMapped(vals []float64, a, b float64) float64 {
	if a == b {
		return 0
	}
	half := 0.5 * (b - a)
	var sum float64
	for i, v := range vals {
		sum += gl.weights[i] * v
	}
	return half * sum
}

// IntegratePanels splits [a, b] into panels sub-intervals and applies the
// rule on each, improving accuracy for integrands with localised features
// (such as the kinked utility differences in the collateral game).
func (gl *GaussLegendre) IntegratePanels(f Func1, a, b float64, panels int) float64 {
	if panels <= 1 {
		return gl.Integrate(f, a, b)
	}
	h := (b - a) / float64(panels)
	var sum float64
	for i := 0; i < panels; i++ {
		sum += gl.Integrate(f, a+float64(i)*h, a+float64(i+1)*h)
	}
	return sum
}

// GaussHermite is an n-point Gauss–Hermite rule with weight exp(-x^2) on
// (-inf, inf). Construct with NewGaussHermite.
type GaussHermite struct {
	nodes   []float64
	weights []float64
}

// NewGaussHermite computes nodes and weights of the n-point Gauss–Hermite
// rule via Newton iteration on the (physicists') Hermite polynomials,
// following the classical Numerical Recipes "gauher" scheme.
func NewGaussHermite(n int) (*GaussHermite, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrQuadOrder, n)
	}
	gh := &GaussHermite{
		nodes:   make([]float64, n),
		weights: make([]float64, n),
	}
	const pim4 = 0.7511255444649425 // pi^{-1/4}
	m := (n + 1) / 2
	var z float64
	for i := 0; i < m; i++ {
		switch i {
		case 0:
			z = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6.0)
		case 1:
			z -= 1.14 * math.Pow(float64(n), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*gh.nodes[0]
		case 3:
			z = 1.91*z - 0.91*gh.nodes[1]
		default:
			z = 2*z - gh.nodes[i-2]
		}
		var pp float64
		for iter := 0; iter < 200; iter++ {
			p1 := pim4
			p2 := 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = z*math.Sqrt(2/float64(j+1))*p2 - math.Sqrt(float64(j)/float64(j+1))*p3
			}
			pp = math.Sqrt(2*float64(n)) * p2
			dz := p1 / pp
			z -= dz
			if math.Abs(dz) < 1e-15 {
				break
			}
		}
		gh.nodes[i] = z
		gh.nodes[n-1-i] = -z
		gh.weights[i] = 2 / (pp * pp)
		gh.weights[n-1-i] = gh.weights[i]
	}
	return gh, nil
}

// MustGaussHermite is like NewGaussHermite but panics on invalid input.
func MustGaussHermite(n int) *GaussHermite {
	gh, err := NewGaussHermite(n)
	if err != nil {
		panic(err)
	}
	return gh
}

// N reports the number of nodes in the rule.
func (gh *GaussHermite) N() int { return len(gh.nodes) }

// ExpectNormal approximates E[f(Z)] for Z ~ N(mean, sd^2) using the
// substitution z = mean + sqrt(2)*sd*x, which turns the Gaussian expectation
// into the Hermite weight. sd must be positive.
func (gh *GaussHermite) ExpectNormal(f Func1, mean, sd float64) float64 {
	invSqrtPi := 1 / math.Sqrt(math.Pi)
	var sum float64
	for i, x := range gh.nodes {
		sum += gh.weights[i] * f(mean+math.Sqrt2*sd*x)
	}
	return invSqrtPi * sum
}

// ExpectLogNormal approximates E[f(Y)] where ln Y ~ N(mu, sd^2).
func (gh *GaussHermite) ExpectLogNormal(f Func1, mu, sd float64) float64 {
	return gh.ExpectNormal(func(z float64) float64 { return f(math.Exp(z)) }, mu, sd)
}

// AdaptiveSimpson integrates f over [a, b] with the adaptive Simpson scheme
// to absolute tolerance tol (per sub-interval, with the usual Richardson
// correction). maxDepth bounds the recursion; 30 is ample for the smooth
// integrands in this repository.
func AdaptiveSimpson(f Func1, a, b, tol float64, maxDepth int) float64 {
	if a == b {
		return 0
	}
	c := 0.5 * (a + b)
	fa, fb, fc := f(a), f(b), f(c)
	whole := simpsonRule(a, b, fa, fc, fb)
	return adaptiveSimpsonAux(f, a, b, tol, whole, fa, fb, fc, maxDepth)
}

func simpsonRule(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonAux(f Func1, a, b, tol, whole, fa, fb, fm float64, depth int) float64 {
	c := 0.5 * (a + b)
	lm := 0.5 * (a + c)
	rm := 0.5 * (c + b)
	flm, frm := f(lm), f(rm)
	left := simpsonRule(a, c, fa, flm, fm)
	right := simpsonRule(c, b, fm, frm, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonAux(f, a, c, tol/2, left, fa, fm, flm, depth-1) +
		adaptiveSimpsonAux(f, c, b, tol/2, right, fm, fb, frm, depth-1)
}
