package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/mathx"
)

// cutoffT3 returns the t3 cut-off price P̄_t3 of Eq. 18, generalised with a
// collateral amount q (Eq. 33, §IV.A.2). q = 0 recovers the basic game. The
// cut-off is clamped at zero: with enough collateral at stake A continues at
// any price.
func (m *Model) cutoffT3(pstar, q float64) float64 {
	net := pstar*m.k.refundT3 - q*m.k.qReturnA
	if net <= 0 {
		return 0
	}
	return m.k.cutoffScale * net / (1 + m.params.Alice.Alpha)
}

// CutoffT3 returns the cut-off price P̄_t3 of Eq. 18: A continues at t3 when
// P_t3 exceeds it and stops otherwise (Eq. 19).
func (m *Model) CutoffT3(pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	return m.cutoffT3(pstar, 0), nil
}

// ---- Stage t3 (Eqs. 14–17) ----

// aliceContT3 is U^A_t3(cont) as a function of the t3 price x (Eq. 14):
// (1+αA)·E(x,τb)·e^{−rA·τb}.
func (m *Model) aliceContT3(x float64) float64 {
	return (1 + m.params.Alice.Alpha) * x * m.k.growthA
}

// aliceStopT3 is U^A_t3(stop) (Eq. 16): the refund P* received at t8.
func (m *Model) aliceStopT3(pstar float64) float64 {
	return pstar * m.k.refundT3
}

// bobContT3 is U^B_t3(cont) (Eq. 15): B banks P* Token_a at t6.
func (m *Model) bobContT3(pstar float64) float64 {
	return (1 + m.params.Bob.Alpha) * pstar * m.k.bankB
}

// bobStopT3 is U^B_t3(stop) as a function of the t3 price x (Eq. 17):
// B's Token_b returns at t7 = t3 + 2τb.
func (m *Model) bobStopT3(x float64) float64 {
	return x * m.k.growth2B
}

// AliceUtilityT3 evaluates U^A_t3 (Eqs. 14 and 16) at t3 price pT3 for the
// given action. pT3 only affects the cont branch but is validated for both.
func (m *Model) AliceUtilityT3(action Action, pT3, pstar float64) (float64, error) {
	if err := checkPrice(pT3); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.aliceContT3(pT3), nil
	case Stop:
		return m.aliceStopT3(pstar), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// BobUtilityT3 evaluates U^B_t3 (Eqs. 15 and 17) at t3 price pT3. The cont
// branch reflects that B claims with certainty once the secret is revealed
// (§III.E.1).
func (m *Model) BobUtilityT3(action Action, pT3, pstar float64) (float64, error) {
	if err := checkPrice(pT3); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.bobContT3(pstar), nil
	case Stop:
		return m.bobStopT3(pT3), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// ---- Stage t2 (Eqs. 20–23), generalised with collateral q ----

// t2Eval bundles every part of the t2 stage utilities that is constant in
// the t2 price y: the cut-off P̄_t3 and its logarithm, the t3 continuation
// and stop values, and the premium-weighted coefficients. One t2Eval is
// built per (P*, Q) solve and reused across the hundreds of price points a
// root scan or stage integral evaluates, replacing the per-point
// recomputation of Eqs. 15–18. Every field stores the bit-exact value of
// the subexpression it replaces, so evaluation through a t2Eval returns
// the same floats as the original per-point formulas.
type t2Eval struct {
	m        *Model
	pstar, q float64
	pbar     float64 // cutoffT3(pstar, q)
	logPbar  float64 // math.Log(pbar)

	aliceStop3 float64 // aliceStopT3(pstar)
	bobCont3   float64 // bobContT3(pstar)
	contCoefA  float64 // (1+αA)·exp((µ−rA)τb), A's t3 cont coefficient
	qReturn    float64 // q·exp(−rA(εb+τa)), A's returned deposit
	qDiscB     float64 // q·exp(−rB·τa), B's own released deposit
	qBank      float64 // q·exp(−rB(εb+τa)), A's forfeited deposit to B
}

// newT2Eval hoists the y-independent parts of Eqs. 20–24 (33–35 with q>0).
func (m *Model) newT2Eval(pstar, q float64) t2Eval {
	pbar := m.cutoffT3(pstar, q)
	return t2Eval{
		m:          m,
		pstar:      pstar,
		q:          q,
		pbar:       pbar,
		logPbar:    math.Log(pbar),
		aliceStop3: m.aliceStopT3(pstar),
		bobCont3:   m.bobContT3(pstar),
		contCoefA:  (1 + m.params.Alice.Alpha) * m.k.growthA,
		qReturn:    q * m.k.qReturnA,
		qDiscB:     q * m.k.discBTauA,
		qBank:      q * m.k.bankB,
	}
}

// aliceCont is U^A_t2(cont) at t2 price y with logy = math.Log(y)
// (Eq. 20; Eq. 34 when q > 0): the success branch integrates A's t3 cont
// utility above the cut-off in closed form via the truncated lognormal
// moment; with collateral, A's returned deposit rides on the same branch.
func (e *t2Eval) aliceCont(logy float64) float64 {
	tr := e.m.transitionTauBAtLog(logy)
	cont := e.contCoefA * tr.PartialExpectationAboveAtLog(e.pbar, e.logPbar)
	if e.qReturn != 0 {
		// The deposit term vanishes exactly in the basic game; skipping it
		// skips one erfc without moving the sum (adding +0 is exact).
		cont += e.qReturn * tr.TailProbAtLog(e.pbar, e.logPbar)
	}
	stop := tr.CDFAtLog(e.pbar, e.logPbar) * e.aliceStop3
	return e.m.k.discATauB * (cont + stop)
}

// bobCont is U^B_t2(cont) at t2 price y with logy = math.Log(y)
// (Eq. 21; Eq. 35 when q > 0). With collateral, B's own deposit is released
// at t3 and received at t3+τa, and A's forfeited deposit accrues to B on
// the branch where A stops.
func (e *t2Eval) bobCont(logy float64) float64 {
	tr := e.m.transitionTauBAtLog(logy)
	val := e.qDiscB +
		tr.TailProbAtLog(e.pbar, e.logPbar)*e.bobCont3 +
		e.m.k.growth2B*tr.PartialExpectationBelowAtLog(e.pbar, e.logPbar)
	if e.qBank != 0 {
		// Forfeited-deposit term: exactly zero in the basic game, so the
		// hottest scan of the solve engine skips one of its three erfc
		// evaluations (adding +0 is exact; every term is non-negative).
		val += e.qBank * tr.CDFAtLog(e.pbar, e.logPbar)
	}
	return e.m.k.discBTauB * val
}

// settled returns the t2 prices outside which Eq. 35 fixes the sign of
// U^B_t2(cont) − y: cont > y for every y < below (every term is ≥ 0, the
// released deposit among them) and cont < y for every y > above (TailProb
// ≤ 1, PE_below ≤ P̄_t3, CDF ≤ 1). The factors ½ and 2 dwarf any rounding.
func (e *t2Eval) settled() (below, above float64) {
	k := &e.m.k
	return 0.5 * k.discBTauB * e.qDiscB, 2 * k.discBTauB * (e.qDiscB + e.bobCont3 + k.growth2B*e.pbar + e.qBank)
}

// succ is the success probability of the t3 subgame seen from t2 price y
// (the inner factor of Eq. 31): P[P_t3 > P̄_t3 | P_t2 = y].
func (e *t2Eval) succ(logy float64) float64 {
	return e.m.transitionTauBAtLog(logy).TailProbAtLog(e.pbar, e.logPbar)
}

// aliceContT2 is U^A_t2(cont) at t2 price y (Eq. 20; Eq. 34 when q > 0).
func (m *Model) aliceContT2(y, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	return e.aliceCont(math.Log(y))
}

// aliceStopT2 is U^A_t2(stop) (Eq. 22): A's refund arrives at
// t8 = t2 + τb + εb + 2τa after B walks away.
func (m *Model) aliceStopT2(pstar float64) float64 {
	return pstar * m.k.stopT2A
}

// bobContT2 is U^B_t2(cont) at t2 price y (Eq. 21; Eq. 35 when q > 0).
func (m *Model) bobContT2(y, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	return e.bobCont(math.Log(y))
}

// bobStopT2 is U^B_t2(stop) (Eq. 23): B simply keeps his Token_b (and, with
// collateral, forfeits the deposit — Eq. 23 is reused unchanged in §IV.A.3).
func (m *Model) bobStopT2(y float64) float64 { return y }

// AliceUtilityT2 evaluates U^A_t2 (Eqs. 20 and 22) at t2 price pT2.
func (m *Model) AliceUtilityT2(action Action, pT2, pstar float64) (float64, error) {
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.aliceContT2(pT2, pstar, 0), nil
	case Stop:
		return m.aliceStopT2(pstar), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// BobUtilityT2 evaluates U^B_t2 (Eqs. 21 and 23) at t2 price pT2.
func (m *Model) BobUtilityT2(action Action, pT2, pstar float64) (float64, error) {
	if err := checkPrice(pT2); err != nil {
		return 0, err
	}
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.bobContT2(pT2, pstar, 0), nil
	case Stop:
		return m.bobStopT2(pT2), nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// contSetT2 computes B's continuation region at t2,
// {y > 0 : U^B_t2(cont)(y) > U^B_t2(stop)(y)}, as a union of intervals.
// In the basic game (q = 0) this is the single interval (P̲_t2, P̄_t2] of
// Eq. 24; with collateral the difference can have one or three roots
// (Fig. 7), hence the general interval-set machinery. It is the unit-rate
// region of the deposit ratio Q/P* scaled by P* (unitRegion).
func (m *Model) contSetT2(pstar, q float64) mathx.IntervalSet {
	return m.unitRegion(q / pstar).Scale(pstar)
}

// unitRegion returns S(κ), B's t2 continuation region at the unit rate
// P* = 1 with deposit κ, scanned once per κ and memoized. It is the one
// region path of the Model: the region at (P*, Q) is P*·S(Q/P*), so every
// rate and deposit with the same ratio shares one scan, the basic game is
// the κ = 0 entry, and the t1Probe tables are built over S(0).
//
// Every term of U^B_t2(cont) − U^B_t2(stop) is 1-homogeneous in (P*, y, Q)
// jointly: P̄_t3 of Eq. 33 and bobContT3 are, the deposit terms ∝ Q, and
// the truncated lognormal moment ∝ y. The scaled region agrees with a
// direct scan at (P*, Q) to root tolerance (≤1e-9 relative on the presets
// and the universe; TestScaledContSetMatchesDirectScan).
func (m *Model) unitRegion(kappa float64) mathx.IntervalSet {
	return m.unitRegionNear(kappa, mathx.IntervalSet{})
}

// unitRegionNear is unitRegion given prev, S at a nearby κ, whose roots the
// scan carries: the hint changes its cost, never its result.
func (m *Model) unitRegionNear(kappa float64, prev mathx.IntervalSet) mathx.IntervalSet {
	return m.solve.regions.Do(kappa, func() mathx.IntervalSet { return m.contSetT2Scan(1, kappa, prev) })
}

// contSetT2Scan is the scan at (P*, Q) behind unitRegion; with an empty
// prev it is the direct scan, the tests' reference.
func (m *Model) contSetT2Scan(pstar, q float64, prev mathx.IntervalSet) mathx.IntervalSet {
	e := m.newT2Eval(pstar, q)
	below, above := e.settled()
	return m.t2RegionScan(pstar, q, e.pbar, below, above, e.bobCont, &m.solve.scanEvals, prev)
}

// t2RegionScan returns {y : bobCont(log y) > y}, B's t2 continuation
// region for a cont utility bobCont at rate pstar, collateral q and t3
// cut-off pbar. It brackets the region by B's parameters and scans in
// log-price space, matching the lognormal geometry of the transition law,
// with the near-touch refinement of mathx.FindAllRootsRefined: a region
// narrower than one of the m.scanN panels is still found.
//
// The scan starts at a floor above 0, but a region that contains the floor
// is reported from 0, its true lower edge, which also keeps P*·S(Q/P*)
// equal to the direct scan where the floor does not scale. As y → 0 the
// cont utility tends to Q·e^{−rB·τb}(e^{−rB·τa} + e^{−rB(εb+τa)}) > 0 while
// the stop utility y vanishes, and with Q = 0 both are linear in y, so the
// sign at the floor holds down to 0. Only the nodes between the settled
// bounds below and above are scanned, or prev's roots carried when it has
// the three Fig. 7 allows (mathx.FindRootsNear); evals counts diff calls.
func (m *Model) t2RegionScan(pstar, q, pbar, below, above float64, bobCont func(logy float64) float64, evals *atomic.Uint64, prev mathx.IntervalSet) mathx.IntervalSet {
	var n uint64
	defer func() { evals.Add(n) }()
	diff := func(y float64) float64 { n++; return bobCont(math.Log(y)) - y }
	b := m.params.Bob
	// Upper bound: U^B_t2(cont) ≤ q + (1+αB)P* + e^{2(µ−rB)τb}·P̄_t3 up to
	// discount factors ≤ e^{|µ|τ}, so cont < stop surely beyond a small
	// multiple of that bound.
	growth := math.Exp(2 * math.Max(m.params.Price.Mu-b.R, 0) * m.params.Chains.TauB)
	hi := 4*((1+b.Alpha)*pstar+growth*pbar+q+1) + 2*m.params.P0
	lo := 1e-7 * math.Min(m.params.P0, pstar)
	logDiff := func(u float64) float64 { return diff(math.Exp(u)) }
	logRoots, carried := mathx.FindRootsNear(logDiff, math.Log(lo), math.Log(hi), m.scanN, math.Log(below), math.Log(above), m.tol, prev.LogEdges(), 3)
	if carried {
		m.solve.carried.Add(1)
	}
	roots := make([]float64, len(logRoots))
	for i, u := range logRoots {
		roots[i] = math.Exp(u)
	}
	return mathx.FromSignChanges(diff, 0, hi, roots)
}

// ContRangeT2 returns the continuation range (P̲_t2, P̄_t2) of Eq. 24: B
// writes his HTLC at t2 only when the observed price lies inside it. ok is
// false when B never continues (for instance when αB is too small,
// §III.E.3). In the basic game the region is a single interval; its bounds
// are returned.
func (m *Model) ContRangeT2(pstar float64) (mathx.Interval, bool, error) {
	if err := checkRate(pstar); err != nil {
		return mathx.Interval{}, false, err
	}
	unit := m.unitRegion(0)
	if unit.Empty() {
		return mathx.Interval{Lo: 1, Hi: 0}, false, nil
	}
	b := unit.Bounds()
	return mathx.Interval{Lo: b.Lo * pstar, Hi: b.Hi * pstar}, true, nil
}

// ---- Stage t1 (Eqs. 25–28) ----

// t1BulkSigmas is the half-width, in standard deviations of log price, of
// the t1→t2 density's bulk, the part of it integrateT1 integrates.
const t1BulkSigmas = 8

// integrateT1 integrates g(log y) against the t1→t2 price density over
// iv by Gauss–Legendre quadrature, in place on the mapped nodes
// (IntegrateMapped reproduces Integrate bit for bit). The panel is iv
// clipped to the density's bulk, ±t1BulkSigmas σ around its log-mean: one
// panel over a region far wider than a narrow density misses it
// (σ√τa = 0.015 on u-evm-doge-011, whose collateral regions reach down
// to 0). The clip drops about 1e-15 of the density's mass, so an integral
// below that loses its relative precision (a region outside the bulk
// integrates to 0). Where the bulk covers iv, the panel is iv itself.
func (m *Model) integrateT1(iv mathx.Interval, g func(logy float64) float64) float64 {
	tr := m.transitionTauA(m.params.P0)
	w := t1BulkSigmas * tr.Sigma
	a, b := math.Max(iv.Lo, math.Exp(tr.Mu-w)), math.Min(iv.Hi, math.Exp(tr.Mu+w))
	if a >= b {
		return 0
	}
	// Stack-backed scratch for the default 64-point rule; larger orders
	// spill to the heap.
	var arr [64]float64
	buf := arr[:0]
	if n := m.gl.N(); n > len(arr) {
		buf = make([]float64, 0, n)
	}
	nodes := m.gl.MapNodes(buf, a, b)
	for i, y := range nodes {
		logy := math.Log(y)
		nodes[i] = tr.PDFAtLog(y, logy) * g(logy)
	}
	return m.gl.IntegrateMapped(nodes, a, b)
}

// aliceContT1 is U^A_t1(cont) (Eq. 25): the discounted expectation of A's
// t2 position over B's continuation region, plus her refund on the stop
// region. With collateral q it is U^A_t1,c(cont) of Eq. 36, where on B's
// stop region A also recovers both deposits (2Q at t3, received τa later).
func (m *Model) aliceContT1(pstar, q float64) float64 {
	return m.aliceContT1Over(m.unitRegion(q/pstar), pstar, q)
}

// aliceContT1Over is aliceContT1 over the t2 continuation region
// pstar·unit. Every t1 integral takes its region as a unit-rate region and
// scales the endpoints inline, so a memoized region is iterated without a
// scaled copy.
func (m *Model) aliceContT1Over(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	tr := m.transitionTauA(m.params.P0)
	var contPart, prob float64
	for _, u := range unit.Intervals() {
		iv := mathx.Interval{Lo: u.Lo * pstar, Hi: u.Hi * pstar}
		contPart += m.integrateT1(iv, e.aliceCont)
		prob += tr.CDF(iv.Hi) - tr.CDF(iv.Lo)
	}
	stopVal := m.aliceStopT2(pstar) + 2*q*m.k.collStopA
	return m.k.discATauA * (contPart + (1-prob)*stopVal)
}

// bobContT1 is U^B_t1(cont) (Eq. 26, with the upper stop region restored —
// see DESIGN.md deviation 1): B's expected t2 position whether or not he
// ends up continuing. With collateral q it is U^B_t1,c(cont) of Eq. 37
// (discounted at rB; see DESIGN.md deviation 3).
func (m *Model) bobContT1(pstar, q float64) float64 {
	return m.bobContT1Over(m.unitRegion(q/pstar), pstar, q)
}

// bobContT1Over is bobContT1 over the t2 continuation region pstar·unit.
func (m *Model) bobContT1Over(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	tr := m.transitionTauA(m.params.P0)
	var contPart, peInside float64
	for _, u := range unit.Intervals() {
		iv := mathx.Interval{Lo: u.Lo * pstar, Hi: u.Hi * pstar}
		contPart += m.integrateT1(iv, e.bobCont)
		peInside += tr.PartialExpectationBelow(iv.Hi) - tr.PartialExpectationBelow(iv.Lo)
	}
	// On the stop region B's utility is the price itself (Eq. 23), so the
	// stop contribution is the complementary partial expectation.
	stopPart := tr.Mean() - peInside
	return m.k.discBTauA * (contPart + stopPart)
}

// AliceUtilityT1 evaluates U^A_t1 (Eqs. 25 and 27).
func (m *Model) AliceUtilityT1(action Action, pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.aliceContT1(pstar, 0), nil
	case Stop:
		return pstar, nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// BobUtilityT1 evaluates U^B_t1 (Eqs. 26 and 28).
func (m *Model) BobUtilityT1(action Action, pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	switch action {
	case Cont:
		return m.bobContT1(pstar, 0), nil
	case Stop:
		return m.params.P0, nil
	default:
		return 0, fmt.Errorf("%w: action %v", ErrBadParam, action)
	}
}

// rateScanBound returns the upper end of the exchange-rate scan: beyond it
// A's cont utility (bounded by the discounted, premium-weighted expected
// token value) cannot reach P*.
func (m *Model) rateScanBound() float64 {
	a, c, pr := m.params.Alice, m.params.Chains, m.params.Price
	horizon := c.TauA + 2*c.TauB + c.EpsB + 2*c.TauA
	return 5*(1+a.Alpha)*m.params.P0*math.Exp(math.Max(pr.Mu, 0)*horizon) + 2
}

// t1Probe evaluates the basic game's t1 integrals — U^A_t1(cont) of Eq. 25
// and SR of Eq. 31 — at many exchange rates from one unit-rate node table.
// It is the kernel behind the several hundred interior probes of the
// feasibility scan and the optimum search.
//
// With q = 0, substitute y = P*·u. B's region at rate P* is P*·U for the
// unit-rate region U = S(0) (unitRegion); U^A_t2(cont) is 1-homogeneous in
// (P*, y) and the t3 success probability is 0-homogeneous; and
// P*·pdf_{P0}(P*·u) = pdf_{P0/P*}(u) for the lognormal t1→t2 transition.
// Both integrals over P*·U therefore become integrals over U whose
// integrand values at U's Gauss–Legendre nodes do not depend on P*: a
// probe only reweights them by the transition density, one exp per node
// (plus two CDF calls per interval for A's stop probability), where an
// exact evaluation pays a log, an exp and two erfc per node.
//
// Probe values equal one Gauss–Legendre panel per interval of P*·U to
// rounding (≤1e-12 relative), but not bit for bit, so they are never
// memoized or served to an exact query. That is the exact per-rate path
// except where integrateT1 clips an interval to a narrow density's bulk,
// which the table cannot follow: the bulk moves with P* in the unit
// coordinate. A table lives for one scan: it is built inside
// the FeasibleRateRange memo closure or one OptimalRate call and dropped
// with it, so a Model retains only the scans' results.
type t1Probe struct {
	m   *Model
	ivs []mathx.Interval // U's intervals, for the stop probability
	muA float64          // log P0 + drift over τa: the transition's log-mean at P* = 1
	// One entry per quadrature node u_i of U, interval by interval.
	logU  []float64 // log u_i
	coef  []float64 // w_i·half/(u_i·σA·√(2π)): mapped weight times density prefactor
	alice []float64 // U^A_t2(cont)(u_i) at P* = 1
	succ  []float64 // P[P_t3 > P̄_t3 | P_t2 = u_i] at P* = 1
}

// newT1Probe builds the unit-rate node table over S(0).
func (m *Model) newT1Probe() *t1Probe {
	ivs := m.unitRegion(0).Intervals()
	n := m.gl.N() * len(ivs)
	buf := make([]float64, 4*n)
	p := &t1Probe{
		m:     m,
		ivs:   ivs,
		muA:   math.Log(m.params.P0) + m.k.driftTauA,
		logU:  buf[:0:n],
		coef:  buf[n : n : 2*n],
		alice: buf[2*n : 2*n : 3*n],
		succ:  buf[3*n : 3*n],
	}
	e := m.newT2Eval(1, 0)
	// logU holds the mapped nodes u_i until the loop below takes their logs.
	for _, iv := range ivs {
		p.logU = m.gl.MapNodes(p.logU, iv.Lo, iv.Hi)
		p.coef = m.gl.MapWeights(p.coef, iv.Lo, iv.Hi)
	}
	for i, u := range p.logU {
		logu := math.Log(u)
		p.logU[i] = logu
		p.coef[i] /= math.Sqrt2 * math.SqrtPi * u * m.k.sigTauA
		p.alice = append(p.alice, e.aliceCont(logu))
		p.succ = append(p.succ, e.succ(logu))
	}
	return p
}

// integrate returns Σ coef_i·exp(−z_i²/2)·vals_i with z_i the node's score
// under the unit-coordinate transition law LogNormal(mu, σA): the t1
// integral, over U, of a unit-rate integrand tabulated in vals.
func (p *t1Probe) integrate(mu float64, vals []float64) float64 {
	sig := p.m.k.sigTauA
	var sum float64
	for i, logu := range p.logU {
		z := (logu - mu) / sig
		sum += p.coef[i] * math.Exp(-0.5*z*z) * vals[i]
	}
	return sum
}

// aliceContT1 is U^A_t1(cont) (Eq. 25) at rate pstar, from the table.
func (p *t1Probe) aliceContT1(pstar float64) float64 {
	m := p.m
	mu := p.muA - math.Log(pstar)
	contPart := pstar * p.integrate(mu, p.alice)
	tr := dist.LogNormal{Mu: mu, Sigma: m.k.sigTauA}
	var prob float64
	for _, iv := range p.ivs {
		prob += tr.CDF(iv.Hi) - tr.CDF(iv.Lo)
	}
	stopPart := (1 - prob) * m.aliceStopT2(pstar)
	return m.k.discATauA * (contPart + stopPart)
}

// successRate is SR(P*) (Eq. 31) at rate pstar, from the table; an empty
// region tabulates no nodes and yields 0, as the exact path does.
func (p *t1Probe) successRate(pstar float64) float64 {
	return mathx.Clamp(p.integrate(p.muA-math.Log(pstar), p.succ), 0, 1)
}

// FeasibleRateRange returns the exchange-rate range (P̲*, P̄*) of Eq. 30
// within which A initiates the swap at t1; with Table III parameters this is
// the paper's Eq. 29, approximately (1.5, 2.5). ok is false when no rate is
// viable (for instance under an exceedingly high discount rate, §III.F.2).
// The scan — several hundred t1 evaluations — is memoized on the Model.
// Each probe reweights one unit-rate node table (t1Probe), so the whole
// scan costs one unit-rate root scan plus one exp per node and probe; the
// boundary rates agree with a scan over the exact aliceContT1 to root
// tolerance.
func (m *Model) FeasibleRateRange() (mathx.Interval, bool, error) {
	set := m.solve.ranges.Do(rangeKind{kind: 'F'}, func() mathx.IntervalSet {
		probe := m.newT1Probe()
		diff := func(pstar float64) float64 { return probe.aliceContT1(pstar) - pstar }
		lo, hi := 1e-3, m.rateScanBound()
		roots := mathx.FindAllRoots(diff, lo, hi, m.scanN/2, m.tol)
		return mathx.FromSignChanges(diff, lo, hi, roots)
	})
	return set.Bounds(), !set.Empty(), nil
}

// SuccessRate evaluates SR(P*) of Eq. 31: the probability, at initiation,
// that B continues at t2 and A then continues at t3. It returns 0 when B's
// continuation region is empty. The rate is a conditional probability given
// initiation; whether A would rationally initiate is a separate check via
// FeasibleRateRange.
func (m *Model) SuccessRate(pstar float64) (float64, error) {
	if err := checkRate(pstar); err != nil {
		return 0, err
	}
	return m.successRate(pstar, 0), nil
}

func (m *Model) successRate(pstar, q float64) float64 {
	return m.solve.sr.Do(solveKey{pstar, q}, func() float64 {
		return m.successRateOver(m.unitRegion(q/pstar), pstar, q)
	})
}

// successRateOver integrates SR(P*) (Eq. 31) over the t2 continuation
// region pstar·unit (see aliceContT1Over); an empty region yields 0.
func (m *Model) successRateOver(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	var sr float64
	for _, u := range unit.Intervals() {
		sr += m.integrateT1(mathx.Interval{Lo: u.Lo * pstar, Hi: u.Hi * pstar}, e.succ)
	}
	return mathx.Clamp(sr, 0, 1)
}

// OptimalRate returns the exchange rate maximising SR(P*) over the feasible
// range (the concave optimum of §III.F), along with the achieved success
// rate. It returns ErrNotViable when no rate is feasible at t1. The
// feasible range is memoized on the Model; the search itself is one
// GridMax over a fresh t1Probe table and is not.
//
// The search runs on t1Probe evaluations; the reported SR is the exact
// SuccessRate at the returned rate. Compare results by that SR, not by the
// rate: where SR sits on a plateau at ≈1 the maximiser is set by rounding.
// Moving the probes from direct quadrature over the scaled unit region to
// the t1Probe table, a change at rounding level, moved the returned rate by
// more than 1e-4 on 7 of the 1536 cells of the atlas universe (at most
// 0.003) while the SR there stayed equal to 1e-14.
func (m *Model) OptimalRate() (pstar, sr float64, err error) {
	rng, ok, err := m.FeasibleRateRange()
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("%w: no feasible exchange rate at t1", ErrNotViable)
	}
	// Bracket the optimum with cheap probe evaluations, then report the
	// achieved SR from the exact memoized path so callers printing the
	// value see the same bits as a direct SuccessRate(arg) call.
	arg, _ := mathx.GridMax(m.newT1Probe().successRate, rng.Lo, rng.Hi, 64, 1e-9)
	return arg, m.successRate(arg, 0), nil
}

// Strategy summarises the subgame-perfect strategies for a given exchange
// rate, in the threshold form used by the protocol simulator:
// A initiates iff AliceInitiates; B continues at t2 iff P_t2 ∈ BobContT2;
// A reveals at t3 iff P_t3 > AliceCutoffT3; B always claims at t4.
type Strategy struct {
	// PStar is the agreed exchange rate the strategy was solved for.
	PStar float64
	// AliceInitiates reports whether cont is optimal for A at t1.
	AliceInitiates bool
	// BobContT2 is B's continuation region at t2.
	BobContT2 mathx.IntervalSet
	// AliceCutoffT3 is the cut-off price P̄_t3 of Eq. 18.
	AliceCutoffT3 float64
}

// Strategy solves the game at the given exchange rate and returns the
// subgame-perfect threshold strategies. With the solve memo, the t1 value
// and the continuation region are shared with any earlier solve at the
// same rate (ContRangeT2, SuccessRate, the feasibility scan).
func (m *Model) Strategy(pstar float64) (Strategy, error) {
	if err := checkRate(pstar); err != nil {
		return Strategy{}, err
	}
	return Strategy{
		PStar:          pstar,
		AliceInitiates: m.aliceContT1(pstar, 0) > pstar,
		BobContT2:      m.contSetT2(pstar, 0),
		AliceCutoffT3:  m.cutoffT3(pstar, 0),
	}, nil
}
