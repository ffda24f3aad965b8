package core

import (
	"fmt"
	"math"

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
// U^B_t2(cont) − y. Above: cont < y for every y > above (TailProb ≤ 1,
// PE_below ≤ P̄_t3, CDF ≤ 1). Below, with a deposit: cont > y for every
// y < below (every term is ≥ 0, the released deposit among them). Below,
// in the basic game: cont < y for every y < below, where basicBelow
// certifies it (DESIGN.md, "Settled windows"); without that certificate
// below is 0 and the scan starts at its floor. The factors ½ and 2 dwarf
// any rounding.
func (e *t2Eval) settled() (below, above float64) {
	k := &e.m.k
	above = 2 * k.discBTauB * (e.qDiscB + e.bobCont3 + k.growth2B*e.pbar + e.qBank)
	if e.q == 0 {
		return e.basicBelow(), above
	}
	return 0.5 * k.discBTauB * e.qDiscB, above
}

// basicBelow returns a t2 price below which U^B_t2(cont) − y < 0 in the
// basic game, or 0 when it cannot certify one. With PE_below ≤ y·e^{µτb},
// the difference is at most D_B·bobCont3·P[P_t3 > P̄_t3 | y] − γ·y, where
// γ = 1 − e^{3(µ−rB)τb}. While the tail's score is ≤ 0 and its sd
// σ√τb < millsBound, tail/y rises in y, so the bound is negative below
// the largest such y at which it is at most −γ·y/2.
func (e *t2Eval) basicBelow() float64 {
	m := e.m
	gamma := -math.Expm1(3 * (m.params.Price.Mu - m.params.Bob.R) * m.params.Chains.TauB)
	sig := m.k.sigTauB
	if gamma < settledMinGap || sig >= millsBound {
		return 0
	}
	tail := m.k.discBTauB * e.bobCont3
	logZero := e.logPbar - m.k.driftTauB // where the tail's score is 0
	certified := func(logy float64) bool {
		tr := m.transitionTauBAtLog(logy)
		return tail*tr.TailProbAtLog(e.pbar, e.logPbar) <= 0.5*gamma*math.Exp(logy)
	}
	logy, ok := settledEdge(logZero-40*sig, logZero, certified)
	if !ok {
		return 0
	}
	return math.Exp(logy)
}

// millsBound is φ(0)/Φ(0) = √(2/π), the least inverse Mills ratio
// φ(z)/Φ(z) over z ≤ 0 (the ratio falls as z grows). For a score
// z(x) = (log x − µ)/s with s < millsBound, Φ(z(x))/x therefore rises in
// x wherever z(x) ≤ 0: its derivative has the sign of φ(z)/s − Φ(z).
const millsBound = 0.7978845608028654

// settledMinGap is the least slack, γ or 1 − c (DESIGN.md, "Settled
// windows"), a settled window is certified from: below it the margin of
// half the slack no longer dwarfs rounding, and the scan is not windowed.
const settledMinGap = 1e-6

// settledEdge bisects [from, to] for the edge of a certified range, where
// certified holds from from up to some point and fails beyond it, toward
// to. It returns the last point found certified, to itself if certified
// holds there, and false if it fails at from.
func settledEdge(from, to float64, certified func(float64) bool) (float64, bool) {
	if !certified(from) {
		return from, false
	}
	if certified(to) {
		return to, true
	}
	for range 32 {
		if mid := 0.5 * (from + to); certified(mid) {
			from = mid
		} else {
			to = mid
		}
	}
	return from, true
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
// the κ = 0 entry, which the feasibility scan and the optimum search read.
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
	return m.t2RegionScan(pstar, q, e.pbar, below, above, e.bobCont, &m.solve.work, prev)
}

// t2RegionScan returns {y : bobCont(log y) > y}, B's t2 continuation
// region for a cont utility bobCont at rate pstar, collateral q and t3
// cut-off pbar. It brackets the region by B's parameters and scans in
// log-price space, matching the lognormal geometry of the transition law,
// with the near-touch refinement of mathx.FindRootsNear's scan: a region
// narrower than one of the m.scanN panels is still found.
//
// The scan starts at a floor above 0, but a region that contains the floor
// is reported from 0, its true lower edge, which also keeps P*·S(Q/P*)
// equal to the direct scan where the floor does not scale. As y → 0 the
// cont utility tends to Q·e^{−rB·τb}(e^{−rB·τa} + e^{−rB(εb+τa)}) > 0 while
// the stop utility y vanishes, and with Q = 0 both are linear in y, so the
// sign at the floor holds down to 0. Only the nodes between the settled
// bounds below and above are scanned, or prev's roots carried when it has
// the three Fig. 7 allows (mathx.FindRootsNear); work counts diff calls.
func (m *Model) t2RegionScan(pstar, q, pbar, below, above float64, bobCont func(logy float64) float64, work *scanWork, prev mathx.IntervalSet) mathx.IntervalSet {
	var n uint64
	defer func() { work.addScan(n) }()
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

// t1Joint is the bivariate normal law, seen from t1, of X = log P_t2 and
// Y = log P_t3 at one (P*, Q), with ρ = √(τa/(τa+τb)). A t2 utility's
// integral over a t2 interval is a sum of its rectangle probabilities
// P[X ∈ (a, b], Y ≷ log P̄_t3], a partial expectation E[e^Y; ·] being
// E[e^Y] times one under the e^Y-weighted law (DESIGN.md, "The t1
// integrals in closed form").
type t1Joint struct {
	k      *consts
	muX    float64 // E[X]
	cut    float64 // (log P̄_t3 − E[Y])/sd(Y); −∞ when P̄_t3 = 0
	meanT3 float64 // E[P_t3] = E[e^Y]
}

// t1TailScore is the standard score beyond which mass treats a limit as
// infinite: the tail it drops, Φ(−9) = 1.1e-19, is under the t1
// integrals' tolerance, and over the atlas universe a third of the
// feasibility scans' rectangles lie wholly beyond it.
const t1TailScore = 9

// newT1Joint returns the t1 law at e's rate and cut-off.
func (m *Model) newT1Joint(e *t2Eval) t1Joint {
	muX := math.Log(m.params.P0) + m.k.driftTauA
	muY, sd := muX+m.k.driftTauB, m.k.sigT3
	return t1Joint{k: &m.k, muX: muX, cut: (e.logPbar - muY) / sd, meanT3: math.Exp(muY + sd*sd/2)}
}

// scores returns the standard scores of X at the t2 prices lo and hi.
func (j *t1Joint) scores(lo, hi float64) (a, b float64) {
	sig := j.k.sigTauA
	return (math.Log(lo) - j.muX) / sig, (math.Log(hi) - j.muX) / sig
}

// mass returns P[X ∈ (a, b], Y > cut] when up, else with Y ≤ cut, for X's
// scores a < b; tilted evaluates it under the e^Y-weighted law, where the
// scores fall by sd(X) and sd(Y).
func (j *t1Joint) mass(a, b float64, up, tilted bool) float64 {
	k := j.cut
	if tilted {
		a, b, k = a-j.k.sigTauA, b-j.k.sigTauA, k-j.k.sigT3
	}
	law := j.k.bvn
	if up { // Y > k is −Y < −k, and (X, −Y) has correlation −ρ
		law, k = law.Neg(), -k
	}
	for _, x := range [...]*float64{&a, &b, &k} {
		if math.Abs(*x) > t1TailScore {
			*x = math.Inf(int(math.Copysign(1, *x)))
		}
	}
	if a == b || math.IsInf(k, -1) {
		return 0
	}
	return law.Rect(a, b, k)
}

// aliceContT1 is U^A_t1(cont) (Eq. 25): the discounted expectation of A's
// t2 position over B's continuation region, plus her refund on the stop
// region. With collateral q it is U^A_t1,c(cont) of Eq. 36, where on B's
// stop region A also recovers both deposits (2Q at t3, received τa later).
func (m *Model) aliceContT1(pstar, q float64) float64 {
	return m.aliceContT1Over(m.unitRegion(q/pstar), pstar, q)
}

// aliceContT1Over is aliceContT1 over the t2 continuation region
// pstar·unit, a sum of t1Joint masses. Every t1 integral takes its region
// as a unit-rate region and scales the endpoints inline, so a memoized
// region is iterated without a scaled copy.
func (m *Model) aliceContT1Over(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	j := m.newT1Joint(&e)
	tr := m.transitionTauA(m.params.P0)
	var contPart, prob float64
	for u := range unit.All() {
		lo, hi := u.Lo*pstar, u.Hi*pstar
		a, b := j.scores(lo, hi)
		contPart += e.contCoefA*j.meanT3*j.mass(a, b, true, true) + e.aliceStop3*j.mass(a, b, false, false)
		if q != 0 { // the deposit term vanishes in the basic game
			contPart += e.qReturn * j.mass(a, b, true, false)
		}
		prob += tr.CDF(hi) - tr.CDF(lo)
	}
	stopVal := m.aliceStopT2(pstar) + 2*q*m.k.collStopA
	return m.k.discATauA * (m.k.discATauB*contPart + (1-prob)*stopVal)
}

// bobContT1 is U^B_t1(cont) (Eq. 26, with the upper stop region restored —
// see DESIGN.md deviation 1): B's expected t2 position whether or not he
// ends up continuing. With collateral q it is U^B_t1,c(cont) of Eq. 37
// (discounted at rB; see DESIGN.md deviation 3).
func (m *Model) bobContT1(pstar, q float64) float64 {
	return m.bobContT1Over(m.unitRegion(q/pstar), pstar, q)
}

// bobContT1Over is bobContT1 over the t2 continuation region pstar·unit,
// a sum of t1Joint masses.
func (m *Model) bobContT1Over(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	j := m.newT1Joint(&e)
	tr := m.transitionTauA(m.params.P0)
	var contPart, peInside float64
	for u := range unit.All() {
		lo, hi := u.Lo*pstar, u.Hi*pstar
		a, b := j.scores(lo, hi)
		contPart += e.bobCont3*j.mass(a, b, true, false) + m.k.growth2B*j.meanT3*j.mass(a, b, false, true)
		if q != 0 { // the deposit terms vanish in the basic game
			contPart += e.qDiscB*(tr.CDF(hi)-tr.CDF(lo)) + e.qBank*j.mass(a, b, false, false)
		}
		peInside += tr.PartialExpectationBelow(hi) - tr.PartialExpectationBelow(lo)
	}
	// On the stop region B's utility is the price itself (Eq. 23), so the
	// stop contribution is the complementary partial expectation.
	stopPart := tr.Mean() - peInside
	return m.k.discBTauA * (m.k.discBTauB*contPart + stopPart)
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

// FeasibleRateRange returns the exchange-rate range (P̲*, P̄*) of Eq. 30
// within which A initiates the swap at t1; with Table III parameters this is
// the paper's Eq. 29, approximately (1.5, 2.5). ok is false when no rate is
// viable (for instance under an exceedingly high discount rate, §III.F.2).
// The scan evaluates U^A_t1(cont) − P* in closed form over the one
// unit-rate region S(0), only at the nodes of its grid between the rates
// settledRates certifies negative beyond, and is memoized on the Model.
// Its roots are those of the full grid bit for bit; on Table III it takes
// 80 evaluations, Brent's included, where the full grid takes 317.
func (m *Model) FeasibleRateRange() (mathx.Interval, bool, error) {
	set := m.solve.ranges.Do(rangeKind{kind: 'F'}, func() mathx.IntervalSet {
		unit := m.unitRegion(0)
		var n uint64
		defer func() { m.solve.work.addRate(n) }()
		diff := func(pstar float64) float64 { n++; return m.aliceContT1Over(unit, pstar, 0) - pstar }
		lo, hi := 1e-3, m.rateScanBound()
		var roots []float64
		if below, above := m.settledRates(unit, lo, hi); below < above {
			roots = mathx.FindRootsWithin(diff, lo, hi, m.scanN/2, below, above, m.tol)
		}
		return mathx.FromSignChanges(diff, lo, hi, roots)
	})
	return set.Bounds(), !set.Empty(), nil
}

// settledRates returns rates on the scan range [lo, hi] outside which
// U^A_t1(cont) − P* < 0 is certified: at every P* ≤ below and every
// P* ≥ above (below = lo and above = hi certify nothing; below ≥ above
// certifies every rate). A's cont utility is at most K·P̃[X ∈ P*·S(0)] +
// c·P*, where X = log P_t2, P̃ is the e^Y-weighted t1 law of t1Joint's
// tilted masses, K = e^{−rA(τa+τb)}·contCoefA·E[P_t3], and c =
// e^{−rA(3τa+τb+εb)} bounds the discount of both refund terms, whose
// probabilities sum to at most 1. Over the hull (s, t] of S(0), P̃[X >
// P*·s] falls as P* grows, and P̃[X ≤ P*·t]/P* rises while its score is ≤ 0
// if sd(X) < millsBound, so each side's edge is one bisection for where
// the bound reaches −(1−c)·P*/2 (DESIGN.md, "Settled windows").
func (m *Model) settledRates(unit mathx.IntervalSet, lo, hi float64) (below, above float64) {
	k := &m.k
	c := math.Max(k.discATauA*k.discATauB*k.refundT3, k.discATauA*k.stopT2A)
	if 1-c < settledMinGap {
		return lo, hi
	}
	if unit.Empty() { // U^A_t1(cont) is c·P*
		return hi, lo
	}
	e := m.newT2Eval(1, 0)
	j := m.newT1Joint(&e)
	scale := k.discATauA * k.discATauB * e.contCoefA * j.meanT3
	slack := 0.5 * (1 - c)
	sig := k.sigTauA
	tilted := dist.LogNormal{Mu: j.muX + sig*sig, Sigma: sig}
	hull := unit.Bounds()
	ulo, uhi := math.Log(lo), math.Log(hi)
	below, above = lo, hi
	if u, ok := settledEdge(uhi, ulo, func(u float64) bool {
		p := math.Exp(u)
		return scale*tilted.TailProb(p*hull.Lo) <= slack*p
	}); ok {
		above = math.Exp(u)
	}
	if zero := tilted.Mu - math.Log(hull.Hi); sig < millsBound && zero > ulo {
		if u, ok := settledEdge(ulo, math.Min(zero, uhi), func(u float64) bool {
			p := math.Exp(u)
			return scale*tilted.CDF(p*hull.Hi) <= slack*p
		}); ok {
			below = math.Exp(u)
		}
	}
	return below, above
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

// successRateOver is SR(P*) (Eq. 31) over the t2 continuation region
// pstar·unit (see aliceContT1Over): P[P_t2 in the region, P_t3 > P̄_t3].
func (m *Model) successRateOver(unit mathx.IntervalSet, pstar, q float64) float64 {
	e := m.newT2Eval(pstar, q)
	j := m.newT1Joint(&e)
	var sr float64
	for u := range unit.All() {
		a, b := j.scores(u.Lo*pstar, u.Hi*pstar)
		sr += j.mass(a, b, true, false)
	}
	return mathx.Clamp(sr, 0, 1)
}

// OptimalRate returns the exchange rate maximising SR(P*) over the feasible
// range (the concave optimum of §III.F), along with the achieved success
// rate. It returns ErrNotViable when no rate is feasible at t1. The
// feasible range is memoized on the Model; the search itself is one
// GridMax over successRateOver and is not, and the SR at the returned
// rate is memoized as SuccessRate's.
//
// Compare results by that SR, not by the rate: where SR sits on a plateau
// at ≈1 the maximiser is set by rounding (DESIGN.md, "Plateau caveat").
func (m *Model) OptimalRate() (pstar, sr float64, err error) {
	rng, ok, err := m.FeasibleRateRange()
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("%w: no feasible exchange rate at t1", ErrNotViable)
	}
	unit := m.unitRegion(0)
	arg, _ := mathx.GridMax(func(p float64) float64 { return m.successRateOver(unit, p, 0) }, rng.Lo, rng.Hi, 64, 1e-9)
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
