package lp

import (
	"math"
	"time"
)

// Variable status codes for the bounded-variable simplex.
const (
	statBasic int8 = iota
	statLower      // nonbasic at lower bound
	statUpper      // nonbasic at upper bound
	statFree       // nonbasic free variable, held at zero
)

type simplex struct {
	std  *standardized
	opts Options

	// Scaling factors when opts.Scale is set (nil otherwise); solutions are
	// unscaled in extract.
	rowScale, colScale []float64

	m, ncols int
	phase    int // 1 or 2

	// Per-column state; artificial columns live at indices ncols..ncols+m-1.
	status []int8
	x      []float64

	// cost is the objective being minimized in the current phase.
	cost []float64

	// Basis: basis[i] is the column occupying row position i.
	basis []int

	// bas maintains the basis factorization (dense inverse or sparse LU,
	// per backend). fellBack records a mid-solve SparseLU→Dense switch.
	bas      basisFactor
	backend  SolverBackend
	fellBack bool

	// artStart is the first artificial column index; artSign[i] is the
	// coefficient (±1) of the artificial for row i.
	artStart int
	artSign  []float64

	// Scratch buffers.
	y, w, rhs []float64

	// Devex reference weights (nil unless opts.Devex); devexRow is the
	// btranUnit scratch for the pivot row, allocated on first use.
	devexW   []float64
	devexRow []float64

	// Dual devex reference weights over basis positions (nil until the
	// dual phase first runs); see initWarmDual.
	dualW []float64

	// Harris dual ratio test scratch: eligible entering candidates stashed
	// by the relaxed pass so the exact pass need not recompute pivot rows.
	dualCandJ []int32
	dualCandA []float64
	dualCandD []float64

	iters          int
	dualPivots     int
	refactors      int // reinvert() calls, booked to metrics at solve end
	ftUpdates      int // Forrest–Tomlin updates absorbed in place
	ftRejects      int // FT updates rejected as unstable (answered by refactor)
	driftRefactors int // refactors triggered by measured ftran residual drift
	fillRefactors  int // refactors triggered by U fill growth
	sinceReinvert  int
	degenerateRun  int
	blandMode      bool
	numericTrouble bool
	warmStarted    bool

	// dualRho is the btranUnit scratch of the dual simplex pivot row,
	// allocated on first use.
	dualRho []float64
}

func newSimplex(p *Problem, opts Options) *simplex {
	sp := opts.Obs.Span("lp.standardize")
	std := p.standardize()
	sp.End()
	return newSimplexStd(std, opts)
}

// newSimplexStd builds a solver over an already-standardized model; Model
// re-solves hand their incrementally-maintained form here, skipping the
// per-solve standardize pass.
func newSimplexStd(std *standardized, opts Options) *simplex {
	s := &simplex{
		std:   std,
		m:     std.m,
		ncols: std.ncols,
	}
	s.opts = opts.withDefaults(std.m, std.ncols)
	s.backend = s.opts.Backend.resolve()
	if s.opts.Scale {
		s.rowScale, s.colScale = applyScaling(std)
	}
	return s
}

// lbOf and ubOf extend the bound arrays over artificial columns: [0, +Inf)
// during phase 1, pinned to [0, 0] during phase 2.
func (s *simplex) lbOf(j int) float64 {
	if j >= s.artStart {
		return 0
	}
	return s.std.lb[j]
}

func (s *simplex) ubOf(j int) float64 {
	if j >= s.artStart {
		if s.phase == 1 {
			return math.Inf(1)
		}
		return 0
	}
	return s.std.ub[j]
}

// solve runs the full solve and, when an Observer is attached, wraps it in
// an "lp.solve" span and books the solve-level metrics. All algorithmic
// work lives in solveInner.
func (s *simplex) solve() *Solution {
	o := s.opts.Obs
	if o == nil {
		return s.solveInner()
	}
	sp := o.Span("lp.solve").Arg("m", s.m).Arg("n", s.std.n)
	start := time.Now()
	sol := s.solveInner()
	sp.Arg("status", sol.Status.String()).
		Arg("iters", sol.Iterations).
		Arg("warm", sol.WarmStarted).
		End()
	s.bookSolve(o, sol, time.Since(start))
	return sol
}

func (s *simplex) solveInner() *Solution {
	if s.m == 0 {
		return s.solveUnconstrained()
	}
	if s.opts.warmBasis != nil && s.opts.dual {
		sp := s.opts.Obs.Span("lp.dual")
		if s.initWarmDual(s.opts.warmBasis) {
			if st := s.dualIterate(); st == Optimal {
				s.warmStarted = true
				s.dualPivots = s.iters
			} else {
				// Any dual failure — apparent infeasibility included, since
				// the stale start makes it untrustworthy — falls back to the
				// primal warm path below with a clean slate, so Dual never
				// changes the solve outcome.
				s.resetStart()
			}
		} else {
			s.resetStart()
		}
		sp.Arg("accepted", s.warmStarted).End()
		if !s.warmStarted {
			s.opts.Obs.Instant("lp.dual-reject", nil)
		}
	}
	if !s.warmStarted && s.opts.warmBasis != nil {
		sp := s.opts.Obs.Span("lp.warm-repair")
		s.warmStarted = s.initWarm(s.opts.warmBasis)
		sp.Arg("accepted", s.warmStarted).End()
		if !s.warmStarted {
			// The cold fallback must behave exactly as if no warm basis had
			// been supplied: give it back the full iteration budget and a
			// clean trouble flag.
			s.opts.Obs.Instant("lp.cold-fallback", nil)
			s.resetStart()
		}
	}
	for {
		if !s.warmStarted {
			if st := s.runPhase1(); st != Optimal {
				return s.failure(st)
			}
		}

		// Phase 2: real costs; artificials are pinned to [0,0] by ubOf.
		s.phase = 2
		for j := s.artStart; j < s.artStart+s.m; j++ {
			s.cost[j] = 0
			if s.status[j] != statBasic {
				s.status[j] = statLower
				s.x[j] = 0
			}
		}
		copy(s.cost, s.std.c)
		s.degenerateRun = 0
		s.blandMode = s.opts.BlandOnly

		sp := s.opts.Obs.Span("lp.phase2")
		st := s.iterate()
		if st == Optimal && !s.solutionFinite() {
			st = Numerical // NaN/Inf iterate: optimality tests passed vacuously
		}
		sp.Arg("status", st.String()).End()
		if st != Optimal {
			if s.warmStarted && st == Numerical {
				// A stale warm basis drove the iteration into numerical
				// breakdown; retry once from the cold all-artificial start,
				// exactly as if no snapshot had been supplied.
				s.opts.Obs.Instant("lp.cold-fallback", nil)
				s.resetStart()
				continue
			}
			return s.failure(st)
		}
		return s.extract()
	}
}

// runPhase1 builds the all-artificial start and drives the phase-1
// objective to zero, reporting Optimal when a feasible basis is in hand.
func (s *simplex) runPhase1() Status {
	sp := s.opts.Obs.Span("lp.phase1")
	defer sp.End()
	s.initPhase1()
	if s.initialFeasible() {
		return Optimal
	}
	if st := s.iterate(); st == IterLimit || st == Numerical {
		return st
	}
	if s.phase1Objective() > 1e2*tolFeas*float64(1+s.m) {
		return Infeasible
	}
	return Optimal
}

// solutionFinite reports whether every structural and slack value is finite.
// A near-singular basis can inject NaN/Inf into s.x mid-iteration, after
// which bound and reduced-cost comparisons pass vacuously and iterate()
// reports a bogus Optimal.
func (s *simplex) solutionFinite() bool {
	for j := 0; j < s.ncols; j++ {
		if math.IsNaN(s.x[j]) || math.IsInf(s.x[j], 0) {
			return false
		}
	}
	return true
}

// resetStart returns the solver to a pristine pre-start state after a
// rejected or failed warm/dual start, so the next start strategy behaves
// exactly as if it had been the first: full iteration budget, clean
// numerical-trouble flag, no dual pivots booked, and pricing weights back
// at the reference framework — weights drifted during a failed start refer
// to a basis the next strategy will not install, so carrying them over
// would silently mis-rank its first pivots.
func (s *simplex) resetStart() {
	s.iters = 0
	s.dualPivots = 0
	s.numericTrouble = false
	s.warmStarted = false
	s.degenerateRun = 0
	s.blandMode = s.opts.BlandOnly
	if s.devexW != nil {
		s.resetDevex()
	}
	if s.dualW != nil {
		s.resetDualDevex()
	}
}

// solveUnconstrained handles models with no constraints: each variable moves
// independently to its best bound.
func (s *simplex) solveUnconstrained() *Solution {
	n := s.std.n
	sol := &Solution{
		Status:      Optimal,
		X:           make([]float64, n),
		ReducedCost: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		c := s.std.c[j]
		lb, ub := s.std.lb[j], s.std.ub[j]
		switch {
		case c > 0:
			if math.IsInf(lb, -1) {
				sol.Status = Unbounded
				return sol
			}
			sol.X[j] = lb
		case c < 0:
			if math.IsInf(ub, 1) {
				sol.Status = Unbounded
				return sol
			}
			sol.X[j] = ub
		default:
			switch {
			case lb > 0:
				sol.X[j] = lb
			case ub < 0:
				sol.X[j] = ub
			}
		}
		sol.Objective += s.std.c[j] * sol.X[j] * s.std.objSign
		sol.ReducedCost[j] = s.std.c[j] * s.std.objSign
	}
	return sol
}

// initPhase1 builds the all-artificial starting basis.
func (s *simplex) initPhase1() {
	std := s.std
	m := s.m
	s.phase = 1

	// Nonbasic placement for every real column: nearest finite bound, or
	// free at zero.
	s.status = make([]int8, s.ncols+m)
	s.x = make([]float64, s.ncols+m)
	for j := 0; j < s.ncols; j++ {
		lb, ub := std.lb[j], std.ub[j]
		switch {
		case !math.IsInf(lb, -1):
			s.status[j] = statLower
			s.x[j] = lb
		case !math.IsInf(ub, 1):
			s.status[j] = statUpper
			s.x[j] = ub
		default:
			s.status[j] = statFree
			s.x[j] = 0
		}
	}

	// Residual r = b - A·x_N decides each artificial's sign.
	r := make([]float64, m)
	copy(r, std.b)
	for j := 0; j < s.ncols; j++ {
		if s.x[j] == 0 {
			continue
		}
		ind, val := std.col(j)
		for t, i := range ind {
			r[i] -= val[t] * s.x[j]
		}
	}

	s.artStart = s.ncols
	s.basis = make([]int, m)
	s.cost = make([]float64, s.ncols+m)
	s.artSign = make([]float64, m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if r[i] < 0 {
			sign = -1.0
		}
		s.artSign[i] = sign
		a := s.artStart + i
		s.cost[a] = 1

		// Prefer the row's own slack as the starting basic variable when it
		// can absorb the residual; this usually eliminates phase 1 entirely.
		// Slack columns are diagonal (coefficient ±1 in their own row only),
		// so the starting basis stays diagonal either way. Note the residual
		// r was computed with the slack at its lower bound 0, so the slack's
		// prospective basic value is r_i / coef.
		sc := std.n + i
		coef := std.values[std.colPtr[sc]] // slack columns have exactly one entry
		want := r[i] / coef
		if want >= std.lb[sc]-1e-12 && want <= std.ub[sc]+1e-12 {
			s.basis[i] = sc
			s.status[sc] = statBasic
			s.x[sc] = want
			// Artificial stays nonbasic at zero.
			s.status[a] = statLower
			s.x[a] = 0
			continue
		}
		s.basis[i] = a
		s.status[a] = statBasic
		s.x[a] = math.Abs(r[i])
	}
	s.y = make([]float64, m)
	s.w = make([]float64, m)
	s.rhs = make([]float64, m)
	if s.opts.Devex {
		s.initDevex()
	}
	// The starting basis is diagonal (slacks and artificials only), so the
	// initial factorization cannot fail.
	if s.backend == Dense {
		s.bas = newDenseFactor(s)
	} else {
		s.bas = newLUFactor(s)
	}
	sp := s.opts.Obs.Span("lp.factor")
	s.bas.refactor()
	sp.End()
}

// initDevex (re)establishes the primal reference framework for a fresh
// start. Every basis-install path goes through here so weights from an
// earlier (possibly different) basis never leak into a new start.
func (s *simplex) initDevex() {
	if len(s.devexW) != s.ncols {
		s.devexW = make([]float64, s.ncols)
	}
	s.resetDevex()
}

// resetDevex restores the reference framework (all weights 1), done at
// start and whenever the weights have drifted too far to be trustworthy.
func (s *simplex) resetDevex() {
	for j := range s.devexW {
		s.devexW[j] = 1
	}
}

// resetDualDevex restores the dual reference framework (all row weights 1).
func (s *simplex) resetDualDevex() {
	for i := range s.dualW {
		s.dualW[i] = 1
	}
}

// initialFeasible reports whether the initial point already satisfies all
// constraints, in which case phase 1 is skipped.
func (s *simplex) initialFeasible() bool {
	for i := 0; i < s.m; i++ {
		if s.x[s.artStart+i] > tolFeas {
			return false
		}
	}
	return true
}

func (s *simplex) phase1Objective() float64 {
	sum := 0.0
	for i := 0; i < s.m; i++ {
		sum += math.Abs(s.x[s.artStart+i])
	}
	return sum
}

// iterate runs simplex pivots until the current-phase objective is optimal.
func (s *simplex) iterate() Status {
	for {
		if s.iters >= s.opts.MaxIters {
			return IterLimit
		}
		s.btran()
		q, dq := s.price()
		if q < 0 {
			return Optimal
		}
		s.ftran(q)

		sigma := 1.0 // direction of movement of x[q]
		switch s.status[q] {
		case statUpper:
			sigma = -1
		case statFree:
			if dq > 0 {
				sigma = -1
			}
		}

		leave, tmax, flip := s.ratioTest(q, sigma)
		if leave < 0 && !flip {
			if s.phase == 1 {
				// Phase-1 objective is bounded below by 0; an unbounded ray
				// means numerical trouble.
				if s.tryRecover() {
					continue
				}
				return Numerical
			}
			return Unbounded
		}

		if tmax < tolFeas {
			s.degenerateRun++
			if s.degenerateRun > 2*s.m+20 {
				s.blandMode = true
			}
		} else {
			s.degenerateRun = 0
			if !s.opts.BlandOnly {
				s.blandMode = false
			}
		}

		s.applyStep(q, sigma, tmax)
		if flip {
			// Bound flip: q jumps to its opposite bound, basis unchanged.
			if s.status[q] == statLower {
				s.status[q] = statUpper
				s.x[q] = s.std.ub[q]
			} else {
				s.status[q] = statLower
				s.x[q] = s.std.lb[q]
			}
		} else {
			if s.devexW != nil {
				s.updateDevex(leave, q, s.w[leave])
			}
			if !s.pivot(leave, q) {
				// The factorization refused the pivot as unstable; rebuild
				// from the (already updated) basis instead.
				if !s.reinvert() {
					return Numerical
				}
			}
		}
		s.iters++
		s.sinceReinvert++
		if s.sinceReinvert >= s.opts.ReinvertEvery || s.bas.wantRefactor() {
			if !s.reinvert() {
				return Numerical
			}
		}
	}
}

// tryRecover reinverts once on numerical trouble; returns true if the caller
// should retry the iteration.
func (s *simplex) tryRecover() bool {
	if s.numericTrouble {
		return false
	}
	s.numericTrouble = true
	return s.reinvert()
}

// btran computes y = c_Bᵀ B⁻¹ into s.y.
func (s *simplex) btran() {
	s.bas.btranCost(s.y)
}

// reducedCost returns c_j - yᵀA_j using the current s.y.
func (s *simplex) reducedCost(j int) float64 {
	d := s.cost[j]
	if j >= s.artStart {
		k := j - s.artStart
		return d - s.y[k]*s.artSign[k]
	}
	ind, val := s.std.col(j)
	for t, i := range ind {
		d -= s.y[i] * val[t]
	}
	return d
}

// price selects the entering column, returning (-1, 0) at optimality. Only
// structural and slack columns are eligible; artificials never re-enter.
// Eligibility is always judged on the raw reduced cost against tolOpt;
// ranking among eligible columns uses Dantzig (largest violation) or, with
// opts.Devex, the devex score d²/w.
func (s *simplex) price() (int, float64) {
	best := -1
	bestScore := math.Inf(-1)
	var bestD float64
	for j := 0; j < s.ncols; j++ {
		st := s.status[j]
		if st == statBasic {
			continue
		}
		if s.std.lb[j] == s.std.ub[j] {
			continue // fixed variables can never improve
		}
		d := s.reducedCost(j)
		var viol float64
		switch st {
		case statLower:
			viol = -d
		case statUpper:
			viol = d
		case statFree:
			viol = math.Abs(d)
		}
		if viol <= tolOpt {
			continue
		}
		if s.blandMode {
			return j, d
		}
		score := viol
		if s.devexW != nil {
			score = viol * viol / s.devexW[j]
		}
		if score > bestScore {
			bestScore = score
			best = j
			bestD = d
		}
	}
	return best, bestD
}

// updateDevex refreshes the reference weights after a pivot in row `leave`
// with entering column q. alphaQ is the pivot element (w[leave]). The pivot
// row of the tableau, αⱼ = (e_r B⁻¹)·Aⱼ, is computed against the pre-pivot
// inverse, so this must run before the eta update.
func (s *simplex) updateDevex(leave, q int, alphaQ float64) {
	if alphaQ == 0 {
		return
	}
	if s.devexRow == nil {
		s.devexRow = make([]float64, s.m)
	}
	rowr := s.devexRow
	s.bas.btranUnit(leave, rowr)
	wq := s.devexW[q]
	inv2 := 1 / (alphaQ * alphaQ)
	maxW := 1.0
	for j := 0; j < s.ncols; j++ {
		if s.status[j] == statBasic || j == q {
			continue
		}
		var alpha float64
		ind, val := s.std.col(j)
		for t, i := range ind {
			alpha += rowr[i] * val[t]
		}
		if alpha == 0 {
			continue
		}
		cand := alpha * alpha * inv2 * wq
		if cand > s.devexW[j] {
			s.devexW[j] = cand
		}
		if s.devexW[j] > maxW {
			maxW = s.devexW[j]
		}
	}
	// The leaving variable becomes nonbasic with weight max(wq/αq², 1). An
	// artificial leaving in phase 1 never re-enters, so it carries none.
	out := wq * inv2
	if out < 1 {
		out = 1
	}
	if b := s.basis[leave]; b < s.ncols {
		s.devexW[b] = out
	}
	// Reset the framework when weights blow up (standard devex hygiene).
	if maxW > 1e8 {
		s.resetDevex()
	}
}

// ftran computes w = B⁻¹ A_q into s.w.
func (s *simplex) ftran(q int) {
	s.bas.ftranCol(q, s.w)
}

// ratioTest finds how far the entering variable q can move in direction
// sigma. It returns the leaving row position (or -1), the step length, and
// whether the step is a bound flip of q itself.
//
// The default is a Harris-style two-pass bounded test: pass 1 computes the
// largest step every basic variable tolerates with its bound relaxed by the
// feasibility tolerance; pass 2 picks, among the rows whose exact ratio
// fits under that relaxed step, the one with the largest pivot magnitude.
// Degenerate vertices thus cost a tiny (≤ tolFeas) bound excursion instead of
// a tiny pivot, which is where eta/FT update instability is born. Bland
// mode keeps the strict smallest-ratio test for its termination guarantee.
func (s *simplex) ratioTest(q int, sigma float64) (leave int, tmax float64, flip bool) {
	if s.blandMode {
		return s.ratioTestBland(q, sigma)
	}

	// Pass 1: relaxed step bound.
	thetaR := math.Inf(1)
	for i := 0; i < s.m; i++ {
		wi := s.w[i] * sigma
		if math.Abs(wi) <= tolPivot {
			continue
		}
		bcol := s.basis[i]
		xb := s.x[bcol]
		var t float64
		if wi > 0 {
			lb := s.lbOf(bcol)
			if math.IsInf(lb, -1) {
				continue
			}
			t = (xb - lb + tolFeas) / wi
		} else {
			ub := s.ubOf(bcol)
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - xb + tolFeas) / (-wi)
		}
		if t < 0 {
			t = 0
		}
		if t < thetaR {
			thetaR = t
		}
	}

	// A bound flip of q itself wins whenever its distance fits under the
	// relaxed bound — same basis, no factorization update.
	lbq, ubq := s.std.lb[q], s.std.ub[q]
	if !math.IsInf(lbq, -1) && !math.IsInf(ubq, 1) && ubq-lbq <= thetaR {
		return -1, ubq - lbq, true
	}
	if math.IsInf(thetaR, 1) {
		return -1, thetaR, false // unbounded ray
	}

	// Pass 2: largest pivot among rows whose exact ratio fits.
	leave = -1
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		wi := s.w[i] * sigma
		awi := math.Abs(wi)
		if awi <= tolPivot || awi <= bestPiv {
			continue
		}
		bcol := s.basis[i]
		xb := s.x[bcol]
		var t float64
		if wi > 0 {
			lb := s.lbOf(bcol)
			if math.IsInf(lb, -1) {
				continue
			}
			t = (xb - lb) / wi
		} else {
			ub := s.ubOf(bcol)
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - xb) / (-wi)
		}
		if t < 0 {
			t = 0
		}
		if t <= thetaR {
			bestPiv = awi
			leave = i
			tmax = t
		}
	}
	if leave < 0 {
		// The exact minimum ratio always fits under the relaxed bound, so
		// this is unreachable barring floating-point corner cases; the
		// strict test is a safe answer for those.
		return s.ratioTestBland(q, sigma)
	}
	return leave, tmax, false
}

// ratioTestBland is the strict one-pass test: smallest (tolerance-relaxed)
// ratio wins, with Bland's smallest-index tie-break under blandMode —
// the finite-termination anchor the Harris test falls back to.
func (s *simplex) ratioTestBland(q int, sigma float64) (leave int, tmax float64, flip bool) {
	tmax = math.Inf(1)
	leave = -1

	// Bound flip distance for q.
	lbq, ubq := s.std.lb[q], s.std.ub[q]
	if !math.IsInf(lbq, -1) && !math.IsInf(ubq, 1) {
		tmax = ubq - lbq
		flip = true
	}

	for i := 0; i < s.m; i++ {
		wi := s.w[i] * sigma
		if math.Abs(wi) <= tolPivot {
			continue
		}
		bcol := s.basis[i]
		xb := s.x[bcol]
		var t float64
		if wi > 0 {
			// Basic variable decreases toward its lower bound.
			lb := s.lbOf(bcol)
			if math.IsInf(lb, -1) {
				continue
			}
			t = (xb - lb + tolFeas) / wi
		} else {
			// Basic variable increases toward its upper bound.
			ub := s.ubOf(bcol)
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - xb + tolFeas) / (-wi)
		}
		if t < 0 {
			t = 0
		}
		if t < tmax {
			tmax = t
			leave = i
			flip = false
		} else if s.blandMode && leave >= 0 && !flip && t <= tmax+tolFeas && s.basis[i] < s.basis[leave] {
			// Bland tie-break: among (near-)ties prefer the smallest column
			// index, which guarantees finite termination under degeneracy.
			leave = i
		}
	}
	if leave >= 0 {
		// Remove the tolerance slack added above to keep steps conservative.
		wi := s.w[leave] * sigma
		bcol := s.basis[leave]
		xb := s.x[bcol]
		if wi > 0 {
			tmax = (xb - s.lbOf(bcol)) / wi
		} else {
			tmax = (s.ubOf(bcol) - xb) / (-wi)
		}
		if tmax < 0 {
			tmax = 0
		}
	}
	if math.IsInf(tmax, 1) {
		return -1, tmax, false
	}
	return leave, tmax, flip
}

// applyStep moves the entering variable and all basic variables by step t.
func (s *simplex) applyStep(q int, sigma, t float64) {
	if t == 0 {
		return
	}
	for i := 0; i < s.m; i++ {
		if s.w[i] == 0 {
			continue
		}
		b := s.basis[i]
		s.x[b] -= sigma * t * s.w[i]
	}
	s.x[q] += sigma * t
}

// pivot makes q basic in the `leave` row position and folds the change into
// the basis factorization (a product-form transformation of the dense
// inverse, a Forrest–Tomlin update of the sparse LU). It reports whether the
// factorization accepted the update; on false the caller must refactor.
func (s *simplex) pivot(leave, q int) bool {
	out := s.basis[leave]

	// Snap the leaving variable exactly onto the bound it reached: the side
	// is determined by which bound the ratio test hit.
	lb, ub := s.lbOf(out), s.ubOf(out)
	xo := s.x[out]
	if math.Abs(xo-lb) <= math.Abs(xo-ub) || math.IsInf(ub, 1) {
		s.status[out] = statLower
		s.x[out] = lb
	} else {
		s.status[out] = statUpper
		s.x[out] = ub
	}

	s.basis[leave] = q
	s.status[q] = statBasic

	return s.bas.update(leave, s.w)
}

// reinvert rebuilds the basis factorization from scratch and recomputes
// basic values. A SparseLU backend that fails numerically falls back to the
// dense backend for the rest of the solve; reinvert returns false only if
// the dense rebuild also finds the basis singular.
func (s *simplex) reinvert() bool {
	s.refactors++
	sp := s.opts.Obs.Span("lp.refactor")
	defer sp.End()
	ok := s.bas.refactor()
	if !ok {
		if _, dense := s.bas.(*denseFactor); !dense {
			s.bas = newDenseFactor(s)
			s.fellBack = true
			ok = s.bas.refactor()
		}
	}
	if !ok {
		return false
	}
	s.sinceReinvert = 0
	s.recomputeBasics()
	return true
}

// recomputeBasics recomputes x_B = B⁻¹(b - N x_N) from the current inverse,
// clearing accumulated drift.
func (s *simplex) recomputeBasics() {
	m := s.m
	r := s.rhs
	copy(r, s.std.b)
	for j := 0; j < s.ncols; j++ {
		if s.status[j] == statBasic || s.x[j] == 0 {
			continue
		}
		ind, val := s.std.col(j)
		for t, i := range ind {
			r[i] -= val[t] * s.x[j]
		}
	}
	// Nonbasic artificials are always zero, so they never contribute.
	s.bas.ftranDense(r)
	for i := 0; i < m; i++ {
		s.x[s.basis[i]] = r[i]
	}
}

// extract builds the Solution in the original orientation.
func (s *simplex) extract() *Solution {
	std := s.std
	n := std.n
	sol := &Solution{
		Status:      Optimal,
		X:           make([]float64, n),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, n),
		Iterations:  s.iters,
		DualPivots:  s.dualPivots,
		Basis:       s.snapshotBasis(),
		WarmStarted: s.warmStarted,
	}
	for j := 0; j < n; j++ {
		sol.X[j] = s.x[j]
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += std.c[j] * s.x[j] // invariant under scaling: c'·x' = c·x
	}
	sol.Objective = obj * std.objSign

	// Duals: y from the final btran with phase-2 costs; undo the sign flip
	// used internally when maximizing.
	s.btran()
	for i := 0; i < s.m; i++ {
		sol.Dual[i] = s.y[i] * std.objSign
	}
	for j := 0; j < n; j++ {
		sol.ReducedCost[j] = s.reducedCost(j) * std.objSign
	}
	// Unscale: x = C·x', y = R·y', d = d'/C.
	if s.colScale != nil {
		for j := 0; j < n; j++ {
			sol.X[j] *= s.colScale[j]
			sol.ReducedCost[j] /= s.colScale[j]
		}
		for i := 0; i < s.m; i++ {
			sol.Dual[i] *= s.rowScale[i]
		}
	}
	return sol
}

func (s *simplex) failure(st Status) *Solution {
	n := s.std.n
	sol := &Solution{Status: st, Iterations: s.iters, DualPivots: s.dualPivots, X: make([]float64, n), WarmStarted: s.warmStarted}
	for j := 0; j < n && j < len(s.x); j++ {
		sol.X[j] = s.x[j]
	}
	return sol
}
