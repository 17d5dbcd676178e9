package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// solvedLU runs a SparseLU solve to completion and hands back the simplex
// with its final basis factorization (which has seen refactorizations and
// eta updates along the way).
func solvedLU(t *testing.T, rng *rand.Rand, m, n int, opts Options) (*simplex, *luFactor) {
	t.Helper()
	p := randomFeasibleLP(rng, m, n)
	opts.Backend = SparseLU
	s := newSimplex(p, opts)
	sol := s.solve()
	if sol.Status != Optimal {
		t.Fatalf("setup solve status %v", sol.Status)
	}
	f, ok := s.bas.(*luFactor)
	if !ok {
		t.Fatalf("backend fell back to dense during a benign solve")
	}
	return s, f
}

// mulBasis computes r = B·w for the current basis (w in position space,
// r in row space).
func mulBasis(f *luFactor, w []float64) []float64 {
	r := make([]float64, f.m)
	for pos := 0; pos < f.m; pos++ {
		if w[pos] == 0 {
			continue
		}
		ind, val := f.basisCol(pos)
		for t, i := range ind {
			r[i] += val[t] * w[pos]
		}
	}
	return r
}

// mulBasisT computes c = Bᵀ·y (y in row space, c in position space).
func mulBasisT(f *luFactor, y []float64) []float64 {
	c := make([]float64, f.m)
	for pos := 0; pos < f.m; pos++ {
		ind, val := f.basisCol(pos)
		sum := 0.0
		for t, i := range ind {
			sum += val[t] * y[i]
		}
		c[pos] = sum
	}
	return c
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestLUFtranRoundTrip: B·(B⁻¹ a_q) must reproduce a_q for structural,
// slack, and artificial columns, through both the fresh factors and the
// accumulated Forrest–Tomlin updates.
func TestLUFtranRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		// Small ReinvertEvery so the final factorization carries updates.
		s, f := solvedLU(t, rng, 10+rng.Intn(10), 16+rng.Intn(16), Options{ReinvertEvery: 7})
		w := make([]float64, s.m)
		for q := 0; q < s.ncols+s.m; q += 1 + rng.Intn(3) {
			f.ftranCol(q, w)
			got := mulBasis(f, w)
			want := make([]float64, s.m)
			if q >= s.artStart {
				want[q-s.artStart] = s.artSign[q-s.artStart]
			} else {
				ind, val := s.std.col(q)
				for t2, i := range ind {
					want[i] = val[t2]
				}
			}
			if d := maxAbsDiff(got, want); d > 1e-8 {
				t.Fatalf("trial %d col %d: ftran round-trip residual %g", trial, q, d)
			}
		}
	}
}

// TestLUBtranRoundTrip: Bᵀ·(B⁻ᵀ c) must reproduce c for the phase cost
// vector and for unit vectors (the devex pivot-row solve).
func TestLUBtranRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		s, f := solvedLU(t, rng, 10+rng.Intn(10), 16+rng.Intn(16), Options{ReinvertEvery: 7})
		y := make([]float64, s.m)
		f.btranCost(y)
		got := mulBasisT(f, y)
		want := make([]float64, s.m)
		for i := 0; i < s.m; i++ {
			want[i] = s.cost[s.basis[i]]
		}
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d: btranCost round-trip residual %g", trial, d)
		}
		z := make([]float64, s.m)
		for r := 0; r < s.m; r++ {
			f.btranUnit(r, z)
			got := mulBasisT(f, z)
			want := make([]float64, s.m)
			want[r] = 1
			if d := maxAbsDiff(got, want); d > 1e-8 {
				t.Fatalf("trial %d: btranUnit(%d) round-trip residual %g", trial, r, d)
			}
		}
	}
}

// TestLURefactorResidualInvariant: refactorizing must not move the basic
// solution — the updated factorization and a fresh LU agree on
// x_B = B⁻¹(b - N x_N) to tight tolerance, and the refactored basis
// reproduces the right-hand side.
func TestLURefactorResidualInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		s, f := solvedLU(t, rng, 12+rng.Intn(8), 20+rng.Intn(12), Options{ReinvertEvery: 9})
		xbBefore := make([]float64, s.m)
		for i, j := range s.basis {
			xbBefore[i] = s.x[j]
		}
		if !s.reinvert() {
			t.Fatalf("trial %d: refactor failed on a solved basis", trial)
		}
		if len(f.rowEtas) != 0 {
			t.Fatalf("trial %d: refactor left %d row etas", trial, len(f.rowEtas))
		}
		xbAfter := make([]float64, s.m)
		for i, j := range s.basis {
			xbAfter[i] = s.x[j]
		}
		if d := maxAbsDiff(xbBefore, xbAfter); d > 1e-7 {
			t.Fatalf("trial %d: refactor moved basics by %g", trial, d)
		}
		if d := basicsResidual(s, f); d > 1e-7 {
			t.Fatalf("trial %d: ‖B·x_B - (b - N·x_N)‖∞ = %g", trial, d)
		}
	}
}

// basicsResidual returns ‖B·x_B − (b − N·x_N)‖∞: the residual of the
// linear system the current basic values claim to solve.
func basicsResidual(s *simplex, f *luFactor) float64 {
	r := make([]float64, s.m)
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
	xb := make([]float64, s.m)
	for i, j := range s.basis {
		xb[i] = s.x[j]
	}
	return maxAbsDiff(mulBasis(f, xb), r)
}

// TestLUSingularBasisFailsAndFallsBack: a structurally singular basis must
// be rejected by the LU factorization, and reinvert must at least attempt
// the dense fallback path. The failed refactor must leave its scratch
// clean: the same luFactor then factors a repaired basis correctly.
func TestLUSingularBasisFailsAndFallsBack(t *testing.T) {
	// y's column is x's scaled by 3 in floating point, so the basis {x, y}
	// is singular only up to rounding: elimination leaves a residue below
	// the pivot threshold that the failed refactor must clear.
	ax := []float64{0.1, 0.7}
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 10, "x")
	y := p.AddVariable(1, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{ax[0], 3 * ax[0]}, LE, 6, "")
	p.AddConstraint([]int{x, y}, []float64{ax[1], 3 * ax[1]}, LE, 12, "")
	s := newSimplex(p, Options{Backend: SparseLU}.withDefaults(2, 4))
	s.initPhase1()
	start := append([]int(nil), s.basis...)
	f := s.bas.(*luFactor)
	s.basis[0], s.basis[1] = x, y
	if f.refactor() {
		t.Fatal("LU accepted a numerically singular basis")
	}
	if err := dirtyScratch(f); err != nil {
		t.Fatal(err)
	}
	// Force the same structural column into both basis positions.
	s.basis[0], s.basis[1] = x, x
	if f.refactor() {
		t.Fatal("LU accepted a singular basis")
	}
	if err := dirtyScratch(f); err != nil {
		t.Fatal(err)
	}
	if s.reinvert() {
		t.Fatal("reinvert succeeded on a singular basis")
	}
	if !s.fellBack {
		t.Fatal("reinvert did not attempt the dense fallback")
	}
	if _, dense := s.bas.(*denseFactor); !dense {
		t.Fatal("backend not switched to dense after LU failure")
	}

	// Repair: x keeps position 0, displacing the first starting basic
	// column; the second one returns to position 1.
	s.basis[1] = start[1]
	s.status[x] = statBasic
	s.status[start[0]], s.x[start[0]] = statLower, 0
	s.bas = f
	if !s.reinvert() {
		t.Fatal("LU rejected the repaired basis after a singular failure")
	}
	if d := basicsResidual(s, f); d > 1e-7 {
		t.Fatalf("repaired basis: ‖B·x_B - (b - N·x_N)‖∞ = %g", d)
	}
}

// TestLUSingularRefactorLeavesNoState: on larger random bases, a refactor
// that fails partway (after fill has spread the column's pattern) leaves
// clean scratch, and the next refactor of the restored basis on the same
// luFactor matches a fresh dense-scan reference bit for bit.
func TestLUSingularRefactorLeavesNoState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		s, f := solvedLU(t, rng, 12+rng.Intn(8), 20+rng.Intn(12), Options{})
		saved := append([]int(nil), s.basis...)
		a, b := rng.Intn(s.m), rng.Intn(s.m)
		if a == b {
			b = (a + 1) % s.m
		}
		s.basis[b] = s.basis[a]
		if f.refactor() {
			t.Fatalf("trial %d: LU accepted a basis with a repeated column", trial)
		}
		if err := dirtyScratch(f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		copy(s.basis, saved)
		if err := compareRefactor(s, f); err != nil {
			t.Fatalf("trial %d: after singular failure: %v", trial, err)
		}
		if !s.reinvert() {
			t.Fatalf("trial %d: restored basis failed to refactor", trial)
		}
		if d := basicsResidual(s, f); d > 1e-7 {
			t.Fatalf("trial %d: ‖B·x_B - (b - N·x_N)‖∞ = %g", trial, d)
		}
	}
}

// dirtyScratch reports a break of the between-calls invariant refactor
// relies on: the row-space accumulator x is all zero and no row is marked.
func dirtyScratch(f *luFactor) error {
	for i, v := range f.x {
		if v != 0 {
			return fmt.Errorf("scratch x[%d] = %g after refactor", i, v)
		}
	}
	for i, on := range f.mark {
		if on {
			return fmt.Errorf("scratch mark[%d] set after refactor", i)
		}
	}
	return nil
}

// TestLUReinvertCadenceAgrees mirrors TestReinversionMidSolve for the
// sparse backend: aggressive refactorization cadence must not change
// results.
func TestLUReinvertCadenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		p1 := randomFeasibleLP(rng, 12, 24)
		p2 := cloneProblem(p1)
		s1, err := p1.SolveWithOptions(Options{Backend: SparseLU})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.SolveWithOptions(Options{Backend: SparseLU, ReinvertEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-5) {
			t.Fatalf("trial %d: obj %.10g vs %.10g", trial, s1.Objective, s2.Objective)
		}
	}
}

// TestLUFillTriggersRefactor: the fill-based refactor trigger must fire
// once accumulated update storage outgrows its budget — the Forrest–Tomlin
// U plus its row etas past their fill-growth bound.
func TestLUFillTriggersRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, f := solvedLU(t, rng, 8, 14, Options{})
	if f.wantRefactor() {
		t.Fatal("fresh factorization already wants refactor")
	}
	w := make([]float64, s.m)
	for i := range w {
		w[i] = 1
	}
	for i := 0; !f.wantRefactor(); i++ {
		if !f.update(i%s.m, w) {
			t.Fatal("update rejected a unit pivot")
		}
		if i > 100*s.m {
			t.Fatal("fill trigger never fired")
		}
	}
}

// refactorDenseScan is the reference factorization: the original
// dense-scan refactor, which walks every earlier step and scans all m rows
// three times per column. refactor must reproduce its factors bit for bit.
func (f *luFactor) refactorDenseScan() bool {
	m := f.m
	f.rowEtas = f.rowEtas[:0]
	f.rowEtaNnz = 0
	f.ftrans = 0
	f.drift = false
	if f.lcols == nil {
		f.lcols = make([][]luEntry, m)
		f.ucols = make([][]luEntry, m)
		f.udiag = make([]float64, m)
		f.pr = make([]int, m)
		f.cperm = make([]int, m)
	}

	order := make([]int, m)
	colNnz := make([]int, m)
	rowCount := make([]int, m)
	for pos := 0; pos < m; pos++ {
		order[pos] = pos
		ind, _ := f.basisCol(pos)
		colNnz[pos] = len(ind)
		for _, r := range ind {
			rowCount[r]++
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if colNnz[order[a]] != colNnz[order[b]] {
			return colNnz[order[a]] < colNnz[order[b]]
		}
		return order[a] < order[b]
	})

	x := f.x
	for i := range f.elim {
		f.elim[i] = -1
	}
	for t := 0; t < m; t++ {
		pos := order[t]
		ind, val := f.basisCol(pos)
		for k, r := range ind {
			x[r] = val[k]
		}
		ucol := f.ucols[t][:0]
		for j := 0; j < t; j++ {
			xj := x[f.pr[j]]
			if xj == 0 {
				continue
			}
			ucol = append(ucol, luEntry{int32(j), xj})
			x[f.pr[j]] = 0
			for _, e := range f.lcols[j] {
				x[e.idx] -= e.val * xj
			}
		}
		vmax := 0.0
		for i := 0; i < m; i++ {
			if f.elim[i] >= 0 {
				continue
			}
			if v := math.Abs(x[i]); v > vmax {
				vmax = v
			}
		}
		if vmax < 1e-12 {
			for i := range x {
				x[i] = 0
			}
			f.ucols[t] = ucol
			return false
		}
		piv := -1
		for i := 0; i < m; i++ {
			if f.elim[i] >= 0 || math.Abs(x[i]) < 0.1*vmax {
				continue
			}
			if piv < 0 || rowCount[i] < rowCount[piv] {
				piv = i
			}
		}
		d := x[piv]
		lcol := f.lcols[t][:0]
		for i := 0; i < m; i++ {
			if i == piv || f.elim[i] >= 0 || x[i] == 0 {
				continue
			}
			lcol = append(lcol, luEntry{int32(i), x[i] / d})
			x[i] = 0
		}
		x[piv] = 0
		f.elim[piv] = t
		f.pr[t] = piv
		f.cperm[t] = pos
		f.udiag[t] = d
		f.lcols[t] = lcol
		f.ucols[t] = ucol
	}
	f.initFT()
	return true
}

// compareRefactor refactors s's current basis with got and with a fresh
// reference factor and reports the first difference: success, pivot rows,
// column permutation, diagonal, every L and U entry in order (values
// compared by bit pattern), and the Forrest–Tomlin bookkeeping. It also
// checks that got's scratch is clean afterwards.
func compareRefactor(s *simplex, got *luFactor) error {
	ref := newLUFactor(s)
	okRef, okGot := ref.refactorDenseScan(), got.refactor()
	if err := dirtyScratch(got); err != nil {
		return err
	}
	if okRef != okGot {
		return fmt.Errorf("refactor ok=%v, reference ok=%v", okGot, okRef)
	}
	if !okRef {
		return nil
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameEnts := func(a, b []luEntry) bool {
		return slices.EqualFunc(a, b, func(p, q luEntry) bool { return p.idx == q.idx && same(p.val, q.val) })
	}
	for t := 0; t < s.m; t++ {
		switch {
		case got.pr[t] != ref.pr[t]:
			return fmt.Errorf("step %d: pivot row %d, reference %d", t, got.pr[t], ref.pr[t])
		case got.cperm[t] != ref.cperm[t]:
			return fmt.Errorf("step %d: position %d, reference %d", t, got.cperm[t], ref.cperm[t])
		case !same(got.udiag[t], ref.udiag[t]):
			return fmt.Errorf("step %d: diagonal %v, reference %v", t, got.udiag[t], ref.udiag[t])
		case !sameEnts(got.lcols[t], ref.lcols[t]):
			return fmt.Errorf("step %d: L column %v, reference %v", t, got.lcols[t], ref.lcols[t])
		case !sameEnts(got.ucols[t], ref.ucols[t]):
			return fmt.Errorf("step %d: U column %v, reference %v", t, got.ucols[t], ref.ucols[t])
		}
	}
	for h := 0; h < s.m; h++ {
		if got.perm[h] != ref.perm[h] || got.stepOf[h] != ref.stepOf[h] || got.posH[h] != ref.posH[h] ||
			!sameEnts(got.urows[h], ref.urows[h]) {
			return fmt.Errorf("handle %d: Forrest–Tomlin state differs from reference", h)
		}
	}
	if got.unnz != ref.unnz || got.unnz0 != ref.unnz0 {
		return fmt.Errorf("U fill %d/%d, reference %d/%d", got.unnz, got.unnz0, ref.unnz, ref.unnz0)
	}
	return nil
}

// RefactorOracle solves p cold with SparseLU and, at the starting basis, after every `every` iterations and
// at the optimal basis, checks refactor against the dense-scan reference
// with compareRefactor. One luFactor is reused across all checks, so
// scratch left by one call would surface in the next. It returns the number
// of bases checked. Exported for the gen-instance oracle test in package
// lp_test (gen imports lp).
func RefactorOracle(p *Problem, every int) (int, error) {
	s := newSimplex(p, Options{Backend: SparseLU})
	got := newLUFactor(s)
	checks := 0
	check := func(where string) error {
		checks++
		if err := compareRefactor(s, got); err != nil {
			return fmt.Errorf("%s basis (iteration %d): %w", where, s.iters, err)
		}
		return nil
	}
	// run drives iterate in slices of `every` iterations, within the
	// solve's own iteration budget; iterate keeps all its state on s, so
	// the pauses leave the pivot path unchanged.
	limit := s.opts.MaxIters
	run := func(phase string) error {
		for {
			if s.iters >= limit {
				return fmt.Errorf("%s hit the iteration limit", phase)
			}
			s.opts.MaxIters = min(s.iters+every, limit)
			st := s.iterate()
			if st == Optimal {
				return nil
			}
			if st != IterLimit {
				return fmt.Errorf("%s ended %v", phase, st)
			}
			if err := check(phase); err != nil {
				return err
			}
		}
	}

	s.initPhase1()
	if err := check("start"); err != nil {
		return checks, err
	}
	if !s.initialFeasible() {
		if err := run("phase 1"); err != nil {
			return checks, err
		}
	}
	// Phase-2 entry, as in solveInner.
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
	if err := run("phase 2"); err != nil {
		return checks, err
	}
	return checks, check("optimal")
}

// OptimalBasisRefactor solves p cold with SparseLU and returns a function
// that refactors the optimal basis on a dedicated luFactor, for
// BenchmarkLURefactor in package lp_test.
func OptimalBasisRefactor(p *Problem) (func() bool, error) {
	s := newSimplex(p, Options{Backend: SparseLU})
	if sol := s.solve(); sol.Status != Optimal {
		return nil, fmt.Errorf("solve status %v", sol.Status)
	}
	f := newLUFactor(s)
	return f.refactor, nil
}
