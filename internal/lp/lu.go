package lp

import (
	"math"
	"slices"
)

// luFactor is the sparse basis backend: B is factorized as P·B·Q = L·U by
// left-looking sparse Gaussian elimination with a Markowitz-style ordering
// (columns processed sparsest-first, threshold partial pivoting preferring
// low-count rows). Simplex pivots are absorbed by Forrest–Tomlin updates:
// the pivot modifies the stored U in place. The leaving column is replaced
// by the entering column's spike, the spiked row is cyclically rotated to
// the last triangular position, and its off-diagonal entries are eliminated
// by row operations recorded as a compact row eta. ftran/btran cost stays
// proportional to the factor's actual fill, and refactorization is
// scheduled adaptively: on measured U fill growth and on ftran residual
// drift sampled during the solve.
//
// On granular allocation LPs the basis columns hold only a handful of
// nonzeros each, so per-iteration solve time scales with factor fill rather
// than denseFactor's m². Refactorization is Gilbert–Peierls left-looking
// LU: each column visits only what it can reach. Its rows are loaded into a
// pattern; every row an earlier step pivoted queues that step in a min-heap,
// and applying a step adds its L column's rows to the pattern in turn. Steps
// are applied smallest first (a topological order), and the pivot search
// and L column run over the column's sorted unpivoted rows. The cost is
// proportional to the factor's nonzeros and flops, with a log factor for
// the heap and the sort, and no per-column pass over all m rows or steps.
// The column order is a counting sort; all scratch lives on the luFactor.
//
// Vector-space bookkeeping for the Forrest–Tomlin updates: L's elimination
// steps are frozen at refactor time and double as row "handles" for U — row
// h of the triangular system U·z = L⁻¹P·a is the output of L step h, and
// handles keep their identity as updates reorder U's triangular structure.
// perm maps the current triangular order to handles (perm[step] = handle);
// cperm maps handles to basis positions and never changes between
// refactorizations (a replaced column keeps its position and its handle).
type luFactor struct {
	s *simplex
	m int

	// Factorization of the basis at the last refactor. Elimination step t
	// pivots on original row pr[t] and eliminates the column at basis
	// position cperm[t]. lcols[t] holds the below-pivot multipliers of L
	// column t as (original row, value); the unit diagonal is implicit.
	// ucols[h] holds the above-diagonal entries of U column h as
	// (row handle, value); udiag[h] is the pivot. Handles and triangular
	// steps coincide right after a refactor; updates reorder the triangular
	// order, which lives in perm/stepOf.
	lcols [][]luEntry
	ucols [][]luEntry
	udiag []float64
	pr    []int
	cperm []int

	// Forrest–Tomlin state (allocated by the first initFT). urows mirrors
	// ucols row-wise: urows[h] holds row h's entries right of the diagonal
	// as (column handle, value). posH inverts cperm. rowEtas records, in
	// chronological order, the row eliminations applied to U; each is
	// applied between the L solve and the U solve during ftran (and
	// transposed, in reverse, during btran).
	perm      []int
	stepOf    []int
	posH      []int
	urows     [][]luEntry
	rowEtas   []rowEta
	rowEtaNnz int
	unnz      int // current U fill (diagonal + off-diagonal)
	unnz0     int // U fill right after the last refactor

	// Adaptive-refactor state: ftrans clocks ftranCol calls so every 64th
	// one measures the true residual ‖B·w − a_q‖∞; drift latches the
	// verdict until the next refactor.
	ftrans int
	drift  bool

	// Scratch: x is row-space (all zeros between calls), g and pos are
	// handle/position-space, elim maps original row -> elimination
	// step (-1 while unpivoted during factor). spike/rowAcc are FT
	// handle-space accumulators with their touched-index lists tlist/rlist.
	// artInd/artVal back the one-entry column returned by basisCol for
	// artificials.
	x, g, pos    []float64
	elim         []int
	spike        []float64
	rowAcc       []float64
	tlist, rlist []int
	artInd       [1]int32
	artVal       [1]float64

	// Refactor scratch. mark flags the rows in the pattern of the column
	// being factored (all false between columns); queue is a min-heap of
	// the earlier elimination steps they reach, cand their unpivoted rows.
	// order, colNnz, rowCount and bucket hold the column ordering.
	mark                  []bool
	queue, cand           []int
	order, colNnz, bucket []int
	rowCount              []int
}

type luEntry struct {
	idx int32
	val float64
}

// rowEta records one Forrest–Tomlin row elimination: row `target` of the
// spiked U had each row h in ents subtracted from it with multiplier val,
// leaving only its new diagonal.
type rowEta struct {
	target int
	ents   []luEntry
}

func newLUFactor(s *simplex) *luFactor {
	m := s.m
	return &luFactor{
		s: s, m: m,
		x: make([]float64, m), g: make([]float64, m), pos: make([]float64, m),
		elim: make([]int, m),
	}
}

// basisCol returns the sparse column of the basis occupying position pos.
func (f *luFactor) basisCol(pos int) ([]int32, []float64) {
	s := f.s
	j := s.basis[pos]
	if j >= s.artStart {
		k := j - s.artStart
		f.artInd[0] = int32(k)
		f.artVal[0] = s.artSign[k]
		return f.artInd[:], f.artVal[:]
	}
	return s.std.col(j)
}

func (f *luFactor) refactor() bool {
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
		f.mark = make([]bool, m)
		f.order = make([]int, m)
		f.colNnz = make([]int, m)
		f.rowCount = make([]int, m)
		f.bucket = make([]int, m+1) // a column has at most m nonzeros
	}

	// Column order: ascending nonzero count (approximate Markowitz), ties
	// by position for determinism — a counting sort, stable over
	// positions. Row counts feed the pivot tie-break.
	order, colNnz, rowCount, start := f.order, f.colNnz, f.rowCount, f.bucket
	clear(rowCount)
	clear(start)
	for pos := 0; pos < m; pos++ {
		ind, _ := f.basisCol(pos)
		colNnz[pos] = len(ind)
		for _, r := range ind {
			rowCount[r]++
		}
	}
	for _, c := range colNnz {
		start[c]++
	}
	at := 0
	for c, n := range start {
		start[c] = at
		at += n
	}
	for pos, c := range colNnz {
		order[start[c]] = pos
		start[c]++
	}

	x := f.x
	for i := range f.elim {
		f.elim[i] = -1
	}
	for t := 0; t < m; t++ {
		pos := order[t]
		ind, val := f.basisCol(pos)
		f.queue, f.cand = f.queue[:0], f.cand[:0]
		for k, r := range ind {
			x[r] = val[k]
			if !f.mark[r] {
				f.touch(int(r))
			}
		}

		// Left-looking update: apply the queued steps whose pivot row
		// carries a nonzero, smallest step first. A step's fill lands only
		// on rows that later steps pivot or that are still unpivoted, so
		// this is a topological order — and the ascending order in which a
		// scan over every earlier step would apply them.
		ucol := f.ucols[t][:0]
		for len(f.queue) > 0 {
			j := f.popStep()
			r := f.pr[j]
			f.mark[r] = false // only steps before j reach row r
			xj := x[r]
			if xj == 0 {
				continue
			}
			ucol = append(ucol, luEntry{int32(j), xj})
			x[r] = 0 // consumed into U
			for _, e := range f.lcols[j] {
				x[e.idx] -= e.val * xj
				if !f.mark[e.idx] {
					f.touch(int(e.idx))
				}
			}
		}

		// Threshold partial pivoting among the column's unpivoted rows, in
		// ascending order: candidates within 10× of the largest magnitude,
		// preferring the row with the fewest static nonzeros (Markowitz
		// tie-break), then the smallest index for determinism.
		cand := f.cand
		slices.Sort(cand)
		vmax := 0.0
		for _, i := range cand {
			f.mark[i] = false // the pattern is complete
			if v := math.Abs(x[i]); v > vmax {
				vmax = v
			}
		}
		if vmax < 1e-12 {
			// Singular: zero out scratch before failing.
			for _, i := range cand {
				x[i] = 0
			}
			f.ucols[t] = ucol
			return false
		}
		piv := -1
		for _, i := range cand {
			if math.Abs(x[i]) < 0.1*vmax {
				continue
			}
			if piv < 0 || rowCount[i] < rowCount[piv] {
				piv = i
			}
		}

		d := x[piv]
		lcol := f.lcols[t][:0]
		for _, i := range cand {
			if i == piv || x[i] == 0 {
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

// touch adds unmarked row r to the pattern of the column being factored:
// a row an earlier step pivoted queues that step, any other row becomes a
// pivot candidate. mark records membership, so each row is added once.
func (f *luFactor) touch(r int) {
	f.mark[r] = true
	j := f.elim[r]
	if j < 0 {
		f.cand = append(f.cand, r)
		return
	}
	q := append(f.queue, j) // sift up: queue is a binary min-heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= j {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = j
	f.queue = q
}

// popStep removes and returns the smallest queued step.
func (f *luFactor) popStep() int {
	q := f.queue
	top, n := q[0], len(q)-1
	last := q[n]
	q = q[:n]
	i := 0
	for { // sift down
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if last <= q[c] {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	f.queue = q
	return top
}

// initFT (re)derives the Forrest–Tomlin bookkeeping from a fresh
// factorization: identity triangular order, the row-wise mirror of U, the
// position→handle map, and the fill baseline the adaptive refactor trigger
// measures growth against.
func (f *luFactor) initFT() {
	m := f.m
	if f.perm == nil {
		f.perm = make([]int, m)
		f.stepOf = make([]int, m)
		f.posH = make([]int, m)
		f.urows = make([][]luEntry, m)
		f.spike = make([]float64, m)
		f.rowAcc = make([]float64, m)
	}
	nnz := m // diagonal
	for h := 0; h < m; h++ {
		f.perm[h] = h
		f.stepOf[h] = h
		f.posH[f.cperm[h]] = h
		f.urows[h] = f.urows[h][:0]
	}
	for h := 0; h < m; h++ {
		for _, e := range f.ucols[h] {
			f.urows[e.idx] = append(f.urows[e.idx], luEntry{int32(h), e.val})
		}
		nnz += len(f.ucols[h])
	}
	f.unnz = nnz
	f.unnz0 = nnz
}

// ftranDense solves B x = v through L, the row etas, and U: v enters in row
// space and leaves in position space.
func (f *luFactor) ftranDense(v []float64) {
	m := f.m
	g := f.g
	// Forward: L y = v. The output is handle-indexed (handles are L steps).
	for t := 0; t < m; t++ {
		yt := v[f.pr[t]]
		g[t] = yt
		if yt != 0 {
			for _, e := range f.lcols[t] {
				v[e.idx] -= e.val * yt
			}
		}
	}
	// Row etas in chronological order: each one replays the elimination of
	// a spiked row on the right-hand side.
	for i := range f.rowEtas {
		e := &f.rowEtas[i]
		acc := g[e.target]
		for _, t := range e.ents {
			acc -= t.val * g[t.idx]
		}
		g[e.target] = acc
	}
	// Backward: U z = y, columns visited in reverse triangular order.
	for ti := m - 1; ti >= 0; ti-- {
		h := f.perm[ti]
		zt := g[h] / f.udiag[h]
		g[h] = zt
		if zt != 0 {
			for _, e := range f.ucols[h] {
				g[e.idx] -= e.val * zt
			}
		}
	}
	// Scatter into position space.
	for t := 0; t < m; t++ {
		f.pos[f.cperm[t]] = g[t]
	}
	copy(v, f.pos)
}

// solveLUT solves Bᵀ y = c through Uᵀ, the transposed row etas, and Lᵀ:
// c enters in position space and leaves in row space.
func (f *luFactor) solveLUT(c []float64) {
	m := f.m
	g := f.g
	for t := 0; t < m; t++ {
		g[t] = c[f.cperm[t]]
	}
	// Forward: Uᵀ g' = g in triangular order.
	for ti := 0; ti < m; ti++ {
		h := f.perm[ti]
		acc := g[h]
		for _, e := range f.ucols[h] {
			acc -= e.val * g[e.idx]
		}
		g[h] = acc / f.udiag[h]
	}
	// Transposed row etas in reverse chronological order: each spreads the
	// target component back over its eliminators.
	for i := len(f.rowEtas) - 1; i >= 0; i-- {
		e := &f.rowEtas[i]
		gt := g[e.target]
		if gt != 0 {
			for _, t := range e.ents {
				g[t.idx] -= t.val * gt
			}
		}
	}
	// Backward: Lᵀ y = g'. L column t touches only rows pivoted later, so
	// a descending sweep resolves every dependency.
	for t := m - 1; t >= 0; t-- {
		acc := g[t]
		for _, e := range f.lcols[t] {
			acc -= e.val * c[e.idx]
		}
		c[f.pr[t]] = acc
	}
}

func (f *luFactor) btranCost(y []float64) {
	s := f.s
	for i := 0; i < f.m; i++ {
		y[i] = s.cost[s.basis[i]]
	}
	f.solveLUT(y)
}

func (f *luFactor) btranUnit(r int, z []float64) {
	for i := range z {
		z[i] = 0
	}
	z[r] = 1
	f.solveLUT(z)
}

func (f *luFactor) ftranCol(q int, w []float64) {
	s := f.s
	x := f.x
	if q >= s.artStart {
		k := q - s.artStart
		x[k] = s.artSign[k]
	} else {
		ind, val := s.std.col(q)
		for t, r := range ind {
			x[r] = val[t]
		}
	}
	copy(w, x)
	for i := range x {
		x[i] = 0
	}
	f.ftranDense(w)
	if !f.drift {
		// Sampled drift measurement: every 64th column solve verifies the
		// factorization against the actual basis by computing the true
		// residual B·w − a_q. Exceeding the tolerance latches `drift`, and
		// wantRefactor schedules a rebuild before the next pivot.
		f.ftrans++
		if f.ftrans&63 == 0 {
			f.measureDrift(q, w)
		}
	}
}

// measureDrift computes r = B·w − a_q in row space and latches f.drift when
// ‖r‖∞ is out of proportion to the operands — the honest signal that the
// accumulated updates have degraded the factorization.
func (f *luFactor) measureDrift(q int, w []float64) {
	s := f.s
	x := f.x // all zeros on entry; restored to zeros before returning
	wmax := 0.0
	for p := 0; p < f.m; p++ {
		wp := w[p]
		if wp == 0 {
			continue
		}
		if a := math.Abs(wp); a > wmax {
			wmax = a
		}
		ind, val := f.basisCol(p)
		for t, r := range ind {
			x[r] += val[t] * wp
		}
	}
	amax := 0.0
	if q >= s.artStart {
		k := q - s.artStart
		x[k] -= s.artSign[k]
		amax = 1
	} else {
		ind, val := s.std.col(q)
		for t, r := range ind {
			x[r] -= val[t]
			if a := math.Abs(val[t]); a > amax {
				amax = a
			}
		}
	}
	res := 0.0
	for i := range x {
		if a := math.Abs(x[i]); a > res {
			res = a
		}
		x[i] = 0
	}
	if res > 1e-9*(1+amax+wmax) {
		f.drift = true
	}
}

// update folds one pivot into the stored factors in place. The column at
// handle h0 (basis position `leave`) is replaced by the entering column's
// spike s = U·w (w already solved through the whole factorization, so U·w
// re-expresses it in the factor's internal frame), h0 is rotated to the
// last triangular position, and the now out-of-place old row h0 is
// eliminated by row operations recorded as one rowEta. Returns false —
// leaving the caller to refactor from scratch, which rebuilds all state —
// when the elimination is numerically unstable (huge multiplier) or the
// final diagonal is negligible.
func (f *luFactor) update(leave int, w []float64) bool {
	m := f.m
	h0 := f.posH[leave]

	// Spike: s = U·(w gathered into handle space).
	s := f.spike
	touched := f.tlist[:0]
	for p := 0; p < m; p++ {
		zp := w[p]
		if zp == 0 {
			continue
		}
		h := f.posH[p]
		if s[h] == 0 {
			touched = append(touched, h)
		}
		s[h] += f.udiag[h] * zp
		for _, e := range f.ucols[h] {
			if s[e.idx] == 0 {
				touched = append(touched, int(e.idx))
			}
			s[e.idx] += e.val * zp
		}
	}
	f.tlist = touched[:0]

	// Drop the old column h0 — the spike replaces it wholesale — and detach
	// the old row h0 from the column lists; its entries seed the
	// elimination below.
	for _, e := range f.ucols[h0] {
		f.urows[e.idx] = removeHandle(f.urows[e.idx], h0)
	}
	f.unnz -= len(f.ucols[h0])
	f.ucols[h0] = f.ucols[h0][:0]

	oldRow := f.urows[h0]
	racc := f.rowAcc
	rtouch := f.rlist[:0]
	for _, e := range oldRow {
		f.ucols[e.idx] = removeHandle(f.ucols[e.idx], h0)
		racc[e.idx] = e.val
		rtouch = append(rtouch, int(e.idx))
	}
	f.unnz -= len(oldRow)
	f.urows[h0] = oldRow[:0]

	// Cyclic rotation: handles between h0's old step and the end shift one
	// step earlier; h0 becomes the last step.
	t0 := f.stepOf[h0]
	for t := t0; t < m-1; t++ {
		h := f.perm[t+1]
		f.perm[t] = h
		f.stepOf[h] = t
	}
	f.perm[m-1] = h0
	f.stepOf[h0] = m - 1

	// Install the spike as the new column h0 (every other handle now sits
	// at an earlier step, so all entries are above the diagonal). Scratch
	// is zeroed as it is consumed, which also makes duplicate touched
	// indices harmless.
	d := s[h0]
	ucol := f.ucols[h0]
	for _, h := range touched {
		v := s[h]
		s[h] = 0
		if v == 0 || h == h0 {
			continue
		}
		ucol = append(ucol, luEntry{int32(h), v})
		f.urows[h] = append(f.urows[h], luEntry{int32(h0), v})
	}
	f.ucols[h0] = ucol
	f.unnz += len(ucol)

	// Eliminate the old row h0 against rows t0..m-2 in triangular order.
	// Entries the row ops place in column h0 fold into the new diagonal d;
	// everything else is fill tracked in racc. Entries below the drop
	// tolerance are discarded (the sampled drift check guards the
	// accumulated error).
	var ents []luEntry
	for t := t0; t < m-1; t++ {
		h := f.perm[t]
		v := racc[h]
		if v == 0 {
			continue
		}
		racc[h] = 0
		if math.Abs(v) <= 1e-13 {
			continue
		}
		mult := v / f.udiag[h]
		if math.Abs(mult) > 1e7 {
			for _, rr := range rtouch {
				racc[rr] = 0
			}
			f.rlist = rtouch[:0]
			f.s.ftRejects++
			f.s.opts.Obs.Instant("lp.ft-reject", nil)
			return false
		}
		ents = append(ents, luEntry{int32(h), mult})
		for _, e := range f.urows[h] {
			if int(e.idx) == h0 {
				d -= mult * e.val
			} else {
				if racc[e.idx] == 0 {
					rtouch = append(rtouch, int(e.idx))
				}
				racc[e.idx] -= mult * e.val
			}
		}
	}
	for _, rr := range rtouch {
		racc[rr] = 0
	}
	f.rlist = rtouch[:0]

	if math.Abs(d) < 1e-11 {
		f.s.ftRejects++
		f.s.opts.Obs.Instant("lp.ft-reject", nil)
		return false
	}
	f.udiag[h0] = d
	if len(ents) > 0 {
		f.rowEtas = append(f.rowEtas, rowEta{target: h0, ents: ents})
		f.rowEtaNnz += len(ents)
	}
	f.s.ftUpdates++
	return true
}

// removeHandle swap-removes the entry with index h from ents (entry order
// within U rows/columns is not meaningful).
func removeHandle(ents []luEntry, h int) []luEntry {
	for t := range ents {
		if int(ents[t].idx) == h {
			last := len(ents) - 1
			ents[t] = ents[last]
			return ents[:last]
		}
	}
	return ents
}

// wantRefactor triggers an early refactorization on measured ftran
// residual drift, or on the factor's live fill (U plus the row eta file)
// outgrowing the post-refactor baseline. The trigger fires at most once per
// rebuild (the callers refactor immediately), so the counters book one
// refactor reason each.
func (f *luFactor) wantRefactor() bool {
	if f.drift {
		f.s.driftRefactors++
		f.s.opts.Obs.Instant("lp.drift-refactor", nil)
		return true
	}
	if f.unnz+f.rowEtaNnz > 2*f.unnz0+4*f.m+64 {
		f.s.fillRefactors++
		return true
	}
	return false
}
