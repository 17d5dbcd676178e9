package lp

import (
	"fmt"
	"math"
	"strings"

	"pop/internal/obs"
)

// Objective selects the optimization direction of a Problem.
type Objective int8

const (
	// Minimize the objective function.
	Minimize Objective = iota
	// Maximize the objective function.
	Maximize
)

// Sense is the relational operator of a linear constraint.
type Sense int8

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Inf is the canonical infinite bound. Any value ≥ +Inf (resp. ≤ -Inf) is
// treated as unbounded.
var Inf = math.Inf(1)

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
//
// Variables are added with AddVariable and referenced by the returned dense
// index. Constraints reference variables by index. The builder is not safe
// for concurrent use.
type Problem struct {
	objective Objective
	obj       []float64
	lb, ub    []float64
	varNames  []string

	rows     []row
	rowNames []string

	nnz int
}

type row struct {
	idx   []int
	val   []float64
	sense Sense
	rhs   float64
}

// NewProblem returns an empty linear program with the given objective
// direction.
func NewProblem(objective Objective) *Problem {
	return &Problem{objective: objective}
}

// Builder is the construction surface shared by Problem and Model: helper
// functions that assemble a formulation can accept a Builder and work
// unchanged against either the one-shot builder or the persistent mutable
// model.
type Builder interface {
	AddVariable(c, lb, ub float64, name string) int
	AddVariables(n int, c, lb, ub float64) int
	AddConstraint(idx []int, val []float64, sense Sense, rhs float64, name string) int
	SetObjectiveCoeff(v int, c float64)
	SetBounds(v int, lb, ub float64)
	NumVariables() int
	NumConstraints() int
}

var (
	_ Builder = (*Problem)(nil)
	_ Builder = (*Model)(nil)
)

// Clone returns a deep copy of the builder state.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		objective: p.objective,
		obj:       append([]float64(nil), p.obj...),
		lb:        append([]float64(nil), p.lb...),
		ub:        append([]float64(nil), p.ub...),
		varNames:  append([]string(nil), p.varNames...),
		rows:      make([]row, len(p.rows)),
		rowNames:  append([]string(nil), p.rowNames...),
		nnz:       p.nnz,
	}
	for i, r := range p.rows {
		q.rows[i] = row{
			idx:   append([]int(nil), r.idx...),
			val:   append([]float64(nil), r.val...),
			sense: r.sense,
			rhs:   r.rhs,
		}
	}
	return q
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// NumNonzeros reports the number of nonzero constraint coefficients.
func (p *Problem) NumNonzeros() int { return p.nnz }

// ObjectiveSense returns the optimization direction chosen at construction.
func (p *Problem) ObjectiveSense() Objective { return p.objective }

// Bounds returns the current bounds of variable v.
func (p *Problem) Bounds(v int) (lb, ub float64) { return p.lb[v], p.ub[v] }

// ObjectiveCoeff returns the objective coefficient of variable v.
func (p *Problem) ObjectiveCoeff(v int) float64 { return p.obj[v] }

// Constraint returns copies of row i's index/value lists plus its sense and
// right-hand side. Duplicate indices from construction are preserved as
// stored (consumers that need merged coefficients must sum them). It is the
// read half of AddConstraint, used by transformation passes (e.g. the MILP
// presolve) that rebuild a reduced problem through the builder API.
func (p *Problem) Constraint(i int) (idx []int, val []float64, sense Sense, rhs float64) {
	r := p.rows[i]
	return append([]int(nil), r.idx...), append([]float64(nil), r.val...), r.sense, r.rhs
}

// ConstraintName returns the name row i was added with (may be empty).
func (p *Problem) ConstraintName(i int) string { return p.rowNames[i] }

// AddVariable adds a variable with objective coefficient c and bounds
// [lb, ub], returning its index. Use -Inf / +Inf for unbounded sides.
// name may be empty; it is only used in diagnostics.
func (p *Problem) AddVariable(c, lb, ub float64, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %g > ub %g", name, lb, ub))
	}
	if math.IsNaN(c) || math.IsNaN(lb) || math.IsNaN(ub) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("lp: variable %q has invalid data c=%g lb=%g ub=%g", name, c, lb, ub))
	}
	p.obj = append(p.obj, c)
	p.lb = append(p.lb, lb)
	p.ub = append(p.ub, ub)
	p.varNames = append(p.varNames, name)
	return len(p.obj) - 1
}

// AddVariables adds n identical variables and returns the index of the first.
func (p *Problem) AddVariables(n int, c, lb, ub float64) int {
	first := len(p.obj)
	for i := 0; i < n; i++ {
		p.AddVariable(c, lb, ub, "")
	}
	return first
}

// SetObjectiveCoeff overwrites the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoeff(v int, c float64) {
	p.obj[v] = c
}

// SetBounds overwrites the bounds of variable v.
func (p *Problem) SetBounds(v int, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %d: lb %g > ub %g", v, lb, ub))
	}
	p.lb[v] = lb
	p.ub[v] = ub
}

// AddConstraint adds the constraint  Σ val[t]·x[idx[t]]  sense  rhs  and
// returns its row index. Duplicate indices within one constraint are summed.
// The idx and val slices are copied.
func (p *Problem) AddConstraint(idx []int, val []float64, sense Sense, rhs float64, name string) int {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("lp: constraint %q: len(idx)=%d len(val)=%d", name, len(idx), len(val)))
	}
	for _, v := range idx {
		if v < 0 || v >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, v))
		}
	}
	for _, v := range val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("lp: constraint %q has non-finite coefficient %g", name, v))
		}
	}
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: constraint %q has NaN rhs", name))
	}
	r := row{
		idx:   append([]int(nil), idx...),
		val:   append([]float64(nil), val...),
		sense: sense,
		rhs:   rhs,
	}
	p.rows = append(p.rows, r)
	p.rowNames = append(p.rowNames, name)
	p.nnz += len(idx)
	return len(p.rows) - 1
}

// Value evaluates the objective at x (length NumVariables) in the problem's
// own orientation.
func (p *Problem) Value(x []float64) float64 {
	v := 0.0
	for j, c := range p.obj {
		v += c * x[j]
	}
	return v
}

// CheckFeasible verifies that x satisfies all bounds and constraints within
// tol, returning a descriptive error for the first violation.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("lp: len(x)=%d, want %d", len(x), len(p.obj))
	}
	for j := range x {
		if x[j] < p.lb[j]-tol || x[j] > p.ub[j]+tol {
			return fmt.Errorf("lp: variable %d value %g outside [%g, %g]", j, x[j], p.lb[j], p.ub[j])
		}
	}
	for i, r := range p.rows {
		sum := 0.0
		for t, v := range r.idx {
			sum += r.val[t] * x[v]
		}
		scale := 1 + math.Abs(r.rhs)
		switch r.sense {
		case LE:
			if sum > r.rhs+tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g > %g", i, p.rowNames[i], sum, r.rhs)
			}
		case GE:
			if sum < r.rhs-tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g < %g", i, p.rowNames[i], sum, r.rhs)
			}
		case EQ:
			if math.Abs(sum-r.rhs) > tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g != %g", i, p.rowNames[i], sum, r.rhs)
			}
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int8

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no feasible point.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration limit was reached before convergence.
	IterLimit
	// Numerical means the solver lost numerical precision beyond repair.
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Numerical:
		return "numerical-failure"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the original orientation
	X         []float64 // one value per structural variable
	Dual      []float64 // one shadow price per constraint, original orientation
	// ReducedCost holds per-variable reduced costs (original orientation).
	ReducedCost []float64
	Iterations  int // total simplex pivots across both phases
	// Basis is the final basis snapshot (optimal solves only), suitable for
	// warm-starting a later solve via Model.SetBasis.
	Basis *Basis
	// WarmStarted reports whether the solve actually started from the
	// model's warm basis; false means the snapshot was rejected (dimension
	// mismatch, singular, or unrepairably infeasible) and the solver ran a
	// cold phase 1 instead.
	WarmStarted bool
	// DualPivots counts the pivots taken by the dual simplex phase of a
	// Model re-solve; zero when the primal path ran. A successful dual
	// re-solve typically shows a handful of DualPivots and near-zero
	// remaining primal Iterations beyond them.
	DualPivots int
}

// SolverBackend selects the basis-factorization engine of the simplex.
type SolverBackend int8

const (
	// AutoBackend resolves to the package default, SparseLU (overridable
	// with SetDefaultBackend). It is the zero value, so Options{} picks
	// the sparse backend everywhere without callers changing.
	AutoBackend SolverBackend = iota
	// SparseLU factorizes the basis as a sparse LU (Markowitz-ordered
	// Gaussian elimination) and absorbs pivots with Forrest–Tomlin updates
	// of the stored U factor. Per-iteration cost scales with factor fill
	// rather than m². On numerical trouble the solve transparently falls
	// back to Dense.
	SparseLU
	// Dense maintains an explicit dense basis inverse rebuilt by
	// Gauss-Jordan elimination: the slow but simple reference backend,
	// kept for differential testing and as the fallback target.
	Dense
)

func (b SolverBackend) String() string {
	switch b {
	case AutoBackend:
		return "auto"
	case SparseLU:
		return "sparselu"
	case Dense:
		return "dense"
	}
	return fmt.Sprintf("SolverBackend(%d)", int8(b))
}

// ParseBackend parses "auto", "sparselu", or "dense".
func ParseBackend(s string) (SolverBackend, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return AutoBackend, nil
	case "sparselu", "sparse", "lu":
		return SparseLU, nil
	case "dense":
		return Dense, nil
	}
	return AutoBackend, fmt.Errorf("lp: unknown backend %q (want auto|sparselu|dense)", s)
}

// defaultBackend is what AutoBackend resolves to; see SetDefaultBackend.
var defaultBackend = SparseLU

// SetDefaultBackend changes what AutoBackend resolves to for every
// subsequent solve and returns the previous default. It is meant for
// process-wide configuration (benchmark harnesses, command-line flags)
// before solving starts; it is not synchronized with concurrent solves.
func SetDefaultBackend(b SolverBackend) SolverBackend {
	prev := defaultBackend
	if b == AutoBackend {
		b = SparseLU
	}
	defaultBackend = b
	return prev
}

func (b SolverBackend) resolve() SolverBackend {
	if b == AutoBackend {
		return defaultBackend
	}
	return b
}

// Options tune the solver. The zero value selects sensible defaults.
type Options struct {
	// Backend selects the basis-factorization engine. The zero value
	// (AutoBackend) resolves to SparseLU.
	Backend SolverBackend
	// MaxIters bounds total pivots; 0 means 50·(m+n)+10000.
	MaxIters int
	// ReinvertEvery rebuilds the basis inverse after this many pivots
	// (default 512). Rebuilds also happen on detected drift.
	ReinvertEvery int
	// BlandOnly forces Bland's rule from the first pivot. Slower but useful
	// for differential testing against the default pricing.
	BlandOnly bool
	// Scale applies geometric-mean equilibration (powers of two) before
	// solving and unscales the solution afterwards. Recommended for models
	// whose coefficients span several orders of magnitude.
	Scale bool
	// Devex enables reference devex pricing (Forrest–Goldfarb) instead of
	// Dantzig's rule. Devex approximates steepest-edge at a fraction of the
	// cost and typically cuts iteration counts substantially on the
	// allocation LPs in this repository.
	Devex bool
	// Obs, when non-nil, receives per-solve telemetry: phase spans
	// (standardize, factor, refactor, phase1, phase2, dual, warm-repair),
	// warm-path instants (cold-fallback, dual-reject), and solve-level
	// counters/histograms. The nil default costs one pointer check per
	// hook site. See internal/obs.
	Obs *obs.Observer

	// warmBasis optionally seeds the solve from a basis snapshot; Model
	// fills it from its stored basis (see Model.SolveWithOptions and
	// SetBasis). A snapshot that no longer fits (wrong dimensions, singular,
	// or unrepairably infeasible after the data changed) is silently
	// discarded in favour of a cold phase 1, so warm starts never change the
	// solve outcome — only its speed.
	warmBasis *Basis
	// dual attempts a dual simplex re-solve from warmBasis before the primal
	// warm path: the snapshot's statuses are installed, and if they are
	// still dual feasible (which an optimal basis remains under
	// rhs/bound-only perturbations), dual pivots drive the out-of-bounds
	// basics home in a handful of iterations instead of a primal repair
	// phase. A start that is dual infeasible, or a dual phase that fails,
	// falls back to the primal warm path and then cold, so dual never
	// changes the solve outcome. Model sets it when only rhs/bounds changed
	// since its basis was taken.
	dual bool
}

// Solver tolerances. They are typed so that expressions over them round
// exactly as the same arithmetic on float64 variables would.
const (
	tolFeas  float64 = 1e-7 // primal feasibility
	tolOpt   float64 = 1e-7 // dual feasibility (reduced cost)
	tolPivot float64 = 1e-8 // smallest acceptable pivot magnitude
)

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50*(m+n) + 10000
	}
	if o.ReinvertEvery == 0 {
		o.ReinvertEvery = 512
	}
	return o
}

// Solve optimizes the problem with default options.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWithOptions(Options{})
}

// SolveWithOptions optimizes the problem. A non-nil error is returned only
// for malformed models; solver outcomes (infeasible, unbounded, ...) are
// reported through Solution.Status.
func (p *Problem) SolveWithOptions(opts Options) (*Solution, error) {
	return solveWithRetry(p, opts, func(o Options) *Solution { return newSimplex(p, o).solve() })
}

// solveWithRetry is the one solve policy of Problem and Model: it refuses a
// model without variables, runs one simplex attempt, and applies the last
// line of the SparseLU fallback policy. If the sparse backend (or its
// mid-solve dense fallback) still ended in numerical failure, it re-solves
// once from scratch with the dense backend, whose pivot sequence differs
// enough to escape most bad factorizations. A warm-started dense solve
// gets the same one retry (cold), so a stale basis can never change the
// solve outcome.
func solveWithRetry(p *Problem, opts Options, run func(Options) *Solution) (*Solution, error) {
	if len(p.obj) == 0 {
		return nil, fmt.Errorf("lp: model has no variables")
	}
	sol := run(opts)
	if sol.Status == Numerical && (opts.Backend.resolve() != Dense || opts.warmBasis != nil) {
		opts.Obs.Instant("lp.dense-retry", nil)
		opts.Backend = Dense
		opts.warmBasis = nil // a bad warm basis must not poison the retry
		opts.dual = false
		sol = run(opts)
	}
	return sol, nil
}

// standardized holds the equality-form model  min cᵀx, Ax = b, l ≤ x ≤ u.
// Columns 0..n-1 are structural; columns n..n+m-1 are slacks (one per row).
type standardized struct {
	m, n  int // rows, structural columns
	ncols int // n + m

	// Column-wise sparse A, including slack columns.
	colPtr []int32
	rowInd []int32
	values []float64

	c      []float64 // minimization costs, len ncols
	lb, ub []float64 // len ncols
	b      []float64 // len m

	maximize bool
	objSign  float64 // -1 when maximize (c was negated), else +1
}

// standardize converts the builder into equality form.
func (p *Problem) standardize() *standardized {
	m := len(p.rows)
	n := len(p.obj)
	s := &standardized{
		m:        m,
		n:        n,
		ncols:    n + m,
		c:        make([]float64, n+m),
		lb:       make([]float64, n+m),
		ub:       make([]float64, n+m),
		b:        make([]float64, m),
		maximize: p.objective == Maximize,
		objSign:  1,
	}
	if s.maximize {
		s.objSign = -1
	}
	for j := 0; j < n; j++ {
		s.c[j] = s.objSign * p.obj[j]
		s.lb[j] = p.lb[j]
		s.ub[j] = p.ub[j]
	}

	// Accumulate rows into a column-count pass, then fill.
	counts := make([]int32, n+m+1)
	for i, r := range p.rows {
		seen := map[int]bool{}
		for _, v := range r.idx {
			if !seen[v] {
				counts[v+1]++
				seen[v] = true
			}
		}
		_ = i
	}
	// One slack per row.
	for i := 0; i < m; i++ {
		counts[n+i+1]++
	}
	s.colPtr = make([]int32, n+m+1)
	for j := 0; j < n+m; j++ {
		s.colPtr[j+1] = s.colPtr[j] + counts[j+1]
	}
	total := s.colPtr[n+m]
	s.rowInd = make([]int32, total)
	s.values = make([]float64, total)
	fill := make([]int32, n+m)
	copy(fill, s.colPtr[:n+m])

	// Merge duplicate indices within a row while filling.
	merged := map[int]float64{}
	for i, r := range p.rows {
		clear(merged)
		for t, v := range r.idx {
			merged[v] += r.val[t]
		}
		for v, coef := range merged {
			pos := fill[v]
			s.rowInd[pos] = int32(i)
			s.values[pos] = coef
			fill[v]++
		}
		s.b[i] = r.rhs

		// Slack column.
		sc := n + i
		pos := fill[sc]
		fill[sc]++
		s.rowInd[pos] = int32(i)
		switch r.sense {
		case LE:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, Inf
		case GE:
			s.values[pos] = -1
			s.lb[sc], s.ub[sc] = 0, Inf
		case EQ:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, 0
		}
	}
	return s
}

// col returns the sparse column j as (row indices, values).
func (s *standardized) col(j int) ([]int32, []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.rowInd[lo:hi], s.values[lo:hi]
}

// clone deep-copies the standardized form. Model solves clone before any
// option (Scale) that would mutate the shared arrays in place.
func (s *standardized) clone() *standardized {
	c := *s
	c.colPtr = append([]int32(nil), s.colPtr...)
	c.rowInd = append([]int32(nil), s.rowInd...)
	c.values = append([]float64(nil), s.values...)
	c.c = append([]float64(nil), s.c...)
	c.lb = append([]float64(nil), s.lb...)
	c.ub = append([]float64(nil), s.ub...)
	c.b = append([]float64(nil), s.b...)
	return &c
}
