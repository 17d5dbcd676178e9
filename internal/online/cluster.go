package online

import (
	"fmt"
	"math"
	"slices"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// ClusterPolicy selects the scheduling policy a ClusterEngine runs in each
// sub-problem.
type ClusterPolicy int8

const (
	// MaxMinFairness is the §4.1 heterogeneity-aware least-attained-service
	// policy (no space sharing).
	MaxMinFairness ClusterPolicy = iota
	// MinMakespan is the §4.1 makespan-minimizing policy.
	MinMakespan
	// SpaceSharing is max-min fairness with space sharing (§4.1, Fig 6):
	// allocation slots exist for every pair of single-GPU jobs, so two jobs
	// can time-share one GPU with interference-reduced throughputs. Pairs
	// only form within a sub-problem (the paper's §5.3 cubic reduction).
	SpaceSharing
)

func (p ClusterPolicy) String() string {
	switch p {
	case MaxMinFairness:
		return "max-min-fairness"
	case MinMakespan:
		return "min-makespan"
	case SpaceSharing:
		return "space-sharing"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", int8(p))
}

// clusterSubResult caches one sub-problem's last allocation.
type clusterSubResult struct {
	ids       []int
	index     map[int]int // id -> position in ids
	alloc     *cluster.Allocation
	objective float64
}

// clusterState is the domain state shared by the cluster adapters: the
// resource pool, the live jobs, and the per-partition results. (The
// equal-share fingerprints that used to live here — detecting when a total
// scale or capacity shift rotated every fairness denominator at once — are
// gone: lp.Model now prices the refreshed coefficients against its previous
// duals and drops a hostile basis itself.)
type clusterState struct {
	policy  ClusterPolicy
	c       cluster.Cluster
	sub     cluster.Cluster // c.Split(K)
	haveC   bool
	jobs    cluster.Roster
	results []*clusterSubResult
}

func (st *clusterState) member(id int) cluster.Job {
	j, _ := st.jobs.Get(id)
	return j
}

// soloIDs extracts the member ids from a layout's single-owner blocks, in
// block order — the member list both cluster adapters key their rows by.
func soloIDs(layout []Block) []int {
	ids := make([]int, 0, len(layout))
	for _, b := range layout {
		if b.Key.B == NoPartner {
			ids = append(ids, b.Key.A)
		}
	}
	return ids
}

func (st *clusterState) soloMembers(layout []Block) []cluster.Job {
	members := make([]cluster.Job, 0, len(layout))
	for _, b := range layout {
		if b.Key.B == NoPartner {
			members = append(members, st.member(b.Key.A))
		}
	}
	return members
}

func (st *clusterState) clear(p int) {
	st.results[p] = &clusterSubResult{index: map[int]int{}}
}

// ClusterEngine incrementally maintains a POP allocation for the GPU
// scheduling policies: jobs arrive, depart, and change; the engine keeps one
// mutable LP model per sub-cluster, applies deltas in place, and re-solves
// only the dirtied models — through the dual simplex when only capacities
// moved, warm-started otherwise. The SpaceSharing policy runs the
// pair-variable LP online: each partition's model holds a slot block per
// solo job plus one per single-GPU job pair, spliced as membership churns.
// Not safe for concurrent use.
type ClusterEngine struct {
	st  *clusterState
	eng *engine
}

// NewClusterEngine creates an engine for cluster c running the given policy
// with K sub-problems.
func NewClusterEngine(c cluster.Cluster, policy ClusterPolicy, opts Options, lpOpts lp.Options) (*ClusterEngine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st := &clusterState{
		policy:  policy,
		results: make([]*clusterSubResult, opts.K),
	}
	var ad Adapter
	if policy == SpaceSharing {
		ad = &pairAdapter{st}
	} else {
		ad = &soloAdapter{st}
	}
	eng, err := newEngine(ad, opts, lpOpts)
	if err != nil {
		return nil, err
	}
	e := &ClusterEngine{st: st, eng: eng}
	e.SetCluster(c)
	return e, nil
}

// SetCluster installs a new resource pool. A capacity change dirties every
// sub-problem (each holds 1/k of every GPU type); under MinMakespan it is a
// pure rhs delta, so the re-solves ride the dual simplex.
func (e *ClusterEngine) SetCluster(c cluster.Cluster) {
	if e.st.haveC && slices.Equal(e.st.c.NumGPUs, c.NumGPUs) {
		return
	}
	e.st.c = c
	e.st.sub = c.Split(e.eng.t.opts.K)
	e.st.haveC = true
	e.eng.t.markAllDirty()
}

// Upsert adds job j (keyed by j.ID) or applies a change to it. Unchanged
// re-submissions are no-ops and dirty nothing.
func (e *ClusterEngine) Upsert(j cluster.Job) {
	isNew, changed := e.st.jobs.Upsert(j)
	if !changed {
		return
	}
	e.eng.t.upsert(j.ID, j.Scale)
	if !isNew {
		e.eng.t.touch(j.ID)
	}
}

// Remove drops the job; survivors keep their sub-problems.
func (e *ClusterEngine) Remove(id int) bool {
	if !e.st.jobs.Remove(id) {
		return false
	}
	return e.eng.t.remove(id)
}

// MarkAllDirty forces a full re-solve on the next Solve (benchmark and
// testing hook).
func (e *ClusterEngine) MarkAllDirty() { e.eng.t.markAllDirty() }

// NumJobs reports the number of jobs currently held.
func (e *ClusterEngine) NumJobs() int { return e.st.jobs.Len() }

// IDs returns the held job IDs in ascending order.
func (e *ClusterEngine) IDs() []int { return e.st.jobs.IDs() }

// Cluster returns the current resource pool.
func (e *ClusterEngine) Cluster() cluster.Cluster { return e.st.c }

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.eng.t.stats }

// Solve installs pool (see SetCluster), re-solves every dirty sub-problem
// from its persistent model, leaving clean ones untouched, and returns the
// allocation of every held job in ascending-ID order (X nil under space
// sharing, whose jobs run in shared slots).
func (e *ClusterEngine) Solve(pool cluster.Cluster) (*cluster.Columns, error) {
	e.SetCluster(pool)
	e.eng.t.rebalance()
	if err := e.eng.solveRound(); err != nil {
		return nil, err
	}
	ids := e.st.jobs.IDs()
	out := &cluster.Columns{IDs: ids, EffThr: make([]float64, len(ids))}
	r := e.st.sub.NumTypes()
	if e.st.policy != SpaceSharing {
		out.X = make([]float64, len(ids)*r)
	}
	for pos, id := range ids {
		res, i, err := e.resultOf(id)
		if err != nil {
			return nil, err
		}
		out.EffThr[pos] = res.alloc.EffThr[i]
		if out.X != nil {
			copy(out.X[pos*r:(pos+1)*r], res.alloc.X[i])
		}
	}
	return out, nil
}

// Objective sums the sub-problem objectives — a checksum the equivalence
// tests compare against a cold full solve.
func (e *ClusterEngine) Objective() float64 {
	total := 0.0
	for _, r := range e.st.results {
		if r != nil {
			total += r.objective
		}
	}
	return total
}

// resultOf locates job id's cached sub-problem result and its local index.
func (e *ClusterEngine) resultOf(id int) (*clusterSubResult, int, error) {
	p, ok := e.eng.t.partOf[id]
	if !ok || e.st.results[p] == nil {
		return nil, 0, fmt.Errorf("online: job %d has no sub-problem result", id)
	}
	res := e.st.results[p]
	i, ok := res.index[id]
	if !ok {
		return nil, 0, fmt.Errorf("online: job %d missing from sub-problem %d result", id, p)
	}
	return res, i, nil
}

// Policy adapts the engine to gavelsim's round loop: each call syncs the
// engine to the active set (cluster.SyncTo), re-solves incrementally, and
// returns the allocation in active-set order (solo policies: X rows per
// job; space sharing: the composed Pairs/PairX slot list).
func (e *ClusterEngine) Policy() func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	return func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		cluster.SyncTo(e, jobs)
		cols, err := e.Solve(c)
		if err != nil {
			return nil, err
		}
		out := cols.For(jobs)
		for _, res := range e.st.results {
			if res == nil || len(res.ids) == 0 {
				continue
			}
			out.LPVariables += res.alloc.LPVariables
			for q := range res.alloc.Pairs {
				out.Pairs = append(out.Pairs, res.alloc.Pairs[q])
				out.PairX = append(out.PairX, slices.Clone(res.alloc.PairX[q]))
			}
		}
		return out, nil
	}
}

// soloAdapter is the Adapter for the solo policies (MaxMinFairness,
// MinMakespan): one block per job.
//
// Block layout, for n members over r GPU types: block i holds the member's
// r allocation-fraction variables and two rows — a time row and a
// structurally-complete objective row; the shared epigraph t trails the
// block variables and the r shared capacity rows trail the block rows.
type soloAdapter struct {
	*clusterState
}

func (ad *soloAdapter) Layout(p int, ids []int) []Block {
	r := ad.sub.NumTypes()
	layout := make([]Block, len(ids))
	for i, id := range ids {
		layout[i] = Block{Key: BlockKey{id, NoPartner}, Vars: r, Rows: 2}
	}
	return layout
}

func (ad *soloAdapter) BuildModel(p int, layout []Block) *lp.Model {
	return buildClusterModel(ad.policy, ad.soloMembers(layout), ad.sub)
}

// SpliceBlock inserts a member block (r variables, a time row, and a
// structurally-complete objective row). Coefficient values — including the
// member's column in the shared capacity rows — are left to RefreshModel,
// which runs on every splice pass.
func (ad *soloAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	r := ad.sub.NumTypes()
	m.InsertVariables(varAt, r, 0, 0, 1)
	vars := make([]int, r)
	ones := make([]float64, r)
	zeros := make([]float64, r+1)
	for k := 0; k < r; k++ {
		vars[k] = varAt + k
		ones[k] = 1
	}
	m.InsertConstraint(rowAt, vars, ones, lp.LE, 1, "time")
	tv := m.NumVariables() - 1 // the shared epigraph stays the last variable
	m.InsertConstraint(rowAt+1, append(append([]int(nil), vars...), tv), zeros, lp.GE, 0, "obj")
}

// RefreshModel rewrites every data-dependent value against the current
// members and capacities: each member's own objective row entry by entry,
// the shared capacity rows through the bulk setter (one pass per row, not
// per member).
func (ad *soloAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	members := ad.soloMembers(layout)
	n := len(members)
	r := ad.sub.NumTypes()
	tv := n * r
	eq := cluster.EqualShare(members, ad.sub)
	for i, j := range members {
		coefs, tc := clusterObjCoefs(ad.policy, j, eq[i])
		row := 2*i + 1
		for k := 0; k < r; k++ {
			m.SetCoeff(row, i*r+k, coefs[k])
		}
		m.SetCoeff(row, tv, tc)
	}
	idxs := make([]int, n)
	scales := make([]float64, n)
	for k := 0; k < r; k++ {
		for i, j := range members {
			idxs[i] = i*r + k
			scales[i] = j.Scale
		}
		m.SetCoeffs(2*n+k, idxs, scales)
		m.SetRHS(2*n+k, ad.sub.NumGPUs[k])
	}
}

func (ad *soloAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	if sol.Status != lp.Optimal {
		return fmt.Errorf("%v LP %v", ad.policy, sol.Status)
	}
	ids := soloIDs(layout)
	r := ad.sub.NumTypes()
	alloc := &cluster.Allocation{
		X:           make([][]float64, len(ids)),
		EffThr:      make([]float64, len(ids)),
		LPVariables: nVars,
	}
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		index[id] = i
		alloc.X[i] = make([]float64, r)
		copy(alloc.X[i], sol.X[i*r:(i+1)*r])
		alloc.EffThr[i] = cluster.EffectiveThroughput(ad.member(id), alloc.X[i])
	}
	ad.results[p] = &clusterSubResult{
		ids:       slices.Clone(ids),
		index:     index,
		alloc:     alloc,
		objective: sol.Objective,
	}
	return nil
}

func (ad *soloAdapter) Clear(p int) { ad.clear(p) }

// clusterObjCoefs computes a member's objective-row coefficients: its r
// throughput ratios and the epigraph coefficient. Degenerate jobs (no
// remaining steps, or zero equal-share throughput) get an all-zero row —
// the vacuous 0 ≥ 0 that keeps the block layout without constraining t.
func clusterObjCoefs(policy ClusterPolicy, j cluster.Job, eqShare []float64) ([]float64, float64) {
	r := len(j.Throughput)
	var denom float64
	switch policy {
	case MinMakespan:
		denom = j.NumSteps
	default:
		denom = j.Weight * cluster.EffectiveThroughput(j, eqShare) * j.Scale
	}
	coefs := make([]float64, r)
	if denom <= 0 {
		return coefs, 0
	}
	for i := 0; i < r; i++ {
		coefs[i] = j.Throughput[i] / denom
	}
	return coefs, -1
}

// buildClusterModel assembles the solo policy epigraph LP as a mutable
// model in the block layout documented on soloAdapter. Objective rows are
// always structurally complete (r+1 entries, zeroed when the member is
// degenerate) so later data refreshes patch values without fill-in. The
// formulations match cluster.MaxMinFairness / cluster.MinMakespan (modulo
// row ordering, which changes neither feasible set nor optimum).
func buildClusterModel(policy ClusterPolicy, members []cluster.Job, sub cluster.Cluster) *lp.Model {
	r := sub.NumTypes()
	m := lp.NewModel(lp.Maximize)
	for range members {
		m.AddVariables(r, 0, 0, 1)
	}
	tv := m.AddVariable(1, math.Inf(-1), lp.Inf, "t")

	eq := cluster.EqualShare(members, sub)
	for idx, j := range members {
		vars := make([]int, r)
		ones := make([]float64, r)
		for i := 0; i < r; i++ {
			vars[i] = idx*r + i
			ones[i] = 1
		}
		m.AddConstraint(vars, ones, lp.LE, 1, "time")

		coefs, tc := clusterObjCoefs(policy, j, eq[idx])
		idxs := append(append([]int(nil), vars...), tv)
		m.AddConstraint(idxs, append(coefs, tc), lp.GE, 0, "obj")
	}
	for i := 0; i < r; i++ {
		idxs := make([]int, len(members))
		coefs := make([]float64, len(members))
		for idx, j := range members {
			idxs[idx] = idx*r + i
			coefs[idx] = j.Scale
		}
		m.AddConstraint(idxs, coefs, lp.LE, sub.NumGPUs[i], "gpus")
	}
	return m
}
