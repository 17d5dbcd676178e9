package price

import (
	"fmt"
	"slices"
	"time"

	"pop/internal/cluster"
	"pop/internal/lb"
	"pop/internal/obs"
)

// EngineOptions configure an online price engine.
type EngineOptions struct {
	// Solver tunes the per-round price solve. The engine supplies the
	// carried prices; Solver.Obs also receives the engine's round telemetry
	// ("price.round" spans, round counters, round-latency histograms).
	Solver Options
	// NoWarmPrice disables price carrying entirely; every round solves
	// cold. Used for the cold baseline in benchmarks and the warm-vs-cold
	// property tests.
	NoWarmPrice bool
}

// coldChurnFrac is the membership-churn fraction (arrivals plus departures
// relative to the post-diff client count) at or above which a round drops
// the carried prices and solves cold — the price-engine mirror of lp.Model's
// warm-hostile basis drop. Data changes on surviving clients never trigger
// the drop: absorbing them is what the warm start is for.
const coldChurnFrac float64 = 0.25

// solverOptions assembles a round's solve options over clients clients and
// resources resources, deciding warm vs cold from the carried prices and
// the membership churn since the last solve.
func (o EngineOptions) solverOptions(price []float64, havePrice bool, churn, clients, resources int) (Options, bool) {
	so := o.Solver
	warm := havePrice && !o.NoWarmPrice && len(price) == resources &&
		float64(churn) < coldChurnFrac*float64(max(clients, 1))
	if warm {
		so.warmPrice = price
	}
	return so, warm
}

// Stats counts a price engine's work since creation. The JSON tags fix the
// wire names popserver's /v1/stats exposes, matching online.Stats' pattern.
type Stats struct {
	// Rounds is the number of rounds solved.
	Rounds int `json:"rounds"`
	// Iterations is the total price-update iterations across rounds;
	// LastIterations and LastResidual describe the most recent round.
	Iterations     int     `json:"iterations"`
	LastIterations int     `json:"last_iterations"`
	LastResidual   float64 `json:"last_residual"`
	// ConvergedRounds counts rounds that reached the clearing tolerance.
	ConvergedRounds int `json:"converged_rounds"`
	// WarmPriceRounds counts rounds solved from carried prices;
	// ColdPriceRounds counts cold starts (first round, heavy churn, or
	// NoWarmPrice).
	WarmPriceRounds int `json:"warm_price_rounds"`
	ColdPriceRounds int `json:"cold_price_rounds"`
	// Arrivals, Departures, and Updates count the applied deltas.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Updates    int `json:"updates"`
}

// ClusterEngine maintains a price-discovery allocation for the GPU
// scheduling policies across rounds: jobs arrive, depart, and change; each
// Solve re-solves the whole market from the previous round's price vector
// (cold on heavy membership churn). It exposes the same round surface as
// online.ClusterEngine so popserver and round loops can hold either. Not
// safe for concurrent use.
type ClusterEngine struct {
	policy ClusterPolicy
	opts   EngineOptions

	c     cluster.Cluster
	haveC bool
	jobs  cluster.Roster

	price     []float64
	havePrice bool
	churn     int // arrivals + departures since the last solve

	lastObj float64
	stats   Stats
}

// NewClusterEngine creates a price engine for cluster c running the given
// policy.
func NewClusterEngine(c cluster.Cluster, policy ClusterPolicy, opts EngineOptions) (*ClusterEngine, error) {
	if policy != MaxMinFairness && policy != ProportionalFairness {
		return nil, fmt.Errorf("price: unsupported cluster policy %v", policy)
	}
	e := &ClusterEngine{policy: policy, opts: opts}
	e.SetCluster(c)
	return e, nil
}

func (e *ClusterEngine) obs() *obs.Observer { return e.opts.Solver.Obs }

// SetCluster installs a new resource pool. Carried prices are rescaled by
// the inverse capacity change per type (scarcer capacity means a
// proportionally higher clearing price); a reshaped or zeroed pool drops
// them.
func (e *ClusterEngine) SetCluster(c cluster.Cluster) {
	if e.haveC && slices.Equal(e.c.NumGPUs, c.NumGPUs) {
		return
	}
	if e.havePrice {
		if len(c.NumGPUs) != len(e.c.NumGPUs) {
			e.havePrice = false
		} else {
			for i, old := range e.c.NumGPUs {
				if old <= 0 || c.NumGPUs[i] <= 0 {
					e.havePrice = false
					break
				}
				e.price[i] *= old / c.NumGPUs[i]
			}
		}
	}
	e.c = c
	e.haveC = true
}

// Upsert adds job j (keyed by j.ID) or applies a change to it. Unchanged
// re-submissions are no-ops.
func (e *ClusterEngine) Upsert(j cluster.Job) {
	isNew, changed := e.jobs.Upsert(j)
	switch {
	case isNew:
		e.stats.Arrivals++
		e.churn++
	case changed:
		e.stats.Updates++
	}
}

// Remove drops the job.
func (e *ClusterEngine) Remove(id int) bool {
	if !e.jobs.Remove(id) {
		return false
	}
	e.stats.Departures++
	e.churn++
	return true
}

// MarkAllDirty drops the carried prices, forcing the next round to solve
// cold (benchmark and testing hook, mirroring the LP engines' full
// re-solve trigger).
func (e *ClusterEngine) MarkAllDirty() { e.havePrice = false }

// NumJobs reports the number of jobs currently held.
func (e *ClusterEngine) NumJobs() int { return e.jobs.Len() }

// IDs returns the held job IDs in ascending order.
func (e *ClusterEngine) IDs() []int { return e.jobs.IDs() }

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.stats }

// Objective reports the policy objective of the last round: the minimum
// normalized ratio under max-min fairness, Σ w·log(thr) under proportional
// fairness.
func (e *ClusterEngine) Objective() float64 { return e.lastObj }

// Solve installs pool (see SetCluster), solves the market over the held
// jobs warm from the previous round's prices (cold on heavy churn), and
// returns the allocation in ascending-ID order. The market is built in that
// order too, so an allocation depends only on the held jobs, never on the
// order their deltas arrived in.
func (e *ClusterEngine) Solve(pool cluster.Cluster) (*cluster.Columns, error) {
	jobs := e.jobs.Ordered()
	span := e.obs().Span("price.round").Arg("clients", len(jobs))
	defer span.End()
	start := time.Now()

	e.SetCluster(pool)
	so, warm := e.opts.solverOptions(e.price, e.havePrice, e.churn, len(jobs), e.c.NumTypes())
	x, eff, sol, err := solveColumns(e.policy, jobs, e.c, so)
	if err != nil {
		return nil, err
	}
	e.price = sol.Price
	e.havePrice = true
	e.churn = 0
	bookRound(&e.stats, e.obs(), sol, warm, start)

	if e.policy == ProportionalFairness {
		e.lastObj = cluster.LogUtility(jobs, &cluster.Allocation{EffThr: eff})
	} else {
		e.lastObj = MaxMinObjective(jobs, e.c, &cluster.Allocation{EffThr: eff})
	}
	span.Arg("warm", warm).Arg("iterations", sol.Iterations)
	return &cluster.Columns{IDs: e.jobs.IDs(), EffThr: eff, X: x}, nil
}

// Policy adapts the engine to gavelsim's round loop, like
// online.ClusterEngine.Policy.
func (e *ClusterEngine) Policy() func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	return func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		cluster.SyncTo(e, jobs)
		cols, err := e.Solve(c)
		if err != nil {
			return nil, err
		}
		return cols.For(jobs), nil
	}
}

func bookRound(st *Stats, o *obs.Observer, sol *Solution, warm bool, start time.Time) {
	st.Rounds++
	st.Iterations += sol.Iterations
	st.LastIterations = sol.Iterations
	st.LastResidual = sol.Residual
	if sol.Converged {
		st.ConvergedRounds++
	}
	if warm {
		st.WarmPriceRounds++
	} else {
		st.ColdPriceRounds++
	}
	if o != nil {
		o.Counter("pop_price_rounds_total", "price-engine rounds").Inc()
		if warm {
			o.Counter("pop_price_warm_rounds_total", "rounds solved from carried prices").Inc()
		} else {
			o.Counter("pop_price_cold_rounds_total", "rounds solved from cold prices").Inc()
		}
		o.Histogram("pop_price_round_seconds", "price-engine round latency").
			Observe(time.Since(start).Seconds())
	}
}

// LBEngine maintains a price-discovery shard-balancing assignment across
// rounds, carrying server prices between Steps. Load jitter on surviving
// shards rides the warm start (relative excess demand is what prices
// clear); only membership churn or a server-set change drops the prices.
// Not safe for concurrent use.
type LBEngine struct {
	opts EngineOptions

	servers []lb.Server
	shards  map[int]lb.Shard

	price     []float64
	havePrice bool
	churn     int

	lastObj float64
	stats   Stats
}

// NewLBEngine creates a price-discovery shard-balancing engine.
func NewLBEngine(opts EngineOptions) (*LBEngine, error) {
	return &LBEngine{
		opts:   opts,
		shards: make(map[int]lb.Shard),
	}, nil
}

func (e *LBEngine) obs() *obs.Observer { return e.opts.Solver.Obs }

// Stats returns the engine's work counters.
func (e *LBEngine) Stats() Stats { return e.stats }

// MarkAllDirty drops the carried prices (cold next round).
func (e *LBEngine) MarkAllDirty() { e.havePrice = false }

// Objective reports the moved bytes of the last Step's assignment.
func (e *LBEngine) Objective() float64 { return e.lastObj }

// Step diffs the instance against engine state, solves the server market
// warm from the previous round's prices, and returns the assignment. It has
// lb.Solver's shape via Solver.
func (e *LBEngine) Step(inst *lb.Instance) (*lb.Assignment, error) {
	if len(inst.Shards) == 0 || len(inst.Servers) == 0 {
		return nil, fmt.Errorf("price: empty instance")
	}
	span := e.obs().Span("price.round").Arg("clients", len(inst.Shards))
	defer span.End()
	start := time.Now()

	if !slices.Equal(e.servers, inst.Servers) {
		e.servers = append([]lb.Server(nil), inst.Servers...)
		e.havePrice = false
	}
	seen := make(map[int]bool, len(inst.Shards))
	for _, s := range inst.Shards {
		seen[s.ID] = true
		old, ok := e.shards[s.ID]
		e.shards[s.ID] = s
		switch {
		case !ok:
			e.stats.Arrivals++
			e.churn++
		case old.Load != s.Load || old.Mem != s.Mem:
			e.stats.Updates++
		}
	}
	for id := range e.shards {
		if !seen[id] {
			delete(e.shards, id)
			e.stats.Departures++
			e.churn++
		}
	}

	so, warm := e.opts.solverOptions(e.price, e.havePrice, e.churn, len(inst.Shards), len(inst.Servers))
	a, sol, err := SolveLB(inst, so)
	if err != nil {
		return nil, err
	}
	e.price = sol.Price
	e.havePrice = true
	e.churn = 0
	bookRound(&e.stats, e.obs(), sol, warm, start)
	e.lastObj = a.MovedBytes
	span.Arg("warm", warm).Arg("iterations", sol.Iterations)
	return a, nil
}

// Solver adapts the engine to lb.RunRounds' round loop.
func (e *LBEngine) Solver() lb.Solver {
	return func(inst *lb.Instance) (*lb.Assignment, error) { return e.Step(inst) }
}
