package shard

import (
	"fmt"
	"strings"

	"pop/internal/cluster"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
)

// Engine is the per-round surface a worker (or a single-process popserver)
// drives: the incremental LP engine (online.ClusterEngine), the
// price-discovery engine (price.ClusterEngine), and the sharded Coordinator
// itself all satisfy it, so every deployment shape runs the same round loop.
// Deltas are the only input: Upsert and Remove mutate the engine's client
// set, and Solve allocates whatever that set is, returning one columnar view
// in ascending-ID order. Callers holding a full client list instead of
// deltas go through cluster.SyncTo.
type Engine interface {
	Upsert(cluster.Job)
	Remove(id int) bool
	// NumJobs reports the held client count.
	NumJobs() int
	// IDs returns the held client IDs in ascending order.
	IDs() []int
	Solve(pool cluster.Cluster) (*cluster.Columns, error)
}

// EngineBundle is a constructed policy engine plus the capability hooks the
// serving layer needs without knowing the concrete type: a stats snapshot
// for /v1/stats, and state marshal/unmarshal for worker rebuild re-warming
// and -state-file restart persistence.
type EngineBundle struct {
	Engine Engine
	// Kind is "lp" for the incremental LP engines, "price" for the
	// price-discovery engine.
	Kind string
	// Stats returns the engine's counter struct (JSON-marshalable).
	Stats func() any
	// Snapshot marshals the engine's warm state (jobs, partitions, bases or
	// prices) to JSON; Restore installs such a snapshot into the engine so
	// its next round re-warms instead of cold-starting.
	Snapshot func() ([]byte, error)
	Restore  func([]byte) error
}

// EngineConfig selects and tunes a policy engine.
type EngineConfig struct {
	// Policy is maxmin | makespan | spacesharing (LP) or price.
	Policy string
	// K is the number of POP sub-problems the engine partitions its clients
	// into (LP engines; the price engine runs one market).
	K int
	// Parallel fans dirty sub-solves (LP) or best responses (price) out
	// over the worker pool.
	Parallel bool
	// Rebalance enables the LP engines' drift-bounded rebalancer.
	Rebalance bool
	// Obs receives engine telemetry; nil disables it.
	Obs *obs.Observer
}

// NewEngine constructs the policy-selected round engine. It is the single
// construction path of popserver, in both single-process and worker
// modes.
func NewEngine(c cluster.Cluster, cfg EngineConfig) (*EngineBundle, error) {
	switch strings.ToLower(cfg.Policy) {
	case "price":
		eng, err := price.NewClusterEngine(c, price.MaxMinFairness, price.EngineOptions{
			Solver: price.Options{Parallel: cfg.Parallel, Obs: cfg.Obs},
		})
		if err != nil {
			return nil, err
		}
		return &EngineBundle{
			Engine:   eng,
			Kind:     "price",
			Stats:    func() any { return eng.Stats() },
			Snapshot: func() ([]byte, error) { return eng.Snapshot().Marshal() },
			Restore:  eng.RestoreBytes,
		}, nil
	case "maxmin", "max-min", "makespan", "min-makespan", "spacesharing", "space-sharing":
		var policy online.ClusterPolicy
		switch strings.ToLower(cfg.Policy) {
		case "maxmin", "max-min":
			policy = online.MaxMinFairness
		case "makespan", "min-makespan":
			policy = online.MinMakespan
		default:
			policy = online.SpaceSharing
		}
		opts := online.Options{K: cfg.K, Parallel: cfg.Parallel, Rebalance: cfg.Rebalance, Obs: cfg.Obs}
		eng, err := online.NewClusterEngine(c, policy, opts, lp.Options{})
		if err != nil {
			return nil, err
		}
		return &EngineBundle{
			Engine:   eng,
			Kind:     "lp",
			Stats:    func() any { return eng.Stats() },
			Snapshot: func() ([]byte, error) { return eng.Snapshot().Marshal() },
			Restore:  eng.RestoreBytes,
		}, nil
	}
	return nil, fmt.Errorf("shard: unknown policy %q (want maxmin|makespan|spacesharing|price)", cfg.Policy)
}
