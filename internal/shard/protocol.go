package shard

import (
	"encoding/json"
	"time"

	"pop/internal/cluster"
)

// ReadHeaderTimeout bounds how long the servers on either side of this
// protocol (and popserver's own API) wait for a request's headers, so a
// client that opens a connection and stalls cannot pin it forever.
const ReadHeaderTimeout = 10 * time.Second

// Wire paths of the coordinator↔worker protocol. HTTP/JSON matches the
// popserver idiom: the same tooling (curl, httptest) drives both surfaces.
const (
	// PathRound is the scatter step: one POST per worker per round carrying
	// that shard's mutation batch and sub-capacity, answered with the
	// shard's fresh allocation.
	PathRound = "/shard/v1/round"
	// PathSync is the rebuild step: the coordinator's authoritative client
	// registry for the shard, reconciled idempotently into the worker.
	PathSync = "/shard/v1/sync"
	// PathHealth reports liveness and the worker's last applied round.
	PathHealth = "/shard/v1/health"
)

// JobSpec is the wire form of one client (a cluster job). It mirrors
// cluster.Job field for field so specs round-trip exactly — float64 survives
// encoding/json bit-for-bit, which is what lets the sharded-vs-single-process
// equivalence suite pin allocations to 1e-6.
type JobSpec struct {
	ID         int       `json:"id"`
	Throughput []float64 `json:"throughput"`
	Weight     float64   `json:"weight,omitempty"`
	Scale      float64   `json:"scale,omitempty"`
	NumSteps   float64   `json:"num_steps,omitempty"`
	MemFrac    float64   `json:"mem_frac,omitempty"`
	Priority   float64   `json:"priority,omitempty"`
}

// Job converts the wire spec to the engine type.
func (s JobSpec) Job() cluster.Job {
	return cluster.Job{
		ID:         s.ID,
		Throughput: s.Throughput,
		Weight:     s.Weight,
		Scale:      s.Scale,
		NumSteps:   s.NumSteps,
		MemFrac:    s.MemFrac,
		Priority:   s.Priority,
	}
}

// SpecOf converts an engine job to its wire form.
func SpecOf(j cluster.Job) JobSpec {
	return JobSpec{
		ID:         j.ID,
		Throughput: j.Throughput,
		Weight:     j.Weight,
		Scale:      j.Scale,
		NumSteps:   j.NumSteps,
		MemFrac:    j.MemFrac,
		Priority:   j.Priority,
	}
}

// RoundRequest is the scatter payload for one worker: the round to run, the
// mutations batched for its shard since the last acked round, and the
// shard's slice of the resource pool (the coordinator owns the 1/W split, so
// workers never need to know the fleet size).
//
// PrevRound is the last round the coordinator saw this worker ack. A worker
// whose own last applied round is *behind* PrevRound has missed a mutation
// batch (it crashed and restarted, or lost its state) and must answer 409 so
// the coordinator reconciles it from the registry first. A worker *ahead* of
// PrevRound finished a round the coordinator had already written off as
// straggling; since the coordinator re-queues every unacked batch and all
// mutations are idempotent (upserts carry full specs, removes are by id),
// re-applying is safe and the worker just proceeds.
type RoundRequest struct {
	Round     int       `json:"round"`
	PrevRound int       `json:"prev_round"`
	TypeNames []string  `json:"gpu_types,omitempty"`
	GPUs      []float64 `json:"gpus"`
	Upserts   []JobSpec `json:"upserts,omitempty"`
	Removes   []int     `json:"removes,omitempty"`
}

// RoundResponse is one shard's gather payload. The allocation is columnar —
// parallel arrays instead of per-job objects — because at a million
// clients the JSON encode/decode of the gather is a first-order cost and
// arrays are several times cheaper than an object per job.
type RoundResponse struct {
	Round   int     `json:"round"`
	NumJobs int     `json:"num_jobs"`
	SolveMs float64 `json:"solve_ms"`
	// IDs, EffThr, and X carry the shard's allocation: EffThr[i] is job
	// IDs[i]'s effective throughput and X[i*r:(i+1)*r] its per-type time
	// fractions (absent for policies that do not expose per-type rows).
	IDs    []int     `json:"ids"`
	EffThr []float64 `json:"eff_thr"`
	X      []float64 `json:"x,omitempty"`
	// Kind names the engine ("lp" or "price"); Stats is its counter
	// snapshot, opaque to the coordinator (merged into /v1/stats as-is).
	Kind  string          `json:"kind,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// SyncRequest reconciles a worker against the coordinator's authoritative
// registry: Jobs is the complete client set of the shard as of Round (the
// coordinator's mutations up to and including the round being retried are
// already folded in). The worker upserts every listed job and removes any it
// holds that is absent — unchanged jobs are no-ops in the engines, so a
// worker restored from its own state file keeps its warm partitions, bases,
// and prices through a sync.
type SyncRequest struct {
	Round     int       `json:"round"`
	TypeNames []string  `json:"gpu_types,omitempty"`
	GPUs      []float64 `json:"gpus"`
	Jobs      []JobSpec `json:"jobs"`
}

// SyncResponse acks a reconcile: Kept counts the jobs the worker already
// held (its warm state), Added and Removed the diff it applied.
type SyncResponse struct {
	Round   int `json:"round"`
	Kept    int `json:"kept"`
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// HealthResponse reports worker liveness.
type HealthResponse struct {
	OK        bool   `json:"ok"`
	LastRound int    `json:"last_round"`
	NumJobs   int    `json:"num_jobs"`
	Kind      string `json:"kind,omitempty"`
}

// errorResponse is the JSON error body both ends of the protocol use.
type errorResponse struct {
	Error     string `json:"error"`
	LastRound int    `json:"last_round,omitempty"`
}
