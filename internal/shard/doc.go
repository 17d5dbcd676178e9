// Package shard turns the single-process popserver into a coordinator
// fanning scheduling rounds out over shard-worker processes — POP's
// partitioned serving story at the process level: each worker owns an
// independent slice of the client population and 1/W of the resource pool,
// solves it on its own persistent engine, and the coordinator merges the
// per-shard allocations into the cluster-wide answer.
//
// # Topology
//
// Clients are assigned to workers by a consistent-hash ring (Ring): FNV-1a
// over 64 virtual points per worker, deterministic and recomputable from
// the worker count alone. Membership is never persisted — a restarted
// coordinator rebuilds the identical assignment, and growing the fleet
// moves only ~1/W of the clients.
//
// Each worker wraps one engine (EngineBundle: the incremental LP engine
// for maxmin/makespan/spacesharing, the price-discovery engine for price)
// that stays warm in-process across rounds: LP bases and carried prices
// survive between rounds exactly as they do in single-process mode, so
// per-round work is proportional to churn, not population.
//
// # Round protocol
//
// Every layer takes deltas, never a full client list: Engine is
// Upsert/Remove plus Solve(pool), which returns one cluster.Columns view in
// the column layout RoundResponse carries, so each layer passes it along
// instead of rebuilding it. A round (Coordinator.Solve) is one
// scatter/gather:
//
//  1. Each queued submission or removal lands in the owning worker's
//     registry roster and mutation batch (unchanged re-submissions are
//     no-ops).
//  2. Scatter: each worker receives RoundRequest{Round, PrevRound,
//     batch sorted by id, its 1/W capacity slice} under a per-round
//     deadline, so every engine sees the order a single-process engine fed
//     the same deltas would.
//  3. Workers apply the batch, Solve, and write the columns to the wire as
//     they are — at serving scale the JSON shape is first-order.
//  4. Gather/merge: the workers' rosters merge in ascending-id order, each
//     joined with its worker's columns.
//
// Mutations are idempotent, and a batch stays queued until the owning
// worker acknowledges the round that carried it. cluster.SyncTo is the one
// full-list diff: batch callers use it, and so does a worker's reconcile.
//
// # Failure model
//
// Stragglers: a worker that misses the deadline keeps last round's rows
// for its clients, each flagged Stale in the merged allocation — serving
// degrades to slightly old allocations instead of blocking the round.
// Its batch remains queued; PrevRound tracking makes re-application safe
// whether the worker finished late (it is ahead and accepts the re-send)
// or never applied (it re-applies the identical batch).
//
// Crashes: a restarted worker has lastRound 0 and answers 409 to the next
// round. The coordinator then pushes a reconciling SyncRequest carrying
// the worker's whole shard from the registry (upsert everything, remove
// what the worker holds that the registry lacks) and retries the round —
// rebuild is one extra round trip, inside the same deadline. A worker
// restarted from its -state-file resumes at its saved round with warm
// engine state and needs no sync at all.
//
// The inverse failure — a coordinator restarted with an empty registry
// facing warm workers — is caught by job-count accounting: a worker
// reporting more jobs than the registry says it owns is flagged for a
// reconciling sync at the next round, which removes the zombies.
//
// # Security
//
// WorkerOptions.Token / CoordinatorOptions.Token gate the mutating
// endpoints with a shared bearer token (constant-time compare); health
// and metrics stay open for probes.
package shard
