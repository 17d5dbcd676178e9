package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// WorkerOptions configure a shard worker.
type WorkerOptions struct {
	// Token authenticates coordinator requests (empty disables auth).
	Token Token
	// StateFile, when non-empty, persists the engine's warm state after
	// every round (asynchronously, last-writer-wins) and restores it at
	// construction, so a restarted worker re-warms instead of cold-starting
	// and usually rejoins without a registry sync at all.
	StateFile string
	// Obs receives worker telemetry; its registry backs GET /metrics.
	Obs *obs.Observer
	Log *slog.Logger
}

// Worker owns one shard's persistent engine across rounds and serves the
// coordinator protocol: rounds apply the shard's mutation batch and re-solve
// (models, bases, and prices stay warm in-process between rounds), syncs
// reconcile the engine against the coordinator's authoritative registry.
type Worker struct {
	b    *EngineBundle
	opts WorkerOptions
	log  *slog.Logger

	// mu serializes rounds and syncs — the engine is single-threaded state.
	mu        sync.Mutex
	lastRound int

	ckpt   *Checkpoint
	saving atomic.Bool // a checkpoint write is in flight
}

// NewWorker wraps an engine bundle in the shard protocol. If a state file
// is configured and present, the engine is restored from it (a corrupt or
// mismatched file is logged and ignored — the worker starts fresh and the
// coordinator syncs it).
func NewWorker(b *EngineBundle, opts WorkerOptions) *Worker {
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	w := &Worker{b: b, opts: opts, log: opts.Log}
	w.ckpt = NewCheckpoint(opts.StateFile, b, opts.Log, &w.saving)
	if round, ok := w.ckpt.Restore(); ok {
		w.lastRound = round
	}
	return w
}

// LastRound reports the last round the worker applied.
func (w *Worker) LastRound() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastRound
}

// Handler returns the worker's HTTP surface. Round and sync mutate engine
// state and sit behind the bearer token; health and metrics are read-only
// probes and stay open.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST "+PathRound, w.opts.Token.Middleware(http.HandlerFunc(w.handleRound)))
	mux.Handle("POST "+PathSync, w.opts.Token.Middleware(http.HandlerFunc(w.handleSync)))
	mux.HandleFunc("GET "+PathHealth, w.handleHealth)
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		if w.opts.Obs == nil || w.opts.Obs.Metrics == nil {
			http.Error(rw, "no metrics registry", http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.opts.Obs.Metrics.WritePrometheus(rw)
	})
	return mux
}

func (w *Worker) handleRound(rw http.ResponseWriter, r *http.Request) {
	var req RoundRequest
	if !decodeBody(rw, r, &req, "round") {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Behind the coordinator: a mutation batch passed us by (crash, lost
	// state). 409 tells the coordinator to sync us from the registry.
	// Ahead (the coordinator wrote a previous round of ours off as
	// straggling after we finished it) is fine: unacked batches are
	// re-queued and idempotent, so applying this one is safe.
	if req.PrevRound > w.lastRound {
		w.obsCounter("pop_shard_worker_out_of_sync_total", "rounds rejected pending a registry sync").Inc()
		writeJSON(rw, http.StatusConflict, errorResponse{Error: "out of sync", LastRound: w.lastRound})
		return
	}
	start := time.Now()
	for _, s := range req.Upserts {
		w.b.Engine.Upsert(s.Job())
	}
	for _, id := range req.Removes {
		w.b.Engine.Remove(id)
	}
	resp := RoundResponse{Round: req.Round, NumJobs: w.b.Engine.NumJobs(), Kind: w.b.Kind, IDs: []int{}, EffThr: []float64{}}
	if resp.NumJobs > 0 {
		alloc, err := w.b.Engine.Solve(cluster.Cluster{TypeNames: req.TypeNames, NumGPUs: req.GPUs})
		if err != nil {
			writeJSON(rw, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("round %d failed: %v", req.Round, err)})
			return
		}
		resp.IDs, resp.EffThr, resp.X = alloc.IDs, alloc.EffThr, alloc.X
	}
	w.lastRound = req.Round
	resp.SolveMs = float64(time.Since(start).Microseconds()) / 1000
	if stats, err := json.Marshal(w.b.Stats()); err == nil {
		resp.Stats = stats
	}
	w.obsCounter("pop_shard_worker_rounds_total", "rounds this worker applied").Inc()
	if o := w.opts.Obs; o != nil {
		o.Histogram("pop_shard_worker_round_seconds", "per-round apply+solve wall time").
			Observe(time.Since(start).Seconds())
	}
	w.log.Debug("shard round", "round", req.Round, "jobs", resp.NumJobs,
		"upserts", len(req.Upserts), "removes", len(req.Removes), "solve_ms", resp.SolveMs)
	w.ckpt.SaveAsync(w.lastRound)
	writeJSON(rw, http.StatusOK, resp)
}

// handleSync reconciles the engine against the coordinator's registry:
// upsert everything listed, remove everything else. Unchanged jobs no-op in
// the engines, so whatever warm state survived (a state-file restore, or a
// straggle the coordinator mistook for a crash) is kept.
func (w *Worker) handleSync(rw http.ResponseWriter, r *http.Request) {
	var req SyncRequest
	if !decodeBody(rw, r, &req, "sync") {
		return
	}
	jobs := make([]cluster.Job, len(req.Jobs))
	for i, s := range req.Jobs {
		jobs[i] = s.Job()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	resp := SyncResponse{Round: req.Round}
	resp.Kept, resp.Added, resp.Removed = cluster.SyncTo(w.b.Engine, jobs)
	w.lastRound = req.Round
	w.obsCounter("pop_shard_worker_syncs_total", "registry reconciles applied").Inc()
	w.log.Info("shard sync", "round", req.Round,
		"kept", resp.Kept, "added", resp.Added, "removed", resp.Removed)
	writeJSON(rw, http.StatusOK, resp)
}

// maxRequestBytes caps a round or sync request body. A sync carries a whole
// shard's registry, about 150 bytes per client on the wire, so 1 GiB admits
// several million clients while refusing an unbounded body before it is
// buffered. A variable only so tests can exercise the cap cheaply.
var maxRequestBytes int64 = 1 << 30

// decodeBody decodes a size-capped JSON request body into v, answering 413
// for an oversize body and 400 for a malformed one; it reports whether v
// is usable.
func decodeBody(rw http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(rw, code, errorResponse{Error: fmt.Sprintf("bad %s request: %v", what, err)})
	return false
}

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	resp := HealthResponse{OK: true, LastRound: w.lastRound, NumJobs: w.b.Engine.NumJobs(), Kind: w.b.Kind}
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, resp)
}

// SaveState synchronously persists the engine snapshot (graceful shutdown).
func (w *Worker) SaveState() error {
	return w.ckpt.Save(&w.mu, func() int { return w.lastRound })
}

func (w *Worker) obsCounter(name, help string) *obs.Counter {
	return w.opts.Obs.Counter(name, help)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
