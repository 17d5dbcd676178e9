package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// CoordinatorOptions configure a sharded round coordinator.
type CoordinatorOptions struct {
	// Deadline bounds each round's scatter/gather, including any registry
	// sync a worker needs first. A worker that misses it is a straggler:
	// its clients are served last round's allocation, flagged stale, and
	// its unacked mutation batch stays queued for the next round. 0 means
	// 10s.
	Deadline time.Duration
	// Token authenticates coordinator→worker requests.
	Token Token
	// Obs receives round telemetry: a "shard.round" span with per-worker
	// "shard.gather" lanes, straggler/rebuild counters, and gather-latency
	// histograms.
	Obs *obs.Observer
	Log *slog.Logger
	// Client overrides the HTTP client (tests inject httptest transports).
	Client *http.Client
}

func (o CoordinatorOptions) deadline() time.Duration {
	if o.Deadline <= 0 {
		return 10 * time.Second
	}
	return o.Deadline
}

// workerConn is the coordinator's view of one shard worker: its address,
// the registry clients hashed onto it, the last round it acked, the
// allocation it last returned, and the mutation batch queued for it.
// Batches clear only on ack — a straggling or crashed worker's batch is
// re-sent (idempotently) until a round lands.
type workerConn struct {
	url      string
	ackRound int
	stale    bool
	needSync bool
	jobs     cluster.Roster
	cols     *cluster.Columns // nil until the worker's first acked round
	kind     string
	stats    json.RawMessage
	solveMs  float64
	numJobs  int

	stragglers int64
	rebuilds   int64

	pendUp map[int]cluster.Job
	pendRm map[int]bool
}

// WorkerStatus is one worker's externally visible state (served by
// popserver's /v1/stats in coordinator mode).
type WorkerStatus struct {
	URL        string          `json:"url"`
	Round      int             `json:"round"`
	Stale      bool            `json:"stale"`
	Jobs       int             `json:"jobs"`
	SolveMs    float64         `json:"solve_ms"`
	Stragglers int64           `json:"stragglers"`
	Rebuilds   int64           `json:"rebuilds"`
	Kind       string          `json:"kind,omitempty"`
	Stats      json.RawMessage `json:"stats,omitempty"`
}

// Coordinator fans scheduling rounds out over shard-worker processes. It
// consistent-hashes clients onto workers, keeps the authoritative client
// registry (one roster per worker: the rebuild source for a crashed
// worker), and runs each round as a deadline-bounded scatter/gather. It
// satisfies Engine, so popserver drives it exactly like an in-process
// engine. Not safe for concurrent use (popserver serializes rounds under
// its engine mutex).
type Coordinator struct {
	opts   CoordinatorOptions
	log    *slog.Logger
	client *http.Client
	ring   *Ring

	workers []*workerConn
	round   int
	c       cluster.Cluster

	staleJobs int
}

// NewCoordinator builds a coordinator over the given worker base URLs.
func NewCoordinator(workerURLs []string, opts CoordinatorOptions) (*Coordinator, error) {
	if len(workerURLs) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker URL")
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		opts:    opts,
		log:     opts.Log,
		client:  client,
		ring:    NewRing(len(workerURLs)),
		workers: make([]*workerConn, len(workerURLs)),
	}
	for i, u := range workerURLs {
		c.workers[i] = &workerConn{
			url:    u,
			pendUp: map[int]cluster.Job{},
			pendRm: map[int]bool{},
		}
	}
	return c, nil
}

// Upsert registers (or updates) a client and queues the mutation for its
// shard's next round. An unchanged re-submission is a no-op.
func (c *Coordinator) Upsert(j cluster.Job) {
	w := c.workers[c.ring.Owner(j.ID)]
	if _, changed := w.jobs.Upsert(j); !changed {
		return
	}
	w.pendUp[j.ID] = j
	delete(w.pendRm, j.ID)
}

// Remove drops a client from the registry and queues the removal.
func (c *Coordinator) Remove(id int) bool {
	w := c.workers[c.ring.Owner(id)]
	if !w.jobs.Remove(id) {
		return false
	}
	w.pendRm[id] = true
	delete(w.pendUp, id)
	return true
}

// NumJobs reports the registered client count.
func (c *Coordinator) NumJobs() int {
	n := 0
	for _, w := range c.workers {
		n += w.jobs.Len()
	}
	return n
}

// IDs returns the registered client IDs in ascending order.
func (c *Coordinator) IDs() []int {
	ids := make([]int, 0, c.NumJobs())
	for _, w := range c.workers {
		ids = append(ids, w.jobs.IDs()...)
	}
	slices.Sort(ids)
	return ids
}

// StaleJobs reports how many clients the last Solve served stale.
func (c *Coordinator) StaleJobs() int { return c.staleJobs }

// Status snapshots every worker's externally visible state.
func (c *Coordinator) Status() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStatus{
			URL:        w.url,
			Round:      w.ackRound,
			Stale:      w.stale,
			Jobs:       w.numJobs,
			SolveMs:    w.solveMs,
			Stragglers: w.stragglers,
			Rebuilds:   w.rebuilds,
			Kind:       w.kind,
			Stats:      w.stats,
		}
	}
	return out
}

// gatherResult is one worker's outcome for a round.
type gatherResult struct {
	resp     *RoundResponse
	err      error
	rebuilds int64
}

// Solve runs one scatter/gather round over pool: each worker gets its
// shard's mutation batch and 1/W of the pool, solves its partition on its
// own persistent engine, and returns its allocation. Workers that miss the
// deadline (or fail) keep serving last round's rows, flagged stale; a
// worker that reports being out of sync is rebuilt from the registry first,
// inside the same deadline. The merged allocation covers every registered
// client in ascending-ID order, with Stale set.
func (c *Coordinator) Solve(pool cluster.Cluster) (*cluster.Columns, error) {
	c.c = pool
	c.round++
	round := c.round
	sub := pool.Split(len(c.workers))
	o := c.opts.Obs
	span := o.Span("shard.round").Arg("round", round).Arg("workers", len(c.workers))
	start := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), c.opts.deadline())
	defer cancel()

	baseTID := 0
	if o != nil {
		baseTID = o.TID
	}
	results := make([]gatherResult, len(c.workers))
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := o.WithTID(baseTID + 1 + i)
			sp := wo.Span("shard.gather").Arg("worker", i)
			results[i] = c.gatherOne(ctx, i, round, sub)
			sp.Arg("ok", results[i].err == nil).End()
		}(i)
	}
	wg.Wait()

	stragglers := 0
	for i, w := range c.workers {
		res := results[i]
		w.rebuilds += res.rebuilds
		if res.rebuilds > 0 {
			o.Counter("pop_shard_rebuilds_total", "workers rebuilt from the client registry").Add(res.rebuilds)
		}
		if res.err != nil {
			// Straggler or crash: keep last round's allocation, keep the
			// unacked batch queued, and let the health of the next round
			// decide whether a sync is needed (a crashed worker will 409).
			w.stale = true
			w.stragglers++
			stragglers++
			o.Counter("pop_shard_stragglers_total", "worker rounds lost to the deadline or errors").Inc()
			c.log.Warn("shard straggler", "worker", i, "url", w.url, "round", round, "err", res.err)
			continue
		}
		resp := res.resp
		w.stale = false
		w.ackRound = round
		w.kind = resp.Kind
		w.stats = resp.Stats
		w.solveMs = resp.SolveMs
		w.numJobs = resp.NumJobs
		w.pendUp = map[int]cluster.Job{}
		w.pendRm = map[int]bool{}
		// A worker holding a different client count than the registry says
		// it owns has zombie or missing clients (e.g. the coordinator
		// restarted with a cold registry); reconcile it next round.
		w.needSync = resp.NumJobs != w.jobs.Len()
		w.cols = &cluster.Columns{IDs: resp.IDs, EffThr: resp.EffThr, X: resp.X}
		o.Histogram(`pop_shard_worker_seconds{worker="`+strconv.Itoa(i)+`"}`,
			"per-worker round latency as observed by the coordinator").Observe(resp.SolveMs / 1000)
	}

	out := c.merge()
	staleJobs := c.staleJobs
	dur := time.Since(start)
	o.Counter("pop_shard_rounds_total", "completed scatter/gather rounds").Inc()
	o.Histogram("pop_shard_gather_seconds", "scatter/gather round wall time").Observe(dur.Seconds())
	o.Gauge("pop_shard_stale_jobs", "clients served a stale allocation in the last round").Set(float64(staleJobs))
	o.Gauge("pop_shard_stale_workers", "workers stale after the last round").Set(float64(stragglers))
	span.Arg("stragglers", stragglers).Arg("stale_jobs", staleJobs).End()
	c.log.Info("shard round", "round", round, "jobs", len(out.IDs),
		"stragglers", stragglers, "stale_jobs", staleJobs,
		"gather_ms", float64(dur.Microseconds())/1000)
	return out, nil
}

// gatherOne runs one worker's slice of the round: an optional registry sync
// (when flagged, or on a 409), then the round request.
func (c *Coordinator) gatherOne(ctx context.Context, i, round int, sub cluster.Cluster) gatherResult {
	w := c.workers[i]
	var rebuilds int64
	if w.needSync {
		if err := c.syncWorker(ctx, i, round-1, sub); err != nil {
			return gatherResult{err: fmt.Errorf("sync: %w", err), rebuilds: rebuilds}
		}
		rebuilds++
	}
	req := c.buildRound(i, round, sub)
	var resp RoundResponse
	status, err := c.post(ctx, w.url+PathRound, req, &resp)
	if status == http.StatusConflict {
		// The worker is behind (fresh process, lost state): rebuild it from
		// the registry, then retry the round inside the same deadline.
		if err := c.syncWorker(ctx, i, round-1, sub); err != nil {
			return gatherResult{err: fmt.Errorf("sync after conflict: %w", err), rebuilds: rebuilds}
		}
		rebuilds++
		req.PrevRound = round - 1
		resp = RoundResponse{}
		status, err = c.post(ctx, w.url+PathRound, req, &resp)
	}
	if err != nil {
		return gatherResult{err: err, rebuilds: rebuilds}
	}
	if status != http.StatusOK {
		return gatherResult{err: fmt.Errorf("round status %d", status), rebuilds: rebuilds}
	}
	if err := checkColumns(&resp, sub.NumTypes()); err != nil {
		return gatherResult{err: err, rebuilds: rebuilds}
	}
	return gatherResult{resp: &resp, rebuilds: rebuilds}
}

// buildRound assembles worker i's scatter payload: the queued batch in
// deterministic (ascending-id) order — the order the single-process engine
// equivalence relies on — and the shard's capacity slice.
func (c *Coordinator) buildRound(i, round int, sub cluster.Cluster) *RoundRequest {
	w := c.workers[i]
	req := &RoundRequest{
		Round:     round,
		PrevRound: w.ackRound,
		TypeNames: sub.TypeNames,
		GPUs:      sub.NumGPUs,
	}
	if len(w.pendUp) > 0 {
		ids := make([]int, 0, len(w.pendUp))
		for id := range w.pendUp {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		req.Upserts = make([]JobSpec, len(ids))
		for k, id := range ids {
			req.Upserts[k] = SpecOf(w.pendUp[id])
		}
	}
	if len(w.pendRm) > 0 {
		req.Removes = make([]int, 0, len(w.pendRm))
		for id := range w.pendRm {
			req.Removes = append(req.Removes, id)
		}
		sort.Ints(req.Removes)
	}
	return req
}

// syncWorker rebuilds worker i from the authoritative registry: the full
// client set of its shard, as of baseRound (this round's mutations are
// already folded into the registry; the retried round request re-applies
// them idempotently).
func (c *Coordinator) syncWorker(ctx context.Context, i, baseRound int, sub cluster.Cluster) error {
	w := c.workers[i]
	req := &SyncRequest{Round: baseRound, TypeNames: sub.TypeNames, GPUs: sub.NumGPUs}
	for _, j := range w.jobs.Ordered() {
		req.Jobs = append(req.Jobs, SpecOf(j))
	}
	var resp SyncResponse
	status, err := c.post(ctx, w.url+PathSync, req, &resp)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("sync status %d", status)
	}
	w.needSync = false
	c.log.Info("shard rebuild", "worker", i, "url", w.url, "base_round", baseRound,
		"jobs", len(req.Jobs), "kept_warm", resp.Kept)
	return nil
}

// checkColumns rejects a gathered allocation the merge cannot use: columns
// of unequal length, rows that are not r wide, or ids out of ascending
// order.
func checkColumns(resp *RoundResponse, r int) error {
	n := len(resp.IDs)
	if len(resp.EffThr) != n || (len(resp.X) != 0 && len(resp.X) != n*r) {
		return fmt.Errorf("malformed round response: %d ids, %d eff_thr, %d x for %d types",
			n, len(resp.EffThr), len(resp.X), r)
	}
	for k := 1; k < n; k++ {
		if resp.IDs[k] <= resp.IDs[k-1] {
			return fmt.Errorf("malformed round response: ids not ascending at row %d", k)
		}
	}
	return nil
}

// merge composes the workers' columns into one ascending-ID view — POP's
// reduce step across processes — by merging the workers' registry rosters
// and joining each with the columns its worker last returned. A client of a
// stale worker gets its last gathered row, flagged; a client its worker has
// never allocated gets a zero row, flagged; rows for clients the registry
// no longer holds are dropped. It records the stale count in c.staleJobs.
func (c *Coordinator) merge() *cluster.Columns {
	r := c.c.NumTypes()
	n := c.NumJobs()
	out := &cluster.Columns{
		IDs:    make([]int, 0, n),
		EffThr: make([]float64, 0, n),
		Stale:  make([]bool, 0, n),
	}
	for _, w := range c.workers {
		if w.cols != nil && len(w.cols.X) > 0 {
			out.X = make([]float64, 0, n*r)
			break
		}
	}
	owned := make([][]int, len(c.workers)) // each worker's registry ids, ascending
	for i, w := range c.workers {
		owned[i] = w.jobs.IDs()
	}
	next := make([]int, len(c.workers)) // cursor into owned[i]
	zeros := make([]float64, r)
	c.staleJobs = 0
	for {
		i := -1
		for k := range c.workers {
			if next[k] < len(owned[k]) && (i < 0 || owned[k][next[k]] < owned[i][next[i]]) {
				i = k
			}
		}
		if i < 0 {
			break
		}
		w, id := c.workers[i], owned[i][next[i]]
		next[i]++
		eff, x, found := 0.0, zeros, false
		if w.cols != nil {
			var k int
			if k, found = w.cols.Find(id); found {
				eff = w.cols.EffThr[k]
				if len(w.cols.X) > 0 {
					x = w.cols.Row(k)
				}
			}
		}
		stale := w.stale || !found
		if stale {
			c.staleJobs++
		}
		out.IDs = append(out.IDs, id)
		out.EffThr = append(out.EffThr, eff)
		out.Stale = append(out.Stale, stale)
		if out.X != nil {
			out.X = append(out.X, x...)
		}
	}
	return out
}

// post sends one JSON request and decodes the JSON answer, returning the
// HTTP status (0 on transport errors). Error bodies decode into err.
func (c *Coordinator) post(ctx context.Context, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.opts.Token.Set(req)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s: %s", url, e.Error)
		}
		return resp.StatusCode, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: bad response: %w", url, err)
	}
	return resp.StatusCode, nil
}
