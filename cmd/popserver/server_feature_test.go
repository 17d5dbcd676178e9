package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/online"
	"pop/internal/shard"
)

// doAuth is do with an optional bearer token and tenant header.
func doAuth(t *testing.T, method, url, token, tenant string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		shard.Token(token).Set(req)
	}
	if tenant != "" {
		req.Header.Set("X-Pop-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: status %d, want %d (%s)", method, url, resp.StatusCode, wantCode, raw)
	}
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return out
}

// TestServerAuthToken: with -auth-token set, every mutating endpoint demands
// the bearer token while reads and probes stay open.
func TestServerAuthToken(t *testing.T) {
	const token = "popserver-secret"
	s, err := newServer(cluster.NewCluster(4, 4, 4),
		serverConfig{policy: "maxmin", opts: online.Options{K: 2}, authToken: token}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	spec := jobSpec{ID: 1, Throughput: []float64{1, 2, 3}}
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", spec, http.StatusUnauthorized)
	doAuth(t, "POST", ts.URL+"/v1/jobs", "wrong", "", spec, http.StatusUnauthorized)
	doAuth(t, "POST", ts.URL+"/v1/tick", "", "", nil, http.StatusUnauthorized)
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/1", "", "", nil, http.StatusUnauthorized)
	doAuth(t, "PUT", ts.URL+"/v1/cluster", "", "", clusterSpec{GPUs: []float64{4, 4, 4}}, http.StatusUnauthorized)

	doAuth(t, "POST", ts.URL+"/v1/jobs", token, "", spec, http.StatusAccepted)
	doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)

	// Reads never need the token.
	doAuth(t, "GET", ts.URL+"/v1/allocation", "", "", nil, http.StatusOK)
	doAuth(t, "GET", ts.URL+"/v1/stats", "", "", nil, http.StatusOK)
	doAuth(t, "GET", ts.URL+"/healthz", "", "", nil, http.StatusOK)
}

// TestServerTenantQuota: per-tenant submissions are capped per round; the
// window resets at the tick and tenants are isolated from each other.
func TestServerTenantQuota(t *testing.T) {
	s, err := newServer(cluster.NewCluster(4, 4, 4),
		serverConfig{policy: "maxmin", opts: online.Options{K: 1}, quota: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 3; id++ {
		doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: id, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
	}
	out := doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: 3, Throughput: []float64{1, 2, 3}}, http.StatusTooManyRequests)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "over quota") {
		t.Fatalf("429 body %v does not explain the quota", out)
	}

	// A different tenant has its own window.
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "team-b", jobSpec{ID: 10, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)

	// A batch that would cross the line is rejected whole.
	batch := []jobSpec{
		{ID: 11, Throughput: []float64{1, 2, 3}},
		{ID: 12, Throughput: []float64{1, 2, 3}},
		{ID: 13, Throughput: []float64{1, 2, 3}},
	}
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "team-b", batch, http.StatusTooManyRequests)

	// The tick opens a fresh quota window.
	doAuth(t, "POST", ts.URL+"/v1/tick", "", "", nil, http.StatusOK)
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: 3, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)

	// The rejections are visible in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "pop_quota_rejections_total 2") {
		t.Fatal("metrics missing pop_quota_rejections_total 2")
	}
}

// TestServerBatchSubmit: one POST with a JSON array queues every spec, and a
// batch with one bad spec is rejected atomically.
func TestServerBatchSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	batch := make([]jobSpec, 20)
	for i := range batch {
		batch[i] = jobSpec{ID: i, Throughput: []float64{1, 2, 3 + float64(i%3)}}
	}
	out := do(t, "POST", ts.URL+"/v1/jobs", batch, http.StatusAccepted)
	if got := out["accepted"].(float64); got != 20 {
		t.Fatalf("batch accepted %g specs, want 20", got)
	}
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 20 {
		t.Fatalf("round saw %g jobs, want 20", got)
	}

	bad := []jobSpec{
		{ID: 100, Throughput: []float64{1, 2, 3}},
		{ID: 101, Throughput: []float64{1, 2}}, // wrong arity
	}
	do(t, "POST", ts.URL+"/v1/jobs", bad, http.StatusBadRequest)
	tick = do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 20 {
		t.Fatalf("rejected batch leaked jobs into the round: %g, want 20", got)
	}
}

// TestServerPendingQueueBound: with no quota set, DELETEs and batch POSTs
// past the pending-queue cap answer 429 with Retry-After, a rejected batch
// queues none of its specs, and the round that drains the queue makes room
// again. The queue is pre-filled in place to just under the cap; the
// requests that cross it go through HTTP.
func TestServerPendingQueueBound(t *testing.T) {
	s, ts := newTestServer(t)
	s.mu.Lock()
	s.pending = make([]mutation, maxPending-3)
	for i := range s.pending {
		s.pending[i].remove = -1 - i // removals of ids nobody holds
	}
	s.mu.Unlock()

	do(t, "DELETE", ts.URL+"/v1/jobs/7", nil, http.StatusAccepted)
	batch := []jobSpec{
		{ID: 1, Throughput: []float64{1, 2, 3}},
		{ID: 2, Throughput: []float64{1, 2, 3}},
		{ID: 3, Throughput: []float64{1, 2, 3}},
	}
	out := do(t, "POST", ts.URL+"/v1/jobs", batch, http.StatusTooManyRequests) // 2 slots left
	if msg, _ := out["error"].(string); !strings.Contains(msg, "pending queue full") {
		t.Fatalf("429 body %v does not explain the full queue", out)
	}
	do(t, "POST", ts.URL+"/v1/jobs", batch[:2], http.StatusAccepted) // fills the queue
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/8", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("DELETE past the cap: status %d, Retry-After %q; want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.mu.Lock()
	queued := len(s.pending)
	s.mu.Unlock()
	if queued != maxPending {
		t.Fatalf("queue holds %d mutations, want exactly the cap %d", queued, maxPending)
	}

	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 2 {
		t.Fatalf("round saw %g jobs, want the 2 accepted specs", got)
	}
	do(t, "POST", ts.URL+"/v1/jobs", batch[2], http.StatusAccepted)
	do(t, "DELETE", ts.URL+"/v1/jobs/1", nil, http.StatusAccepted)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "pop_pending_rejections_total 2") {
		t.Fatal("metrics missing pop_pending_rejections_total 2")
	}
}

// TestServerStateFileRestart: a server restarted with its -state-file picks
// up at the saved round with the engine's warm state intact — the
// single-process face of the worker snapshot machinery.
func TestServerStateFileRestart(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "popserver.state")
	cfg := serverConfig{policy: "maxmin", opts: online.Options{K: 2}, stateFile: stateFile}
	c := cluster.NewCluster(4, 4, 4)

	s1, err := newServer(c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	for id := 0; id < 8; id++ {
		do(t, "POST", ts1.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id%3)}}, http.StatusAccepted)
	}
	do(t, "POST", ts1.URL+"/v1/tick", nil, http.StatusOK)
	do(t, "POST", ts1.URL+"/v1/tick", nil, http.StatusOK)
	before := do(t, "GET", ts1.URL+"/v1/allocation", nil, http.StatusOK)
	if err := s1.saveState(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, err := newServer(c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.handler())
	t.Cleanup(ts2.Close)
	// Ticks checkpoint in the background; let those writes finish before
	// the temp dir is removed.
	t.Cleanup(func() {
		for s1.saving.Load() || s2.saving.Load() {
			time.Sleep(time.Millisecond)
		}
	})

	// The restored server resumes at the saved round stamp...
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Pop-Round"); got != "2" {
		t.Fatalf("restored server at round %q, want 2", got)
	}
	// ...with the engine's jobs and counters, so the first tick needs no
	// resubmission and continues the round sequence.
	donorStats := s1.bundle.Stats().(online.Stats)
	if got := s2.bundle.Stats().(online.Stats); got != donorStats {
		t.Fatalf("restored engine stats %+v, want %+v", got, donorStats)
	}
	tick := do(t, "POST", ts2.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["round"].(float64); got != 3 {
		t.Fatalf("first tick after restore is round %g, want 3", got)
	}
	if got := tick["num_jobs"].(float64); got != 8 {
		t.Fatalf("restored round has %g jobs, want 8", got)
	}
	after := do(t, "GET", ts2.URL+"/v1/allocation", nil, http.StatusOK)
	beforeJobs := before["jobs"].(map[string]any)
	afterJobs := after["jobs"].(map[string]any)
	for id, raw := range beforeJobs {
		wantThr := raw.(map[string]any)["effective_throughput"].(float64)
		gotJA, ok := afterJobs[id].(map[string]any)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if gotThr := gotJA["effective_throughput"].(float64); math.Abs(gotThr-wantThr) > 1e-6 {
			t.Fatalf("job %s reallocated after restart: %g -> %g", id, wantThr, gotThr)
		}
	}
}

// TestServerShardedEndToEnd: popserver in coordinator mode over two live
// shard workers — the full client-facing surface (submit, tick, allocation,
// stats, metrics) backed by scatter/gather rounds.
func TestServerShardedEndToEnd(t *testing.T) {
	const token = "fleet-secret"
	var workerURLs []string
	for i := 0; i < 2; i++ {
		b, err := shard.NewEngine(cluster.NewCluster(4, 4, 4), shard.EngineConfig{Policy: "maxmin", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := shard.NewWorker(b, shard.WorkerOptions{Token: token})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		workerURLs = append(workerURLs, ws.URL)
	}

	s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{
		workers:   workerURLs,
		deadline:  5 * time.Second,
		authToken: token,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 10; id++ {
		doAuth(t, "POST", ts.URL+"/v1/jobs", token, "",
			jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id%4)}}, http.StatusAccepted)
	}
	tick := doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 10 {
		t.Fatalf("sharded round saw %g jobs, want 10", got)
	}
	if got := tick["stale_jobs"].(float64); got != 0 {
		t.Fatalf("healthy fleet produced %g stale jobs", got)
	}

	alloc := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	served := alloc["jobs"].(map[string]any)
	if len(served) != 10 {
		t.Fatalf("allocation has %d jobs, want 10", len(served))
	}
	for id, v := range served {
		ja := v.(map[string]any)
		if thr := ja["effective_throughput"].(float64); thr <= 0 {
			t.Fatalf("job %s starved under sharding: %g", id, thr)
		}
		if stale, _ := ja["stale"].(bool); stale {
			t.Fatalf("job %s flagged stale on a healthy fleet", id)
		}
	}

	// Churn a round: remove two, add one; the diff lands on the owners.
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/0", token, "", nil, http.StatusAccepted)
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/5", token, "", nil, http.StatusAccepted)
	doAuth(t, "POST", ts.URL+"/v1/jobs", token, "", jobSpec{ID: 50, Throughput: []float64{2, 2, 2}}, http.StatusAccepted)
	tick = doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 9 {
		t.Fatalf("round after churn has %g jobs, want 9", got)
	}

	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	if kind := stats["engine_kind"].(string); kind != "sharded" {
		t.Fatalf("engine_kind = %q, want sharded", kind)
	}
	workers, ok := stats["workers"].([]any)
	if !ok || len(workers) != 2 {
		t.Fatalf("stats workers section %v, want 2 entries", stats["workers"])
	}
	totalJobs := 0.0
	for _, w := range workers {
		ws := w.(map[string]any)
		if ws["round"].(float64) != 2 {
			t.Fatalf("worker not at round 2: %v", ws)
		}
		if ws["stale"].(bool) {
			t.Fatalf("worker stale on a healthy fleet: %v", ws)
		}
		totalJobs += ws["jobs"].(float64)
	}
	if totalJobs != 9 {
		t.Fatalf("workers own %g jobs between them, want 9", totalJobs)
	}

	// The coordinator's shard counters reach /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"pop_shard_rounds_total 2",
		"pop_shard_gather_seconds",
		"pop_shard_stale_jobs 0",
		`pop_shard_worker_seconds_bucket{worker="0"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("coordinator /metrics missing %q", want)
		}
	}
}
