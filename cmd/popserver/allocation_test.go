package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/online"
	"pop/internal/shard"
)

// mapSnapshot is GET /v1/allocation's shape as encoding/json produces it
// from a map of rows keyed by the decimal id.
type mapSnapshot struct {
	Round       int                 `json:"round"`
	ComputedAt  time.Time           `json:"computed_at"`
	SolveTimeMs float64             `json:"solve_time_ms"`
	NumJobs     int                 `json:"num_jobs"`
	StaleJobs   int                 `json:"stale_jobs,omitempty"`
	Jobs        map[string]jobAlloc `json:"jobs"`
}

// checkAllocationJSON fetches the full allocation and requires it to carry
// the published columns row for row — ids, x, effective throughputs and
// stale flags — in exactly the JSON shape encoding/json gives mapSnapshot,
// and every single-row read to agree with it.
func checkAllocationJSON(t *testing.T, s *server, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()

	var got mapSnapshot
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("allocation is not valid JSON: %v", err)
	}
	want := mapSnapshot{
		Round: snap.Round, ComputedAt: snap.ComputedAt, SolveTimeMs: snap.SolveTimeMs,
		NumJobs: snap.NumJobs, StaleJobs: snap.StaleJobs, Jobs: map[string]jobAlloc{},
	}
	a := snap.alloc
	if a == nil {
		a = &cluster.Columns{}
	}
	for i, id := range a.IDs {
		ja := jobAlloc{ID: id, X: a.Row(i), EffThr: a.EffThr[i]}
		if a.Stale != nil {
			ja.Stale = a.Stale[i]
		}
		want.Jobs[strconv.Itoa(id)] = ja
	}
	if len(got.Jobs) != len(a.IDs) || got.NumJobs != len(a.IDs) {
		t.Fatalf("allocation has %d rows (num_jobs %d), the columns %d", len(got.Jobs), got.NumJobs, len(a.IDs))
	}
	for key, w := range want.Jobs {
		g, ok := got.Jobs[key]
		if !ok {
			t.Fatalf("job %s missing from the allocation", key)
		}
		if g.ID != w.ID || g.EffThr != w.EffThr || g.Stale != w.Stale || !slices.Equal(g.X, w.X) {
			t.Fatalf("job %s: served %+v, columns hold %+v", key, g, w)
		}
	}

	// Same document, key for key, as encoding/json writes the map shape.
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var gotAny, wantAny any
	if err := json.Unmarshal(body, &gotAny); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ref, &wantAny); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAny, wantAny) {
		t.Fatalf("allocation JSON differs from the map shape:\n got %s\nwant %s", body, ref)
	}

	for key, w := range want.Jobs {
		one := do(t, "GET", ts.URL+"/v1/allocation/"+key, nil, http.StatusOK)
		raw, _ := json.Marshal(one)
		var g jobAlloc
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatal(err)
		}
		if g.ID != w.ID || g.EffThr != w.EffThr || g.Stale != w.Stale || !slices.Equal(g.X, w.X) {
			t.Fatalf("GET /v1/allocation/%s = %+v, want %+v", key, g, w)
		}
	}
}

// TestAllocationJSONMatchesColumns: in single-process mode, under a solo LP
// policy, space sharing (no x rows) and the price engine, the served
// allocation is the engine's columns; a removed client reads 404, and so
// does a non-canonical spelling of a live id.
func TestAllocationJSONMatchesColumns(t *testing.T) {
	for _, policy := range []string{"maxmin", "spacesharing", "price"} {
		t.Run(policy, func(t *testing.T) {
			s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{policy: policy, opts: online.Options{K: 2}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.handler())
			t.Cleanup(ts.Close)

			do(t, "GET", ts.URL+"/v1/allocation/3", nil, http.StatusNotFound)
			checkAllocationJSON(t, s, ts) // before any round: no rows
			for id := 0; id < 12; id++ {
				do(t, "POST", ts.URL+"/v1/jobs", jobSpec{
					ID:         id,
					Throughput: []float64{1 + float64(id%3), 2, 3 + float64(id%2)},
				}, http.StatusAccepted)
			}
			do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
			checkAllocationJSON(t, s, ts)

			do(t, "DELETE", ts.URL+"/v1/jobs/3", nil, http.StatusAccepted)
			do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 40, Throughput: []float64{5, 5, 5}}, http.StatusAccepted)
			do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
			checkAllocationJSON(t, s, ts)
			do(t, "GET", ts.URL+"/v1/allocation/3", nil, http.StatusNotFound)
			do(t, "GET", ts.URL+"/v1/allocation/040", nil, http.StatusNotFound)
			do(t, "GET", ts.URL+"/v1/allocation/40", nil, http.StatusOK)
		})
	}
}

// slowHandler delays every request by delayMs (a straggling worker).
type slowHandler struct {
	h       http.Handler
	delayMs atomic.Int64
}

func (s *slowHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := s.delayMs.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	s.h.ServeHTTP(w, r)
}

// TestAllocationJSONMatchesColumnsSharded: in coordinator mode the served
// allocation is the merged columns, stale flags included — a straggling
// worker's clients are served flagged — and a removed client reads 404.
func TestAllocationJSONMatchesColumnsSharded(t *testing.T) {
	var slow []*slowHandler
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := shard.NewEngine(cluster.NewCluster(4, 4, 4), shard.EngineConfig{Policy: "maxmin", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		sh := &slowHandler{h: shard.NewWorker(b, shard.WorkerOptions{}).Handler()}
		ws := httptest.NewServer(sh)
		t.Cleanup(ws.Close)
		slow = append(slow, sh)
		urls = append(urls, ws.URL)
	}
	s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{workers: urls, deadline: 300 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 12; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id%4)}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	checkAllocationJSON(t, s, ts)

	// Worker 0 straggles while a client leaves and one arrives.
	do(t, "DELETE", ts.URL+"/v1/jobs/4", nil, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 30, Throughput: []float64{2, 2, 2}}, http.StatusAccepted)
	slow[0].delayMs.Store(700)
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	slow[0].delayMs.Store(0)
	if tick["stale_jobs"].(float64) == 0 {
		t.Fatal("a straggling worker produced no stale rows")
	}
	checkAllocationJSON(t, s, ts)
	do(t, "GET", ts.URL+"/v1/allocation/4", nil, http.StatusNotFound)
	if one := do(t, "GET", ts.URL+"/v1/allocation/"+strconv.Itoa(staleID(t, s)), nil, http.StatusOK); one["stale"] != true {
		t.Fatalf("stale row read without its flag: %v", one)
	}

	tick = do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if tick["stale_jobs"].(float64) != 0 {
		t.Fatalf("%v rows still stale after the worker recovered", tick["stale_jobs"])
	}
	checkAllocationJSON(t, s, ts)
}

// staleID returns a client the last published round served stale.
func staleID(t *testing.T, s *server) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range s.snap.alloc.Stale {
		if st {
			return s.snap.alloc.IDs[i]
		}
	}
	t.Fatal("no stale row")
	return -1
}

// TestSetClusterBodyLimit: an oversize capacity update is refused with 413
// before it is buffered, and the pool is unchanged.
func TestSetClusterBodyLimit(t *testing.T) {
	s, ts := newTestServer(t)
	big := `{"gpus":[1,1,1],"pad":"` + strings.Repeat("x", maxClusterBytes) + `"}`
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cluster", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize cluster update: status %d, want 413", resp.StatusCode)
	}
	s.mu.Lock()
	gpus := slices.Clone(s.c.NumGPUs)
	s.mu.Unlock()
	if !slices.Equal(gpus, []float64{4, 4, 4}) {
		t.Fatalf("refused update changed the pool to %v", gpus)
	}
}
