package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
	"pop/internal/price"
)

// serveSpec is one serving workload: a popserver deployment and the seeded
// client stream it serves.
type serveSpec struct {
	policy  string
	k       int
	perType float64 // GPUs of each of the three types
	stream  streamConfig
	workers int // shard workers behind a coordinator; 0 = single process
	// engineHist is the /metrics histogram timing the engine's part of a
	// round: the price step, the online round, or the coordinator gather.
	engineHist string
}

const (
	serveWarmup = 2   // rounds run before measuring
	readsPerSec = 100 // the open-loop reader's rate
)

// price100k is the 1%-churn stream that price-100k and sharded-100k share.
var price100k = streamConfig{Clients: 100_000, Churn: 0.01}

func servePrice100k(ctx context.Context, b *bench) (map[string]float64, error) {
	return runServe(ctx, b, serveSpec{
		policy: "price", k: 1, perType: 12_500, stream: price100k,
		engineHist: "pop_price_round_seconds",
	})
}

func serveMaxmin8k(ctx context.Context, b *bench) (map[string]float64, error) {
	return runServe(ctx, b, serveSpec{
		policy: "maxmin", k: 16, perType: 1_000,
		stream:     streamConfig{Clients: 8_000, Churn: 0.05, MultiGPU: 0.2},
		engineHist: "pop_online_round_seconds",
	})
}

func serveSharded100k(ctx context.Context, b *bench) (map[string]float64, error) {
	return runServe(ctx, b, serveSpec{
		policy: "price", k: 1, perType: 12_500, stream: price100k, workers: 2,
		engineHist: "pop_shard_gather_seconds",
	})
}

// client is one HTTP connection to the fleet.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// serveRun is the state of one serving run.
type serveRun struct {
	b      *bench
	spec   serveSpec
	pool   cluster.Cluster
	gen    *stream
	loop   *http.Client // the closed loop's connection
	fleet  *fleet
	api    string // popserver base URL
	debug  string // popserver debug-listener base URL
	shards []string

	// readable are ids in both the served allocation and the next one, so
	// a read of any of them must succeed; the reader samples it. mu also
	// guards gen: the reader holds it shared from picking an id until the
	// reply is checked, so no round can remove the id in between.
	mu       sync.RWMutex
	readable []int
}

// call sends one request on c, books it as an operation, and returns the
// body of a 2xx reply.
func (s *serveRun) call(c *http.Client, tr *obs.Trace, tid int, span, method, url string, body []byte) ([]byte, error) {
	sp := tr.Begin(tid, span)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := func() ([]byte, error) {
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, nil
	}()
	sp.End()
	s.b.op(err)
	return out, err
}

// setup starts the fleet, loads the initial population, runs the cold
// round and verifies its allocation. The caller stops s.fleet.
func (s *serveRun) setup(ctx context.Context) error {
	s.fleet = &fleet{logDir: s.b.outDir + "/logs"}
	bin := s.b.popserver
	gpus := func(div float64) string {
		v := strconv.FormatFloat(s.spec.perType/div, 'g', -1, 64)
		return v + "," + v + "," + v
	}
	var urls []string
	for i := 0; i < s.spec.workers; i++ {
		name := "worker" + strconv.Itoa(i)
		p, err := s.fleet.start(ctx, name, bin, "1", "worker",
			"-shard-addr", "127.0.0.1:0", "-policy", s.spec.policy, "-k", strconv.Itoa(s.spec.k),
			"-gpus", gpus(float64(s.spec.workers)))
		if err != nil {
			return err
		}
		s.b.setProcs(name, p.maxprocs)
		urls = append(urls, "http://"+p.addr)
	}
	args := []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-round", "0",
		"-policy", s.spec.policy, "-k", strconv.Itoa(s.spec.k), "-gpus", gpus(1)}
	if len(urls) > 0 {
		args = append(args, "-workers", strings.Join(urls, ","))
	}
	p, err := s.fleet.start(ctx, "popserver", bin, "", args...)
	if err != nil {
		return err
	}
	s.b.setProcs("popserver", p.maxprocs)
	s.api, s.debug, s.shards = "http://"+p.addr, "http://"+p.debugAddr, urls

	const chunk = 10_000
	initial := s.gen.Initial()
	for i := 0; i < len(initial); i += chunk {
		if _, err := s.call(s.loop, s.b.trace, 1, "popserver.load", "POST", s.api+"/v1/jobs",
			encodeJobs(initial[i:min(i+chunk, len(initial))])); err != nil {
			return err
		}
	}
	if _, err := s.call(s.loop, s.b.trace, 1, "popserver.tick", "POST", s.api+"/v1/tick", []byte("{}")); err != nil {
		return err
	}
	body, err := s.call(s.loop, s.b.trace, 1, "popserver.fetch", "GET", s.api+"/v1/allocation", nil)
	if err != nil {
		return err
	}
	if _, err := s.verify(body, initial); err != nil {
		return fmt.Errorf("cold round: %w", err)
	}
	return nil
}

// verify decodes a full allocation and checks it against live; it returns
// the max-min objective of the served allocation.
func (s *serveRun) verify(body []byte, live []cluster.Job) (float64, error) {
	a, err := decodeAlloc(body)
	var alloc *cluster.Allocation
	if err == nil {
		alloc, err = checkAllocation(a, live, s.pool)
	}
	s.b.op(err)
	if err != nil {
		return 0, err
	}
	return price.MaxMinObjective(live, s.pool, alloc), nil
}

// roundRec is one measured round, as the client saw it.
type roundRec struct {
	total, ingest, tick, fetch float64 // ms
	serverMs                   float64 // solve_time_ms in the tick reply
	bytes                      float64
	quality                    float64
	traced                     bool
}

// round sends one batch, ticks, and fetches and verifies the allocation.
// Its calls record spans on tr (nil records none).
func (s *serveRun) round(b batch, tr *obs.Trace) (roundRec, error) {
	rec := roundRec{traced: tr != nil}
	t0 := time.Now()
	for _, id := range b.Removes {
		if _, err := s.call(s.loop, tr, 1, "popserver.delete", "DELETE", s.api+"/v1/jobs/"+strconv.Itoa(id), nil); err != nil {
			return rec, err
		}
	}
	if _, err := s.call(s.loop, tr, 1, "popserver.submit", "POST", s.api+"/v1/jobs", encodeJobs(b.Adds)); err != nil {
		return rec, err
	}
	rec.ingest = sinceMs(t0)
	t1 := time.Now()
	tickBody, err := s.call(s.loop, tr, 1, "popserver.tick", "POST", s.api+"/v1/tick", []byte("{}"))
	if err != nil {
		return rec, err
	}
	rec.tick = sinceMs(t1)
	t2 := time.Now()
	body, err := s.call(s.loop, tr, 1, "popserver.fetch", "GET", s.api+"/v1/allocation", nil)
	if err != nil {
		return rec, err
	}
	rec.fetch = sinceMs(t2)
	rec.total = sinceMs(t0)
	rec.bytes = float64(len(body))

	var tick struct {
		SolveTimeMs float64 `json:"solve_time_ms"`
	}
	if err := json.Unmarshal(tickBody, &tick); err != nil {
		return rec, fmt.Errorf("tick reply: %w", err)
	}
	rec.serverMs = tick.SolveTimeMs
	rec.quality, err = s.verify(body, s.gen.Live())
	return rec, err
}

// reader is the open-loop reader on the second connection: single-row reads
// of random readable ids, due at a fixed rate, each timed from its due time.
type reader struct {
	lat, lag []float64 // ms
}

func (s *serveRun) read(stop <-chan struct{}, seed int64, out *reader) {
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	every := time.Second / readsPerSec
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		s.mu.RLock()
		id := s.readable[rng.Intn(len(s.readable))]
		job, _ := s.gen.Job(id) // readable ids are live
		out.lag = append(out.lag, sinceMs(due))
		body, err := s.call(c, s.b.trace, 2, "popserver.read", "GET", s.api+"/v1/allocation/"+strconv.Itoa(id), nil)
		out.lat = append(out.lat, sinceMs(due))
		s.mu.RUnlock()
		if err != nil {
			continue
		}
		var row wireRow
		err = json.Unmarshal(body, &row)
		if err == nil {
			err = checkRow(row, job, s.pool.NumTypes())
		}
		s.b.op(err)
	}
}

// scrape is one snapshot of every counter source the traced run reads.
type scrape struct {
	server  promSample
	workers []promSample
	mem     memStats
	buildNs float64
}

// statsReply is the part of GET /v1/stats the benchmark reads.
type statsReply struct {
	Engine struct {
		BuildNs float64 `json:"build_ns"`
	} `json:"engine"`
	Price struct {
		LastResidual float64 `json:"last_residual"`
	} `json:"price"`
	Workers []struct {
		SolveMs float64 `json:"solve_ms"`
		Stats   struct {
			LastResidual float64 `json:"last_residual"`
		} `json:"stats"`
	} `json:"workers"`
}

func (s *serveRun) stats() (statsReply, error) {
	var st statsReply
	body, err := s.call(s.loop, s.b.trace, 1, "popserver.stats", "GET", s.api+"/v1/stats", nil)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

func (s *serveRun) scrape() (scrape, error) {
	var sc scrape
	body, err := s.call(s.loop, s.b.trace, 1, "popserver.metrics", "GET", s.api+"/metrics", nil)
	if err != nil {
		return sc, err
	}
	sc.server = parseProm(body)
	for _, w := range s.shards {
		body, err := s.call(s.loop, s.b.trace, 1, "shard.metrics", "GET", w+"/metrics", nil)
		if err != nil {
			return sc, err
		}
		sc.workers = append(sc.workers, parseProm(body))
	}
	body, err = s.call(s.loop, s.b.trace, 1, "popserver.memstats", "GET", s.debug+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return sc, err
	}
	sc.mem = parseMemStats(body)
	st, err := s.stats()
	sc.buildNs = st.Engine.BuildNs
	return sc, err
}

// workerSum adds the workers' samples series by series.
func workerSum(ws []promSample) promSample {
	out := promSample{}
	for _, w := range ws {
		for k, v := range w {
			out[k] += v
		}
	}
	return out
}

func runServe(ctx context.Context, b *bench, spec serveSpec) (map[string]float64, error) {
	s := &serveRun{
		b:    b,
		spec: spec,
		pool: cluster.NewCluster(spec.perType, spec.perType, spec.perType),
		gen:  newStream(spec.stream, b.seed),
		loop: newClient(),
	}
	defer s.loop.CloseIdleConnections()
	defer func() {
		if s.fleet != nil {
			s.fleet.stop()
		}
	}()

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if s.fleet != nil {
			s.fleet.stop()
			s.loop.CloseIdleConnections()
		}
		t0 := time.Now()
		if err := s.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, float64(time.Since(t0).Nanoseconds())/1e9)
	}
	b.samples["setups"] = len(setups)
	s.readable = make([]int, 0, len(s.gen.Initial()))
	for _, j := range s.gen.Initial() {
		s.readable = append(s.readable, j.ID)
	}

	for i := 0; i < serveWarmup; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := s.beginRound()
		if _, err := s.round(next, nil); err == nil { // failures are booked by round
			s.endRound(next)
		}
	}

	var before scrape
	if b.traced {
		var err error
		if before, err = s.scrape(); err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
	}
	var rd reader
	stopRead := make(chan struct{})
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		s.read(stopRead, b.seed+1, &rd)
	}()

	// A traced run records spans on alternate pairs of rounds, so the two
	// halves give the tracing overhead. Pairs, because the price engine's
	// rounds alternate between a slow and a fast one.
	var recs []roundRec
	var workerMax, workerSkew, workerMean, residual []float64
	start := time.Now()
	for attempt := 0; attempt < 5 || time.Since(start).Seconds() < b.seconds; attempt++ {
		if ctx.Err() != nil {
			break
		}
		tr := b.trace
		if attempt/2%2 == 1 {
			tr = nil
		}
		next := s.beginRound()
		rec, err := s.round(next, tr)
		if err != nil {
			continue // booked as a failed operation
		}
		s.endRound(next)
		recs = append(recs, rec)
		if !b.traced {
			continue
		}
		st, err := s.stats()
		if err != nil {
			continue
		}
		if len(st.Workers) == 0 {
			residual = append(residual, st.Price.LastResidual)
			continue
		}
		lo, hi, sum, res := st.Workers[0].SolveMs, 0.0, 0.0, 0.0
		for _, w := range st.Workers {
			lo, hi, sum = min(lo, w.SolveMs), max(hi, w.SolveMs), sum+w.SolveMs
			res = max(res, w.Stats.LastResidual)
		}
		workerMax, workerSkew = append(workerMax, hi), append(workerSkew, hi-lo)
		workerMean = append(workerMean, sum/float64(len(st.Workers)))
		residual = append(residual, res)
	}
	close(stopRead)
	<-readDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	rss, err := s.fleet.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var total, ingest, tick, fetch, server, size, quality, tracedTotal, plainTotal []float64
	for _, r := range recs {
		total, ingest, tick = append(total, r.total), append(ingest, r.ingest), append(tick, r.tick)
		fetch, server, size = append(fetch, r.fetch), append(server, r.serverMs), append(size, r.bytes)
		quality = append(quality, r.quality)
		if r.traced {
			tracedTotal = append(tracedTotal, r.total)
		} else {
			plainTotal = append(plainTotal, r.total)
		}
	}
	out["setup_s"] = median(setups)
	out["round_iqm_ms"] = roundIQM(total)
	out["peak_rss_mb"] = rss
	out["alloc_quality"] = median(quality)
	b.samples["rounds"] = len(recs)
	b.samples["round_ms"] = total
	b.samples["reads"] = len(rd.lat)
	if !b.traced {
		return out, nil
	}

	after, err := s.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	n := float64(len(recs))
	out["popserver.ingest_ms"] = mean(ingest)
	out["popserver.tick_ms"] = mean(tick)
	out["popserver.round_ms"] = mean(server)
	out["popserver.apply_ms"] = mean(tick) - mean(server)
	out["popserver.publish_ms"] = mean(server) - histMeanMs(before.server, after.server, spec.engineHist)
	out["popserver.fetch_ms"] = mean(fetch)
	out["popserver.fetch_bytes"] = mean(size)
	out["popserver.alloc_mb_per_round"] = (after.mem.TotalAlloc - before.mem.TotalAlloc) / (1 << 20) / n
	out["popserver.gc_per_round"] = (after.mem.NumGC - before.mem.NumGC) / n
	out["popserver.unattributed_ms"] = mean(total) - mean(ingest) - mean(tick) - mean(fetch)

	// The price engine runs in popserver, or in the workers when sharded.
	pb, pa := before.server, after.server
	if spec.workers > 0 {
		pb, pa = workerSum(before.workers), workerSum(after.workers)
	}
	if spec.policy == "price" {
		out["price.step_ms"] = histMeanMs(pb, pa, "pop_price_round_seconds")
		out["price.iterations_per_round"] = delta(pb, pa, "pop_price_iterations_total") / n
		out["price.ms_per_iteration"] = 1000 * ratio(delta(pb, pa, "pop_price_round_seconds_sum"), delta(pb, pa, "pop_price_iterations_total"))
		out["price.warm_round_frac"] = ratio(delta(pb, pa, "pop_price_warm_rounds_total"), delta(pb, pa, "pop_price_rounds_total"))
		out["price.residual"] = mean(residual)
	}
	if spec.workers > 0 {
		gather := histMeanMs(before.server, after.server, "pop_shard_gather_seconds")
		step := histMeanMs(pb, pa, "pop_price_round_seconds")
		out["shard.gather_ms"] = gather
		out["shard.worker_ms_max"] = mean(workerMax)
		out["shard.worker_skew_ms"] = mean(workerSkew)
		out["shard.worker_step_ms"] = step
		out["shard.worker_apply_ms"] = mean(workerMean) - step
		out["shard.wire_ms"] = gather - mean(workerMax)
		out["shard.stragglers"] = delta(before.server, after.server, "pop_shard_stragglers_total")
		out["shard.rebuilds"] = delta(before.server, after.server, "pop_shard_rebuilds_total")
	}
	if spec.policy != "price" {
		sb, sa := before.server, after.server
		out["online.round_ms"] = histMeanMs(sb, sa, "pop_online_round_seconds")
		sub, skip := delta(sb, sa, "pop_online_subsolves_total"), delta(sb, sa, "pop_online_skipped_clean_total")
		out["online.subsolves_per_round"] = sub / n
		out["online.clean_skip_frac"] = ratio(skip, sub+skip)
		out["online.warm_hit_frac"] = ratio(delta(sb, sa, "pop_online_warm_hits_total"), delta(sb, sa, "pop_online_warm_attempts_total"))
		out["online.build_ms_per_round"] = (after.buildNs - before.buildNs) / 1e6 / n
		lpMetrics(out, sb, sa, n)
	}
	b.tails(out, total, rd.lat)
	out["bench.reader_lag_ms"] = mean(rd.lag)
	out["bench.trace_overhead_ms"] = mean(tracedTotal) - mean(plainTotal)
	return out, nil
}

// beginRound draws the next batch and narrows the readable set to the ids
// the served allocation holds that survive the batch.
func (s *serveRun) beginRound() batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	served := s.readable
	next := s.gen.Next()
	gone := make(map[int]bool, len(next.Removes))
	for _, id := range next.Removes {
		gone[id] = true
	}
	s.readable = make([]int, 0, len(served)+len(next.Adds))
	for _, id := range served {
		if !gone[id] {
			s.readable = append(s.readable, id)
		}
	}
	return next
}

// endRound makes the batch's arrivals readable once their allocation is
// served.
func (s *serveRun) endRound(b batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range b.Adds {
		s.readable = append(s.readable, j.ID)
	}
}

// lpMetrics fills the lp layer's metrics from two samples of its counters.
func lpMetrics(out map[string]float64, before, after promSample, n float64) {
	d := func(series string) float64 { return delta(before, after, series) }
	out["lp.solves_per_round"] = d("pop_lp_solves_total") / n
	out["lp.pivots_per_round"] = d("pop_lp_pivots_total") / n
	out["lp.dual_pivots_per_round"] = d("pop_lp_dual_pivots_total") / n
	out["lp.refactors_per_round"] = d("pop_lp_refactors_total") / n
	out["lp.cold_fallbacks_per_round"] = d("pop_lp_cold_fallbacks_total") / n
	out["lp.warm_hostile_drops_per_round"] = d("pop_lp_warm_hostile_drops_total") / n
	out["lp.solve_ms_mean"] = histMeanMs(before, after, "pop_lp_solve_seconds")
	out["lp.us_per_pivot"] = 1e6 * ratio(d("pop_lp_solve_seconds_sum"), d("pop_lp_pivots_total"))
}

// tails fills the median and tail metrics and records the tails'
// percentiles with the samples.
func (b *bench) tails(out map[string]float64, rounds, reads []float64) {
	var pct float64
	out["bench.round_p50_ms"] = median(rounds)
	out["bench.round_tail_ms"], pct = tail(rounds)
	b.samples["round_tail_pct"] = pct
	out["bench.read_p50_ms"] = median(reads)
	out["bench.read_tail_ms"], pct = tail(reads)
	b.samples["read_tail_pct"] = pct
}
