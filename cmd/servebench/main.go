// Command servebench measures the sharded serving path end to end: an
// in-process coordinator scatter/gathers rounds over real shard-worker
// subprocesses (each a separate OS process serving the internal/shard wire
// protocol over loopback HTTP), with a simulated client population under
// steady churn. The same workload runs at each requested shard count, so
// the record shows what fanning the round out over workers buys — and what
// the wire costs — against the single-worker baseline.
//
// The workers are this binary re-executed with the hidden __worker
// subcommand, so the benchmark exercises true multi-process serving:
// JSON over TCP, per-worker engines warm across rounds, no shared memory.
//
// Usage:
//
//	servebench [-o BENCH_serve.json] [-shards 1,2,4] [-clients 100000]
//	           [-rounds 6] [-churn 0.01] [-policy price] [-k 1]
//	           [-deadline 120s] [-seed 1] [-big] [-quick]
//
// -big runs the 1M-client population the paper's serving story targets;
// -quick shrinks everything to smoke-test size (CI). Round 1 (the cold
// full-registry scatter) is recorded separately as load_ms; the steady
// churn rounds that follow are the per-round figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pop/internal/cluster"
	"pop/internal/shard"
)

// addrPrefix is the line a worker subprocess prints once it is listening.
const addrPrefix = "SERVEBENCH_ADDR "

type record struct {
	Shards  int `json:"shards"`
	Clients int `json:"clients"`
	// LoadMs is round 1: the cold scatter that carries the whole client
	// registry to the workers and solves from scratch.
	LoadMs float64 `json:"load_ms"`
	// Round latencies over the steady churn rounds (coordinator wall time:
	// scatter + worker solve + gather + merge).
	RoundMsMean float64 `json:"round_ms_mean"`
	RoundMsP50  float64 `json:"round_ms_p50"`
	RoundMsP95  float64 `json:"round_ms_p95"`
	// SpeedupVs1 compares the mean steady round against the 1-shard run.
	SpeedupVs1 float64 `json:"speedup_vs_1,omitempty"`
	// StaleRounds counts rounds where any worker missed the deadline;
	// StaleJobs totals the clients served stale rows across the run.
	StaleRounds int   `json:"stale_rounds"`
	StaleJobs   int64 `json:"stale_jobs"`
	Rebuilds    int64 `json:"rebuilds"`
	// SumEffThr is the final round's total effective throughput — the
	// cross-shard-count sanity figure (POP's partitions should not cost
	// much aggregate quality as the fleet grows).
	SumEffThr float64 `json:"sum_eff_thr"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	Seed        int64    `json:"seed"`
	NumCPU      int      `json:"num_cpu"`
	Policy      string   `json:"policy"`
	Clients     int      `json:"clients"`
	Rounds      int      `json:"rounds"`
	Churn       float64  `json:"churn"`
	Shards      []int    `json:"shard_counts"`
	Records     []record `json:"records"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "__worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		out      = flag.String("o", "BENCH_serve.json", "output file ('-' for stdout)")
		shardsCS = flag.String("shards", "1,2,4", "comma-separated shard-worker counts")
		clients  = flag.Int("clients", 100_000, "simulated client population")
		rounds   = flag.Int("rounds", 6, "steady churn rounds after the cold load")
		churn    = flag.Float64("churn", 0.01, "fraction of clients replaced per round")
		policy   = flag.String("policy", "price", "worker policy: price | maxmin | makespan | spacesharing")
		k        = flag.Int("k", 1, "POP sub-problems per worker engine (LP policies)")
		deadline = flag.Duration("deadline", 120*time.Second, "per-round scatter/gather deadline")
		seed     = flag.Int64("seed", 1, "workload seed")
		big      = flag.Bool("big", false, "1M-client population (overrides -clients)")
		quick    = flag.Bool("quick", false, "smoke-test sizes only (CI)")
	)
	flag.Parse()
	if *big {
		*clients = 1_000_000
	}
	if *quick {
		*clients, *rounds, *shardsCS = 2000, 3, "1,2"
	}
	var counts []int
	for _, f := range strings.Split(*shardsCS, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "servebench: bad -shards entry %q\n", f)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        *seed,
		NumCPU:      runtime.NumCPU(),
		Policy:      *policy,
		Clients:     *clients,
		Rounds:      *rounds,
		Churn:       *churn,
		Shards:      counts,
	}
	for _, n := range counts {
		rec, err := runFleet(n, *clients, *rounds, *churn, *policy, *k, *deadline, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %d shards: %v\n", n, err)
			os.Exit(1)
		}
		if len(rep.Records) > 0 && rec.RoundMsMean > 0 {
			rec.SpeedupVs1 = rep.Records[0].RoundMsMean / rec.RoundMsMean
		}
		rep.Records = append(rep.Records, rec)
		fmt.Fprintf(os.Stderr, "shards=%d clients=%d load=%.0fms round mean=%.1fms p95=%.1fms stale_rounds=%d\n",
			n, *clients, rec.LoadMs, rec.RoundMsMean, rec.RoundMsP95, rec.StaleRounds)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// benchCluster sizes the pool to the population so per-client shares stay
// in a sane range at any scale.
func benchCluster(clients int) cluster.Cluster {
	per := float64(clients) / 8
	if per < 4 {
		per = 4
	}
	return cluster.NewCluster(per, per, per)
}

func benchJob(id int, rnd *rand.Rand) cluster.Job {
	return cluster.Job{
		ID:         id,
		Throughput: []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()},
		Weight:     1,
		Scale:      1,
		NumSteps:   1000,
		Priority:   1,
	}
}

// runFleet spawns n worker subprocesses, drives the round sequence through
// a coordinator, and tears the fleet down.
func runFleet(n, clients, rounds int, churn float64, policy string, k int, deadline time.Duration, seed int64) (record, error) {
	self, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	pool := benchCluster(clients)
	gpus := make([]string, len(pool.NumGPUs))
	for i, g := range pool.NumGPUs {
		gpus[i] = strconv.FormatFloat(g/float64(n), 'g', -1, 64)
	}

	var urls []string
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			p.Wait()
		}
	}()
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "__worker",
			"-listen", "127.0.0.1:0",
			"-policy", policy,
			"-k", strconv.Itoa(k),
			"-gpus", strings.Join(gpus, ","),
		)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return record{}, err
		}
		if err := cmd.Start(); err != nil {
			return record{}, err
		}
		procs = append(procs, cmd)
		addr, err := awaitAddr(stdout)
		if err != nil {
			return record{}, fmt.Errorf("worker %d: %w", i, err)
		}
		urls = append(urls, "http://"+addr)
	}
	coord, err := shard.NewCoordinator(urls, shard.CoordinatorOptions{Deadline: deadline})
	if err != nil {
		return record{}, err
	}

	rnd := rand.New(rand.NewSource(seed))
	live := make(map[int]cluster.Job, clients)
	order := make([]int, 0, clients)
	for id := 0; id < clients; id++ {
		live[id] = benchJob(id, rnd)
		order = append(order, id)
	}
	nextID := clients
	activeOf := func() []cluster.Job {
		out := make([]cluster.Job, 0, len(order))
		for _, id := range order {
			out = append(out, live[id])
		}
		return out
	}

	step := func(list []cluster.Job) (*cluster.Columns, error) {
		cluster.SyncTo(coord, list)
		return coord.Solve(pool)
	}
	rec := record{Shards: n, Clients: clients}
	start := time.Now()
	if _, err := step(activeOf()); err != nil {
		return record{}, fmt.Errorf("cold load round: %w", err)
	}
	rec.LoadMs = float64(time.Since(start).Microseconds()) / 1000

	perRound := int(float64(clients) * churn)
	if perRound < 1 {
		perRound = 1
	}
	times := make([]float64, 0, rounds)
	var lastAlloc *cluster.Columns
	for r := 0; r < rounds; r++ {
		// Replace perRound clients: drop the oldest, admit fresh arrivals —
		// steady-state churn, not a workload reshape.
		for i := 0; i < perRound; i++ {
			delete(live, order[i])
			live[nextID] = benchJob(nextID, rnd)
			order = append(order, nextID)
			nextID++
		}
		order = order[perRound:]
		active := activeOf()

		start := time.Now()
		alloc, err := step(active)
		if err != nil {
			return record{}, fmt.Errorf("round %d: %w", r+1, err)
		}
		times = append(times, float64(time.Since(start).Microseconds())/1000)
		if s := coord.StaleJobs(); s > 0 {
			rec.StaleRounds++
			rec.StaleJobs += int64(s)
		}
		lastAlloc = alloc
	}
	for _, ws := range coord.Status() {
		rec.Rebuilds += ws.Rebuilds
	}
	if lastAlloc != nil {
		for _, thr := range lastAlloc.EffThr {
			rec.SumEffThr += thr
		}
	}
	sort.Float64s(times)
	for _, ms := range times {
		rec.RoundMsMean += ms
	}
	if len(times) > 0 {
		rec.RoundMsMean /= float64(len(times))
		rec.RoundMsP50 = times[len(times)/2]
		rec.RoundMsP95 = times[(len(times)*95)/100]
	}
	return rec, nil
}

// awaitAddr reads the worker's address announcement and then keeps
// draining its stdout in the background so the pipe never blocks it.
func awaitAddr(stdout interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, addrPrefix); ok {
			go func() {
				for sc.Scan() {
				}
			}()
			return strings.TrimSpace(addr), nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("worker exited before announcing its address")
}

// workerMain is the hidden subcommand each subprocess runs: a shard worker
// on a loopback listener, address announced on stdout.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("servebench __worker", flag.ExitOnError)
	var (
		listen = fs.String("listen", "127.0.0.1:0", "listen address")
		policy = fs.String("policy", "price", "engine policy")
		k      = fs.Int("k", 1, "POP sub-problems (LP policies)")
		gpusCS = fs.String("gpus", "4,4,4", "per-type GPU capacities for this worker's slice")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var gpus []float64
	for _, f := range strings.Split(*gpusCS, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad -gpus entry %q", f)
		}
		gpus = append(gpus, v)
	}
	if len(gpus) != 3 {
		return fmt.Errorf("-gpus must have 3 entries, got %d", len(gpus))
	}
	b, err := shard.NewEngine(cluster.NewCluster(gpus[0], gpus[1], gpus[2]), shard.EngineConfig{
		Policy: *policy, K: *k,
	})
	if err != nil {
		return err
	}
	w := shard.NewWorker(b, shard.WorkerOptions{})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", addrPrefix, ln.Addr().String())
	os.Stdout.Sync()

	srv := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: shard.ReadHeaderTimeout}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-stop:
		srv.Close()
		return nil
	case err := <-done:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
