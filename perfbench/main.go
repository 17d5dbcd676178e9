// Command perfbench is the repository's benchmark: every workload is a
// sequence of allocation rounds, measured end to end with tracing off, or
// per layer with tracing on. See README.md for the workloads and metrics.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload price-100k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every operation succeeded and every allocation passed the checker.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pop/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_iqm_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"alloc_quality", "ratio"},
}

// perLayer lists the metrics a traced run reports. A layer a workload does
// not run reports 0.
var perLayer = []metricDef{
	{"popserver.ingest_ms", "ms"},
	{"popserver.tick_ms", "ms"},
	{"popserver.round_ms", "ms"},
	{"popserver.apply_ms", "ms"},
	{"popserver.publish_ms", "ms"},
	{"popserver.fetch_ms", "ms"},
	{"popserver.fetch_bytes", "bytes"},
	{"popserver.alloc_mb_per_round", "MiB"},
	{"popserver.gc_per_round", "count"},
	{"popserver.unattributed_ms", "ms"},
	{"price.step_ms", "ms"},
	{"price.iterations_per_round", "count"},
	{"price.ms_per_iteration", "ms"},
	{"price.warm_round_frac", "ratio"},
	{"price.residual", "ratio"},
	{"shard.gather_ms", "ms"},
	{"shard.worker_ms_max", "ms"},
	{"shard.worker_skew_ms", "ms"},
	{"shard.worker_step_ms", "ms"},
	{"shard.worker_apply_ms", "ms"},
	{"shard.wire_ms", "ms"},
	{"shard.stragglers", "count"},
	{"shard.rebuilds", "count"},
	{"online.round_ms", "ms"},
	{"online.subsolves_per_round", "count"},
	{"online.clean_skip_frac", "ratio"},
	{"online.warm_hit_frac", "ratio"},
	{"online.build_ms_per_round", "ms"},
	{"lp.solves_per_round", "count"},
	{"lp.pivots_per_round", "count"},
	{"lp.dual_pivots_per_round", "count"},
	{"lp.refactors_per_round", "count"},
	{"lp.cold_fallbacks_per_round", "count"},
	{"lp.warm_hostile_drops_per_round", "count"},
	{"lp.solve_ms_mean", "ms"},
	{"lp.us_per_pivot", "us"},
	{"core.sched_pred_ms", "ms"},
	{"core.cp_bound_ms", "ms"},
	{"core.area_bound_ms", "ms"},
	{"core.overhead_ms", "ms"},
	{"core.parallel_eff", "ratio"},
	{"te.paths_s", "s"},
	{"bench.reader_lag_ms", "ms"},
	{"bench.read_p50_ms", "ms"},
	{"bench.read_tail_ms", "ms"},
	{"bench.round_p50_ms", "ms"},
	{"bench.round_tail_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
}

type metricDef struct{ name, unit string }

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// workload runs one workload and returns its metric values by name.
type workload func(ctx context.Context, b *bench) (map[string]float64, error)

var workloads = map[string]workload{
	"price-100k":   servePrice100k,
	"maxmin-8k":    serveMaxmin8k,
	"sharded-100k": serveSharded100k,
	"te-trace":     runTETrace,
}

// bench is one invocation's settings and its operation ledger.
type bench struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	popserver string
	outDir    string

	// trace holds the benchmark's spans in a traced run (nil otherwise).
	trace *obs.Trace

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	// provenance records what produced the figures.
	provenance map[string]any
	// samples records sample counts and tail percentiles for the summary.
	samples map[string]any
}

// op books one operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, err.Error())
	}
	b.errMu.Unlock()
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload: price-100k | maxmin-8k | sharded-100k | te-trace")
		seed      = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds   = flag.Float64("seconds", 16, "measured seconds of steady rounds")
		traceFl   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		popserver = flag.String("popserver", "", "popserver binary built from this checkout")
		outDir    = flag.String("out", ".bench_build", "directory for logs and traces")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFl != 0 && *traceFl != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace wants 0 or 1, got %d\n", *traceFl)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	b := &bench{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traceFl == 1,
		popserver: *popserver,
		outDir:    *outDir,
		samples:   map[string]any{},
	}
	b.provenance = provenance(b)
	if b.traced {
		b.trace = obs.NewTrace()
	}
	if err := os.MkdirAll(filepath.Join(b.outDir, "logs"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	values, err := w(ctx, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		dir := filepath.Join(b.outDir, "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = b.trace.WriteFile(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			return 1
		}
		b.samples["trace_file"] = path
	}

	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %g\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", e)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]any{"provenance": b.provenance, "samples": b.samples})
	_ = enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance records the build, the machine and the workload seed.
func provenance(b *bench) map[string]any {
	p := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"traced":     b.traced,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": map[string]int{"perfbench": runtime.GOMAXPROCS(0)},
		"commit":     "unknown",
		"dirty":      "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	return p
}

// setProcs records the GOMAXPROCS of a process under test.
func (b *bench) setProcs(name, maxprocs string) {
	n := runtime.NumCPU() // the Go runtime default
	if v, err := strconv.Atoi(maxprocs); err == nil {
		n = v
	}
	b.provenance["gomaxprocs"].(map[string]int)[name] = n
}

// sinceMs is the elapsed wall time in milliseconds.
func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundIQM is round_iqm_ms: the interquartile mean over consecutive pairs
// of rounds, each pair taken as its mean (an odd last round is dropped).
// Pairing cancels the price engine's alternation between a slow and a fast
// round, which would put a median in the gap between the two; the
// interquartile mean sets aside bursts of machine noise.
func roundIQM(rounds []float64) float64 {
	pairs := make([]float64, 0, len(rounds)/2)
	for i := 0; i+1 < len(rounds); i += 2 {
		pairs = append(pairs, (rounds[i]+rounds[i+1])/2)
	}
	return iqm(pairs)
}

// iqm is the interquartile mean: the mean of the middle half of xs, with
// the fastest and slowest quarters set aside.
func iqm(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile; (0, 0) with fewer than eleven samples.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 11 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
