package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// teTraceConfig is the te-trace workload: Deltacom under a diurnal gravity
// trace peaking at 30% of capacity, one te.SolvePOP(MaxTotalFlow, k=8) per
// interval.
var teTraceConfig = teConfig{Topology: "Deltacom", Commodities: 4000, Load: 0.3, MatrixSeed: 23, Steps: 64, StepsPerDay: 4}

const (
	teK      = 8
	teWarmup = 1 // rounds run before measuring
)

func runTETrace(ctx context.Context, b *bench) (map[string]float64, error) {
	cfg := teTraceConfig
	var setups, paths []float64
	var base *te.Instance
	trace := teTrace(topo.Generate(cfg.Topology), cfg, b.seed) // the inputs, made before set-up
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		tp := topo.Generate(cfg.Topology)
		t1 := time.Now()
		base = te.NewInstance(tp, trace[0], 4)
		paths = append(paths, time.Since(t1).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.samples["setups"] = len(setups)

	// A traced run books lp counters on every round and records lp.solve
	// spans on alternate days of the trace, so the two halves give the
	// tracing overhead.
	reg := obs.NewRegistry()
	metricsOnly := &obs.Observer{Metrics: reg}
	traced := &obs.Observer{Metrics: reg, Trace: b.trace}

	solve := func(i int, o *obs.Observer) (float64, float64, error) {
		demands := trace[i%len(trace)]
		inst := &te.Instance{Topo: base.Topo, Demands: demands, NumPaths: base.NumPaths, Paths: base.Paths}
		var sp *obs.Span
		if o == traced {
			sp = b.trace.Begin(1, "te.SolvePOP")
		}
		t0 := time.Now()
		a, err := te.SolvePOP(inst, te.MaxTotalFlow,
			core.Options{K: teK, Seed: b.seed, Parallel: true}, lp.Options{Obs: o})
		wall := sinceMs(t0)
		sp.End()
		if err == nil {
			err = checkTE(a, inst)
		}
		b.op(err)
		if err != nil {
			return wall, 0, fmt.Errorf("interval %d: %w", i%len(trace), err)
		}
		return wall, a.TotalFlow / tm.Total(demands), nil
	}

	i := 0
	for ; i < teWarmup; i++ {
		_, _, _ = solve(i, nil) // failures are booked by solve
	}
	before := registrySample(reg)
	var walls, fracs, tracedWalls, plainWalls []float64
	var pred, cp, area, overhead, eff []float64
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	// Rounds run whole days of the trace, at least two, so every run
	// weighs each time of day alike and a traced run has both halves.
	for n := 0; n < 2*cfg.StepsPerDay || n%cfg.StepsPerDay != 0 || time.Since(start).Seconds() < b.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var o *obs.Observer
		if b.traced {
			o = metricsOnly
			if n/cfg.StepsPerDay%2 == 0 {
				o = traced
			}
		}
		mark := b.trace.Len()
		wall, frac, err := solve(i, o)
		i++
		if err != nil {
			continue
		}
		walls, fracs = append(walls, wall), append(fracs, frac)
		if !b.traced {
			continue
		}
		if o != traced {
			plainWalls = append(plainWalls, wall)
			continue
		}
		tracedWalls = append(tracedWalls, wall)
		var durs []float64
		for _, e := range b.trace.Events()[mark:] {
			if e.Name == "lp.solve" {
				durs = append(durs, e.Dur/1000)
			}
		}
		p := predictParallel(durs, workers)
		sum := p.Area * float64(workers)
		pred, cp, area = append(pred, p.Sorted), append(cp, p.CP), append(area, p.Area)
		overhead = append(overhead, wall-p.Sorted)
		eff = append(eff, sum/(float64(workers)*wall))
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"setup_s":       median(setups),
		"round_iqm_ms":  roundIQM(walls),
		"peak_rss_mb":   rss,
		"alloc_quality": median(fracs),
	}
	b.samples["rounds"] = len(walls)
	b.samples["round_ms"] = walls
	if !b.traced {
		return out, nil
	}
	lpMetrics(out, before, registrySample(reg), float64(len(walls)))
	out["core.sched_pred_ms"] = mean(pred)
	out["core.cp_bound_ms"] = mean(cp)
	out["core.area_bound_ms"] = mean(area)
	out["core.overhead_ms"] = mean(overhead)
	out["core.parallel_eff"] = mean(eff)
	out["te.paths_s"] = median(paths)
	b.tails(out, walls, nil)
	out["bench.trace_overhead_ms"] = mean(tracedWalls) - mean(plainWalls)
	return out, nil
}
