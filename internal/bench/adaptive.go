package bench

import (
	"fmt"
	"runtime"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/rt"
	"tramlib/internal/stats"
	"tramlib/internal/traffic"
)

// This file measures the adaptive aggregation controller (internal/rt,
// Config.Adaptive) against the static flush policy it generalizes. The
// workload is a delivery-latency probe: paced generator workers timestamp
// each item at insert, the sink workers' deliver hook observes
// now - timestamp, and the table reports the resulting quantiles alongside
// the controller's visible activity. Three traffic shapes bracket the
// tradeoff:
//
//   - uniform: every sink fills at the same rate — the shape static config
//     is tuned for, so adaptive must only match it.
//   - zipf: a hot head fills buffers quickly while tail sinks' items sit
//     out the full static deadline; the controller should contract the cold
//     routes' deadlines and seal targets, cutting the latency tail.
//   - burst: shared on/off phases strand each on-phase's last items in
//     partial buffers; again the adaptive deadline should beat the static
//     bound's tail.

// adaptiveTopo: 16 workers in 2 processes — workers 0..7 generate,
// 8..15 (the other process) only consume, so every item crosses the
// process-addressed aggregation path.
func adaptiveTopo() cluster.Topology { return cluster.SMP(1, 2, 8) }

const (
	adaptiveGens     = 8
	adaptiveSteps    = 2500
	adaptivePace     = 8 * time.Microsecond
	adaptiveDeadline = 4 * time.Millisecond
)

// adaptiveShapes are the traffic shapes the static-vs-adaptive pairs sweep.
var adaptiveShapes = []struct {
	name string
	spec traffic.Spec
}{
	{"uniform", traffic.Spec{}},
	{"zipf", traffic.Spec{Kind: traffic.Zipf, ZipfS: 1.4}},
	{"burst", traffic.Spec{Kind: traffic.Burst, BurstOn: 2 * time.Millisecond, BurstOff: 8 * time.Millisecond}},
}

// adaptiveController is the controller config the adaptive points run:
// steer the flush-latency p99 toward 500us inside the 4ms static bound.
func adaptiveController() rt.Adaptive {
	return rt.Adaptive{
		Enabled:       true,
		TargetLatency: 500 * time.Microsecond,
		MinDeadline:   50 * time.Microsecond,
		Interval:      100 * time.Microsecond,
	}
}

// adaptiveRun drives the latency probe under one traffic shape, static
// (adaptive == false) or with the controller on. Generators busy-pace
// (time.Sleep oversleeps at microsecond granularity) and Gosched while
// waiting, so the progress goroutine — where the controller lives — keeps
// getting scheduled even on a single-CPU host.
func adaptiveRun(o Options, shape traffic.Spec, adaptive bool) (rt.Result, *stats.Hist) {
	topo := adaptiveTopo()
	cfg := rt.DefaultConfig(topo, core.WW)
	cfg.BufferItems = 64
	cfg.FlushDeadline = adaptiveDeadline
	cfg.ChunkSize = 1
	if adaptive {
		cfg.Adaptive = adaptiveController()
	}
	hist := stats.NewAtomicHist()
	origin := time.Now()
	rtm := rt.New(cfg, func(ctx *rt.Ctx, v uint64) {
		if age := time.Now().UnixNano() - int64(v); age >= 0 {
			hist.Observe(age)
		}
	}, func(w cluster.WorkerID) (int, rt.KernelFunc) {
		if int(w) >= adaptiveGens {
			return 0, nil // sinks only consume
		}
		picker := traffic.NewPicker(shape, int64(o.Seed)*97+int64(w), adaptiveGens)
		var gate *traffic.Gate
		if shape.Kind == traffic.Burst {
			gate = traffic.NewGate(shape, origin) // shared origin: gens burst in phase
		}
		next := time.Now()
		return adaptiveSteps, func(ctx *rt.Ctx, step int) {
			if gate != nil {
				if wt := gate.Wait(time.Now()); wt > 0 {
					// A worker sleeping inside its kernel cannot service the
					// progress goroutine's flush requests, so an unflushed
					// burst tail would strand until the next on-phase under
					// either policy. A bursty producer that knows it is going
					// idle flushes first; what remains measurable is how
					// each policy sealed the burst's traffic while it flowed.
					ctx.Flush()
					time.Sleep(wt)
					next = time.Now()
				}
			}
			for time.Now().Before(next) {
				runtime.Gosched()
			}
			next = next.Add(adaptivePace)
			dest := cluster.WorkerID(adaptiveGens + picker.Next())
			ctx.Send(dest, uint64(time.Now().UnixNano()))
		}
	})
	res := rtm.Run()
	return res, stats.FromState(hist.State())
}

// AdaptiveTables renders the static-vs-adaptive sweep as an aligned table
// (cmd/tramlab -adaptive): per shape and mode, the delivery-latency
// quantiles plus the controller's visible activity — batch counts, items
// shipped through the Direct fast path, and path-switch transitions.
func AdaptiveTables(o Options) []*stats.Table {
	o = o.normalized()
	tb := stats.NewTable(
		fmt.Sprintf("Adaptive aggregation on %v (WW, g=64, static deadline %v): delivery latency by traffic shape",
			adaptiveTopo(), adaptiveDeadline),
		"shape", "mode", "delivered", "wall_ms", "p50_us", "p99_us", "batches", "deadline_flush", "direct_items", "switches")
	for _, sh := range adaptiveShapes {
		for _, mode := range []struct {
			name string
			on   bool
		}{{"static", false}, {"adaptive", true}} {
			res, lat := adaptiveRun(o, sh.spec, mode.on)
			o.progressf("adaptive %s/%s done: %v, p99 %v", sh.name, mode.name, res.Wall,
				time.Duration(lat.Quantile(0.99)).Round(time.Microsecond))
			tb.AddRowf(sh.name, mode.name,
				res.Delivered,
				float64(res.Wall)/1e6,
				float64(lat.Quantile(0.50))/1e3,
				float64(lat.Quantile(0.99))/1e3,
				res.Batches,
				res.DeadlineFlushes,
				res.DirectItems,
				res.PathSwitches)
		}
	}
	return []*stats.Table{tb}
}
