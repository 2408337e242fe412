package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tramlib/tram"
)

// The traced protocol of one workload: a shorter pass over the same halves
// as the untraced protocol, with spans recorded around every call the
// benchmark makes, followed by the stage drivers. It reports the per-layer
// metrics only; end-to-end metrics always come from untraced runs.
//
//  1. one set-up cycle and a short warm-up;
//  2. plain flood reps (plainShare of --seconds): the untraced reference,
//     and the process's allocation and memory figures;
//  3. traced flood reps (tracedShare): the same load through the
//     instrumented kernel, giving Insert and Deliver time per item, the
//     batching counters, and — against step 2 — what tracing itself costs;
//  4. latency reps (latencyShare): the open-loop half's tail, generator
//     lateness and batching counters;
//  5. every stage driver, sized by work rather than by time.
const (
	plainShare   = 0.20
	tracedShare  = 0.20
	latencyShare = 0.15
	tracedWarmup = time.Second
)

// tracedMetrics are the per-layer metrics taken from the workload's own reps;
// the rest come from layerDrivers.
var tracedMetrics = []string{
	"tram.insert_ns_per_item", "apps.deliver_ns_per_item",
	"shmem.items_per_batch.flood", "shmem.full_seal_share", "rt.local_direct_share",
	"mem.allocs_per_item", "mem.bytes_per_item", "mem.peak_rss_mb",
	"shmem.items_per_batch.paced", "shmem.deadline_seal_share", "rt.deadline_flushes_per_s",
	"paced.latency_p99_us", "paced.gen_late_p95_us",
	"trace.overhead_share", "trace.residual_share", "trace.long_span_share",
}

// perLayerNames lists every per-layer metric the program measures.
func perLayerNames() []string {
	names := append([]string(nil), tracedMetrics...)
	for _, d := range layerDrivers {
		names = append(names, d.metrics...)
	}
	return names
}

// ratio is a/b, or 0 when there is nothing to divide by (a run that sealed
// no batch has no items per batch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batching derives the shmem-layer counters of one run.
func batching(m tram.Metrics) (itemsPerBatch, fullShare, deadlineShare float64) {
	batches := float64(m.Batches)
	return ratio(float64(m.Delivered-m.LocalDirect), batches), ratio(float64(m.FullMsgs), batches), ratio(float64(m.DeadlineFlushes), batches)
}

func measureTraced(w workload, o options) (outcome, error) {
	began := time.Now()
	out := outcome{Workload: w.name, PerLayer: map[string]float64{}}
	e := o.env()
	tr := &tracer{}
	e.tr = tr
	d, err := w.build(e)
	if err != nil {
		return out, err
	}
	share := func(s float64) time.Duration { return time.Duration(s * o.seconds * float64(time.Second)) }
	plainFor, tracedFor, latencyFor, warm, plainReps := share(plainShare), share(tracedShare), share(latencyShare), tracedWarmup, 2
	if o.smoke {
		plainFor, tracedFor, latencyFor, warm, plainReps = 0, 0, 0, 0, 1
	}
	root := tr.begin("traced run: "+w.name, 0)

	if err := tr.do("set-up", root, d.setup); err != nil {
		return out, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if warm > 0 {
		if err := repsFor(warm, 1, func() error { _, err := d.flood(); return err }); err != nil {
			return out, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}

	// timedFlood runs one flood rep (plain or traced) inside a span and
	// returns it with its rate.
	timedFlood := func(name string, run func(span int) (floodRep, error)) (floodRep, float64, error) {
		runtime.GC()
		tr.nextRep()
		id := tr.begin(name, root)
		r, err := run(id)
		tr.end(id)
		if err != nil {
			return r, 0, err
		}
		rate, err := out.countFlood(r)
		return r, rate, err
	}

	shape := d.shape()
	var plainRate, allocs, bytes []float64
	err = repsFor(plainFor, plainReps, func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, rate, err := timedFlood("flood rep", func(int) (floodRep, error) { return d.flood() })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		plainRate = append(plainRate, rate)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(r.items))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(r.items))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("%s: flood: %w", w.name, err)
	}

	var tracedRate, busy []float64
	var spans spanStats
	var floodM tram.Metrics
	err = repsFor(tracedFor, 1, func() error {
		r, rate, err := timedFlood("traced flood rep", func(span int) (floodRep, error) {
			r, st, err := d.tracedFlood()
			tr.adopt(span, st)
			st.Raw = nil // kept by the tracer; the sums are all that is needed here
			spans.merge(st)
			return r, err
		})
		if err != nil {
			return err
		}
		// The time the timed goroutines existed, per item: what the span
		// sums are a share of.
		tracedRate, floodM = append(tracedRate, rate), r.m
		busy = append(busy, float64(r.run)*float64(shape.actors)/float64(r.items))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("%s: traced flood: %w", w.name, err)
	}
	_, rss, err := rusage()
	if err != nil {
		return out, err
	}

	var p99, lateP95, pacedBatch, pacedDeadline, deadlinePerS []float64
	err = repsFor(latencyFor, 1, func() error {
		runtime.GC()
		tr.nextRep()
		id := tr.begin("latency rep", root)
		r, err := d.latency()
		tr.end(id)
		if err != nil {
			return err
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		perBatch, _, deadline := batching(r.m)
		p99 = append(p99, float64(quantile(r.lat, 0.99))*usPerNano)
		lateP95 = append(lateP95, float64(quantile(r.late, 0.95))*usPerNano)
		pacedBatch, pacedDeadline = append(pacedBatch, perBatch), append(pacedDeadline, deadline)
		deadlinePerS = append(deadlinePerS, ratio(float64(r.m.DeadlineFlushes), r.run.Seconds()))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("%s: latency: %w", w.name, err)
	}

	clock := clockCost()
	insertNs, deliverNs := spans.meanNs(spanInsert, clock), spans.meanNs(spanDeliver, clock)
	perBatch, fullShare, _ := batching(floodM)
	pl := out.PerLayer
	pl["tram.insert_ns_per_item"] = insertNs
	pl["apps.deliver_ns_per_item"] = deliverNs
	pl["shmem.items_per_batch.flood"] = perBatch
	pl["shmem.full_seal_share"] = fullShare
	pl["rt.local_direct_share"] = ratio(float64(floodM.LocalDirect), float64(floodM.Delivered))
	pl["mem.allocs_per_item"] = median(allocs)
	pl["mem.bytes_per_item"] = median(bytes)
	pl["mem.peak_rss_mb"] = rss
	pl["shmem.items_per_batch.paced"] = median(pacedBatch)
	pl["shmem.deadline_seal_share"] = median(pacedDeadline)
	pl["rt.deadline_flushes_per_s"] = median(deadlinePerS)
	pl["paced.latency_p99_us"] = median(p99)
	pl["paced.gen_late_p95_us"] = median(lateP95)
	// What the timers cost the workload; the share of the workers' time (run
	// time x workers, per item) that is spent outside Insert and Deliver —
	// worker loops, inboxes, grouping, waiting for a core or for work; and
	// the share of spans left out of the means as waits.
	pl["trace.overhead_share"] = 1 - ratio(median(tracedRate), median(plainRate))
	pl["trace.residual_share"] = 1 - ratio(insertNs+deliverNs, median(busy))
	pl["trace.long_span_share"] = spans.longShare()

	for _, ld := range layerDrivers {
		var vals []float64
		err := tr.do("stage driver: "+ld.name, root, func() (err error) {
			vals, err = ld.run(shape, e)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		if len(vals) != len(ld.metrics) {
			return out, fmt.Errorf("stage driver %s returned %d values for %d metrics", ld.name, len(vals), len(ld.metrics))
		}
		for i, name := range ld.metrics {
			pl[name] = vals[i]
		}
	}
	tr.end(root)

	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := tr.write(path, w.name, o.seed); err != nil {
		return out, fmt.Errorf("%s: write spans: %w", w.name, err)
	}
	fmt.Fprintf(os.Stderr, "%s: spans written to %s\n", w.name, path)
	out.Correct = out.Failed == 0
	out.WallSeconds = time.Since(began).Seconds()
	return out, nil
}
