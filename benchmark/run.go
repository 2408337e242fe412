package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// The measurement protocol of one workload in one invocation:
//
//  1. warm-up: unmeasured flood reps for warmupFor.
//  2. flood half (floodShare of --seconds): timed reps at saturation;
//     items_per_s and cpu_ns_per_item are medians over the reps.
//  3. latency half (the rest): timed open-loop reps at the workload's fixed
//     rate; latency_p50_us / latency_p95_us are medians over the reps of each
//     rep's own percentile.
//
// Before every rep of either half comes a burst of complete set-up cycles,
// each timed; setup_s is the median over all of them. They are spread over
// the run rather than done once at its start because a set-up cycle is short
// (tens of microseconds to tens of milliseconds) and made of thread
// wake-ups, whose cost on a small host drifts by 2x over seconds: cycles
// taken back to back all sample one state of the machine.
//
// Every rep's outputs are checked; anything lost or wrong counts as failed.
const (
	floodShare = 0.62
	// warmupFor is how long load runs before timing starts. It is set by the
	// host, not the program: after an idle spell the OS keeps a process's
	// threads on one core for a second or so, and a run measured then is
	// 2-3x off the steady state (in either direction).
	warmupFor = 2 * time.Second
	minReps   = 3
	// A set-up burst is up to burstCycles cycles, cut short once burstFor
	// has passed (a Dist cycle spawns four processes: one or two fit).
	burstCycles = 8
	burstFor    = 15 * time.Millisecond
)

// End-to-end metric names (BENCHMARK.json's end_to_end).
const (
	mSetup    = "setup_s"
	mItems    = "items_per_s"
	mCPU      = "cpu_ns_per_item"
	mLatP50   = "latency_p50_us"
	mLatP95   = "latency_p95_us"
	usPerNano = 1e-3
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	smoke   bool
	trace   bool
	outDir  string
}

func (o options) env() env {
	e := env{seed: o.seed, scale: 1}
	if o.smoke {
		e.scale = 64
	}
	return e
}

// outcome is everything one workload's measurement produced.
type outcome struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// InvalidReps counts latency reps dropped because the load generator,
	// not the system, ran late.
	InvalidReps int                `json:"invalid_reps"`
	EndToEnd    map[string]summary `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	WallSeconds float64            `json:"wall_s"`
}

// rusage returns the user+system CPU time consumed so far by this process
// and by every child it has waited for, and the largest resident set any of
// them reached, in MiB. Dist and serve runs reap their worker processes
// before returning, so a CPU delta around a rep covers them.
func rusage() (cpu time.Duration, peakRSSMB float64, err error) {
	var peak int64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0, 0, fmt.Errorf("getrusage: %w", err)
		}
		cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		peak = max(peak, int64(ru.Maxrss)) // KiB on Linux
	}
	return cpu, float64(peak) / 1024, nil
}

// countFlood books one flood rep's output check and returns its rate in
// items per second.
func (out *outcome) countFlood(r floodRep) (float64, error) {
	if r.items <= 0 || r.run <= 0 {
		return 0, fmt.Errorf("flood rep moved %d items in %v", r.items, r.run)
	}
	out.Attempted += r.items + r.failed
	out.Failed += r.failed
	return float64(r.items) / r.run.Seconds(), nil
}

// repsFor runs fn until budget has elapsed and at least min reps are done.
func repsFor(budget time.Duration, min int, fn func() error) error {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < budget; n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the untraced protocol on one workload.
func measure(w workload, o options) (outcome, error) {
	began := time.Now()
	out := outcome{Workload: w.name, EndToEnd: map[string]summary{}}
	d, err := w.build(o.env())
	if err != nil {
		return out, err
	}
	reps, warm, cycles := minReps, warmupFor, burstCycles
	flood := time.Duration(floodShare * o.seconds * float64(time.Second))
	lat := time.Duration(o.seconds*float64(time.Second)) - flood
	if o.smoke {
		reps, warm, cycles, flood, lat = 1, 0, 1, 0, 0
	}

	if warm > 0 {
		if err := repsFor(warm, 1, func() error { _, err := d.flood(); return err }); err != nil {
			return out, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	var setupS []float64
	setupBurst := func() error {
		start := time.Now()
		for n := 0; n < cycles && (n == 0 || time.Since(start) < burstFor); n++ {
			t0 := time.Now()
			if err := d.setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		return nil
	}

	var itemsPerS, cpuPerItem []float64
	err = repsFor(flood, reps, func() error {
		if err := setupBurst(); err != nil {
			return err
		}
		runtime.GC() // each rep starts from a collected heap
		c0, _, err := rusage()
		if err != nil {
			return err
		}
		r, err := d.flood()
		if err != nil {
			return err
		}
		c1, _, err := rusage()
		if err != nil {
			return err
		}
		rate, err := out.countFlood(r)
		if err != nil {
			return err
		}
		itemsPerS = append(itemsPerS, rate)
		cpuPerItem = append(cpuPerItem, float64(c1-c0)/float64(r.items))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("%s: flood: %w", w.name, err)
	}

	if warm > 0 {
		// One unmeasured probe lets the open-loop half start from its own
		// steady state rather than the flood's.
		if _, err := d.latency(); err != nil {
			return out, fmt.Errorf("%s: latency warm-up: %w", w.name, err)
		}
	}
	var p50, p95 []float64
	err = repsFor(lat, reps, func() error {
		if err := setupBurst(); err != nil {
			return err
		}
		runtime.GC()
		r, err := d.latency()
		if err != nil {
			return err
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.lat) == 0 {
			return fmt.Errorf("latency rep observed no samples")
		}
		// (A smoke rep is a few milliseconds long, all of it start-up: its
		// lateness says nothing.)
		if late := time.Duration(quantile(r.late, 0.95)); late > d.lateLimit() && !o.smoke {
			out.InvalidReps++
			fmt.Fprintf(os.Stderr, "%s: latency rep dropped: generator ran %v late (p95), limit %v\n", w.name, late, d.lateLimit())
			return nil
		}
		p50 = append(p50, float64(quantile(r.lat, 0.50))*usPerNano)
		p95 = append(p95, float64(quantile(r.lat, 0.95))*usPerNano)
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("%s: latency: %w", w.name, err)
	}
	if len(p50) == 0 {
		return out, fmt.Errorf("%s: every latency rep was invalid (%d): the load generator cannot hold its schedule on this host", w.name, out.InvalidReps)
	}

	out.EndToEnd[mSetup] = summarize(setupS)
	out.EndToEnd[mItems] = summarize(itemsPerS)
	out.EndToEnd[mCPU] = summarize(cpuPerItem)
	out.EndToEnd[mLatP50] = summarize(p50)
	out.EndToEnd[mLatP95] = summarize(p95)
	out.Correct = out.Failed == 0
	out.WallSeconds = time.Since(began).Seconds()
	return out, nil
}
