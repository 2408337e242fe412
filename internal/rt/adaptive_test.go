package rt

import (
	"runtime"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/rng"
)

// adaptiveDefaults returns an aggressive controller config for tests: short
// policy interval so several ticks fit in a fast test run.
func adaptiveDefaults() Adaptive {
	return Adaptive{
		Enabled:  true,
		Interval: 100 * time.Microsecond,
	}
}

// TestAdaptiveAllSchemesMatchesStatic pins the controller's central
// invariant at the runtime level: adaptive aggregation delivers the exact
// same per-destination multiset as static config (histoRun verifies counts
// and xor-checksums against a serial rng replay — the same oracle the static
// schemes are checked against, so equality to static is transitive).
func TestAdaptiveAllSchemesMatchesStatic(t *testing.T) {
	topo := cluster.SMP(2, 2, 4)
	for _, s := range []core.Scheme{core.WW, core.WPs, core.WsP, core.PP} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			adaptiveHistoRun(t, s, topo, 20000, 64, adaptiveDefaults(), false)
		})
	}
}

// TestAdaptiveAllDirectMatchesStatic forces every route to Direct framing
// (threshold far above any achievable rate) so the path-selection fast path
// carries the bulk of the run — results and quiescence must be unaffected.
// The kernel yields every step: on a single-CPU host an unpaced generation
// loop can starve the progress goroutine until quiescence, and this test
// needs the controller to act mid-run.
func TestAdaptiveAllDirectMatchesStatic(t *testing.T) {
	a := adaptiveDefaults()
	a.DirectBelow = 1e15
	for _, s := range []core.Scheme{core.WW, core.PP} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res := adaptiveHistoRun(t, s, cluster.SMP(2, 2, 4), 10000, 64, a, true)
			if res.DirectItems == 0 {
				t.Fatal("DirectBelow=1e15 sent no items through the Direct path")
			}
		})
	}
}

// adaptiveHistoRun is histoRun's adaptive twin (same workload, same oracle).
// yield makes the kernel Gosched every step so the controller's goroutine
// gets scheduled during generation even on a single CPU.
func adaptiveHistoRun(t *testing.T, scheme core.Scheme, topo cluster.Topology, z, g int, a Adaptive, yield bool) Result {
	t.Helper()
	W := topo.TotalWorkers()

	type cell struct {
		count int64
		xor   uint64
		_     [48]byte
	}
	got := make([]cell, W)

	cfg := DefaultConfig(topo, scheme)
	cfg.BufferItems = g
	cfg.Adaptive = a
	rtm := New(cfg, func(ctx *Ctx, v uint64) {
		self := int(ctx.Self())
		if dest := int(v >> 48); dest != self {
			t.Errorf("item for worker %d delivered at %d", dest, self)
		}
		got[self].count++
		got[self].xor ^= v
	}, func(w cluster.WorkerID) (int, KernelFunc) {
		r := rng.NewStream(7, int(w))
		return z, func(ctx *Ctx, _ int) {
			u := r.Uint64()
			dest := cluster.WorkerID(u % uint64(W))
			ctx.Send(dest, uint64(dest)<<48|u&0xffffffffffff)
			if yield {
				runtime.Gosched()
			}
		}
	})
	res := rtm.Run()

	wantCount := make([]int64, W)
	wantXor := make([]uint64, W)
	for w := 0; w < W; w++ {
		r := rng.NewStream(7, w)
		for i := 0; i < z; i++ {
			u := r.Uint64()
			dest := u % uint64(W)
			wantCount[dest]++
			wantXor[dest] ^= dest<<48 | u&0xffffffffffff
		}
	}
	for w := 0; w < W; w++ {
		if got[w].count != wantCount[w] {
			t.Errorf("worker %d received %d items, want %d", w, got[w].count, wantCount[w])
		}
		if got[w].xor != wantXor[w] {
			t.Errorf("worker %d xor mismatch (lost or duplicated items)", w)
		}
	}
	if want := int64(W) * int64(z); res.Delivered != want {
		t.Fatalf("delivered %d, want %d", res.Delivered, want)
	}
	return res
}

// TestAdaptiveSkewedDestinationFlushLatency is the satellite skew assertion:
// under a hot/cold destination split with paced senders, the hot destination
// batches deeper than the cold one, and the cold destination's flush latency
// still honors the deadline — the controller must not starve the tail to
// feed the head.
func TestAdaptiveSkewedDestinationFlushLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("paced run")
	}
	topo := cluster.SMP(1, 2, 4) // 8 workers, 2 procs: 0-3 send, 4-5 receive
	const (
		hotDest  = cluster.WorkerID(4)
		coldDest = cluster.WorkerID(5)
		steps    = 3000
		coldDiv  = 100 // one cold send per coldDiv steps
		pace     = 10 * time.Microsecond
	)
	deadline := 2 * time.Millisecond

	cfg := DefaultConfig(topo, core.WW)
	cfg.BufferItems = 256
	cfg.FlushDeadline = deadline
	cfg.Adaptive = Adaptive{
		Enabled:       true,
		TargetLatency: 500 * time.Microsecond,
		MinDeadline:   100 * time.Microsecond,
		Interval:      100 * time.Microsecond,
	}
	rtm := New(cfg, func(ctx *Ctx, v uint64) {}, func(w cluster.WorkerID) (int, KernelFunc) {
		if w >= 4 {
			return 0, nil // receivers only consume
		}
		next := time.Now()
		return steps, func(ctx *Ctx, step int) {
			// Busy pacing: time.Sleep oversleeps at this granularity.
			for time.Now().Before(next) {
				runtime.Gosched()
			}
			next = next.Add(pace)
			if step%coldDiv == coldDiv-1 {
				ctx.Send(coldDest, uint64(step))
			} else {
				ctx.Send(hotDest, uint64(step))
			}
		}
	})
	res := rtm.Run()
	if want := int64(4 * steps); res.Delivered != want {
		t.Fatalf("delivered %d, want %d", res.Delivered, want)
	}

	hot := rtm.RouteStats(int(hotDest))
	cold := rtm.RouteStats(int(coldDest))
	if hot.Batches == 0 || cold.Batches == 0 {
		t.Fatalf("missing batches: hot %+v cold %+v", hot, cold)
	}
	hotDepth := float64(hot.BatchItems) / float64(hot.Batches)
	coldDepth := float64(cold.BatchItems) / float64(cold.Batches)
	if hotDepth <= coldDepth {
		t.Errorf("hot destination batches no deeper than cold: hot %.1f items/batch, cold %.1f", hotDepth, coldDepth)
	}
	// The cold destination's flush latency must respect the (static upper
	// bound on the) deadline, with slack for tick quantization and scheduler
	// noise on loaded CI machines. The bound is on the median: the cold route
	// sees at most 120 seals, so its "p99" is the maximum of a run with four
	// busy-pacing senders, and one scheduler quantum on a two-core host
	// exceeds any bound worth stating. It is logged instead.
	if limit := 3 * deadline; cold.FlushP50 > int64(limit) {
		t.Errorf("cold destination flush p50 %v exceeds %v", time.Duration(cold.FlushP50), limit)
	}
	t.Logf("cold destination: %d seals, flush p50 %v, p99 %v",
		cold.Batches, time.Duration(cold.FlushP50), time.Duration(cold.FlushP99))
	if hot.Events <= cold.Events {
		t.Fatalf("workload inverted: hot %d events, cold %d", hot.Events, cold.Events)
	}
	if hot.RatePerSec <= 0 {
		t.Errorf("hot route rate estimate %v, want > 0", hot.RatePerSec)
	}
}

// TestAdaptivePathSelectionSplitsByRate drives a hot and a cold destination
// with path selection thresholded between their rates: the cold route should
// go Direct (items counted in DirectItems) while the hot route keeps
// aggregating, without flapping between them.
func TestAdaptivePathSelectionSplitsByRate(t *testing.T) {
	if testing.Short() {
		t.Skip("paced run")
	}
	topo := cluster.SMP(1, 2, 4)
	const (
		hotDest  = cluster.WorkerID(4)
		coldDest = cluster.WorkerID(5)
		steps    = 3000
		coldDiv  = 100
		pace     = 10 * time.Microsecond
	)
	cfg := DefaultConfig(topo, core.WW)
	cfg.BufferItems = 256
	cfg.FlushDeadline = 2 * time.Millisecond
	cfg.Adaptive = Adaptive{
		Enabled:  true,
		Interval: 100 * time.Microsecond,
		// Per-worker pace is ~100k steps/sec, so the hot route sees ~400k
		// events/sec and the cold one ~4k. Threshold between them.
		DirectBelow: 40_000,
		Hysteresis:  2,
	}
	rtm := New(cfg, func(ctx *Ctx, v uint64) {}, func(w cluster.WorkerID) (int, KernelFunc) {
		if w >= 4 {
			return 0, nil
		}
		next := time.Now()
		return steps, func(ctx *Ctx, step int) {
			for time.Now().Before(next) {
				runtime.Gosched()
			}
			next = next.Add(pace)
			if step%coldDiv == coldDiv-1 {
				ctx.Send(coldDest, uint64(step))
			} else {
				ctx.Send(hotDest, uint64(step))
			}
		}
	})
	res := rtm.Run()
	if want := int64(4 * steps); res.Delivered != want {
		t.Fatalf("delivered %d, want %d", res.Delivered, want)
	}
	if res.DirectItems == 0 {
		t.Error("cold route below threshold shipped no Direct items")
	}
	hot := rtm.RouteStats(int(hotDest))
	if hot.Batches == 0 {
		t.Error("hot route above threshold emitted no aggregated batches")
	}
	// Hysteresis: each route should settle, not oscillate. Allow a few
	// transitions per route for startup transients.
	if max := int64(4 * rtm.Routes()); res.PathSwitches > max {
		t.Errorf("path selection flapped: %d switches over %d routes", res.PathSwitches, rtm.Routes())
	}
}

// TestAdaptiveValidate checks the controller's config validation.
func TestAdaptiveValidate(t *testing.T) {
	base := func() Config {
		c := DefaultConfig(cluster.SMP(1, 2, 2), core.WW)
		c.Adaptive = Adaptive{Enabled: true}
		return c
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal adaptive config rejected: %v", err)
	}
	off := base()
	off.Adaptive = Adaptive{TargetQuantile: 5, MinBatch: -1} // junk knobs, not Enabled
	if err := off.Validate(); err != nil {
		t.Fatalf("disabled adaptive config must ignore its knobs: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no deadline", func(c *Config) { c.FlushDeadline = 0 }},
		{"negative target", func(c *Config) { c.Adaptive.TargetLatency = -1 }},
		{"negative interval", func(c *Config) { c.Adaptive.Interval = -1 }},
		{"quantile above 1", func(c *Config) { c.Adaptive.TargetQuantile = 1.5 }},
		{"min over max", func(c *Config) {
			c.Adaptive.MinDeadline = time.Millisecond
			c.Adaptive.MaxDeadline = time.Microsecond
		}},
		{"negative MinBatch", func(c *Config) { c.Adaptive.MinBatch = -1 }},
		{"MinBatch over capacity", func(c *Config) { c.Adaptive.MinBatch = c.BufferItems + 1 }},
		{"negative DirectBelow", func(c *Config) { c.Adaptive.DirectBelow = -1 }},
		{"hysteresis below 1", func(c *Config) { c.Adaptive.Hysteresis = 0.5 }},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

// TestAdaptiveDirectSchemeIsNoOp: nothing aggregates under Direct, so the
// controller wires no routes and the run behaves exactly as before.
func TestAdaptiveDirectSchemeIsNoOp(t *testing.T) {
	cfg := DefaultConfig(cluster.SMP(1, 2, 2), core.Direct)
	cfg.Adaptive = adaptiveDefaults()
	rtm := New(cfg, func(ctx *Ctx, v uint64) {}, func(w cluster.WorkerID) (int, KernelFunc) {
		return 100, func(ctx *Ctx, step int) {
			ctx.Send(cluster.WorkerID((int(w)+1)%4), uint64(step))
		}
	})
	res := rtm.Run()
	if rtm.Routes() != 0 {
		t.Fatalf("Direct scheme wired %d routes, want 0", rtm.Routes())
	}
	if res.Delivered != 400 {
		t.Fatalf("delivered %d, want 400", res.Delivered)
	}
}
