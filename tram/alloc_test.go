package tram

import (
	"testing"

	"tramlib/internal/charm"
	"tramlib/internal/core"
	"tramlib/internal/netsim"
	"tramlib/internal/rng"
	"tramlib/internal/rt"
)

// The zero-alloc invariant of the package comment, executed: the same
// uniform insert stream written against internal/core directly and against
// Lib[uint64] on the Sim backend must cost the same heap allocations per
// simulator event, and the same histogram flood written against internal/rt
// directly and through Lib[uint64] on the Real backend the same heap
// allocations per item.

const (
	parityStreamPerPE = 1 << 16
	// The wrapper may allocate at most parityTol more per event than core,
	// plus paritySlack absolute (run setup amortized over the stream).
	// Measured: 0.01565 (core) and 0.01566 (wrapper) mallocs/event.
	parityTol   = 0.10
	paritySlack = 0.02
)

func parityTopo() Topology { return SMP(2, 2, 4) }

// coreDirectInserts streams into internal/core with no public wrapper in
// between and returns the simulator events executed.
func coreDirectInserts() uint64 {
	topo := parityTopo()
	chrt := charm.NewRuntime(topo, netsim.DefaultParams())
	drv := charm.NewLoopDriver(chrt)
	lib := core.New(chrt, core.DefaultConfig(core.WPs), func(*charm.Ctx, uint64) {})
	W := topo.TotalWorkers()
	for w := 0; w < W; w++ {
		r := rng.NewStream(1, w)
		drv.Spawn(WorkerID(w), parityStreamPerPE, 256,
			func(ctx *charm.Ctx, _ int) {
				u := r.Uint64()
				lib.Insert(ctx, WorkerID(u%uint64(W)), u)
			},
			func(ctx *charm.Ctx) { lib.Flush(ctx) })
	}
	chrt.Run()
	return chrt.Eng.Processed()
}

// tramWrapperInserts is the identical workload through U64() on Sim.
func tramWrapperInserts(t *testing.T) uint64 {
	topo := parityTopo()
	lib := U64()
	W := topo.TotalWorkers()
	m, err := lib.Run(Sim, DefaultConfig(topo, WPs), App[uint64]{
		Spawn: func(w WorkerID) (int, KernelFunc) {
			r := rng.NewStream(1, int(w))
			return parityStreamPerPE, func(ctx Ctx, _ int) {
				u := r.Uint64()
				lib.Insert(ctx, WorkerID(u%uint64(W)), u)
			}
		},
		FlushOnDone: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Events
}

func TestWrapperAllocParityWithCore(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a million items twice")
	}
	var coreEvents, wrapEvents uint64
	coreAllocs := testing.AllocsPerRun(1, func() { coreEvents = coreDirectInserts() })
	wrapAllocs := testing.AllocsPerRun(1, func() { wrapEvents = tramWrapperInserts(t) })
	corePer := coreAllocs / float64(coreEvents)
	wrapPer := wrapAllocs / float64(wrapEvents)
	t.Logf("mallocs/event: core-direct %.5f (%d events), tram-wrapper %.5f (%d events)",
		corePer, coreEvents, wrapPer, wrapEvents)
	if limit := corePer*(1+parityTol) + paritySlack; wrapPer > limit {
		t.Fatalf("tram wrapper allocates %.5f per event, core %.5f: over the %.5f parity limit",
			wrapPer, corePer, limit)
	}
}

const (
	realParityItemsPerWorker = 1 << 16
	// The Real wrapper may allocate at most realParityTol more per item than
	// the direct run, plus realParitySlack absolute (the adapters and run
	// setup, amortized over the flood). Measured over 20 runs: 0.00503–0.00515
	// (direct) and 0.00464–0.00524 (wrapper) mallocs/item; one extra malloc
	// per sealed batch would add 0.004.
	realParityTol   = 0.10
	realParitySlack = 0.0005
)

// realParityCfg is the WW histogram flood both Real parity runs execute.
func realParityCfg() Config {
	cfg := DefaultConfig(SMP(1, 2, 2), WW)
	cfg.BufferItems = 256
	return cfg
}

// histSlot draws worker w's next update: a destination and a table slot.
func histSlot(r *rng.RNG, workers int) (WorkerID, uint64) {
	u := r.Uint64()
	return WorkerID(u % uint64(workers)), u >> 32 % 1024
}

// rtDirectHist runs the flood on internal/rt with no public wrapper in
// between.
func rtDirectHist() {
	cfg := realParityCfg()
	W := cfg.Topo.TotalWorkers()
	tables := make([][1024]int64, W)
	rt.New(cfg.realConfig(), func(ctx *rt.Ctx, slot uint64) {
		tables[ctx.Self()][slot]++
		ctx.Contribute(1)
	}, func(w WorkerID) (int, rt.KernelFunc) {
		r := rng.NewStream(1, int(w))
		return realParityItemsPerWorker, func(ctx *rt.Ctx, _ int) {
			ctx.Send(histSlot(r, W))
		}
	}).Run()
}

// tramRealHist is the identical flood through U64() on Real.
func tramRealHist(t *testing.T) {
	cfg := realParityCfg()
	W := cfg.Topo.TotalWorkers()
	tables := make([][1024]int64, W)
	lib := U64()
	_, err := lib.Run(Real, cfg, App[uint64]{
		Deliver: func(ctx Ctx, slot uint64) {
			tables[ctx.Self()][slot]++
			ctx.Contribute(1)
		},
		Spawn: func(w WorkerID) (int, KernelFunc) {
			r := rng.NewStream(1, int(w))
			return realParityItemsPerWorker, func(ctx Ctx, _ int) {
				dest, slot := histSlot(r, W)
				lib.Insert(ctx, dest, slot)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRealWrapperAllocParityWithRT(t *testing.T) {
	if testing.Short() {
		t.Skip("floods a quarter million items twice")
	}
	items := float64(realParityCfg().Topo.TotalWorkers() * realParityItemsPerWorker)
	directPer := testing.AllocsPerRun(1, rtDirectHist) / items
	wrapPer := testing.AllocsPerRun(1, func() { tramRealHist(t) }) / items
	t.Logf("mallocs/item: rt-direct %.5f, tram-wrapper %.5f", directPer, wrapPer)
	if limit := directPer*(1+realParityTol) + realParitySlack; wrapPer > limit {
		t.Fatalf("tram wrapper allocates %.5f per item on Real, rt directly %.5f: over the %.5f parity limit",
			wrapPer, directPer, limit)
	}
}
