package tram

import (
	"testing"

	"tramlib/internal/charm"
	"tramlib/internal/core"
	"tramlib/internal/netsim"
	"tramlib/internal/rng"
)

// The zero-alloc invariant of the package comment, executed: the same
// uniform insert stream written against internal/core directly and against
// Lib[uint64] on the Sim backend must cost the same heap allocations per
// simulator event.

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
