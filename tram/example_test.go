package tram_test

import (
	"fmt"

	"tramlib/internal/rng"
	"tramlib/tram"
)

// Example is the README quickstart: describe a cluster, write the
// aggregation kernel once, run it on the deterministic simulator. Swapping
// tram.Sim for tram.Real runs the identical kernel on goroutines over the
// lock-free shared-memory buffers instead (wall-clock metrics, so no fixed
// output to assert — which is why the example prints the simulated run).
func Example() {
	// A 2-node cluster: 2 processes per node, 4 workers per process.
	topo := tram.SMP(2, 2, 4)
	W := topo.TotalWorkers()

	// WPs scheme: per-destination-process buffers of 256 items, grouped by
	// destination worker at the receiving process.
	cfg := tram.DefaultConfig(topo, tram.WPs)
	cfg.BufferItems = 256

	// The application: every worker streams 10k random items; deliveries
	// are counted into the global reduction at their destination.
	lib := tram.U64()
	app := tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, item uint64) { ctx.Contribute(1) },
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			r := rng.NewStream(42, int(w))
			return 10_000, func(ctx tram.Ctx, _ int) {
				lib.Insert(ctx, tram.WorkerID(r.Intn(W)), r.Uint64())
			}
		},
		FlushOnDone: true,
	}

	m, err := lib.Run(tram.Sim, cfg, app)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d of %d items\n", m.Reduced, m.Inserted)
	fmt.Printf("aggregated into %d batches (%.0f items each on average)\n",
		m.Batches, float64(m.Delivered-m.SelfItems-m.LocalDirect)/float64(m.Batches))
	// Output:
	// delivered 160000 of 160000 items
	// aggregated into 1930 batches (62 items each on average)
}

// exampleDistSetup builds the small counting kernel ExampleDist runs. It is
// a plain function (not a closure over test state) because the registered
// builder below must reconstruct the identical configuration inside every
// worker process.
func exampleDistSetup() (tram.Config, tram.App[uint64], tram.Lib[uint64]) {
	topo := tram.SMP(1, 2, 2) // 2 worker processes, 2 workers each
	W := topo.TotalWorkers()
	cfg := tram.DefaultConfig(topo, tram.WPs)
	cfg.BufferItems = 64
	lib := tram.U64()
	app := tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, item uint64) { ctx.Contribute(1) },
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			r := rng.NewStream(7, int(w))
			return 2_000, func(ctx tram.Ctx, _ int) {
				lib.Insert(ctx, tram.WorkerID(r.Intn(W)), r.Uint64())
			}
		},
		FlushOnDone: true,
	}
	return cfg, app, lib
}

// The registration exists in the parent and — because the test binary
// re-execs itself as the workers — in every worker process too.
func init() {
	tram.RegisterDist("example-dist-sum", func(_ []byte, _ tram.ProcID) (tram.DistApp, error) {
		cfg, app, lib := exampleDistSetup()
		return tram.BindDist(lib, cfg, app, nil)
	})
}

// ExampleDist runs the same kind of kernel on the multi-process backend:
// every process of the topology is a real OS process, launched with the
// local provider and wired up over loopback TCP — the exact configuration
// shape a multi-machine run uses, with SSH targets in Dist.Hosts instead of
// "local" (see docs/DEPLOY.md). The caller's app closures never execute;
// workers rebuild the kernel from the RegisterDist registration, and the
// program must call tram.Main() first thing (tests: in TestMain).
func ExampleDist() {
	cfg, _, lib := exampleDistSetup()
	cfg.Dist.App = "example-dist-sum"
	cfg.Dist.Transport = tram.TransportTCP
	cfg.Dist.Hosts = []tram.DistHost{{Target: "local", Procs: 2}}
	cfg.Dist.ListenAddr = "127.0.0.1:0"

	m, err := lib.Run(tram.Dist, cfg, tram.App[uint64]{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d of %d items across %d worker processes\n",
		m.Reduced, m.Inserted, len(m.Reports))
	// Output:
	// delivered 8000 of 8000 items across 2 worker processes
}
