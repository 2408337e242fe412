// Quickstart: one aggregation kernel, three execution backends.
//
// This example is the public tram API in miniature. It describes a 2-node
// SMP cluster (2 processes × 4 workers per node), defines an application —
// every worker streams random items to random destinations through a
// tram.Lib with the WPs scheme — and then runs the *same* App three times:
//
//   - on tram.Sim, the deterministic discrete-event simulator, which models
//     the cluster's network and reports virtual-time metrics;
//   - on tram.Real, the goroutine runtime over lock-free shared-memory
//     buffers, which reports measured wall-clock metrics;
//   - on tram.Dist, where each of the topology's 4 processes is a real OS
//     process (this binary re-executed) and process-crossing batches travel
//     over Unix-domain sockets.
//
// The Dist backend shows the registration pattern: because worker processes
// are fresh executions of this binary, the app is built by a named builder
// (RegisterDist + tram.Main) from serialized parameters instead of traveling
// as closures.
//
// Run with:
//
//	go run ./examples/quickstart [-items 50000] [-buffer 256] [-no-dist]
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"tramlib/internal/rng"
	"tramlib/tram"
)

// params is everything the app needs to reconstruct itself in any process.
type params struct {
	Items  int `json:"items"`
	Buffer int `json:"buffer"`
}

// build constructs the configuration and application from params — in this
// process for Sim/Real, and in every self-exec'd worker process for Dist.
func build(p params) (tram.Config, tram.App[uint64]) {
	// 1. Describe the machine: 2 nodes, 2 processes each, 4 workers per
	//    process (plus an implicit comm thread per process in the simulator).
	topo := tram.SMP(2, 2, 4)
	W := topo.TotalWorkers()

	// 2. Configure the library: WPs scheme (per-destination-process buffers,
	//    grouped at the receiver), buffers of p.Buffer items.
	cfg := tram.DefaultConfig(topo, tram.WPs)
	cfg.BufferItems = p.Buffer

	// 3. Write the application once: a typed Lib for inserting, a Deliver
	//    that counts arrivals, and a kernel per worker. The Ctx works on
	//    every backend.
	lib := tram.U64()
	app := tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, item uint64) {
			ctx.Contribute(1) // runs at the destination worker
		},
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			r := rng.NewStream(42, int(w))
			return p.Items, func(ctx tram.Ctx, _ int) {
				dst := tram.WorkerID(r.Intn(W))
				lib.Insert(ctx, dst, r.Uint64())
			}
		},
		FlushOnDone: true, // end-of-phase flush once a worker's stream ends
	}
	return cfg, app
}

// The Dist registration: worker processes look up "quickstart" by name and
// rebuild the identical app from the JSON params the coordinator passed.
func init() {
	tram.RegisterDist("quickstart", func(raw []byte, _ tram.ProcID) (tram.DistApp, error) {
		var p params
		if err := json.Unmarshal(raw, &p); err != nil {
			return tram.DistApp{}, err
		}
		cfg, app := build(p)
		return tram.BindDist(tram.U64(), cfg, app, nil)
	})
}

func main() {
	tram.Main() // dist worker processes run their share here and exit
	items := flag.Int("items", 50_000, "items streamed per worker")
	buffer := flag.Int("buffer", 256, "aggregation buffer capacity (g)")
	noDist := flag.Bool("no-dist", false, "skip the multi-process backend")
	flag.Parse()

	p := params{Items: *items, Buffer: *buffer}
	cfg, app := build(p)
	lib := tram.U64()

	// 4. Run it on every backend and compare.
	backends := []tram.Backend{tram.Sim, tram.Real}
	if !*noDist {
		backends = append(backends, tram.Dist)
	}
	fmt.Printf("topology: %v, scheme WPs, g=%d, %d items/worker\n\n", cfg.Topo, *buffer, *items)
	for _, backend := range backends {
		runCfg := cfg
		if tram.IsDist(backend) {
			// Dist runs name the registration and ship the parameters.
			raw, err := json.Marshal(p)
			if err != nil {
				panic(err)
			}
			runCfg.Dist.App = "quickstart"
			runCfg.Dist.Params = raw
		}
		m, err := lib.Run(backend, runCfg, app)
		if err != nil {
			panic(err)
		}
		clock := "wall-clock"
		if m.Virtual {
			clock = "virtual"
		}
		fmt.Printf("%-4s  time=%-12v (%s)\n", backend, m.Time, clock)
		fmt.Printf("      delivered %d of %d sent (reduction arrived at %d)\n",
			m.Delivered, m.Inserted, m.Reduced)
		meanBatch := 0.0
		if m.Batches > 0 {
			meanBatch = float64(m.Delivered-m.SelfItems-m.LocalDirect) / float64(m.Batches)
		}
		fmt.Printf("      %d aggregated batches vs %d unaggregated sends (%.1f items/batch)\n",
			m.Batches, m.Inserted, meanBatch)
		switch {
		case m.Virtual:
			fmt.Printf("      wire: %d remote messages, %d bytes, %d flush-sealed\n",
				m.RemoteMsgs, m.BytesSent, m.FlushMsgs)
		case m.Reports != nil:
			fmt.Printf("      %d OS processes; flushes: %d (of which %d by the latency deadline)\n",
				len(m.Reports), m.FlushMsgs, m.DeadlineFlushes)
		default:
			fmt.Printf("      flushes: %d (of which %d by the latency deadline)\n",
				m.FlushMsgs, m.DeadlineFlushes)
		}
		fmt.Println()
	}
	fmt.Println("same kernel, same config — only the backend changed.")
}
