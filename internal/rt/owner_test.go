package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/rng"
)

// runWorkers runs rtm's workers to quiescence WITHOUT the progress goroutine:
// Run minus its tick, so whatever seals a buffer in the test is a worker.
func runWorkers(rtm *Runtime) {
	var wg sync.WaitGroup
	for _, w := range rtm.workers {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
}

// TestConsumePhaseDeadlineOwnerDriven pins the consume-phase half of the
// latency bound. Worker 0 runs no kernel; it is kept continuously busy by an
// inbound stream — one inbox chain far longer than a scheduler slot, so it
// cannot go idle (and idle-flush) before the stream ends — and its handler
// sends four responses to a worker of the other process into a buffer that
// only a flush can seal (g = 1024). The owner's own between-slots deadline
// check must seal that partial batch while the stream is still running; the
// progress goroutine is never started, so nothing else can.
//
// Like TestDeadlineFlushOwnerDriven the assertion is pure ordering — "a
// stream item was handled after the receiver had observed every response" —
// with the stream's length acting as a generous timeout (at least 2 s of
// handler sleeps), not a wall-clock bound: a slow runner only stretches the
// sleeps and so gives the check more chances to fire.
func TestConsumePhaseDeadlineOwnerDriven(t *testing.T) {
	topo := cluster.SMP(2, 1, 2) // workers 0,1 in proc 0; 2,3 in proc 1
	const (
		stream    = 20000
		responses = 4
		respFlag  = uint64(1) << 40
		stepSleep = 100 * time.Microsecond
	)
	for _, s := range core.Schemes()[1:] {
		if s.Plan().Shared {
			// Worker 0's idle sibling flushes the buffer they share whenever
			// it parks, so no deadline is needed to seal it; the shared half
			// of the bound is TestDeadlineFlushWorkerOwnsPP's.
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			var seen atomic.Int64 // responses observed at worker 2
			var streamed int      // stream items handled (worker 0 only)
			var sawWhileStreaming bool

			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 1024
			cfg.FlushDeadline = 500 * time.Microsecond
			cfg.ChunkSize = 4
			rtm := New(cfg, func(ctx *Ctx, v uint64) {
				if v&respFlag != 0 {
					seen.Add(1)
					return
				}
				streamed++
				switch {
				case streamed <= responses:
					ctx.Send(2, respFlag|v)
				case seen.Load() == responses:
					// Ordering established; the rest of the stream is no-ops.
					sawWhileStreaming = true
				default:
					time.Sleep(stepSleep)
				}
			}, func(cluster.WorkerID) (int, KernelFunc) { return 0, nil })
			for i := 0; i < stream; i++ {
				rtm.EnqueueOne(0, uint64(i))
			}
			runWorkers(rtm)

			if c := rtm.Counters(); c.Delivered != stream+responses || c.Inflight != 0 {
				t.Fatalf("delivered %d (inflight %d), want %d", c.Delivered, c.Inflight, stream+responses)
			}
			if rtm.M.DeadlineFlushes.Load() == 0 {
				t.Fatal("the consuming worker never deadline-flushed its response buffer")
			}
			if !sawWhileStreaming {
				t.Fatal("partial response batch was not delivered while the inbound stream was running (consume-phase latency bound violated)")
			}
		})
	}
}

// TestWorkerParksWithEmptyOwnedBuffers samples, at every park of a
// request/response run, the invariant that makes a flush-request path from
// the progress goroutine unnecessary: a parking worker holds nothing in a
// buffer it owns, nor in a lane or a stage.
func TestWorkerParksWithEmptyOwnedBuffers(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	W := topo.TotalWorkers()
	const z = 2000
	const respFlag = uint64(1) << 47
	for _, s := range core.Schemes()[1:] {
		t.Run(s.String(), func(t *testing.T) {
			var parks, responses atomic.Int64
			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 64
			cfg.FlushDeadline = 200 * time.Microsecond
			rtm := New(cfg, func(ctx *Ctx, v uint64) {
				if v&respFlag != 0 {
					responses.Add(1)
					return
				}
				ctx.Send(cluster.WorkerID(v&0xffff), respFlag)
			}, func(w cluster.WorkerID) (int, KernelFunc) {
				r := rng.NewStream(11, int(w))
				return z, func(ctx *Ctx, _ int) {
					dest := cluster.WorkerID(r.Intn(W - 1))
					if dest >= w {
						dest++
					}
					ctx.Send(dest, uint64(w))
				}
			})
			rtm.parkHook = func(w *worker) {
				parks.Add(1)
				for _, slot := range w.owned {
					if slot.buf.OldestNanos() != 0 {
						t.Errorf("worker %d parks with items buffered for route %d", w.id, slot.route)
					}
				}
				for r, lane := range w.lanes {
					if lane != nil {
						t.Errorf("worker %d parks holding %d items for sibling rank %d", w.id, len(lane), r)
					}
				}
				for p, stage := range w.stages {
					if len(stage) != 0 {
						t.Errorf("worker %d parks holding %d items staged for process %d", w.id, len(stage), p)
					}
				}
			}
			runOrHang(t, rtm)
			if want := int64(W) * z; responses.Load() != want {
				t.Fatalf("responses %d, want %d", responses.Load(), want)
			}
			if parks.Load() == 0 {
				t.Fatal("no park was sampled")
			}
		})
	}
}

// TestPlanMatchesPaperTable checks the slot table New wires against the
// plan and against MemoryModelBytes' N·t / N / N buffers per owner (less the
// owner's own route, which never carries an item): who owns buffers, how
// many, for which routes, through which typed view Send reaches them, and
// what feeds each adaptive route.
func TestPlanMatchesPaperTable(t *testing.T) {
	topo := cluster.SMP(2, 2, 4)
	N, tw, W := topo.TotalProcs(), topo.WorkersPerProc, topo.TotalWorkers()
	perOwner := map[core.Scheme]int{core.Direct: 0, core.WW: N * tw, core.WPs: N, core.WsP: N, core.PP: N}
	noKernel := func(cluster.WorkerID) (int, KernelFunc) { return 0, nil }
	// when returns n if cond holds, else 0.
	when := func(cond bool, n int) int {
		if cond {
			return n
		}
		return 0
	}

	// slotRoutes checks that routes are all of [0, n) but own, in order.
	slotRoutes := func(t *testing.T, who string, routes []int, n, own int) {
		t.Helper()
		want := make([]int, 0, n)
		for r := 0; r < n; r++ {
			if r != own {
				want = append(want, r)
			}
		}
		if len(routes) != len(want) {
			t.Fatalf("%s has %d slots, want %d", who, len(routes), len(want))
		}
		for i := range want {
			if routes[i] != want[i] {
				t.Fatalf("%s slot routes %v, want %v", who, routes, want)
			}
		}
	}

	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			plan := s.Plan()
			if plan.Routes(topo) != perOwner[s] {
				t.Fatalf("plan has %d routes, paper table says %d", plan.Routes(topo), perOwner[s])
			}
			cfg := DefaultConfig(topo, s)
			cfg.Adaptive.Enabled = true
			rtm := New(cfg, func(*Ctx, uint64) {}, noKernel)

			for _, w := range rtm.workers {
				views := 0
				for _, set := range []bool{w.bare != nil, w.tagged != nil, w.shared != nil} {
					if set {
						views++
					}
				}
				if want := when(plan.Buffered, 1); views != want {
					t.Fatalf("worker %d has %d typed views, want %d", w.id, views, want)
				}
				if (w.bare != nil) != (plan.Buffered && !plan.ProcRouted) ||
					(w.tagged != nil) != (plan.ProcRouted && !plan.Shared) ||
					(w.shared != nil) != plan.Shared || w.bypassLocal != plan.BypassLocal {
					t.Fatalf("worker %d's view of its slots disagrees with plan %+v", w.id, plan)
				}
				var routes []int
				for _, slot := range w.owned {
					routes = append(routes, slot.route)
				}
				// Under a shared plan the process owns them, not the worker.
				slotRoutes(t, "worker", routes, when(!plan.Shared, perOwner[s]), plan.Route(topo, w.id))
			}
			for p, slots := range rtm.shared {
				var routes []int
				for _, slot := range slots {
					routes = append(routes, slot.route)
				}
				slotRoutes(t, "process", routes, when(plan.Shared, perOwner[s]), p)
			}

			// One adaptive route per plan route, fed by every owner but the
			// route's own: all other workers under WW, the workers of the
			// other processes under WPs/WsP, the other processes under PP.
			if rtm.Routes() != plan.Routes(topo) {
				t.Fatalf("%d adaptive routes, want %d", rtm.Routes(), plan.Routes(topo))
			}
			feeders := map[core.Scheme]int{core.WW: W - 1, core.WPs: W - tw, core.WsP: W - tw, core.PP: N - 1}[s]
			for i := range rtm.routes {
				if got := len(rtm.routes[i].feeders); got != feeders {
					t.Fatalf("route %d has %d feeders, want %d", i, got, feeders)
				}
			}
		})
	}

	// A partitioned serve frontend wires only its own process, plus one
	// ingress slot per remote process — attributed to that process's route
	// when the plan's routes are processes, to none when they are workers.
	for _, s := range core.Schemes() {
		plan := s.Plan()
		cfg := DefaultConfig(topo, s)
		cfg.Serve = true
		cfg.Part = &Partition{Proc: 1, Remote: &loopback{topo: topo}}
		rtm := New(cfg, func(*Ctx, uint64) {}, noKernel)
		for p, slots := range rtm.shared {
			if want := when(plan.Shared && p == 1, N-1); len(slots) != want {
				t.Fatalf("%v: partition 1 wired %d shared slots for process %d, want %d", s, len(slots), p, want)
			}
		}
		if want := when(plan.Buffered, N-1); len(rtm.ingress) != want {
			t.Fatalf("%v: %d ingress slots, want %d", s, len(rtm.ingress), want)
		}
		for i, slot := range rtm.ingress {
			dst := i
			if dst >= 1 {
				dst++ // process 1 is local
			}
			want := -1
			if plan.ProcRouted {
				want = dst
			}
			if slot.route != want || rtm.ingressTo[dst] != slot.buf {
				t.Fatalf("%v: ingress slot %d (toward process %d) has route %d, want %d", s, i, dst, slot.route, want)
			}
		}
	}
}
