package rt

import (
	"sync/atomic"
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
)

// inbox detaches worker w's inbox and returns the payload count of each
// message in it, in no particular order.
func inbox(rtm *Runtime, w cluster.WorkerID) []int {
	var sizes []int
	for m := rtm.workers[w].inbox.popAll(); m != nil; m = m.next {
		if m.kind != mkToWorker {
			panic("lane posts are worker-addressed")
		}
		sizes = append(sizes, len(m.payloads))
	}
	return sizes
}

// TestLocalLaneSettlesBeforePost pins the lanes' half of settle-before-publish.
//
// Retire order, deterministically: the runtime is built but not run, every
// worker counts as past generation, and worker 0 drains a one-item inline
// batch whose handler sends three items to its sibling. The lane goes out when
// the batch ends, in finish; the three items must be settled before the
// retired one leaves inflight, or inflight touches zero with the items still in
// the lane and the run ends early.
//
// Post order, under real concurrency: the sibling runs, and every item it
// delivers must already be counted (inflight ≥ 1 while it is delivered),
// which a lane posted before its settle would break.
func TestLocalLaneSettlesBeforePost(t *testing.T) {
	topo := cluster.SMP(1, 1, 2) // workers 0 and 1 share process 0
	for _, s := range core.Schemes() {
		if !s.Plan().BypassLocal {
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 64
			rtm := New(cfg, func(ctx *Ctx, v uint64) {
				if ctx.Self() == 0 {
					for i := 0; i < 3; i++ {
						ctx.Send(1, v)
					}
				}
			}, func(cluster.WorkerID) (int, KernelFunc) { return 0, nil })
			rtm.producing.Store(0)
			rtm.EnqueueOne(0, 9)
			w := rtm.workers[0]
			w.drain()

			select {
			case <-rtm.done:
				t.Fatal("inflight reached zero while the handler's sends were in a lane")
			default:
			}
			if c := rtm.Counters(); c.Inflight != 3 || c.Delivered != 1 || c.LocalDirect != 3 {
				t.Fatalf("inflight %d delivered %d local %d, want 3 1 3", c.Inflight, c.Delivered, c.LocalDirect)
			}
			if got := inbox(rtm, 1); len(got) != 1 || got[0] != 3 {
				t.Fatalf("sibling's inbox holds messages of %v items, want one of 3", got)
			}
			if w.unsettled != 0 || w.lanes[1] != nil {
				t.Fatalf("after the batch: unsettled %d, lane %v", w.unsettled, w.lanes[1])
			}
		})

		t.Run(s.String()+"/concurrent", func(t *testing.T) {
			const steps = 2000
			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 3 // lanes also fill, and post, inside a step
			cfg.ChunkSize = 2
			var rtm *Runtime
			var got atomic.Int64
			rtm = New(cfg, func(ctx *Ctx, v uint64) {
				if n := rtm.inflight.Load(); n < 1 {
					t.Errorf("item delivered while published inflight is %d", n)
				}
				got.Add(1)
				if v > 0 {
					ctx.Send(1-ctx.Self(), v-1)
				}
			}, func(w cluster.WorkerID) (int, KernelFunc) {
				return steps, func(ctx *Ctx, step int) {
					ctx.Send(1-ctx.Self(), uint64(step%4))
				}
			})
			res := runOrHang(t, rtm)
			// Item k spawns a chain of k more.
			want := int64(2 * steps / 4 * (1 + 2 + 3 + 4))
			if got.Load() != want || res.Delivered != want || res.LocalDirect != want {
				t.Fatalf("delivered %d (result %d, local %d), want %d", got.Load(), res.Delivered, res.LocalDirect, want)
			}
		})
	}
}

// TestLocalItemWithinOneSlot pins the latency bound of a same-process item:
// it reaches its sibling by the end of the sender's scheduler slot — with no
// deadline configured and a buffer size it never approaches — and no earlier
// than a full lane or a flush sends it.
func TestLocalItemWithinOneSlot(t *testing.T) {
	t.Run("slot end", func(t *testing.T) {
		const chunk = 4
		cfg := DefaultConfig(cluster.SMP(1, 1, 2), core.WPs)
		cfg.FlushDeadline = 0
		cfg.ChunkSize = chunk
		var delivered atomic.Int64
		rtm := New(cfg, func(*Ctx, uint64) {
			delivered.Add(1)
		}, func(w cluster.WorkerID) (int, KernelFunc) {
			if w != 0 {
				return 0, nil // parks at once
			}
			return 2 * chunk, func(ctx *Ctx, step int) {
				switch {
				case step == 0:
					ctx.Send(1, 5)
				case step < chunk:
					if delivered.Load() != 0 {
						t.Error("same-process item left before its sender's slot ended")
					}
				case step == chunk:
					// The next slot is held here until the sibling has the
					// item: only the end of the first slot can have sent it.
					for limit := time.Now().Add(10 * time.Second); delivered.Load() == 0; {
						if time.Now().After(limit) {
							t.Error("sibling did not receive the item after the sender's slot ended")
							return
						}
						time.Sleep(10 * time.Microsecond)
					}
				}
			}
		})
		res := runOrHang(t, rtm)
		if res.Delivered != 1 || res.Batches != 0 {
			t.Fatalf("delivered %d in %d batches, want 1 item and no aggregated batch", res.Delivered, res.Batches)
		}
	})

	for _, s := range core.Schemes() {
		if !s.Plan().BypassLocal {
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			const g = 8
			cfg := DefaultConfig(cluster.SMP(1, 1, 4), s)
			cfg.BufferItems = g
			rtm := New(cfg, func(*Ctx, uint64) {}, func(cluster.WorkerID) (int, KernelFunc) { return 0, nil })
			w := rtm.workers[0]

			// One kernel step sending g+1 items to one sibling posts a full
			// lane in the middle of the step.
			for i := 0; i <= g; i++ {
				w.ctx.Send(1, uint64(i))
			}
			if got := inbox(rtm, 1); len(got) != 1 || got[0] != g {
				t.Fatalf("after %d sends the sibling holds messages of %v items, want one of %d", g+1, got, g)
			}
			if len(w.lanes[1]) != 1 {
				t.Fatalf("lane holds %d items, want the 1 past the full post", len(w.lanes[1]))
			}

			// Ctx.Flush posts every lane, one message each.
			w.ctx.Send(2, 0)
			w.ctx.Send(3, 0)
			w.ctx.Send(3, 0)
			w.ctx.Flush()
			for dest, want := range map[cluster.WorkerID]int{1: 1, 2: 1, 3: 2} {
				if got := inbox(rtm, dest); len(got) != 1 || got[0] != want {
					t.Fatalf("after Flush sibling %d holds messages of %v items, want one of %d", dest, got, want)
				}
			}
			if c := rtm.Counters(); c.Inflight != g+4 || w.unsettled != 0 {
				t.Fatalf("inflight %d unsettled %d, want %d 0", c.Inflight, w.unsettled, g+4)
			}
			if c := rtm.Counters(); c.Batches != 0 || c.Flushes != 0 || c.FullBatches != 0 {
				t.Fatalf("lane posts counted as aggregated batches: %+v", c)
			}
		})
	}
}
