package rt

import (
	"testing"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/core"
)

// The bind contract: NewBound calls the BindFunc once per local worker, in
// worker order, with the context that worker's kernel steps, deliveries and
// posted tasks all receive — so per-worker hooks may close over it — and a
// self item reaches the sender's own delivery hook.

func TestBindOncePerWorker(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	W := topo.TotalWorkers()
	const steps = 200
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			bound := make([]*Ctx, W)
			calls := make([]int, W)
			var order []cluster.WorkerID
			// Per-worker tallies, each written only on its worker's goroutine.
			wrongCtx := make([]int, W)
			selfGot := make([]int64, W)
			delivered := make([]int64, W)
			posted := make([]int, W)

			check := func(w cluster.WorkerID, ctx *Ctx) {
				if ctx != bound[w] || ctx.Self() != w {
					wrongCtx[w]++
				}
			}
			cfg := DefaultConfig(topo, s)
			cfg.BufferItems = 16
			cfg.FlushDeadline = 200 * time.Microsecond
			rtm := NewBound(cfg, func(ctx *Ctx) (int, KernelFunc, DeliverFunc) {
				w := ctx.Self()
				bound[w] = ctx
				calls[w]++
				order = append(order, w)
				deliver := func(ctx *Ctx, v uint64) {
					check(w, ctx)
					delivered[w]++
					if cluster.WorkerID(v) == w {
						selfGot[w]++
					}
				}
				kernel := func(ctx *Ctx, i int) {
					check(w, ctx)
					if i == 0 {
						ctx.Post(func(ctx *Ctx) {
							check(w, ctx)
							posted[w]++
						})
					}
					ctx.Send(cluster.WorkerID(i%W), uint64(w))
				}
				return steps, kernel, deliver
			})
			for w, n := range calls {
				if n != 1 {
					t.Errorf("worker %d bound %d times, want 1", w, n)
				}
			}
			for i, w := range order {
				if w != cluster.WorkerID(i) {
					t.Fatalf("bind order %v, want worker order", order)
				}
			}
			res := rtm.Run()

			var total int64
			for w := 0; w < W; w++ {
				if wrongCtx[w] != 0 {
					t.Errorf("worker %d: %d calls got a context other than the bound one", w, wrongCtx[w])
				}
				if posted[w] != 1 {
					t.Errorf("worker %d ran %d posted tasks, want 1", w, posted[w])
				}
				if want := int64(steps / W); selfGot[w] != want {
					t.Errorf("worker %d's hook got %d of its own items, want %d", w, selfGot[w], want)
				}
				total += delivered[w]
			}
			if want := int64(W * steps); total != want {
				t.Fatalf("delivered %d, want %d", total, want)
			}
			if want := int64(steps / W * W); res.SelfItems != want {
				t.Fatalf("SelfItems %d, want %d", res.SelfItems, want)
			}
		})
	}
}

func TestBindPartitionedLocalWorkersOnly(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	for p := 0; p < topo.TotalProcs(); p++ {
		proc := cluster.ProcID(p)
		cfg := DefaultConfig(topo, core.WPs)
		cfg.Part = &Partition{Proc: proc, Remote: &loopback{topo: topo}}
		var got []cluster.WorkerID
		NewBound(cfg, func(ctx *Ctx) (int, KernelFunc, DeliverFunc) {
			if ctx.Proc() != proc {
				t.Errorf("proc %d bound worker %d of proc %d", p, ctx.Self(), ctx.Proc())
			}
			got = append(got, ctx.Self())
			return 0, nil, nil
		})
		ok := len(got) == topo.WorkersPerProc
		for r := 0; ok && r < len(got); r++ {
			ok = got[r] == topo.WorkerOf(proc, r)
		}
		if !ok {
			t.Fatalf("proc %d bound workers %v, want its %d workers once each, in order", p, got, topo.WorkersPerProc)
		}
	}
}
