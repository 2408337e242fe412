package tram_test

// The bind contract of the public layer: on every backend and scheme, each
// call the application receives on worker w — a kernel step, a Deliver
// (self items included), a posted task — is handed the same Ctx value, and
// that Ctx reports Self() == w. A backend may therefore build a worker's
// adapter once, before the run, instead of rebinding it per call.

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"tramlib/tram"
)

const bindSteps = 256

// bindCheck records the first Ctx each worker is handed and counts the calls
// that get a different one, or one whose Self is not the worker the call
// belongs to. first[w] is touched only on worker w's execution context.
type bindCheck struct {
	first []tram.Ctx
	bad   atomic.Int64
	posts atomic.Int64 // posted tasks run
}

// bindReport is what each Dist worker process sends back.
type bindReport struct {
	Bad   int64 `json:"bad"`
	Posts int64 `json:"posts"`
}

func newBindCheck(workers int) *bindCheck {
	return &bindCheck{first: make([]tram.Ctx, workers)}
}

func (b *bindCheck) check(w tram.WorkerID, ctx tram.Ctx) {
	if b.first[w] == nil {
		b.first[w] = ctx
	}
	if ctx != b.first[w] || ctx.Self() != w {
		b.bad.Add(1)
	}
}

// app returns the checking application. An item's low 32 bits modulo the
// worker count name its destination. Every worker runs steps kernel steps,
// the i-th sending to worker i mod W (itself included); its first step
// posts a task that sends the worker an item of its own; every delivery
// posts a task that only checks its context. Each delivery contributes 1.
func (b *bindCheck) app(steps int) tram.App[uint64] {
	W := uint32(len(b.first))
	lib := tram.U64()
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, v uint64) {
			w := tram.WorkerID(uint32(v) % W)
			b.check(w, ctx)
			ctx.Contribute(1)
			ctx.Post(func(ctx tram.Ctx) {
				b.check(w, ctx)
				b.posts.Add(1)
			})
		},
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			return steps, func(ctx tram.Ctx, i int) {
				b.check(w, ctx)
				if i == 0 {
					ctx.Post(func(ctx tram.Ctx) {
						b.check(w, ctx)
						b.posts.Add(1)
						lib.Insert(ctx, w, uint64(w))
					})
				}
				dest := uint32(i) % W
				lib.Insert(ctx, tram.WorkerID(dest), uint64(dest))
			}
		},
		FlushOnDone: true,
	}
}

func bindCfg(s tram.Scheme) tram.Config {
	cfg := tram.DefaultConfig(confTopo(), s) // 2 processes of 2 workers
	cfg.BufferItems = 16
	cfg.ChunkSize = 16
	return cfg
}

func init() {
	tram.RegisterDist("bind-contract", func(params []byte, _ tram.ProcID) (tram.DistApp, error) {
		var s tram.Scheme
		if err := json.Unmarshal(params, &s); err != nil {
			return tram.DistApp{}, err
		}
		cfg := bindCfg(s)
		b := newBindCheck(cfg.Topo.TotalWorkers())
		return tram.BindDist(tram.U64(), cfg, b.app(bindSteps), func() []byte {
			out, _ := json.Marshal(bindReport{Bad: b.bad.Load(), Posts: b.posts.Load()})
			return out
		})
	})
}

func TestBindContract(t *testing.T) {
	cells := []struct {
		name string
		b    tram.Backend
	}{{"sim", tram.Sim}, {"real", tram.Real}, {"dist", tram.Dist}}
	for _, s := range tram.Schemes() {
		for _, c := range cells {
			t.Run(s.String()+"/"+c.name, func(t *testing.T) {
				cfg := bindCfg(s)
				W := cfg.Topo.TotalWorkers()
				b := newBindCheck(W)
				if tram.IsDist(c.b) {
					cfg.Dist.App = "bind-contract"
					cfg.Dist.Params, _ = json.Marshal(s)
				}
				m, err := tram.U64().Run(c.b, cfg, b.app(bindSteps))
				if err != nil {
					t.Fatal(err)
				}
				if tram.IsDist(c.b) && len(m.Reports) != cfg.Topo.TotalProcs() {
					t.Fatalf("%d process reports, want %d", len(m.Reports), cfg.Topo.TotalProcs())
				}
				bad, posts := b.bad.Load(), b.posts.Load()
				for _, rep := range m.Reports {
					var r bindReport
					if err := json.Unmarshal(rep, &r); err != nil {
						t.Fatal(err)
					}
					bad += r.Bad
					posts += r.Posts
				}
				want := int64(W*bindSteps + W)
				if m.Delivered != want || m.Reduced != want {
					t.Fatalf("delivered %d reduced %d, want %d", m.Delivered, m.Reduced, want)
				}
				if wantSelf := int64(bindSteps + W); m.SelfItems != wantSelf {
					t.Fatalf("self items %d, want %d", m.SelfItems, wantSelf)
				}
				if posts != want+int64(W) {
					t.Fatalf("posted tasks run %d, want %d", posts, want+int64(W))
				}
				if bad != 0 {
					t.Fatalf("%d calls were handed a context other than their worker's bound one", bad)
				}
			})
		}
	}
}

func TestBindContractServe(t *testing.T) {
	p := serveParams{Nodes: 1, Procs: 2, Workers: 2}
	const workers = 4
	for _, s := range tram.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			p.Scheme = s
			cfg := serveTestCfg(p)
			cfg.Serve.Listen = "127.0.0.1:0"
			b := newBindCheck(workers)
			srv, err := tram.U64().Serve(tram.Real, cfg, b.app(0))
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			const conns, perConn = 2, 1000
			m := streamAndDrain(t, srv, conns, perConn, workers)
			if posts := b.posts.Load(); posts != m.Delivered {
				t.Fatalf("posted tasks run %d, want %d", posts, m.Delivered)
			}
			if bad := b.bad.Load(); bad != 0 {
				t.Fatalf("%d calls were handed a context other than their worker's bound one", bad)
			}
		})
	}
}
