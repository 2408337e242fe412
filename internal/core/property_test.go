package core

import (
	"testing"
	"testing/quick"

	"tramlib/internal/charm"
	"tramlib/internal/cluster"
	"tramlib/internal/rng"
	"tramlib/internal/sim"
)

// TestPropertyExactDeliveryRandomized is the library's central invariant
// checked over randomized topologies, schemes, buffer sizes and flush
// policies: every inserted item is delivered exactly once, to the right
// worker, and no item remains buffered after quiescence.
func TestPropertyExactDeliveryRandomized(t *testing.T) {
	f := func(seed uint64, nodesR, ppnR, wppR, schemeR, gR uint8, idle, timeout bool) bool {
		topo := cluster.Topology{
			Nodes:          int(nodesR%3) + 1,
			ProcsPerNode:   int(ppnR%3) + 1,
			WorkersPerProc: int(wppR%4) + 1,
		}
		scheme := Scheme(schemeR % 5)
		cfg := DefaultConfig(scheme)
		cfg.BufferItems = int(gR%63) + 2
		cfg.FlushOnIdle = idle
		if timeout {
			cfg.FlushTimeout = 20 * sim.Microsecond
			cfg.FlushBurst = int(gR%3) + 1
		}
		cfg.TrackLatency = true

		h := newHarness(topo, cfg)
		W := topo.TotalWorkers()
		const z = 150
		sent := make([]map[uint64]int, W)
		for i := range sent {
			sent[i] = make(map[uint64]int)
		}
		gen := h.rt.Register("gen", func(ctx *charm.Ctx, data any, _ int) {
			w := int(ctx.Self())
			r := rng.NewStream(seed, w)
			for i := 0; i < z; i++ {
				dst := r.Intn(W)
				v := uint64(w)<<32 | uint64(i)
				sent[dst][v]++
				if i%17 == 0 {
					h.lib.InsertPriority(ctx, cluster.WorkerID(dst), v)
				} else {
					h.lib.Insert(ctx, cluster.WorkerID(dst), v)
				}
			}
			h.lib.Flush(ctx)
		})
		for w := 0; w < W; w++ {
			h.rt.Inject(0, cluster.WorkerID(w), gen, nil)
		}
		h.rt.Run()

		if h.lib.BufferedItems() != 0 {
			return false
		}
		if h.lib.M.Inserted.Value() != h.lib.M.Delivered.Value() {
			return false
		}
		for w := 0; w < W; w++ {
			if len(h.recv[w]) != len(sent[w]) {
				return false
			}
			for v, c := range sent[w] {
				if h.recv[w][v] != c {
					return false
				}
			}
		}
		// Latency can never beat the physics: any remote item costs at
		// least the intra-node wire alpha.
		if h.lib.M.Latency.Count() > 0 && h.lib.M.Latency.Min() < 0 {
			return false
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMessageBytesConsistent checks that remote bytes equal the sum
// of per-message resized framing across randomized runs.
func TestPropertyMessageBytesConsistent(t *testing.T) {
	f := func(seed uint64, gR uint8) bool {
		topo := cluster.SMP(2, 2, 2)
		cfg := DefaultConfig(WPs)
		cfg.BufferItems = int(gR%31) + 2
		h := newHarness(topo, cfg)
		W := topo.TotalWorkers()
		gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
			r := rng.NewStream(seed, int(ctx.Self()))
			for i := 0; i < 200; i++ {
				h.lib.Insert(ctx, cluster.WorkerID(r.Intn(W)), uint64(i))
			}
			h.lib.Flush(ctx)
		})
		for w := 0; w < W; w++ {
			h.rt.Inject(0, cluster.WorkerID(w), gen, nil)
		}
		h.rt.Run()
		// Remote items (excluding local-direct and self: WPs's plan bypasses
		// its buffers for every same-process item) each contribute
		// ItemBytes+WorkerTagBytes; each remote message adds a header.
		remoteItems := h.lib.M.Delivered.Value() - h.lib.M.LocalDirect.Value() - h.lib.M.SelfItems.Value()
		minBytes := remoteItems * int64(cfg.ItemBytes)
		maxBytes := remoteItems*int64(cfg.ItemBytes+cfg.WorkerTagBytes) +
			h.lib.M.RemoteMsgs.Value()*int64(cfg.MsgHeaderBytes)
		got := h.lib.M.BytesSent.Value()
		return got >= minBytes && got <= maxBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCommThreadConservation: every remote aggregated message passes
// the source and destination comm threads exactly once.
func TestPropertyCommThreadConservation(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	cfg := DefaultConfig(PP)
	cfg.BufferItems = 8
	h := newHarness(topo, cfg)
	W := topo.TotalWorkers()
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		r := rng.NewStream(3, int(ctx.Self()))
		for i := 0; i < 500; i++ {
			h.lib.Insert(ctx, cluster.WorkerID(r.Intn(W)), uint64(i))
		}
		h.lib.Flush(ctx)
	})
	for w := 0; w < W; w++ {
		h.rt.Inject(0, cluster.WorkerID(w), gen, nil)
	}
	h.rt.Run()

	var commTasks int64
	for p := 0; p < topo.TotalProcs(); p++ {
		_, tasks := h.rt.Net.CommBusy(cluster.ProcID(p))
		commTasks += tasks
	}
	// Each remote message = 1 send task + 1 recv task.
	if commTasks != 2*h.lib.M.RemoteMsgs.Value() {
		t.Fatalf("comm tasks %d != 2 x remote msgs %d", commTasks, h.lib.M.RemoteMsgs.Value())
	}
}
