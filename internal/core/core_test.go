package core

import (
	"fmt"
	"testing"

	"tramlib/internal/charm"
	"tramlib/internal/cluster"
	"tramlib/internal/netsim"
	"tramlib/internal/rng"
	"tramlib/internal/sim"
)

// harness wires a runtime + TramLib + a recording sink for tests.
type harness struct {
	rt   *charm.Runtime
	lib  *Lib
	recv []map[uint64]int // per worker: payload -> count
}

func newHarness(topo cluster.Topology, cfg Config) *harness {
	h := &harness{}
	h.rt = charm.NewRuntime(topo, netsim.DefaultParams())
	h.recv = make([]map[uint64]int, topo.TotalWorkers())
	for i := range h.recv {
		h.recv[i] = make(map[uint64]int)
	}
	h.lib = New(h.rt, cfg, func(ctx *charm.Ctx, v uint64) {
		h.recv[ctx.Self()][v]++
	})
	return h
}

// received returns total items received across all workers.
func (h *harness) received() int {
	n := 0
	for _, m := range h.recv {
		for _, c := range m {
			n += c
		}
	}
	return n
}

func testConfig(s Scheme, g int) Config {
	cfg := DefaultConfig(s)
	cfg.BufferItems = g
	return cfg
}

// driver: every worker sends `z` items round-robin over all destinations,
// then flushes. Payload encodes (src, seq) so delivery can be checked
// exactly. Destination for (w, i) is (w + 1 + i) % W: deterministic, covers
// all destinations including same-proc and self is skipped.
func runAllToAll(t *testing.T, topo cluster.Topology, cfg Config, z int) *harness {
	t.Helper()
	h := newHarness(topo, cfg)
	W := topo.TotalWorkers()
	var gen charm.HandlerID
	gen = h.rt.Register("gen", func(ctx *charm.Ctx, data any, _ int) {
		w := int(ctx.Self())
		for i := 0; i < z; i++ {
			dst := (w + 1 + i) % W
			if dst == w {
				dst = (dst + 1) % W
			}
			h.lib.Insert(ctx, cluster.WorkerID(dst), uint64(w)<<32|uint64(i))
		}
		h.lib.Flush(ctx)
	})
	for w := 0; w < W; w++ {
		h.rt.Inject(0, cluster.WorkerID(w), gen, nil)
	}
	h.rt.Run()
	return h
}

func schemesUnderTest() []Scheme {
	return []Scheme{Direct, WW, WPs, WsP, PP}
}

func TestExactDeliveryAllSchemes(t *testing.T) {
	topo := cluster.SMP(2, 2, 3)
	W := topo.TotalWorkers()
	const z = 200
	for _, s := range schemesUnderTest() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			h := runAllToAll(t, topo, testConfig(s, 16), z)
			if got := h.received(); got != W*z {
				t.Fatalf("received %d items, want %d", got, W*z)
			}
			// Check exact destinations: recompute the driver's routing.
			want := make([]map[uint64]int, W)
			for i := range want {
				want[i] = make(map[uint64]int)
			}
			for w := 0; w < W; w++ {
				for i := 0; i < z; i++ {
					dst := (w + 1 + i) % W
					if dst == w {
						dst = (dst + 1) % W
					}
					want[dst][uint64(w)<<32|uint64(i)]++
				}
			}
			for w := 0; w < W; w++ {
				if len(h.recv[w]) != len(want[w]) {
					t.Fatalf("worker %d received %d distinct items, want %d", w, len(h.recv[w]), len(want[w]))
				}
				for v, c := range want[w] {
					if h.recv[w][v] != c {
						t.Fatalf("worker %d: item %x count %d, want %d", w, v, h.recv[w][v], c)
					}
				}
			}
			if h.lib.BufferedItems() != 0 {
				t.Fatalf("%d items still buffered after flush+quiescence", h.lib.BufferedItems())
			}
			if ins, del := h.lib.M.Inserted.Value(), h.lib.M.Delivered.Value(); ins != del {
				t.Fatalf("inserted %d != delivered %d", ins, del)
			}
		})
	}
}

func TestSelfSendDeliversImmediately(t *testing.T) {
	topo := cluster.SMP(1, 1, 2)
	cfg := testConfig(WW, 8)
	cfg.TrackLatency = true
	h := newHarness(topo, cfg)
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		h.lib.Insert(ctx, ctx.Self(), 42)
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Run()
	if h.recv[0][42] != 1 {
		t.Fatal("self item not delivered")
	}
	if h.lib.M.Latency.Max() != 0 {
		t.Fatalf("self item latency = %d, want 0", h.lib.M.Latency.Max())
	}
}

func TestBufferFillTriggersSend(t *testing.T) {
	// With g=4 and 8 items to one destination, exactly 2 full messages and
	// no flush messages should be emitted.
	topo := cluster.SMP(2, 1, 1)
	for _, s := range []Scheme{WW, WPs, WsP, PP} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s, 4)
			h := newHarness(topo, cfg)
			gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
				for i := 0; i < 8; i++ {
					h.lib.Insert(ctx, 1, uint64(i))
				}
			})
			h.rt.Inject(0, 0, gen, nil)
			h.rt.Run()
			if got := h.lib.M.FullMsgs.Value(); got != 2 {
				t.Fatalf("full messages = %d, want 2", got)
			}
			if got := h.lib.M.FlushMsgs.Value(); got != 0 {
				t.Fatalf("flush messages = %d, want 0", got)
			}
			if h.received() != 8 {
				t.Fatalf("received %d", h.received())
			}
		})
	}
}

func TestFlushResizesMessages(t *testing.T) {
	// 3 items with g=1024: flush emits one message with bytes for 3 items
	// only (resized), not g items.
	topo := cluster.SMP(2, 1, 1)
	cfg := testConfig(WPs, 1024)
	h := newHarness(topo, cfg)
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		for i := 0; i < 3; i++ {
			h.lib.Insert(ctx, 1, uint64(i))
		}
		h.lib.Flush(ctx)
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Run()
	wantBytes := int64(cfg.MsgHeaderBytes + 3*(cfg.ItemBytes+cfg.WorkerTagBytes))
	if got := h.lib.M.BytesSent.Value(); got != wantBytes {
		t.Fatalf("flushed message bytes = %d, want %d (resized)", got, wantBytes)
	}
	if h.lib.M.FlushMsgs.Value() != 1 {
		t.Fatalf("flush messages = %d", h.lib.M.FlushMsgs.Value())
	}
}

func TestMessageCountBounds(t *testing.T) {
	// §III-C: for z items per source worker and buffer size g:
	//   WW:       z/g <= msgs_per_worker <= z/g + N*t
	//   WPs, WsP: z/g <= msgs_per_worker <= z/g + N
	//   PP:       z/g <= msgs_per_proc   <= z/g + N  (z here is per-proc items)
	topo := cluster.SMP(2, 2, 4)
	N := topo.TotalProcs()
	tWorkers := topo.WorkersPerProc
	const z, g = 600, 16

	for _, s := range []Scheme{WW, WPs, WsP, PP} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			h := runAllToAll(t, topo, testConfig(s, g), z)
			perSource := h.lib.M.PerSourceMsgs
			for src, msgs := range perSource {
				var zi, upper int64
				switch s {
				case WW:
					zi = z
					upper = zi/g + int64(N*tWorkers)
				case WPs, WsP:
					zi = z
					upper = zi/g + int64(N)
				case PP:
					zi = int64(z * tWorkers)
					upper = zi/g + int64(N)
				}
				lower := zi / int64(g)
				// The driver delivers self/local items outside the
				// buffers in SMP-aware schemes, so the effective
				// buffered z is smaller; only the upper bound is
				// strict. Lower bound: buffered z >= z - local
				// fraction; we check against the strict upper and a
				// conservative lower of (z - localShare)/g - 1.
				local := int64(0)
				if s.Plan().BypassLocal {
					// items to own process (incl. the self redirect)
					local = zi / int64(N)
				}
				if msgs > upper {
					t.Fatalf("source %d sent %d messages > upper bound %d", src, msgs, upper)
				}
				minBound := (zi-local)/int64(g) - int64(N*tWorkers)
				if minBound < 0 {
					minBound = 0
				}
				if msgs < minBound {
					t.Fatalf("source %d sent %d messages < lower bound %d (z/g=%d)", src, msgs, minBound, lower)
				}
			}
		})
	}
}

func TestPeakBufferedRespectsMemoryModel(t *testing.T) {
	// §III-C memory overhead: peak buffered items * ItemBytes never
	// exceeds the scheme's buffer allocation bound.
	topo := cluster.SMP(2, 2, 2)
	const z, g = 500, 8
	for _, s := range []Scheme{WW, WPs, WsP, PP} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			h := runAllToAll(t, topo, testConfig(s, g), z)
			peakBytes := h.lib.M.PeakBuffered.Value() * int64(h.lib.cfg.ItemBytes)
			bound := h.lib.MemoryModelBytes()
			if peakBytes > bound {
				t.Fatalf("peak buffered %d B exceeds §III-C bound %d B", peakBytes, bound)
			}
			if h.lib.M.PeakBuffered.Value() == 0 {
				t.Fatal("no buffering observed")
			}
		})
	}
}

func TestBufferNeverExceedsG(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	const g = 8
	for _, s := range []Scheme{WW, WPs, WsP, PP} {
		h := newHarness(topo, testConfig(s, g))
		check := func() {
			for owner, bufs := range h.lib.bufs {
				for route := range bufs {
					if n := bufs[route].len(); n > g {
						t.Fatalf("%v: owner %d's buffer for route %d holds %d > g=%d", s, owner, route, n, g)
					}
				}
			}
		}
		gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
			r := rng.NewStream(99, int(ctx.Self()))
			for i := 0; i < 300; i++ {
				dst := cluster.WorkerID(r.Intn(topo.TotalWorkers()))
				if dst == ctx.Self() {
					continue
				}
				h.lib.Insert(ctx, dst, uint64(i))
				check()
			}
		})
		for w := 0; w < topo.TotalWorkers(); w++ {
			h.rt.Inject(0, cluster.WorkerID(w), gen, nil)
		}
		h.rt.Run()
	}
}

func TestLatencyOrderingPPLessThanWPsLessThanWW(t *testing.T) {
	// Fig. 12's headline: with a shared fill stream, mean item latency is
	// PP < WPs < WW because buffer fill rate scales with the number of
	// contributors per buffer.
	topo := cluster.SMP(2, 2, 4)
	W := topo.TotalWorkers()
	const z = 2000
	mean := func(s Scheme) float64 {
		cfg := testConfig(s, 64)
		cfg.TrackLatency = true
		h := newHarness(topo, cfg)
		drv := charm.NewLoopDriver(h.rt)
		for w := 0; w < W; w++ {
			w := w
			r := rng.NewStream(7, w)
			drv.Spawn(cluster.WorkerID(w), z, 32,
				func(ctx *charm.Ctx, i int) {
					dst := cluster.WorkerID(r.Intn(W))
					if dst == ctx.Self() {
						return
					}
					h.lib.Insert(ctx, dst, uint64(i))
				},
				func(ctx *charm.Ctx) { h.lib.Flush(ctx) })
		}
		h.rt.Run()
		return h.lib.M.Latency.Mean()
	}
	ww, wps, pp := mean(WW), mean(WPs), mean(PP)
	if !(pp < wps && wps < ww) {
		t.Fatalf("latency ordering violated: PP=%.0f WPs=%.0f WW=%.0f (want PP<WPs<WW)", pp, wps, ww)
	}
}

func TestIdleFlushDrainsBuffers(t *testing.T) {
	topo := cluster.SMP(2, 1, 2)
	cfg := testConfig(WPs, 1024)
	cfg.FlushOnIdle = true
	h := newHarness(topo, cfg)
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		for i := 0; i < 5; i++ {
			h.lib.Insert(ctx, 2, uint64(i)) // remote, never fills g=1024
		}
		// No explicit flush: idle flush must deliver the items.
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Run()
	if h.received() != 5 {
		t.Fatalf("idle flush failed: received %d of 5", h.received())
	}
	if h.lib.BufferedItems() != 0 {
		t.Fatal("items remain buffered")
	}
}

func TestTimeoutFlushDrainsBuffers(t *testing.T) {
	topo := cluster.SMP(2, 1, 2)
	cfg := testConfig(WW, 1024)
	cfg.FlushTimeout = 50 * sim.Microsecond
	h := newHarness(topo, cfg)
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		for i := 0; i < 5; i++ {
			h.lib.Insert(ctx, 2, uint64(i))
		}
	})
	h.rt.Inject(0, 0, gen, nil)
	end := h.rt.Run()
	if h.received() != 5 {
		t.Fatalf("timeout flush failed: received %d of 5", h.received())
	}
	if end < 50*sim.Microsecond {
		t.Fatalf("completion %v earlier than the flush timeout", end)
	}
}

func TestWWBuffersLocalDestinations(t *testing.T) {
	// WW is SMP-unaware: an item for a same-process worker sits in a
	// buffer (not delivered) until flush.
	topo := cluster.SMP(1, 1, 2)
	h := newHarness(topo, testConfig(WW, 1024))
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		h.lib.Insert(ctx, 1, 7)
		if h.lib.BufferedItems() != 1 {
			t.Errorf("WW did not buffer local item")
		}
		h.lib.Flush(ctx)
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Run()
	if h.recv[1][7] != 1 {
		t.Fatal("local WW item lost")
	}
}

// TestSMPAwareSchemesBypassBufferLocally holds every aggregating scheme to its
// plan's BypassLocal: a same-process item is delivered unbuffered and counted
// in LocalDirect exactly when the plan says so, and buffered otherwise (WW,
// the SMP-unaware scheme — no configuration can make it bypass). A self item
// is neither: it is delivered inline and counted in SelfItems on every plan.
func TestSMPAwareSchemesBypassBufferLocally(t *testing.T) {
	topo := cluster.SMP(1, 1, 2)
	for _, s := range Schemes()[1:] {
		bypass := s.Plan().BypassLocal
		if want := s != WW; bypass != want {
			t.Fatalf("%v: plan BypassLocal = %v, want %v", s, bypass, want)
		}
		h := newHarness(topo, testConfig(s, 1024))
		gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
			h.lib.Insert(ctx, 0, 9)
			h.lib.Insert(ctx, 1, 7)
			if buffered := h.lib.BufferedItems() != 0; buffered == bypass {
				t.Errorf("%v buffered a same-process item: %v, plan BypassLocal %v", s, buffered, bypass)
			}
			h.lib.Flush(ctx)
		})
		h.rt.Inject(0, 0, gen, nil)
		h.rt.Run()
		if h.recv[1][7] != 1 || h.recv[0][9] != 1 {
			t.Fatalf("%v: local or self item not delivered", s)
		}
		wantDirect := int64(0)
		if bypass {
			wantDirect = 1
		}
		if got := h.lib.M.LocalDirect.Value(); got != wantDirect {
			t.Fatalf("%v: LocalDirect = %d, want %d", s, got, wantDirect)
		}
		if got := h.lib.M.SelfItems.Value(); got != 1 {
			t.Fatalf("%v: SelfItems = %d, want 1", s, got)
		}
	}
}

func TestPPSharedBufferAcrossWorkers(t *testing.T) {
	// Two workers of one process each insert g/2 items for the same remote
	// process: the shared buffer must fill once (1 message), not per-worker.
	topo := cluster.SMP(2, 1, 2)
	cfg := testConfig(PP, 8)
	h := newHarness(topo, cfg)
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		for i := 0; i < 4; i++ {
			h.lib.Insert(ctx, 2, uint64(ctx.Self())<<32|uint64(i))
		}
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Inject(0, 1, gen, nil)
	h.rt.Run()
	if got := h.lib.M.FullMsgs.Value(); got != 1 {
		t.Fatalf("PP full messages = %d, want 1 (shared buffer)", got)
	}
	if h.received() != 8 {
		t.Fatalf("received %d of 8", h.received())
	}
}

func TestDirectSchemeSendsPerItem(t *testing.T) {
	topo := cluster.SMP(2, 1, 1)
	h := newHarness(topo, testConfig(Direct, 0))
	gen := h.rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		for i := 0; i < 10; i++ {
			h.lib.Insert(ctx, 1, uint64(i))
		}
	})
	h.rt.Inject(0, 0, gen, nil)
	h.rt.Run()
	if h.lib.M.RemoteMsgs.Value() != 10 {
		t.Fatalf("Direct sent %d messages, want 10", h.lib.M.RemoteMsgs.Value())
	}
	if h.received() != 10 {
		t.Fatalf("received %d", h.received())
	}
}

func TestWsPGroupingPreservesOrderWithinDestination(t *testing.T) {
	// Items from one source to one destination must arrive in insertion
	// order (the grouping is a stable counting sort).
	topo := cluster.SMP(2, 1, 4)
	cfg := testConfig(WsP, 16)
	var got []uint64
	rt := charm.NewRuntime(topo, netsim.DefaultParams())
	lib := New(rt, cfg, func(ctx *charm.Ctx, v uint64) {
		if ctx.Self() == 5 {
			got = append(got, v)
		}
	})
	gen := rt.Register("gen", func(ctx *charm.Ctx, _ any, _ int) {
		r := rng.NewStream(3, 0)
		seq := uint64(0)
		for i := 0; i < 64; i++ {
			// Interleave destinations; track sequence per dest 5.
			dst := cluster.WorkerID(4 + r.Intn(4))
			v := uint64(0)
			if dst == 5 {
				v = seq
				seq++
			}
			lib.Insert(ctx, dst, v)
		}
		lib.Flush(ctx)
	})
	rt.Inject(0, 0, gen, nil)
	rt.Run()
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("destination order broken: %v", got)
		}
	}
	if len(got) == 0 {
		t.Fatal("no items reached worker 5")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	topo := cluster.SMP(2, 2, 2)
	run := func() (sim.Time, int64, int64) {
		h := runAllToAll(t, topo, testConfig(WPs, 16), 300)
		return h.rt.Run(), h.lib.M.RemoteMsgs.Value(), h.lib.M.BytesSent.Value()
	}
	e1, m1, b1 := run()
	e2, m2, b2 := run()
	if e1 != e2 || m1 != m2 || b1 != b2 {
		t.Fatalf("nondeterministic run: (%v,%d,%d) vs (%v,%d,%d)", e1, m1, b1, e2, m2, b2)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Scheme: WW, BufferItems: 0, ItemBytes: 8},
		{Scheme: WPs, BufferItems: 8, ItemBytes: 0},
		{Scheme: PP, BufferItems: 8, ItemBytes: 8, FlushTimeout: -1},
		{Scheme: Scheme(99), BufferItems: 8, ItemBytes: 8},
		{Scheme: WW, BufferItems: 8, ItemBytes: 8, WorkerTagBytes: -1},
		{Scheme: WW, BufferItems: 8, ItemBytes: 8, MsgHeaderBytes: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	if err := DefaultConfig(WW).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// Direct needs no buffers: BufferItems is not validated for it.
	if err := (Config{Scheme: Direct, ItemBytes: 8}).Validate(); err != nil {
		t.Errorf("Direct config without buffers invalid: %v", err)
	}
}

func TestSchemesEnumeration(t *testing.T) {
	all := Schemes()
	if len(all) != int(PP)+1 {
		t.Fatalf("Schemes() has %d entries, want %d", len(all), int(PP)+1)
	}
	if all[0] != Direct {
		t.Fatalf("Schemes()[0] = %v, want Direct", all[0])
	}
	seen := map[Scheme]bool{}
	for _, s := range all {
		if seen[s] {
			t.Fatalf("scheme %v listed twice", s)
		}
		seen[s] = true
		if s.String() == fmt.Sprintf("Scheme(%d)", uint8(s)) {
			t.Fatalf("scheme %v has no name", s)
		}
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, s := range AllSchemes {
		if !seen[s] {
			t.Fatalf("AllSchemes entry %v missing from Schemes()", s)
		}
	}
	// The two lists must stay in lockstep: every aggregating scheme in the
	// canonical enumeration appears in the figure-order list too, so a new
	// scheme added to Schemes() cannot silently skip the AllSchemes sweeps.
	inFigureOrder := map[Scheme]bool{}
	for _, s := range AllSchemes {
		inFigureOrder[s] = true
	}
	for _, s := range all[1:] {
		if !inFigureOrder[s] {
			t.Fatalf("scheme %v in Schemes() but missing from AllSchemes", s)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range schemesUnderTest() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme parsed")
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	// The motivation (§I): aggregation with g=64 must send far fewer
	// messages than Direct for the same item stream.
	topo := cluster.SMP(2, 2, 2)
	const z = 2000
	msgs := func(s Scheme, g int) int64 {
		h := runAllToAll(t, topo, testConfig(s, g), z)
		return h.lib.M.RemoteMsgs.Value()
	}
	direct := msgs(Direct, 0)
	agg := msgs(WPs, 64)
	if agg*10 > direct {
		t.Fatalf("aggregation sent %d messages vs %d direct; want >=10x reduction", agg, direct)
	}
}

// TestPlanMatchesPaperTable pins the §III-B table: each scheme's Plan, the
// route and owner arithmetic it implies, and the buffer table New lays out
// from it against MemoryModelBytes' N·t / N / N buffers per owner.
func TestPlanMatchesPaperTable(t *testing.T) {
	want := map[Scheme]Plan{
		Direct: {},
		WW:     {Buffered: true},
		WPs:    {Buffered: true, ProcRouted: true, Group: GroupAtDest, BypassLocal: true, Tagged: true},
		WsP:    {Buffered: true, ProcRouted: true, Group: GroupAtSource, BypassLocal: true, Tagged: true},
		PP:     {Buffered: true, ProcRouted: true, Shared: true, Group: GroupAtDest, BypassLocal: true, Tagged: true},
	}
	topo := cluster.SMP(2, 2, 4)
	N, tw, W := topo.TotalProcs(), topo.WorkersPerProc, topo.TotalWorkers()
	perOwner := map[Scheme]int{Direct: 0, WW: N * tw, WPs: N, WsP: N, PP: N}
	owners := map[Scheme]int{Direct: W, WW: W, WPs: W, WsP: W, PP: N}
	if len(Schemes()) != len(want) {
		t.Fatalf("table covers %d schemes, Schemes() lists %d", len(want), len(Schemes()))
	}
	for _, s := range Schemes() {
		p := s.Plan()
		if p != want[s] {
			t.Errorf("%v: plan %+v, want %+v", s, p, want[s])
		}
		// What the rest of the table's users lean on: a process-addressed
		// buffer carries tagged items, is grouped somewhere, and is never
		// used for the sender's own process; a worker-addressed one is none
		// of those.
		if p.Tagged != p.ProcRouted || (p.Group != GroupNone) != p.ProcRouted || p.BypassLocal != p.ProcRouted {
			t.Errorf("%v: plan %+v mixes worker- and process-addressed behaviour", s, p)
		}
		if got := p.Routes(topo); got != perOwner[s] {
			t.Errorf("%v: %d routes, want %d", s, got, perOwner[s])
		}
		if got := p.Owners(topo); got != owners[s] {
			t.Errorf("%v: %d owners, want %d", s, got, owners[s])
		}
		for w := 0; w < W; w++ {
			id := cluster.WorkerID(w)
			route, owner := w, w
			if p.ProcRouted {
				route = int(topo.ProcOf(id))
			}
			if p.Shared {
				owner = int(topo.ProcOf(id))
			}
			if p.Route(topo, id) != route || p.Owner(topo, id) != owner {
				t.Errorf("%v: worker %d has route %d owner %d, want %d %d", s, w, p.Route(topo, id), p.Owner(topo, id), route, owner)
			}
		}

		cfg := testConfig(s, 8)
		lib := newHarness(topo, cfg).lib
		if len(lib.bufs) != owners[s] || len(lib.M.PerSourceMsgs) != owners[s] {
			t.Errorf("%v: New laid out %d owners (%d message counters), want %d", s, len(lib.bufs), len(lib.M.PerSourceMsgs), owners[s])
		}
		buffers := 0
		for _, bufs := range lib.bufs {
			if len(bufs) != perOwner[s] {
				t.Errorf("%v: an owner holds %d buffers, want %d", s, len(bufs), perOwner[s])
			}
			buffers += len(bufs)
		}
		if got, want := lib.MemoryModelBytes(), int64(cfg.BufferItems*cfg.ItemBytes*buffers); got != want {
			t.Errorf("%v: MemoryModelBytes %d, want g·m × %d buffers = %d", s, got, buffers, want)
		}
	}
}
