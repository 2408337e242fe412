package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tramlib/internal/apps/histogram"
	"tramlib/internal/apps/indexgather"
	"tramlib/internal/apps/serveagg"
	"tramlib/internal/cluster"
	"tramlib/internal/core"
	"tramlib/internal/rng"
	"tramlib/internal/rt"
	"tramlib/internal/serve"
	"tramlib/internal/shmem"
	"tramlib/internal/sim"
	"tramlib/internal/stats"
	"tramlib/internal/traffic"
	"tramlib/internal/transport"
	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
	"tramlib/tram"
)

// Stage drivers: one small program per layer, each timing calls into that
// layer's public functions with the layers around it stubbed. They run at
// the end of a traced invocation, parameterised with the workload's buffer
// size g (and, where it matters, its topology and scheme), so a per-batch
// cost can be divided by the same g the workload amortises it over.
//
// A driver is sized to finish in about a tenth of a second: these are
// per-layer diagnostics with no regression bound, read next to the
// end-to-end figures, not instead of them.

// layerShape is what a workload hands the traced protocol and the drivers.
type layerShape struct {
	cfg tram.Config // the workload's library configuration
	// actors is how many goroutines run the timed Insert and Deliver calls
	// of a traced flood rep: the topology's workers, or the serve clients.
	actors int
}

// kernelShape is the shape of a workload whose load comes from the
// topology's own workers.
func kernelShape(cfg tram.Config) layerShape {
	return layerShape{cfg: cfg, actors: cfg.Topo.TotalWorkers()}
}

func (s layerShape) g() int {
	if s.cfg.BufferItems > 0 {
		return s.cfg.BufferItems
	}
	return 1
}

// layerDriver names the metrics one driver yields, in the order run returns
// them.
type layerDriver struct {
	name    string
	metrics []string
	run     func(sh layerShape, e env) ([]float64, error)
}

var layerDrivers = []layerDriver{
	{"shmem", []string{"shmem.sp_push_ns_per_item", "shmem.mp_push_ns_per_item.p1", "shmem.mp_push_ns_per_item.pN", "shmem.mp_contention_ratio"}, shmemLayer},
	{"rt.send", []string{"rt.send_to_remote_ns_per_item.ww", "rt.send_to_remote_ns_per_item.wps", "rt.send_to_remote_ns_per_item.wsp", "rt.send_to_remote_ns_per_item.pp"}, rtSendLayer},
	{"rt.recv", []string{"rt.enqueue_to_deliver_ns_per_item.payloads", "rt.enqueue_to_deliver_ns_per_item.items", "rt.enqueue_to_deliver_ns_per_item.runs"}, rtRecvLayer},
	{"rt.new", []string{"rt.new_ms"}, rtNewLayer},
	{"rt.ig", []string{"rt.ig_rtt_p50_us", "rt.ig_rtt_p95_us"}, igLayer},
	{"wire", []string{
		"wire.encode_ns_per_item.payloads", "wire.encode_ns_per_item.items", "wire.encode_ns_per_item.runs",
		"wire.decode_ns_per_item.payloads", "wire.decode_ns_per_item.items", "wire.decode_ns_per_item.runs",
		"wire.bytes_per_item.payloads", "wire.bytes_per_item.items", "wire.bytes_per_item.runs",
		"wire.bundle_ns_per_frame"}, wireLayer},
	{"shmring", []string{"shmring.write_recv_ns_per_record", "shmring.write_recv_ns_per_item"}, shmringLayer},
	{"transport.link", []string{
		"transport.socket_ns_per_item", "transport.shm_ns_per_item", "transport.tcp_ns_per_item",
		"transport.mesh_connect_ms.socket", "transport.mesh_connect_ms.shm", "transport.mesh_connect_ms.tcp"}, linkLayer},
	{"transport.router", []string{"transport.router_ns_per_frame", "transport.router_frames_per_bundle"}, routerLayer},
	{"dist", []string{"dist.spawn_handshake_ms", "dist.quiesce_detect_ms", "dist.coordinator_allocs_per_item", "transport.leader_vs_flat"}, distLayer},
	{"serve", []string{"serve.admit_ack_ns_per_event", "serve.peak_events_per_s", "serve.drain_ms"}, serveLayer},
	{"sim", []string{"sim.engine_events_per_s", "core.engine_events_per_item", "core.sim_ms", "core.batches_per_item", "netsim.bytes_per_item", "netsim.comm_util_max"}, simLayer},
	{"instrument", []string{"stats.atomic_hist_observe_ns", "traffic.picker_next_ns"}, instrumentLayer},
}

// layerItems is the work one driver loop moves at full scale.
const layerItems = 2 << 20

// perItem converts a loop's wall time to nanoseconds per item.
func perItem(d time.Duration, items int) float64 { return float64(d) / float64(items) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- shmem: the aggregation buffers alone ---

func shmemLayer(sh layerShape, e env) ([]float64, error) {
	g, n := sh.g(), e.sized(layerItems)

	// Single producer (WW, WPs, WsP): Push until full, seal, recycle.
	var spare []uint64
	sp := shmem.NewSPBuffer(g, func(b shmem.Batch[uint64]) { spare = b.Items })
	sp.SetAlloc(func(n int) []uint64 {
		if s := spare; cap(s) >= n {
			spare = nil
			return s[:n]
		}
		return make([]uint64, n)
	})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp.Push(uint64(i))
	}
	spNs := perItem(time.Since(t0), n)

	// Multiple producers (PP): the same items claimed with atomics by 1 and
	// by nproc goroutines. The figure is producer time per push (wall x
	// producers / pushes), so perfect scaling keeps it constant and the
	// ratio pN/p1 is the price of contention alone.
	mpPush := func(producers int) float64 {
		free := make(chan []rt.Item, 4) // a few generations in flight at most
		mp := shmem.NewMPBuffer(g, func(b shmem.Batch[rt.Item]) {
			select {
			case free <- b.Items:
			default:
			}
		})
		mp.SetAlloc(func(n int) []rt.Item {
			select {
			case s := <-free:
				if cap(s) >= n {
					return s[:n]
				}
			default:
			}
			return make([]rt.Item, n)
		})
		each := n / producers
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					mp.Push(rt.Item{Dest: cluster.WorkerID(p), Val: uint64(i)})
				}
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		mp.Flush()
		return float64(d) * float64(producers) / float64(each*producers)
	}
	p1 := mpPush(1)
	pN := mpPush(max(2, runtime.NumCPU()))
	return []float64{spNs, p1, pN, pN / p1}, nil
}

// --- rt, send half: insert + seal + group, with the receiver stubbed ---

// stubRemote is the far side of a partitioned runtime: it counts what it is
// handed and gives the storage straight back.
type stubRemote struct {
	rtm   *rt.Runtime
	items atomic.Int64
}

func (s *stubRemote) SendOne(cluster.WorkerID, uint64) { s.items.Add(1) }

func (s *stubRemote) SendPayloads(_ cluster.WorkerID, p []uint64, _ bool) {
	s.items.Add(int64(len(p)))
	s.rtm.RecyclePayloads(p)
}

func (s *stubRemote) SendItems(_ cluster.ProcID, it []rt.Item, _ bool) {
	s.items.Add(int64(len(it)))
	s.rtm.RecycleItems(it)
}

func (s *stubRemote) SendRuns(_ cluster.ProcID, runs []rt.Run, _ bool) {
	for _, r := range runs {
		s.items.Add(int64(len(r.Payloads)))
		s.rtm.RecyclePayloads(r.Payloads)
	}
}

// layerTopo is the two-process machine the rt drivers split in half.
func layerTopo() cluster.Topology { return cluster.SMP(1, 2, 2) }

// partitioned builds process proc's half of layerTopo and returns it with
// the channel its quiet transitions are announced on.
func partitioned(scheme core.Scheme, g int, proc cluster.ProcID, remote rt.Remote, deliver rt.DeliverFunc, spawn rt.SpawnFunc) (*rt.Runtime, chan struct{}) {
	cfg := rt.DefaultConfig(layerTopo(), scheme)
	cfg.BufferItems = g
	cfg.Part = &rt.Partition{Proc: proc, Remote: remote}
	rtm := rt.New(cfg, deliver, spawn)
	quiet := make(chan struct{}, 1)
	rtm.SetQuietNotify(quiet)
	return rtm, quiet
}

// untilQuiet runs a partitioned runtime, calls feed once it is up, and
// returns the time from start to the local quiescence that follows feed.
func untilQuiet(rtm *rt.Runtime, quiet chan struct{}, feed func()) time.Duration {
	done := make(chan rt.Result, 1)
	t0 := time.Now()
	go func() { done <- rtm.Run() }()
	feed()
	for !rtm.LocallyQuiet() {
		<-quiet
	}
	d := time.Since(t0)
	rtm.Stop()
	<-done
	return d
}

func rtSendLayer(sh layerShape, e env) ([]float64, error) {
	topo := layerTopo()
	remote := remoteWorkers(topo, 0)
	steps := e.sized(layerItems / 2 / topo.WorkersPerProc)
	var out []float64
	for _, scheme := range []core.Scheme{core.WW, core.WPs, core.WsP, core.PP} {
		stub := &stubRemote{}
		rtm, quiet := partitioned(scheme, sh.g(), 0, stub,
			func(*rt.Ctx, uint64) {},
			func(w cluster.WorkerID) (int, rt.KernelFunc) {
				r := rng.NewStream(e.seed, int(w))
				return steps, func(ctx *rt.Ctx, _ int) {
					u := r.Uint64()
					ctx.Send(cluster.WorkerID(remote[u%uint64(len(remote))]), u)
				}
			})
		stub.rtm = rtm
		d := untilQuiet(rtm, quiet, func() {})
		want := int64(steps * topo.WorkersPerProc)
		if got := stub.items.Load(); got != want {
			return nil, fmt.Errorf("rt send driver (%v): remote saw %d of %d items", scheme, got, want)
		}
		out = append(out, perItem(d, int(want)))
	}
	return out, nil
}

// --- rt, receive half: inbox post, drain, scatter, with the sender stubbed ---

func rtRecvLayer(sh layerShape, e env) ([]float64, error) {
	topo := layerTopo()
	const proc = 1
	first := topo.FirstWorkerOf(proc)
	g := sh.g()
	batches := max(1, e.sized(layerItems/2)/g)
	// Each shape's feed enqueues batch b and returns how many items it held.
	type shape struct {
		scheme core.Scheme
		feed   func(rtm *rt.Runtime, b int) int
	}
	dest := func(i int) cluster.WorkerID { return first + cluster.WorkerID(i%topo.WorkersPerProc) }
	shapes := []shape{
		{core.WW, func(rtm *rt.Runtime, b int) int {
			p := rtm.AllocPayloads(g)
			for i := range p {
				p[i] = uint64(i)
			}
			rtm.EnqueuePayloads(dest(b), p)
			return g
		}},
		{core.WPs, func(rtm *rt.Runtime, b int) int {
			it := rtm.AllocItemSlice(g)
			for i := range it {
				it[i] = rt.Item{Dest: dest(i), Val: uint64(i)}
			}
			rtm.EnqueueItems(it)
			return g
		}},
		{core.WsP, func(rtm *rt.Runtime, b int) int {
			var runs [2]rt.Run
			half := (g + 1) / 2
			for r, n := range [2]int{half, g - half} {
				p := rtm.AllocPayloads(n)
				for i := range p {
					p[i] = uint64(i)
				}
				runs[r] = rt.Run{Dest: dest(r), Payloads: p}
			}
			rtm.EnqueueRuns(runs[:])
			return g
		}},
	}
	var out []float64
	for _, s := range shapes {
		var delivered [2]struct {
			n atomic.Int64
			_ [56]byte // one worker's counter per cache line
		}
		rtm, quiet := partitioned(s.scheme, g, proc, &stubRemote{},
			func(ctx *rt.Ctx, _ uint64) { delivered[ctx.Self()-first].n.Add(1) },
			func(cluster.WorkerID) (int, rt.KernelFunc) { return 0, nil })
		var want int64
		d := untilQuiet(rtm, quiet, func() {
			for b := 0; b < batches; b++ {
				want += int64(s.feed(rtm, b))
			}
		})
		if got := delivered[0].n.Load() + delivered[1].n.Load(); got != want {
			return nil, fmt.Errorf("rt receive driver (%v): delivered %d of %d items", s.scheme, got, want)
		}
		out = append(out, perItem(d, int(want)))
	}
	return out, nil
}

// --- rt: construction, and index-gather round trips under flood ---

func rtNewLayer(sh layerShape, _ env) ([]float64, error) {
	c := sh.cfg
	cfg := rt.Config{Topo: c.Topo, Scheme: c.Scheme, BufferItems: c.BufferItems,
		FlushDeadline: c.FlushDeadline, ChunkSize: c.ChunkSize, Adaptive: c.Adaptive}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("rt.New driver: %w", err)
	}
	times := make([]float64, 21)
	for i := range times {
		t0 := time.Now()
		rt.New(cfg, func(*rt.Ctx, uint64) {}, func(cluster.WorkerID) (int, rt.KernelFunc) { return 0, nil })
		times[i] = ms(time.Since(t0))
	}
	return []float64{median(times)}, nil
}

func igLayer(sh layerShape, e env) ([]float64, error) {
	cfg := indexgather.DefaultConfig(tram.SMP(1, 2, 2), tram.WsP)
	cfg.Tram.BufferItems = sh.g()
	cfg.RequestsPerPE = e.sized(64 << 10)
	cfg.Seed = e.seed
	var res indexgather.Result
	if err := catch("index-gather driver", func() { res = indexgather.RunOn(tram.Real, cfg) }); err != nil {
		return nil, err
	}
	return []float64{float64(res.Latency.Quantile(0.50)) * usPerNano, float64(res.Latency.Quantile(0.95)) * usPerNano}, nil
}

// --- wire: framing alone ---

// wireBatches builds one g-item batch in each of the three shapes.
func wireBatches(g int) ([]uint64, []wire.Item, []wire.Run) {
	payloads := make([]uint64, g)
	items := make([]wire.Item, g)
	for i := range payloads {
		payloads[i] = uint64(i) * 0x9e3779b97f4a7c15
		items[i] = wire.Item{Dest: uint32(i % 2), Val: payloads[i]}
	}
	half := (g + 1) / 2
	runs := []wire.Run{{Dest: 0, Payloads: payloads[:half]}, {Dest: 1, Payloads: payloads[half:]}}
	return payloads, items, runs
}

// wireSink keeps decoded values alive so the decode loops are not optimised
// away.
var wireSink uint64

func wireLayer(sh layerShape, e env) ([]float64, error) {
	g := sh.g()
	reps := max(1, e.sized(layerItems)/g)
	payloads, items, runs := wireBatches(g)
	encoders := []func(buf []byte) []byte{
		func(buf []byte) []byte { return wire.AppendPayloads(buf, 0, 1, payloads, true) },
		func(buf []byte) []byte { return wire.AppendItems(buf, 0, 1, items, true) },
		func(buf []byte) []byte { return wire.AppendRuns(buf, 0, 1, runs, true) },
	}
	scratch := make([]uint64, g)
	decoders := []func(f wire.Frame){
		func(f wire.Frame) { wireSink += f.Payloads(scratch[:f.Count])[0] },
		func(f wire.Frame) { f.EachItem(func(d uint32, v uint64) { wireSink += v + uint64(d) }) },
		func(f wire.Frame) {
			f.EachRun(func(_ uint32, n int, decode func([]uint64)) {
				decode(scratch[:n])
				wireSink += scratch[0]
			})
		},
	}
	enc, dec, size := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	var buf []byte
	for k := range encoders {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			buf = encoders[k](buf[:0])
		}
		enc[k] = perItem(time.Since(t0), reps*g)
		size[k] = float64(len(buf)) / float64(g)
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			f, _, err := wire.Decode(buf, 0)
			if err != nil {
				return nil, fmt.Errorf("wire driver: %w", err)
			}
			decoders[k](f)
		}
		dec[k] = perItem(time.Since(t0), reps*g)
	}

	// A leader's envelope: four already-encoded frames wrapped and unwrapped.
	const inner = 4
	one := wire.AppendItems(nil, 0, 1, items, true)
	var body []byte
	for i := 0; i < inner; i++ {
		body = append(body, one...)
	}
	bundles := max(1, reps/inner)
	t0 := time.Now()
	for r := 0; r < bundles; r++ {
		buf = wire.AppendBundle(buf[:0], 0, 1, inner, body)
		f, _, err := wire.Decode(buf, 0)
		if err == nil {
			err = f.EachFrame(func(_ []byte, in wire.Frame) error { wireSink += uint64(in.Count); return nil })
		}
		if err != nil {
			return nil, fmt.Errorf("wire driver: bundle: %w", err)
		}
	}
	bundleNs := float64(time.Since(t0)) / float64(bundles*inner)
	return append(append(append(enc, dec...), size...), bundleNs), nil
}

// --- shmring: one producer, one consumer, one mapped ring ---

func shmringLayer(sh layerShape, e env) ([]float64, error) {
	g := sh.g()
	records := max(1, e.sized(layerItems)/g)
	_, items, _ := wireBatches(g)
	dir, err := os.MkdirTemp("", "bench-ring-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "r.ring")
	recv, err := shmring.Create(path, 0)
	if err != nil {
		return nil, fmt.Errorf("shmring driver: %w", err)
	}
	defer recv.Close()
	send, err := shmring.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shmring driver: %w", err)
	}
	total := wire.ItemsFrameBytes(g)
	fill := func(dst []byte) []byte { return wire.AppendItems(dst, 0, 1, items, true) }
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		var err error
		for r := 0; r < records && err == nil; r++ {
			err = send.Write(total, fill)
		}
		sendErr <- errors.Join(err, send.CloseSend())
	}()
	got := 0
	err = recv.Recv(0, func([]byte) error { got++; return nil })
	d := time.Since(t0)
	if err = errors.Join(err, <-sendErr); err != nil {
		return nil, fmt.Errorf("shmring driver: %w", err)
	}
	if got != records {
		return nil, fmt.Errorf("shmring driver: received %d of %d records", got, records)
	}
	return []float64{float64(d) / float64(records), perItem(d, records*g)}, nil
}

// --- transport: a peer link of each kind between two in-process meshes ---

// connectMeshes brings up one mesh per process with the coordinator's
// discipline — every Listen, then every Connect — and returns how long that
// took.
func connectMeshes(meshes []*transport.Mesh) (time.Duration, error) {
	t0 := time.Now()
	addrs := make([]string, len(meshes))
	for p, m := range meshes {
		if err := m.Listen(); err != nil {
			return 0, err
		}
		addrs[p] = m.Addr()
	}
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for p, m := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = m.Connect(addrs)
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

func linkLayer(sh layerShape, e env) ([]float64, error) {
	g := sh.g()
	batches := max(1, e.sized(layerItems/2)/g)
	perItemNs, connectMs := make([]float64, 3), make([]float64, 3)
	for k, kind := range []transport.Kind{transport.Socket, transport.Shm, transport.TCP} {
		var err error
		if perItemNs[k], connectMs[k], err = linkOnce(kind, g, batches); err != nil {
			return nil, fmt.Errorf("link driver (%v): %w", kind, err)
		}
	}
	return append(perItemNs, connectMs...), nil
}

// linkOnce connects two meshes over one link of the given kind and ships
// batches of g items across it, returning ns per item and the connect time.
func linkOnce(kind transport.Kind, g, batches int) (nsPerItem, connectMs float64, err error) {
	_, items, _ := wireBatches(g)
	dir, err := os.MkdirTemp("", "bench-mesh-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var seen atomic.Int64
	arrived := make(chan struct{})
	want := int64(batches * g)
	exits := make(chan transport.PeerExit, 4) // each end of the link reports at most once per side
	meshes := make([]*transport.Mesh, 2)
	for p := range meshes {
		handle := func(wire.Frame) error { return nil }
		if p == 1 {
			handle = func(f wire.Frame) error {
				if seen.Add(int64(f.Count)) == want {
					close(arrived)
				}
				return nil
			}
		}
		meshes[p] = transport.NewMesh(transport.MeshConfig{
			Dir: dir, Self: p, Procs: 2, HelloDigest: "benchmark",
			KindOf: func(int) transport.Kind { return kind },
		}, handle, exits)
		defer meshes[p].Close()
	}
	d, err := connectMeshes(meshes)
	if err != nil {
		return 0, 0, err
	}
	peer := meshes[0].Peer(1)
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		if err := peer.SendItems(1, items, true); err != nil {
			return 0, 0, err
		}
	}
	select {
	case <-arrived:
	case x := <-exits:
		return 0, 0, fmt.Errorf("link to %d ended early: %v", x.Peer, x.Err)
	}
	return perItem(time.Since(t0), int(want)), ms(d), nil
}

// --- transport: the relay of two-level routing ---

// relayProc is one process of the routed mesh: it unwraps bundles, relays
// what is not for it, and counts what is.
type relayProc struct {
	self    int
	topo    transport.HierTopo
	router  *transport.Router
	frames  atomic.Int64 // frames that ended here
	bundles atomic.Int64 // envelopes seen on this process's links
	bundled atomic.Int64 // frames that arrived inside an envelope
	done    func()       // called for each frame that ended here
}

func (p *relayProc) handle(f wire.Frame) error {
	if f.Kind != wire.KindBundle {
		p.dispatch(f, nil)
		return nil
	}
	p.bundles.Add(1)
	p.bundled.Add(int64(f.Count))
	return f.EachFrame(func(raw []byte, in wire.Frame) error {
		p.dispatch(in, raw)
		return nil
	})
}

func (p *relayProc) dispatch(f wire.Frame, raw []byte) {
	if int(f.Dest) == p.self {
		p.frames.Add(1)
		p.done()
		return
	}
	if raw == nil {
		raw = wire.AppendFrame(nil, f)
	}
	p.router.RelayRaw(p.topo.NextHop(p.self, int(f.Dest)), raw)
}

func routerLayer(sh layerShape, e env) ([]float64, error) {
	// The Dist workloads' placement: two nodes of two processes, rings
	// inside a node, sockets between the leaders. A frame from the
	// non-leader 1 to the non-leader 3 takes every kind of hop: 1 -> 0 -> 2
	// -> 3.
	nodes := []int{0, 0, 1, 1}
	const src, dst = 1, 3
	topo := transport.NewHierTopo(nodes, len(nodes))
	g := sh.g()
	frames := max(1, e.sized(layerItems/4)/g)
	_, items, _ := wireBatches(g)
	raw := wire.AppendItems(nil, src, dst, items, true)

	dir, err := os.MkdirTemp("", "bench-hier-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var arrived sync.WaitGroup
	arrived.Add(frames)
	exits := make(chan transport.PeerExit, 16) // every link end and relay may report once
	procs := make([]*relayProc, len(nodes))
	meshes := make([]*transport.Mesh, len(nodes))
	ringRecord := shmring.MaxRecordBytes(shmring.DefaultDataBytes)
	for p := range procs {
		rp := &relayProc{self: p, topo: topo, done: arrived.Done}
		kindOf := func(q int) transport.Kind {
			if nodes[p] == nodes[q] {
				return transport.Shm
			}
			return transport.Socket
		}
		meshes[p] = transport.NewMesh(transport.MeshConfig{
			Dir: dir, Self: p, Procs: len(nodes), KindOf: kindOf,
			Linked: func(q int) bool { return topo.Linked(p, q) },
		}, rp.handle, exits)
		rp.router = transport.NewRouter(transport.RouterConfig{
			Self: p, Topo: topo, Mesh: meshes[p],
			BundleCap: func(hop int) int {
				if kindOf(hop) == transport.Shm {
					return ringRecord
				}
				return wire.DefaultMaxFrameBytes
			},
			OnSendError: func(hop int, err error) { exits <- transport.PeerExit{Peer: hop, Err: err} },
		})
		procs[p] = rp
	}
	defer func() {
		for _, rp := range procs {
			rp.router.Close()
		}
		for _, m := range meshes {
			m.Close()
		}
	}()
	if _, err := connectMeshes(meshes); err != nil {
		return nil, fmt.Errorf("router driver: %w", err)
	}

	t0 := time.Now()
	for f := 0; f < frames; f++ {
		procs[src].router.Send(dst, raw)
	}
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	select {
	case <-all:
	case x := <-exits:
		return nil, fmt.Errorf("router driver: link to %d failed: %v", x.Peer, x.Err)
	}
	d := time.Since(t0)
	var bundles, bundled int64
	for _, rp := range procs {
		bundles += rp.bundles.Load()
		bundled += rp.bundled.Load()
	}
	perBundle := 1.0 // every frame travelled alone
	if bundles > 0 {
		perBundle = float64(bundled) / float64(bundles)
	}
	return []float64{float64(d) / float64(frames), perBundle}, nil
}

// --- dist: what the coordinator adds around a run ---

func distLayer(sh layerShape, e env) ([]float64, error) {
	run := func(updates int, hierarchical bool) (histogram.Result, float64, error) {
		cfg := histogram.DefaultConfig(tram.SMP(2, 2, 1), tram.WPs)
		cfg.Tram.BufferItems = sh.g()
		cfg.Tram.Dist = *distMesh(hierarchical)
		cfg.UpdatesPerPE = updates
		cfg.Seed = e.seed
		var res histogram.Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := catch("dist driver", func() { res = histogram.RunOn(tram.Dist, cfg) })
		runtime.ReadMemStats(&after)
		return res, float64(after.Mallocs - before.Mallocs), err
	}
	// One update per worker: the run phase is nothing but quiescence
	// detection, and the rest of the call is spawn, handshake and reaping.
	tiny, _, err := run(1, false)
	if err != nil {
		return nil, err
	}
	// The same traffic over the flat mesh and through the leaders.
	updates := e.sized(512 << 10)
	flat, mallocs, err := run(updates, false)
	if err != nil {
		return nil, err
	}
	leader, _, err := run(updates, true)
	if err != nil {
		return nil, err
	}
	rate := func(r histogram.Result) float64 { return float64(r.TotalUpdates) / r.M.Time.Seconds() }
	return []float64{
		ms(tiny.M.Wall - tiny.M.Time),
		ms(tiny.M.Time),
		mallocs / float64(flat.TotalUpdates),
		rate(leader) / rate(flat),
	}, nil
}

// --- serve: admission and acknowledgement, with the runtime stubbed ---

// stubInjector admits everything at once.
type stubInjector struct{ workers int }

func (stubInjector) Ingest(cluster.WorkerID, uint64, <-chan struct{}) error { return nil }
func (stubInjector) FlushIngress()                                          {}
func (s stubInjector) Workers() int                                         { return s.workers }

func serveLayer(_ layerShape, e env) ([]float64, error) {
	events := e.sized(layerItems / 2)

	// Frontend alone: one client floods a frontend whose runtime is a stub.
	fe, err := serve.New(serve.Config{Listen: "127.0.0.1:0", Inj: stubInjector{workers: 4}})
	if err != nil {
		return nil, fmt.Errorf("serve driver: %w", err)
	}
	flood := func(addr string) (time.Duration, *serve.Client, error) {
		c, err := serve.Dial(addr, serve.ClientConfig{})
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		for n := 0; n < events && err == nil; n++ {
			err = c.Send(uint32(n%4), uint64(n))
		}
		if err == nil {
			err = c.Flush()
		}
		if err == nil {
			_, err = c.WaitAcked(int64(events))
		}
		return time.Since(t0), c, err
	}
	d, c, err := flood(fe.Addr())
	if c != nil {
		c.Close()
	}
	err = errors.Join(err, fe.Drain(), fe.Close())
	if err != nil {
		return nil, fmt.Errorf("serve driver: %w", err)
	}
	admitAck := perItem(d, events)

	// The whole service in this process (the Real backend): peak rate of one
	// unpaced client, and how long the zero-loss drain takes afterwards.
	params := serveagg.Params{Nodes: 1, Procs: 2, Workers: 2, Scheme: tram.WPs, FlushDeadline: 200 * time.Microsecond}
	srv, inst, err := serveagg.Serve(tram.Real, params, "127.0.0.1:0", "", "")
	if err != nil {
		return nil, fmt.Errorf("serve driver: %w", err)
	}
	d, c, err = flood(srv.Addr())
	if err != nil {
		if c != nil {
			c.Close()
		}
		_, derr := srv.Drain()
		return nil, fmt.Errorf("serve driver: %w", errors.Join(err, derr))
	}
	t0 := time.Now()
	drained := make(chan error, 1)
	go func() { _, err := srv.Drain(); drained <- err }()
	_, err = c.WaitDrained()
	c.Close()
	if err = errors.Join(err, <-drained); err != nil {
		return nil, fmt.Errorf("serve driver: drain: %w", err)
	}
	drain := time.Since(t0)
	if got := inst.Report().Count; got != int64(events) {
		return nil, fmt.Errorf("serve driver: drained %d of %d events", got, events)
	}
	return []float64{admitAck, float64(events) / d.Seconds(), ms(drain)}, nil
}

// --- the simulator: its event engine alone, then one fixed simulation ---

func simLayer(_ layerShape, e env) ([]float64, error) {
	// Engine churn: a rolling window of pending events at pseudo-random
	// offsets, each rescheduling itself until the budget is spent.
	budget := e.sized(layerItems)
	eng := sim.NewEngine()
	r := rng.New(e.seed)
	var fire func()
	fire = func() {
		if budget > 0 {
			budget--
			eng.After(sim.Time(1+r.Intn(1000)), fire)
		}
	}
	for i := 0; i < 1024; i++ {
		eng.After(sim.Time(1+r.Intn(1000)), fire)
	}
	t0 := time.Now()
	processed := eng.Run()
	eventsPerS := float64(processed) / time.Since(t0).Seconds()

	// Counts of one fixed simulation. They are exact: a change in any of
	// them means the model changed, not its speed.
	cfg := histogram.DefaultConfig(tram.SMP(4, 2, 4), tram.WPs)
	cfg.UpdatesPerPE = e.sized(16 << 10)
	cfg.Seed = e.seed
	var res histogram.Result
	if err := catch("simulator driver", func() { res = histogram.Run(cfg) }); err != nil {
		return nil, err
	}
	items := float64(res.TotalUpdates)
	return []float64{
		eventsPerS,
		float64(res.M.Events) / items,
		ms(res.M.Time),
		float64(res.M.Batches) / items,
		float64(res.M.BytesSent) / items,
		res.M.CommUtilMax,
	}, nil
}

// --- the instrument's own cost ---

func instrumentLayer(_ layerShape, e env) ([]float64, error) {
	n := e.sized(layerItems)
	h := stats.NewAtomicHist()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	observe := perItem(time.Since(t0), n)
	pick := traffic.NewPicker(traffic.Spec{Kind: traffic.Zipf, ZipfS: 1.4}, int64(e.seed), 8)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		wireSink += uint64(pick.Next())
	}
	return []float64{observe, perItem(time.Since(t0), n)}, nil
}
