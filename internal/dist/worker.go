package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tramlib/internal/cluster"
	"tramlib/internal/faultinject"
	"tramlib/internal/rt"
	"tramlib/internal/stats"
	"tramlib/internal/transport"
	"tramlib/internal/transport/shmring"
	"tramlib/internal/wire"
)

// Environment variables marking a process as a dist worker. The coordinator
// sets them on the self-exec'd children; WorkerMain reads them.
const (
	envProc = "TRAMLIB_DIST_PROC"
	envCtrl = "TRAMLIB_DIST_CTRL"
)

// App is one worker process's share of a distributed run: the full-topology
// runtime configuration (the worker installs its own partition), the
// word-level application callbacks, and an optional post-run report.
type App struct {
	// RT is the runtime configuration, identical in every process (Part is
	// owned by the worker and must be nil).
	RT rt.Config
	// Bind gives each worker its kernel and delivery hook (rt.BindFunc). It
	// is called only for the local process's workers.
	Bind rt.BindFunc
	// Report, if non-nil, serializes the process's application results after
	// quiescence (it runs after every worker goroutine has exited). The
	// coordinator returns the bytes verbatim in ProcResult.Report.
	Report func() []byte
	// Serve builds the ingestion frontend on the frontend process (proc 0) of
	// a serve run (Config.Serve non-nil; use dist.Serve): the worker calls it
	// once the runtime is running and reports the resolved addresses back to
	// the coordinator. Required for serve runs, unused for batch runs.
	Serve ServeBinder
}

// BuildFunc reconstructs a registered application inside a worker process
// from the name/params the coordinator was given. It must derive the exact
// configuration the coordinating process runs with (the handshake verifies a
// digest of it).
type BuildFunc func(name string, params []byte, proc cluster.ProcID) (App, error)

// WorkerMain is the worker-process entry point: programs that run the Dist
// backend call it first thing in main (tram.Main does). If the dist worker
// environment is present the call never returns — it runs the worker to
// completion and exits the process; otherwise it returns immediately.
func WorkerMain(build BuildFunc) {
	procStr := os.Getenv(envProc)
	if procStr == "" {
		return
	}
	proc, err := strconv.Atoi(procStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: bad %s=%q\n", envProc, procStr)
		os.Exit(1)
	}
	// The coordinator's environment (including any TRAMLIB_FAULTS spec)
	// reached us at spawn; scope proc-filtered fault points to this process.
	faultinject.SetProc(proc)
	if err := runWorker(cluster.ProcID(proc), os.Getenv(envCtrl), build); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker %d: %v\n", proc, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// remote implements rt.Remote over the transport mesh: it resolves runtime
// destinations to peer links and converts the runtime's batch types into
// wire types in per-peer scratch. Which bytes then move — a socket write or
// an in-place ring encode — is the link's business; the runtime's
// CrossCounts accounting, deadline flushes, and quiescence protocol upstream
// never see the difference.
//
// Send failures (a dead peer, a ring stalled past its deadline) cannot be
// returned to the kernel: the first one is latched, the runtime is stopped,
// and the worker's control loop picks the error up on failC and reports it
// to the coordinator.
type remote struct {
	topo cluster.Topology
	mesh *transport.Mesh
	rtm  *rt.Runtime
	self int
	// hier and router are set on hierarchical runs: a destination that is
	// not one hop away gets its batch encoded here and relayed through the
	// node-leader path instead of a direct peer send.
	hier   *transport.HierTopo
	router *transport.Router
	// convs[q] is the conversion scratch toward destination q, reused under
	// its lock across batch sends (worker and progress goroutines emit
	// concurrently toward the same destination).
	convs []*conv

	failOnce sync.Once
	failC    chan sendFailure // capacity 1; carries the first send failure
}

// sendFailure is a latched data-plane send failure: the peer the send was
// addressed to (blamed only when the error is the transport saying that peer
// is gone or wedged) and the error itself.
type sendFailure struct {
	peer int
	err  error
}

type conv struct {
	mu    sync.Mutex
	items []wire.Item
	runs  []wire.Run
	raw   []byte // encoded-frame scratch for relayed (multi-hop) sends
}

// fail latches the first send failure and stops the runtime so the worker
// goroutines unwind instead of piling more sends onto a dead link.
func (t *remote) fail(peer int, err error) {
	t.failOnce.Do(func() {
		t.failC <- sendFailure{peer: peer, err: fmt.Errorf("send to peer %d: %w", peer, err)}
		t.rtm.Stop()
	})
}

// injectSend applies the dist.send-batch fault point; true means the batch
// must be dropped instead of sent (an injected Drop deliberately imbalances
// the cross counters — the run can then only end via RunTimeout — while an
// injected Error exercises the send-failure path).
func (t *remote) injectSend(peer int) bool {
	switch faultinject.Fire(faultinject.PointSendBatch) {
	case faultinject.Drop:
		return true
	case faultinject.Error:
		t.fail(peer, errors.New("injected send-batch fault"))
		return true
	}
	return false
}

// direct reports whether destination process q is one hop away — always, on
// a flat mesh; on a hierarchical run only for linked pairs. Direct sends use
// the typed zero-copy peer path; everything else is encoded and relayed.
func (t *remote) direct(q int) bool {
	return t.hier == nil || t.hier.Linked(t.self, q)
}

func (t *remote) sendPayloads(peer int, dest uint32, payloads []uint64, full bool) error {
	if t.direct(peer) {
		return t.mesh.Peer(peer).SendPayloads(dest, payloads, full)
	}
	c := t.convs[peer]
	c.mu.Lock()
	c.raw = wire.AppendPayloads(c.raw[:0], uint32(t.self), dest, payloads, full)
	t.router.Send(peer, c.raw)
	c.mu.Unlock()
	return nil
}

func (t *remote) SendOne(dest cluster.WorkerID, value uint64) {
	peer := int(t.topo.ProcOf(dest))
	if t.injectSend(peer) {
		return
	}
	var one [1]uint64
	one[0] = value
	if err := t.sendPayloads(peer, uint32(dest), one[:], false); err != nil {
		t.fail(peer, err)
	}
}

func (t *remote) SendPayloads(dest cluster.WorkerID, payloads []uint64, full bool) {
	peer := int(t.topo.ProcOf(dest))
	if !t.injectSend(peer) {
		if err := t.sendPayloads(peer, uint32(dest), payloads, full); err != nil {
			t.fail(peer, err)
		}
	}
	t.rtm.RecyclePayloads(payloads)
}

func (t *remote) SendItems(dest cluster.ProcID, items []rt.Item, full bool) {
	if t.injectSend(int(dest)) {
		t.rtm.RecycleItems(items)
		return
	}
	c := t.convs[dest]
	c.mu.Lock()
	c.items = c.items[:0]
	for _, it := range items {
		c.items = append(c.items, wire.Item{Dest: uint32(it.Dest), Val: it.Val})
	}
	var err error
	if t.direct(int(dest)) {
		err = t.mesh.Peer(int(dest)).SendItems(uint32(dest), c.items, full)
	} else {
		c.raw = wire.AppendItems(c.raw[:0], uint32(t.self), uint32(dest), c.items, full)
		t.router.Send(int(dest), c.raw)
	}
	c.mu.Unlock()
	if err != nil {
		t.fail(int(dest), err)
	}
	t.rtm.RecycleItems(items)
}

func (t *remote) SendRuns(dest cluster.ProcID, runs []rt.Run, full bool) {
	if !t.injectSend(int(dest)) {
		c := t.convs[dest]
		c.mu.Lock()
		c.runs = c.runs[:0]
		for _, r := range runs {
			c.runs = append(c.runs, wire.Run{Dest: uint32(r.Dest), Payloads: r.Payloads})
		}
		var err error
		if t.direct(int(dest)) {
			err = t.mesh.Peer(int(dest)).SendRuns(uint32(dest), c.runs, full)
		} else {
			c.raw = wire.AppendRuns(c.raw[:0], uint32(t.self), uint32(dest), c.runs, full)
			t.router.Send(int(dest), c.raw)
		}
		c.mu.Unlock()
		if err != nil {
			t.fail(int(dest), err)
		}
	}
	for _, r := range runs {
		t.rtm.RecyclePayloads(r.Payloads)
	}
}

// snapshotCounts takes the consistent local observation the four-counter
// termination proof needs: (sent, recv, locally-quiet) as one atomic-enough
// snapshot. The control goroutine reads concurrently with the worker
// goroutines, so a receive→deliver→respond sequence could otherwise land
// entirely between a counter read and the quiet read — making the reply
// claim an *older* counter state together with quiet, which can balance
// globally while a message chain is still in flight (observed as premature
// Finish under load). Sandwiching the quiet read between two counter reads
// closes that window: any hidden hop bumps a monotone counter, and a
// counter-silent local task chain overlapping the quiet read reports
// non-quiet by itself.
func snapshotCounts(rtm *rt.Runtime) (sent, recv int64, quiet bool) {
	s1, r1 := rtm.CrossCounts()
	quiet = rtm.LocallyQuiet()
	s2, r2 := rtm.CrossCounts()
	if s1 != s2 || r1 != r2 {
		// Counters moved mid-snapshot: the process is demonstrably active.
		return s2, r2, false
	}
	return s1, r1, quiet
}

// meshKindOf builds the per-peer transport selector a setup message
// describes: every pair over TCP when the run requests it (the only kind
// that crosses machines, so no pair may fall back to a same-box link), shm
// for peers sharing the local process's node under the shm transport, and
// sockets otherwise. A nil node map places every process on one node.
func meshKindOf(setup setupMsg, self cluster.ProcID) func(int) transport.Kind {
	if setup.Transport == transport.TCP.String() {
		return func(int) transport.Kind { return transport.TCP }
	}
	if setup.Transport != transport.Shm.String() {
		return nil // all-socket (the mesh default)
	}
	nodes := setup.Nodes
	nodeOf := func(p int) int {
		if nodes == nil {
			return 0
		}
		return nodes[p]
	}
	selfNode := nodeOf(int(self))
	return func(q int) transport.Kind {
		if nodeOf(q) == selfNode {
			return transport.Shm
		}
		return transport.Socket
	}
}

// bundleCap builds the per-next-hop bundle size limit for a hierarchical
// run's relay: at most the run's frame cap, and for an shm hop at most the
// ring's record limit (a ring record must fit in half the data area).
func bundleCap(setup setupMsg, self cluster.ProcID) func(int) int {
	maxFrame := setup.MaxFrameBytes
	kindOf := meshKindOf(setup, self)
	ring := setup.RingBytes
	if ring <= 0 {
		ring = shmring.DefaultDataBytes
	}
	rec := shmring.MaxRecordBytes(ring)
	return func(hop int) int {
		if kindOf != nil && kindOf(hop) == transport.Shm && rec < maxFrame {
			return rec
		}
		return maxFrame
	}
}

// ctrlMsg is one control frame (or read error) as seen by the worker's run
// loop, delivered by the control-reader goroutine.
type ctrlMsg struct {
	f   wire.Frame
	err error
}

// runWorker executes one worker process from handshake to final report.
// Every error it returns is prefixed proc=N phase=X so the coordinator's
// stderr passthrough stays attributable.
func runWorker(proc cluster.ProcID, ctrlPath string, build BuildFunc) error {
	wrap := func(phase string, err error) error {
		return fmt.Errorf("proc=%d phase=%s: %w", proc, phase, err)
	}
	lost := func(phase string, err error) error {
		return wrap(phase, fmt.Errorf("%w: %v", ErrCoordinatorLost, err))
	}
	if ctrlPath == "" {
		return fmt.Errorf("missing %s", envCtrl)
	}
	// The control endpoint is a Unix socket path, or tcp://host:port when
	// the coordinator listens on TCP (remote workers, or ListenAddr set).
	ctrlNet, ctrlAddr := "unix", ctrlPath
	if addr, ok := strings.CutPrefix(ctrlPath, "tcp://"); ok {
		ctrlNet, ctrlAddr = "tcp", addr
	}
	conn, err := net.Dial(ctrlNet, ctrlAddr)
	if err != nil {
		return fmt.Errorf("dial control: %w", err)
	}
	defer conn.Close()
	ctrl := newCtrlConn(conn)
	self := uint32(proc)

	fail := func(phase string, err error) error {
		_ = ctrl.send(self, opError, errorMsg{Msg: err.Error(), Blame: -1})
		return wrap(phase, err)
	}

	if err := ctrl.send(self, opHello, nil); err != nil {
		return lost("spawn", err)
	}
	f, err := ctrl.recv()
	if err != nil {
		return lost("spawn", err)
	}
	if f.Dest == opAbort {
		return nil
	}
	if f.Dest != opSetup {
		return wrap("spawn", fmt.Errorf("expected setup, got op %d", f.Dest))
	}
	setup, err := decode[setupMsg](f)
	if err != nil {
		return wrap("spawn", err)
	}

	app, err := build(setup.Name, setup.Params, proc)
	if err != nil {
		return fail("spawn", fmt.Errorf("build %q: %w", setup.Name, err))
	}
	if app.RT.Part != nil {
		return fail("spawn", fmt.Errorf("build %q returned a partitioned config", setup.Name))
	}
	digest := configDigest(app.RT)
	if digest != setup.Digest {
		return fail("spawn", fmt.Errorf("config mismatch: worker %q vs coordinator %q", digest, setup.Digest))
	}
	topo := app.RT.Topo
	if topo.TotalProcs() != setup.Procs {
		return fail("spawn", fmt.Errorf("topology has %d procs, run has %d", topo.TotalProcs(), setup.Procs))
	}
	if setup.Nodes != nil && len(setup.Nodes) != setup.Procs {
		return fail("spawn", fmt.Errorf("node map has %d entries for %d procs", len(setup.Nodes), setup.Procs))
	}

	// A hierarchical run derives the shared two-level topology (leader =
	// lowest proc on each node) before anything transport-related exists:
	// the mesh restricts itself to its link set, and the relay routes over it.
	var hier *transport.HierTopo
	if setup.Hierarchical {
		ht := transport.NewHierTopo(setup.Nodes, setup.Procs)
		hier = &ht
	}

	// Build the runtime around the mesh-backed remote (the remote needs the
	// runtime for pools and the mesh for links; both are set after New).
	tr := &remote{topo: topo, self: int(proc), hier: hier,
		convs: make([]*conv, setup.Procs), failC: make(chan sendFailure, 1)}
	for i := range tr.convs {
		tr.convs[i] = &conv{}
	}
	cfg := app.RT
	cfg.Part = &rt.Partition{Proc: proc, Remote: tr}
	// On a serve run the frontend process's runtime runs in serve mode: its
	// ingress machinery admits client events, and its flush-latency histogram
	// feeds the metrics endpoint (created here and installed before Run so the
	// runtime never sees it change while running).
	var flushHist *stats.AtomicHist
	serving := setup.Serve != nil && proc == 0
	if serving {
		cfg.Serve = true
		cfg.IngressCap = setup.Serve.IngressCap
		flushHist = stats.NewAtomicHist()
	}
	rtm := rt.NewBound(cfg, app.Bind)
	if flushHist != nil {
		rtm.SetFlushHist(flushHist)
	}
	tr.rtm = rtm
	quiet := make(chan struct{}, 1)
	rtm.SetQuietNotify(quiet)

	// The data plane: inbound frames dispatch straight into the runtime
	// from each link's receive goroutine; loop exits land on peerErr (nil
	// Err for a clean peer close).
	pr := &peerReader{rtm: rtm, topo: topo, proc: proc, hier: hier}
	peerErr := make(chan transport.PeerExit, setup.Procs+1)
	tcpListen := ""
	if int(proc) < len(setup.ListenAddrs) {
		tcpListen = setup.ListenAddrs[proc]
	}
	var linked func(int) bool
	if hier != nil {
		linked = func(q int) bool { return hier.Linked(int(proc), q) }
	}
	mesh := transport.NewMesh(transport.MeshConfig{
		Dir:           setup.Dir,
		Self:          int(proc),
		Procs:         setup.Procs,
		MaxFrameBytes: setup.MaxFrameBytes,
		RingBytes:     setup.RingBytes,
		WaitDeadline:  setup.SendDeadline,
		KindOf:        meshKindOf(setup, proc),
		Linked:        linked,
		TCPListen:     tcpListen,
		HelloDigest:   setup.Digest,
		KeepAlive:     setup.KeepAlive,
		LinkDelay:     setup.LinkDelay,
		LinkJitter:    setup.LinkJitter,
	}, pr.dispatchFrame, peerErr)
	tr.mesh = mesh
	defer mesh.Close()

	// Inbound endpoints up, then report Listening.
	faultinject.Fire(faultinject.PointPhaseListen)
	if err := mesh.Listen(); err != nil {
		return fail("listen", err)
	}
	if err := ctrl.send(self, opListening, listeningMsg{Digest: digest, Addr: mesh.Addr()}); err != nil {
		return lost("listen", err)
	}

	// Wait for Connect, then establish the full mesh (outbound dials and
	// ring opens; inbound socket dials land in the background).
	if f, err = ctrl.recv(); err != nil {
		return lost("connect", err)
	}
	if f.Dest == opAbort {
		return nil
	}
	if f.Dest != opConnect {
		return wrap("connect", fmt.Errorf("expected connect, got op %d", f.Dest))
	}
	cm, err := decode[connectMsg](f)
	if err != nil {
		return wrap("connect", err)
	}
	faultinject.Fire(faultinject.PointPhaseConnect)
	if err := mesh.Connect(cm.Addrs); err != nil {
		return fail("connect", err)
	}
	// The relay starts over the established mesh. Its send failures surface
	// on the same channel link exits use (non-blocking: the channel full
	// means a failure is already being handled), so a dead next hop is
	// blamed identically whichever direction notices first. The receive
	// loops are already running, hence the atomic publish into pr — data
	// frames only flow after the coordinator's Start barrier, which follows
	// every worker's Ready, which follows this store.
	if hier != nil {
		router := transport.NewRouter(transport.RouterConfig{
			Self:      int(proc),
			Topo:      *hier,
			Mesh:      mesh,
			BundleCap: bundleCap(setup, proc),
			OnSendError: func(hop int, err error) {
				select {
				case peerErr <- transport.PeerExit{Peer: hop, Err: fmt.Errorf("relay send: %w", err)}:
				default:
				}
			},
		})
		defer router.Close()
		tr.router = router
		pr.router.Store(router)
	}
	if err := ctrl.send(self, opReady, nil); err != nil {
		return lost("connect", err)
	}

	// Wait for Start, then run the kernels.
	if f, err = ctrl.recv(); err != nil {
		return lost("connect", err)
	}
	if f.Dest == opAbort {
		return nil
	}
	if f.Dest != opStart {
		return wrap("connect", fmt.Errorf("expected start, got op %d", f.Dest))
	}
	faultinject.Fire(faultinject.PointPhaseRun)
	resC := make(chan rt.Result, 1)
	go func() { resC <- rtm.Run() }()

	// Forward local-quiescence transitions to the coordinator as hints.
	stopNotify := make(chan struct{})
	var notifyWG sync.WaitGroup
	notifyWG.Add(1)
	go func() {
		defer notifyWG.Done()
		for {
			select {
			case <-quiet:
				if err := ctrl.send(self, opQuiet, nil); err != nil {
					return
				}
			case <-stopNotify:
				return
			}
		}
	}()

	// Control frames now arrive on their own goroutine so the run loop can
	// select over control traffic, peer-link exits, and send failures at
	// once. Frames are cloned: the reader may overwrite its buffer with the
	// next frame before the loop decodes this one.
	ctrlC := make(chan ctrlMsg, 4)
	go func() {
		for {
			f, err := ctrl.recv()
			if err != nil {
				ctrlC <- ctrlMsg{err: err}
				return
			}
			ctrlC <- ctrlMsg{f: cloneFrame(f)}
		}
	}()

	// stopAll unwinds the run: stop the runtime, interrupt the data plane so
	// blocked sends error out instead of parking, close the ingestion
	// frontend (after the runtime stop, so handlers blocked in Ingest have
	// already erred out), and wait for the runtime goroutines to exit.
	var fe FrontendHandle
	stopAll := func() {
		rtm.Stop()
		mesh.Close()
		if fe != nil {
			fe.Close()
		}
		<-resC
		close(stopNotify)
		notifyWG.Wait()
	}
	// failed reports a run-phase failure to the coordinator and exits. blame
	// is the peer this worker watched die (-1 when the failure is its own);
	// the coordinator uses it to attribute the run failure to the process
	// that failed rather than to the first one that noticed. The frontend —
	// if this worker hosts one — aborts first, so connected clients get the
	// typed failure before their connections drop.
	failed := func(blame int, err error) error {
		if fe != nil {
			at := blame
			if at < 0 {
				at = int(proc)
			}
			fe.Abort(at, "run", err.Error())
		}
		stopAll()
		_ = ctrl.send(self, opError, errorMsg{Msg: err.Error(), Blame: blame})
		return wrap("run", err)
	}

	// A serve run's frontend process binds the client listener once the
	// runtime is live and reports its resolved addresses; the coordinator
	// relays them to the Serve caller.
	if serving {
		if app.Serve == nil {
			return failed(-1, fmt.Errorf("serve run, but app %q has no Serve binder", setup.Name))
		}
		h, err := app.Serve(rtm, ServeOpts{
			Listen:        setup.Serve.Listen,
			MetricsListen: setup.Serve.MetricsListen,
			IngressCap:    setup.Serve.IngressCap,
			FlushHist:     flushHist,
		})
		if err != nil {
			return failed(-1, fmt.Errorf("bind frontend: %w", err))
		}
		fe = h
		if err := ctrl.send(self, opServing, servingMsg{Addr: fe.Addr(), MetricsAddr: fe.MetricsAddr()}); err != nil {
			stopAll()
			return lost("serve", err)
		}
	}

	// Run loop: answer probes until the coordinator proves termination,
	// watching the data plane and the coordinator link for failures.
	for {
		select {
		case m := <-ctrlC:
			if m.err != nil {
				// The coordinator vanished. Nobody is left to prove
				// quiescence or collect the report: stop and exit rather
				// than run orphaned forever.
				if fe != nil {
					fe.Abort(-1, "run", fmt.Sprintf("coordinator lost: %v", m.err))
				}
				stopAll()
				return lost("run", m.err)
			}
			switch m.f.Dest {
			case opProbe:
				faultinject.Fire(faultinject.PointCtrlStall)
				if faultinject.Fire(faultinject.PointCtrlDrop) == faultinject.Drop {
					conn.Close() // simulate a dropped control connection
					continue
				}
				probe, err := decode[countsMsg](m.f)
				if err != nil {
					return failed(-1, err)
				}
				reply := countsMsg{Round: probe.Round}
				reply.Sent, reply.Recv, reply.Quiet = snapshotCounts(rtm)
				if err := ctrl.send(self, opCounts, reply); err != nil {
					stopAll()
					return lost("run", err)
				}
			case opAbort:
				// The coordinator is tearing the run down (some peer
				// failed); unwind quietly — it already has the real error.
				// A frontend relays the abort's attribution to its clients
				// as a typed failure first.
				if fe != nil {
					am := abortMsg{Proc: -1}
					if len(m.f.Payload) > 0 {
						if d, err := decode[abortMsg](m.f); err == nil {
							am = d
						}
					}
					reason := am.Reason
					if reason == "" {
						reason = "run aborted"
					}
					fe.Abort(am.Proc, am.Phase, reason)
				}
				stopAll()
				return nil
			case opDrain:
				// Close the ingestion edge in the background: Drain can
				// legitimately block on a backlogged runtime, and the
				// coordinator's quiescence probes must keep being answered
				// meanwhile.
				if fe == nil {
					return failed(-1, fmt.Errorf("drain sent to a non-serving worker"))
				}
				go func() {
					_ = fe.Drain()
					_ = ctrl.send(self, opDrained, nil)
				}()
			case opFinish:
				faultinject.Fire(faultinject.PointPhaseReport)
				if fe != nil {
					// Serve runs reach Finish only after the drain, so the
					// frontend's handlers have exited; this just releases
					// its listeners and metrics endpoint.
					fe.Close()
				}
				rtm.Stop()
				res := <-resC
				close(stopNotify)
				notifyWG.Wait()
				var report []byte
				if app.Report != nil {
					report = app.Report()
				}
				if err := ctrl.send(self, opDone, doneMsg{Result: res, Report: report}); err != nil {
					return lost("report", err)
				}
				// Hold the mesh and control connection open until Release:
				// peers may still be draining toward their own Done, and a
				// clean link EOF mid-run must always mean a dead peer.
				for {
					select {
					case m := <-ctrlC:
						if m.err != nil {
							mesh.Close()
							return lost("report", m.err)
						}
						switch m.f.Dest {
						case opRelease, opAbort:
							// Tear the data plane down so peers' receive
							// loops see clean ends (socket EOFs, ring
							// end-of-stream markers).
							mesh.Close()
							return nil
						}
						// Late probes and the like: ignore.
					case <-peerErr:
						// Peers released before us close their links;
						// harmless after global quiescence.
					}
				}
			default:
				return failed(-1, fmt.Errorf("unexpected op %d during run", m.f.Dest))
			}
		case ex := <-peerErr:
			if ex.Err != nil {
				return failed(ex.Peer, fmt.Errorf("peer %d link: %w", ex.Peer, ex.Err))
			}
			// A clean link EOF mid-run is still evidence of peer death:
			// live workers hold their links open until Release.
			return failed(ex.Peer, fmt.Errorf("peer %d closed its link mid-run: %w", ex.Peer, transport.ErrPeerDead))
		case sf := <-tr.failC:
			// Blame the destination peer only when the transport itself says
			// that peer is gone or wedged; any other send error (an injected
			// fault, a local encode problem) is this worker's own failure.
			blame := -1
			if errors.Is(sf.err, transport.ErrPeerDead) || errors.Is(sf.err, transport.ErrStalled) {
				blame = sf.peer
			}
			return failed(blame, sf.err)
		}
	}
}

// peerReader dispatches one peer link's inbound frames into the runtime —
// and, on a hierarchical run, unbundles relayed traffic and forwards frames
// terminating elsewhere toward their next hop.
type peerReader struct {
	rtm  *rt.Runtime
	topo cluster.Topology
	proc cluster.ProcID
	// hier is set before the mesh exists; router is published atomically
	// after Connect (the receive goroutines are already running by then, but
	// data frames only flow after the coordinator's Start barrier).
	hier       *transport.HierTopo
	router     atomic.Pointer[transport.Router]
	mu         sync.Mutex // guards runScratch: links dispatch concurrently
	runScratch []rt.Run
}

// checkDest rejects frames addressed to a worker this process does not host:
// the wire format is unchecksummed, so a corrupt-but-well-formed (or
// version-skewed) frame must surface as a protocol error, never as an
// out-of-range index inside the runtime.
func (pr *peerReader) checkDest(dest uint32) error {
	w := cluster.WorkerID(dest)
	if int(dest) >= pr.topo.TotalWorkers() || pr.topo.ProcOf(w) != pr.proc {
		return fmt.Errorf("dist: frame addressed to worker %d, which proc %d does not host", dest, pr.proc)
	}
	return nil
}

// dispatchFrame routes one decoded data frame. It is the transport.Handler
// every peer link's receive loop feeds. On a flat mesh every frame
// terminates here; on a hierarchical run a bundle is opened and each inner
// frame — like any lone frame — is either delivered locally or relayed
// toward its destination's next hop.
func (pr *peerReader) dispatchFrame(f wire.Frame) error {
	if pr.hier != nil {
		if f.Kind == wire.KindBundle {
			return f.EachFrame(func(raw []byte, inner wire.Frame) error {
				return pr.routeFrame(inner, raw)
			})
		}
		return pr.routeFrame(f, nil)
	}
	return pr.deliver(f)
}

// routeFrame delivers a frame terminating at this process or relays it
// toward its destination. raw is the frame's complete encoding when the
// caller already has it (an unbundled inner frame — it aliases the link's
// receive buffer; the relay copies before returning); nil re-encodes.
func (pr *peerReader) routeFrame(f wire.Frame, raw []byte) error {
	dest, err := pr.destProc(f)
	if err != nil {
		return err
	}
	if dest == int(pr.proc) {
		return pr.deliver(f)
	}
	r := pr.router.Load()
	if r == nil {
		return fmt.Errorf("dist: frame for proc %d arrived before routing started", dest)
	}
	if raw == nil {
		raw = wire.AppendFrame(nil, f)
	}
	r.RelayRaw(pr.hier.NextHop(int(pr.proc), dest), raw)
	return nil
}

// destProc resolves a data frame's destination process: payload frames
// address a worker, item/run frames address a process directly.
func (pr *peerReader) destProc(f wire.Frame) (int, error) {
	switch f.Kind {
	case wire.KindPayloads:
		if int(f.Dest) >= pr.topo.TotalWorkers() {
			return 0, fmt.Errorf("dist: frame addressed to worker %d of %d", f.Dest, pr.topo.TotalWorkers())
		}
		return int(pr.topo.ProcOf(cluster.WorkerID(f.Dest))), nil
	case wire.KindItems, wire.KindRuns:
		if int(f.Dest) >= pr.topo.TotalProcs() {
			return 0, fmt.Errorf("dist: frame addressed to proc %d of %d", f.Dest, pr.topo.TotalProcs())
		}
		return int(f.Dest), nil
	}
	return 0, fmt.Errorf("dist: unexpected %v frame on data connection", f.Kind)
}

// deliver routes one decoded data frame into the runtime; the frame's
// payload aliases transport-owned memory, so items are copied into pooled
// runtime storage here.
func (pr *peerReader) deliver(f wire.Frame) error {
	rtm := pr.rtm
	switch f.Kind {
	case wire.KindPayloads:
		if err := pr.checkDest(f.Dest); err != nil {
			return err
		}
		dest := cluster.WorkerID(f.Dest)
		if f.Count == 1 {
			var one [1]uint64
			rtm.EnqueueOne(dest, f.Payloads(one[:])[0])
			return nil
		}
		dst := rtm.AllocPayloads(int(f.Count))
		f.Payloads(dst)
		rtm.EnqueuePayloads(dest, dst)
	case wire.KindItems:
		var bad error
		dst := rtm.AllocItemSlice(int(f.Count))
		i := 0
		f.EachItem(func(dest uint32, val uint64) {
			if bad == nil {
				bad = pr.checkDest(dest)
			}
			dst[i] = rt.Item{Dest: cluster.WorkerID(dest), Val: val}
			i++
		})
		if bad != nil {
			rtm.RecycleItems(dst)
			return bad
		}
		rtm.EnqueueItems(dst)
	case wire.KindRuns:
		var bad error
		pr.mu.Lock()
		rs := pr.runScratch[:0]
		f.EachRun(func(dest uint32, n int, dec func([]uint64)) {
			if bad == nil {
				bad = pr.checkDest(dest)
			}
			p := rtm.AllocPayloads(n)
			dec(p)
			rs = append(rs, rt.Run{Dest: cluster.WorkerID(dest), Payloads: p})
		})
		pr.runScratch = rs
		if bad != nil {
			// Recycle while still holding mu: rs aliases the shared
			// runScratch, which another link's dispatch would reuse.
			for _, r := range rs {
				rtm.RecyclePayloads(r.Payloads)
			}
			pr.mu.Unlock()
			return bad
		}
		rtm.EnqueueRuns(rs)
		pr.mu.Unlock()
	default:
		return fmt.Errorf("dist: unexpected %v frame on data connection", f.Kind)
	}
	return nil
}
