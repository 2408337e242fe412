// Package serve is the tramserve subsystem's front end: a long-running TCP
// ingestion service in front of the aggregation runtime (internal/rt in serve
// mode), with per-connection flow control, live metrics, and a zero-loss
// graceful drain.
//
// # Protocol
//
// Clients speak internal/wire framing over a plain TCP connection:
//
//   - client -> server: KindItems frames; each item is (dest global worker
//     id, uint64 value). The header's dest-process field is unused.
//   - server -> client: KindControl frames. OpAck carries {"n": N}, the
//     cumulative count of this connection's admitted events — an ack is an
//     admission into the runtime, and the drain guarantee below turns it
//     into a delivery guarantee. OpDrained carries the final cumulative
//     count and announces a clean close. OpFail carries {"msg", "proc",
//     "phase"}: the serving topology lost a process; the client surfaces it
//     as a typed *dist.PeerFailureError.
//
// # Flow control
//
// Admission is bounded end to end: the runtime's per-destination ingress
// windows (rt.Config.IngressCap) make Ingest block when a destination is
// saturated, the connection handler stops reading while blocked, and TCP
// pushes back to the client, whose Send blocks on its configured ack window.
// A stalled consumer therefore stalls exactly the connections feeding it,
// with per-connection server-side memory bounded by one frame plus the
// ingress credits its events hold — never an unbounded queue.
//
// # Drain
//
// Drain stops accepting, interrupts every connection's read loop, lets
// in-progress frames finish admission, sends each client a final OpDrained
// ack, waits for the handlers, and force-seals the ingress aggregation
// buffers. When it returns, every acked event is in the runtime; the
// caller's quiescence barrier (rt.WaitQuiet locally, or the dist
// coordinator's four-counter detection) then makes them all delivered.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tramlib/internal/cluster"
	"tramlib/internal/wire"
)

// Control opcodes of server->client KindControl frames (carried in the
// header's dest field, like the dist control protocol).
const (
	// OpAck: doc {"n": cumulative admitted events on this connection}.
	OpAck uint32 = iota + 1
	// OpDrained: doc {"n": final count}; the server closes after sending.
	OpDrained
	// OpFail: doc {"msg","proc","phase"}; the serving topology failed.
	OpFail
)

// ackDoc is the OpAck / OpDrained payload.
type ackDoc struct {
	N int64 `json:"n"`
}

// failDoc is the OpFail payload.
type failDoc struct {
	Msg   string `json:"msg"`
	Proc  int    `json:"proc"`
	Phase string `json:"phase"`
}

// Injector is the runtime surface the frontend feeds; *rt.Runtime in serve
// mode satisfies it.
type Injector interface {
	// Ingest admits one event, blocking on the destination's admission
	// window until admitted, abort fires, or the runtime stops.
	Ingest(dest cluster.WorkerID, value uint64, abort <-chan struct{}) error
	// FlushIngress force-seals partial ingress aggregation buffers.
	FlushIngress()
	// Workers returns the destination space (total workers).
	Workers() int
}

// Config parameterizes a Frontend.
type Config struct {
	// Listen is the client listener's TCP bind address ("127.0.0.1:0" for an
	// ephemeral port).
	Listen string
	// MetricsListen, if non-empty, binds the HTTP scrape endpoint.
	MetricsListen string
	// Inj routes admitted events into the runtime.
	Inj Injector
	// Metrics, if non-nil, feeds the scrape endpoint's runtime section and
	// flush-latency quantiles (see MetricsSource).
	Metrics *MetricsSource
	// MaxFrameBytes bounds accepted client frames (0: wire default).
	MaxFrameBytes int
}

// Frontend is the running ingestion listener. Create with New; end with
// Drain (clean) or Abort (failure), then Close.
type Frontend struct {
	cfg  Config
	ln   net.Listener
	inj  Injector
	maxF int

	// abortC is closed by Abort: it unblocks in-flight Ingest calls so
	// handlers can fail their connections promptly.
	abortC    chan struct{}
	abortOnce sync.Once
	draining  atomic.Bool

	mu    sync.Mutex
	conns map[*connState]struct{}
	fail  *failDoc // set before abortC closes

	wg      sync.WaitGroup
	metrics *metricsServer

	admitted atomic.Int64 // events admitted across all connections
	connsNow atomic.Int64
	connsAll atomic.Int64
	shed     atomic.Int64 // events rejected for invalid destination
}

// connState is one client connection's server-side state.
type connState struct {
	conn      net.Conn
	admitted  int64 // owned by the handler goroutine
	wmu       sync.Mutex
	wbuf      []byte
	finalized bool // guarded by wmu: a final OpDrained/OpFail was sent
}

// New binds the listener(s) and starts accepting client connections.
func New(cfg Config) (*Frontend, error) {
	if cfg.Inj == nil {
		return nil, errors.New("serve: Config.Inj is required")
	}
	maxF := cfg.MaxFrameBytes
	if maxF <= 0 {
		maxF = wire.DefaultMaxFrameBytes
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Listen, err)
	}
	f := &Frontend{
		cfg:    cfg,
		ln:     ln,
		inj:    cfg.Inj,
		maxF:   maxF,
		abortC: make(chan struct{}),
		conns:  map[*connState]struct{}{},
	}
	if cfg.MetricsListen != "" {
		m, err := newMetricsServer(cfg.MetricsListen, f, cfg.Metrics)
		if err != nil {
			ln.Close()
			return nil, err
		}
		f.metrics = m
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the client listener's address.
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

// MetricsAddr returns the scrape endpoint's address ("" if disabled).
func (f *Frontend) MetricsAddr() string {
	if f.metrics == nil {
		return ""
	}
	return f.metrics.addr()
}

// Admitted returns the total events admitted so far.
func (f *Frontend) Admitted() int64 { return f.admitted.Load() }

// Connections returns the current open client connection count.
func (f *Frontend) Connections() int64 { return f.connsNow.Load() }

func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed: drain or abort
		}
		cs := &connState{conn: conn}
		f.mu.Lock()
		if f.draining.Load() || f.aborted() {
			f.mu.Unlock()
			// Refused, but it may already hold the client's frames: it ends
			// like a handled connection, or the close resets it and the
			// client never reads why.
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.finalize(cs)
				conn.Close()
			}()
			continue
		}
		f.conns[cs] = struct{}{}
		f.mu.Unlock()
		f.connsNow.Add(1)
		f.connsAll.Add(1)
		f.wg.Add(1)
		go f.handle(cs)
	}
}

func (f *Frontend) aborted() bool {
	select {
	case <-f.abortC:
		return true
	default:
		return false
	}
}

// handle is one connection's read-admit-ack loop.
func (f *Frontend) handle(cs *connState) {
	defer f.wg.Done()
	defer func() {
		f.mu.Lock()
		delete(f.conns, cs)
		f.mu.Unlock()
		f.connsNow.Add(-1)
		cs.conn.Close()
	}()
	W := cluster.WorkerID(f.inj.Workers())
	rd := wire.NewReader(cs.conn, f.maxF)
	var scratch []wire.Item
	for {
		fr, err := rd.Next()
		if err != nil {
			// Drain and abort interrupt the blocked read via a past read
			// deadline; a finalize frame tells the client which it was.
			// Otherwise the client closed (or broke) the connection.
			f.finalize(cs)
			return
		}
		if fr.Kind != wire.KindItems {
			continue // unknown frames are ignored, not fatal: forward compat
		}
		if int(fr.Count) > cap(scratch) {
			scratch = make([]wire.Item, fr.Count)
		}
		scratch = fr.Items(scratch[:fr.Count])
		frameAdmitted := int64(0)
		for _, it := range scratch {
			dest := cluster.WorkerID(it.Dest)
			if dest < 0 || dest >= W {
				f.shed.Add(1)
				continue
			}
			if err := f.inj.Ingest(dest, it.Val, f.abortC); err != nil {
				// The runtime refused the event: the topology is failing.
				// The runtime stop that unblocked us can run microseconds
				// ahead of the Abort carrying the failure's attribution
				// (the worker latches a send failure by stopping the
				// runtime first), so give the abort a moment to record its
				// doc before finalizing the connection.
				select {
				case <-f.abortC:
				case <-time.After(2 * time.Second):
				}
				f.finalizeFail(cs)
				discardInput(cs.conn)
				return
			}
			cs.admitted++
			frameAdmitted++
		}
		f.admitted.Add(frameAdmitted)
		if !f.sendAck(cs, OpAck, cs.admitted) {
			return
		}
	}
}

// sendAck writes an OpAck/OpDrained control frame, reporting success.
func (cs *connState) send(opcode uint32, doc any) bool {
	raw, err := json.Marshal(doc)
	if err != nil {
		return false
	}
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	if cs.finalized {
		return false
	}
	if opcode != OpAck {
		cs.finalized = true
	}
	cs.wbuf = wire.AppendControl(cs.wbuf[:0], 0, opcode, raw)
	_, err = cs.conn.Write(cs.wbuf)
	return err == nil
}

func (f *Frontend) sendAck(cs *connState, opcode uint32, n int64) bool {
	return cs.send(opcode, ackDoc{N: n})
}

// finalize ends cs if the frontend is ending — OpFail after an abort,
// OpDrained during a drain — and consumes the client's unread input. A
// connection the frontend is not ending gets nothing.
func (f *Frontend) finalize(cs *connState) {
	switch {
	case f.aborted():
		f.finalizeFail(cs)
	case f.draining.Load():
		f.finalizeDrained(cs)
	default:
		return
	}
	discardInput(cs.conn)
}

// finalizeDrained sends the final cumulative ack and closes the write side.
func (f *Frontend) finalizeDrained(cs *connState) {
	f.sendAck(cs, OpDrained, cs.admitted)
}

// finalizeFail notifies the client of the recorded failure.
func (f *Frontend) finalizeFail(cs *connState) {
	f.mu.Lock()
	doc := f.fail
	f.mu.Unlock()
	if doc == nil {
		doc = &failDoc{Msg: "server aborted", Proc: -1}
	}
	cs.send(OpFail, *doc)
}

// discardInput consumes whatever the client still had in flight when its
// final frame was sent, so the deferred Close sends a clean FIN: closing a
// TCP socket with unread received data aborts the connection with an RST,
// which can destroy the just-written OpDrained/OpFail before the client
// reads it. Bounded: the client closes once it has the final frame (EOF
// here), and the deadline cuts off a client that never does. The deadline is
// re-armed before every read because interruptReads can land again while
// this runs (Abort is followed by Close), and a discard cut short by it is
// exactly the early Close this function exists to prevent.
func discardInput(conn net.Conn) {
	limit := time.Now().Add(time.Second)
	var buf [4096]byte
	for time.Now().Before(limit) {
		conn.SetReadDeadline(limit)
		if _, err := conn.Read(buf[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
	}
}

// interruptReads wakes every connection's blocked read.
func (f *Frontend) interruptReads() {
	f.mu.Lock()
	defer f.mu.Unlock()
	past := time.Unix(1, 0)
	for cs := range f.conns {
		cs.conn.SetReadDeadline(past)
	}
}

// Drain performs the zero-loss shutdown of the ingestion edge: stop
// accepting, interrupt reads (in-progress frames still finish admission),
// send every client its final OpDrained ack, wait for the handlers, then
// force-seal the ingress aggregation buffers. When Drain returns, every
// acked event has been admitted into the runtime. Idempotent.
func (f *Frontend) Drain() error {
	if !f.draining.CompareAndSwap(false, true) {
		f.wg.Wait()
		return nil
	}
	f.ln.Close()
	f.interruptReads()
	f.wg.Wait()
	f.inj.FlushIngress()
	return nil
}

// Abort ends the service on a topology failure: every connected client gets
// an OpFail frame naming the failing process and phase, in-flight admissions
// unblock, and the listener closes. Idempotent (the first failure wins).
func (f *Frontend) Abort(proc int, phase, msg string) {
	f.abortOnce.Do(func() {
		f.mu.Lock()
		f.fail = &failDoc{Msg: msg, Proc: proc, Phase: phase}
		f.mu.Unlock()
		close(f.abortC)
		f.ln.Close()
		f.interruptReads()
	})
}

// Close releases the frontend's resources (listener, metrics endpoint). Call
// after Drain or Abort; connections still open are dropped.
func (f *Frontend) Close() error {
	f.draining.Store(true)
	f.ln.Close()
	f.interruptReads()
	f.wg.Wait()
	if f.metrics != nil {
		f.metrics.close()
	}
	return nil
}
