package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"tramlib/internal/apps/serveagg"
	"tramlib/internal/serve"
	"tramlib/internal/traffic"
	"tramlib/tram"
)

// The service-edge workload: serveagg on the Dist backend over TCP peer
// links, driven through real client connections. Its flood half is the
// unpaced peak (each connection sends as fast as its ack window admits); its
// latency half is an open loop the benchmark owns — a fixed tick schedule,
// each tick's batch stamped with the instant it was due, and a watcher per
// connection that times the cumulative ack covering each batch. (serve.Run's
// generator sleeps between single sends and cannot reach its offered rate on
// as few connections as a small host allows, and it times acks from the
// send, which forgives its own stalls.)

const (
	serveTick = time.Millisecond
	// serveRate is the paced half's offered load, events/s over all
	// connections: about a sixth of the unpaced peak. (At the issue's
	// 100 k/s a tick's batch is handled in 30 us and the ack latency is
	// three thread wake-ups and nothing else — a figure that followed the
	// host, in two modes 17 % apart that each lasted about a minute. At
	// 1 M/s queueing behind the previous tick takes over and the p95
	// spreads by 40 %.)
	serveRate       = 500_000
	serveTicks      = 400     // per latency rep: 0.4 s
	serveFloodEvent = 400_000 // per connection and flood rep
)

type serveDriver struct {
	e      env
	params serveagg.Params
	conns  int
}

func newServeDriver(e env) *serveDriver {
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	return &serveDriver{
		e:     e,
		conns: conns,
		params: serveagg.Params{
			Nodes: 1, Procs: 2, Workers: 2, Scheme: tram.WPs,
			FlushDeadline: 200 * time.Microsecond,
			DrainTimeout:  30 * time.Second,
		},
	}
}

// connLoad is what one connection's generator reports.
type connLoad struct {
	sent tally
	lat  []int64 // due -> covering ack, ns, one per batch
	late []int64 // send time - due time, ns, one per batch
}

// serveResult is one completed service session.
type serveResult struct {
	conns       []connLoad
	sent, acked int64
	wall        time.Duration // first send to last ack
	m           tram.Metrics  // the drain's metrics
	failed      int64
}

// session stands the service up, dials the connections, runs load over them,
// waits for every event to be acked, drains, and checks the account:
// sent == acked == delivered, with matching xor. load returns one report per
// connection.
func (d *serveDriver) session(load func(clients []*serve.Client) ([]connLoad, error)) (res serveResult, err error) {
	span := d.e.tr.begin("serveagg.Serve", 0)
	srv, inst, err := serveagg.Serve(tram.Dist, d.params, "127.0.0.1:0", "", tram.TransportTCP)
	d.e.tr.end(span)
	if err != nil {
		return res, fmt.Errorf("serve: %w", err)
	}
	drained := false
	defer func() {
		if !drained {
			_, derr := srv.Drain() // reaps the worker processes on the error paths
			err = errors.Join(err, derr)
		}
	}()
	clients := make([]*serve.Client, d.conns)
	for i := range clients {
		c, derr := serve.Dial(srv.Addr(), serve.ClientConfig{})
		if derr != nil {
			return res, derr
		}
		defer c.Close()
		clients[i] = c
	}

	began := time.Now()
	if res.conns, err = load(clients); err != nil {
		return res, err
	}
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			return res, err
		}
		if _, err := c.WaitAcked(c.Sent()); err != nil {
			return res, err
		}
	}
	res.wall = time.Since(began)

	// Drain and the clients' reaction to it run side by side: the frontend
	// keeps each connection open until its client has read the final ack and
	// hung up (or a second has passed), so a client that waited for Drain to
	// return before closing would add that second to every session.
	drained = true
	drainErr := make(chan error, 1)
	go func() {
		span := d.e.tr.begin("Server.Drain", 0)
		var err error
		res.m, err = srv.Drain()
		d.e.tr.end(span)
		drainErr <- err
	}()
	var sent tally
	for i, c := range clients {
		n, err := c.WaitDrained()
		c.Close()
		if err != nil {
			return res, errors.Join(err, <-drainErr)
		}
		res.acked += n
		sent.merge(res.conns[i].sent)
	}
	if err := <-drainErr; err != nil {
		return res, fmt.Errorf("serve drain: %w", err)
	}
	got, err := serveagg.Sum(res.m, inst)
	if err != nil {
		return res, err
	}
	res.sent = sent.Count
	res.failed = abs64(sent.Count-res.acked) + abs64(res.acked-got.Count)
	if res.failed == 0 && sent.Xor != got.Xor {
		res.failed = 1
	}
	return res, nil
}

// picker returns connection i's destination stream over the topology's
// workers.
func (d *serveDriver) picker(i int) *traffic.Picker {
	workers := d.params.Nodes * d.params.Procs * d.params.Workers
	return traffic.NewPicker(traffic.Spec{}, int64(d.e.seed)*7919+int64(i), workers)
}

// eventWord gives every event of a session a distinct value, so the xor
// account detects duplicates.
func eventWord(conn, n int) uint64 { return uint64(conn)<<40 | uint64(n) }

func (d *serveDriver) setup() error {
	_, err := d.session(func(clients []*serve.Client) ([]connLoad, error) {
		out := make([]connLoad, len(clients))
		for i, c := range clients {
			v := eventWord(i, 0)
			out[i].sent.add(v)
			if err := c.Send(uint32(d.picker(i).Next()), v); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	return err
}

// floodSession sends a fixed number of events down every connection at once,
// each as fast as its ack window admits: the service's peak rate. With
// samplers (one per connection, a traced run) every sampleEvery-th
// Client.Send — the service edge's Insert — is timed.
func (d *serveDriver) floodSession(samplers []sampler) (floodRep, error) {
	events := d.e.sized(serveFloodEvent)
	res, err := d.session(func(clients []*serve.Client) ([]connLoad, error) {
		out := make([]connLoad, len(clients))
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pick := d.picker(i)
				for n := 0; n < events && errs[i] == nil; n++ {
					v := eventWord(i, n)
					out[i].sent.add(v)
					if samplers == nil {
						errs[i] = c.Send(uint32(pick.Next()), v)
					} else {
						samplers[i].span(spanInsert, func() { errs[i] = c.Send(uint32(pick.Next()), v) })
					}
				}
			}()
		}
		wg.Wait()
		return out, errors.Join(errs...)
	})
	return floodRep{items: res.acked, run: res.wall, failed: res.failed, m: res.m}, err
}

func (d *serveDriver) flood() (floodRep, error) { return d.floodSession(nil) }

// tracedFlood is the flood through timed sends and, since the delivery side
// lives in the worker processes, the application's Deliver body timed
// directly afterwards.
func (d *serveDriver) tracedFlood() (floodRep, spanStats, error) {
	samplers := newSamplers(d.conns)
	rep, err := d.floodSession(samplers)
	if err != nil {
		return floodRep{}, spanStats{}, err
	}
	app := new(serveagg.Instance).App()
	for n := 0; n < d.e.sized(serveFloodEvent); n++ {
		timedDeliver(samplers, idleCtx{}, eventWord(0, n), app.Deliver)
	}
	var spans spanStats
	for i := range samplers {
		spans.merge(samplers[i].st)
	}
	return rep, spans, nil
}

func (d *serveDriver) shape() layerShape { return layerShape{cfg: d.params.Config(), actors: d.conns} }

// idleCtx is a tram.Ctx for calling a Deliver body outside any runtime: it
// is worker 0 and every verb does nothing.
type idleCtx struct{}

func (idleCtx) Self() tram.WorkerID        { return 0 }
func (idleCtx) Proc() tram.ProcID          { return 0 }
func (idleCtx) Send(tram.WorkerID, uint64) {}
func (idleCtx) Contribute(int64)           {}
func (idleCtx) Flush()                     {}
func (idleCtx) Charge(time.Duration)       {}
func (idleCtx) Now() time.Duration         { return 0 }
func (idleCtx) Post(func(tram.Ctx))        {}

// ackMark is one batch awaiting its ack: the cumulative send count it ends
// at, and when it was due.
type ackMark struct {
	seq int64
	due int64 // wall-clock ns
}

// spinWindow is how close to a tick's due time the generator stops sleeping
// and starts polling the clock.
const spinWindow = 150 * time.Microsecond

// waitUntil returns at wall-clock instant due (ns), or at once if it has
// passed. A Go timer wakes up to a millisecond late — a whole tick — and a
// generator that spins through every tick owns a core, which on a two-core
// host leaves the service half a machine and makes its latency depend on
// which core the OS gave it. So: sleep in the kernel (nanosleep is good to
// tens of microseconds) until spinWindow before due, then poll.
func waitUntil(due int64) {
	for {
		left := due - time.Now().UnixNano()
		switch {
		case left <= 0:
			return
		case left > int64(spinWindow):
			ts := syscall.NsecToTimespec(left - int64(spinWindow))
			syscall.Nanosleep(&ts, nil) // an early wake-up only means one more turn of the loop
		default:
			runtime.Gosched()
		}
	}
}

// latency offers serveRate events/s on a fixed tick schedule. One goroutine
// generates for every connection; a watcher per connection times acks
// concurrently with sending, so a slow ack never delays the schedule.
func (d *serveDriver) latency() (latencyRep, error) {
	ticks := d.e.sized(serveTicks)
	perTick := serveRate / int(time.Second/serveTick) / d.conns
	res, err := d.session(func(clients []*serve.Client) ([]connLoad, error) {
		out := make([]connLoad, len(clients))
		pick := make([]*traffic.Picker, len(clients))
		// One mark per tick and connection: the buffers hold them all, so
		// the generator never blocks on a watcher.
		marks := make([]chan ackMark, len(clients))
		watchErrs := make([]error, len(clients))
		var watchers sync.WaitGroup
		for i, c := range clients {
			out[i] = connLoad{lat: make([]int64, 0, ticks), late: make([]int64, 0, ticks)}
			pick[i] = d.picker(i)
			marks[i] = make(chan ackMark, ticks)
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				for mk := range marks[i] {
					if _, err := c.WaitAcked(mk.seq); err != nil {
						watchErrs[i] = err
						return
					}
					out[i].lat = append(out[i].lat, time.Now().UnixNano()-mk.due)
				}
			}()
		}
		var sendErr error
		start := time.Now().UnixNano()
		n := 0
	schedule:
		for t := 0; t < ticks; t++ {
			due := start + int64(t)*int64(serveTick)
			waitUntil(due)
			for i, c := range clients {
				out[i].late = append(out[i].late, time.Now().UnixNano()-due)
				for k := 0; k < perTick; k++ {
					v := eventWord(i, n+k)
					out[i].sent.add(v)
					if sendErr = c.Send(uint32(pick[i].Next()), v); sendErr != nil {
						break schedule
					}
				}
				if sendErr = c.Flush(); sendErr != nil {
					break schedule
				}
				marks[i] <- ackMark{seq: int64(n + perTick), due: due}
			}
			n += perTick
		}
		for _, ch := range marks {
			close(ch)
		}
		watchers.Wait() // the watchers own out[i].lat until they are done
		return out, errors.Join(append(watchErrs, sendErr)...)
	})
	if err != nil {
		return latencyRep{}, err
	}
	rep := latencyRep{attempted: res.sent, failed: res.failed, run: res.wall, m: res.m}
	var lat, late [][]int64
	for _, l := range res.conns {
		lat, late = append(lat, l.lat), append(late, l.late)
	}
	rep.lat, rep.late = sortedCopy(lat...), sortedCopy(late...)
	return rep, nil
}

// lateLimit: a generator more than one tick behind is no longer offering the
// stated rate.
func (d *serveDriver) lateLimit() time.Duration { return serveTick }
