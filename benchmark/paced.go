package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"tramlib/internal/traffic"
	"tramlib/tram"
)

// The benchmark's own open-loop kernel. One worker generates items on a
// fixed schedule and stamps each with the instant it was DUE, not the instant
// it was sent; the destination's Deliver observes now - due. A generator that
// stalls, or an Insert that blocks, therefore lengthens the latency of every
// item behind it instead of hiding it, and the generator's own lateness is
// recorded beside the latencies so a rep whose schedule slipped can be told
// from a slow system.
//
// The same kernel runs unpaced (Interval 0) as the flood half of the paced
// workload, and with RoundTrip as a request/response probe whose latency is
// taken on the generating worker (the index-gather shape).
//
// Stamps are wall-clock nanoseconds because Dist runs put generator and sinks
// in different OS processes; on one host they read the same clock.

// pacedDistName registers the kernel for Dist worker processes, which re-exec
// this binary and rebuild the kernel from the JSON parameters.
const pacedDistName = "benchmark-paced"

func init() {
	tram.RegisterDist(pacedDistName, func(raw []byte, proc tram.ProcID) (tram.DistApp, error) {
		var p pacedParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return tram.DistApp{}, fmt.Errorf("%s params: %w", pacedDistName, err)
		}
		in := newPacedInstance(p)
		return tram.BindDist(tram.U64(), p.Tram, in.app(), func() []byte { return in.report(proc) })
	})
}

// pacedParams is one paced (or unpaced) probe run.
type pacedParams struct {
	Tram tram.Config
	// Gen is the one generating worker; Dests are the workers it addresses.
	Gen   int
	Dests []int
	// Shape and Seed pick destinations (traffic.Picker).
	Shape traffic.Spec
	Seed  int64
	// Interval is the schedule step; 0 sends as fast as Insert returns.
	Interval time.Duration
	Steps    int
	// RoundTrip makes every destination answer the generator; the sample is
	// then due -> response.
	RoundTrip bool
	// Sleep paces by sleeping in the kernel instead of spinning (see the
	// generator below).
	Sleep bool
	// Record keeps one latency sample per item. Off for flood reps, whose
	// items carry no meaningful due time and should not pay for a clock read.
	Record bool
	// Trace times every sampleEvery-th Insert and Deliver (traced runs).
	Trace bool
}

var shortestSleep = syscall.NsecToTimespec(1000)

// respFlag marks a response word of a round-trip probe. Wall-clock
// nanoseconds fit below it until the year 2262.
const respFlag = uint64(1) << 63

// tally is the order-independent account of a set of words: how many, and
// their xor. Equal tallies at generator and sinks mean none was lost,
// duplicated or corrupted.
type tally struct {
	Count int64  `json:"count"`
	Xor   uint64 `json:"xor"`
}

func (t *tally) add(v uint64) { t.Count++; t.Xor ^= v }

func (t *tally) merge(o tally) { t.Count += o.Count; t.Xor ^= o.Xor }

// pacedInstance is one bound run. Deliver and the kernel run serially per
// worker, so the per-worker slots need no locking.
type pacedInstance struct {
	p    pacedParams
	lat  [][]int64 // per observing worker, ns
	late []int64   // generator send time - due time, ns
	sent tally
	recv []tally // per worker; final-hop words only
	// samplers is nil unless Trace.
	samplers []sampler
}

func newPacedInstance(p pacedParams) *pacedInstance {
	W := p.Tram.Topo.TotalWorkers()
	in := &pacedInstance{p: p, lat: make([][]int64, W), recv: make([]tally, W)}
	if p.Trace {
		in.samplers = newSamplers(W)
	}
	if p.Record {
		// Every slot is sized for the whole run so the timed path never
		// grows a slice.
		in.late = make([]int64, 0, p.Steps)
		if p.RoundTrip {
			in.lat[p.Gen] = make([]int64, 0, p.Steps)
		} else {
			for _, d := range p.Dests {
				in.lat[d] = make([]int64, 0, p.Steps)
			}
		}
	}
	return in
}

// deliver is the kernel's work on one arrived word.
func (in *pacedInstance) deliver(ctx tram.Ctx, v uint64) {
	if in.p.RoundTrip && v&respFlag == 0 {
		timedInsert(in.samplers, ctx, tram.WorkerID(in.p.Gen), v|respFlag)
		return
	}
	w := ctx.Self()
	v &^= respFlag
	in.recv[w].add(v)
	if in.p.Record {
		in.lat[w] = append(in.lat[w], time.Now().UnixNano()-int64(v))
	}
}

func (in *pacedInstance) app() tram.App[uint64] {
	p := in.p
	gen := tram.WorkerID(p.Gen)
	deliver := in.deliver // bound once: a method value made per item would allocate
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, v uint64) { timedDeliver(in.samplers, ctx, v, deliver) },
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			if w != gen {
				return 0, nil
			}
			picker := traffic.NewPicker(p.Shape, p.Seed, len(p.Dests))
			interval := int64(p.Interval)
			var start int64
			return p.Steps, func(ctx tram.Ctx, step int) {
				dest := tram.WorkerID(p.Dests[picker.Next()])
				if interval == 0 {
					v := uint64(step)
					in.sent.add(v)
					timedInsert(in.samplers, ctx, dest, v)
					return
				}
				if step == 0 {
					start = time.Now().UnixNano()
				}
				due := start + int64(step)*interval
				now := time.Now().UnixNano()
				for now < due {
					if p.Sleep {
						// The shortest sleep the kernel gives (60-90 us on
						// this host), after which the generator catches up
						// with the items that fell due meanwhile: short
						// enough that the worker still answers the progress
						// goroutine's flush requests well inside a deadline.
						// For runs with more processes than cores, where a
						// spinning generator takes a core from the system it
						// measures.
						syscall.Nanosleep(&shortestSleep, nil) // an early wake-up only means one more turn
					} else {
						// Busy-pace: no sleep is good to a few microseconds.
						// Yielding keeps the rest of the process scheduled
						// on a small host.
						runtime.Gosched()
					}
					now = time.Now().UnixNano()
				}
				if p.Record {
					in.late = append(in.late, now-due)
				}
				in.sent.add(uint64(due))
				timedInsert(in.samplers, ctx, dest, uint64(due))
			}
		},
		FlushOnDone: true,
	}
}

// pacedReport is what one process of a Dist run sends home: its workers'
// samples (little-endian int64s) and tallies.
type pacedReport struct {
	Lat   []byte    `json:"lat"`
	Late  []byte    `json:"late"`
	Sent  tally     `json:"sent"`
	Recv  tally     `json:"recv"`
	Spans spanStats `json:"spans"`
}

func (in *pacedInstance) report(proc tram.ProcID) []byte {
	topo := in.p.Tram.Topo
	first := int(topo.FirstWorkerOf(proc))
	var rep pacedReport
	for w := first; w < first+topo.WorkersPerProc; w++ {
		rep.Lat = appendInt64s(rep.Lat, in.lat[w])
		rep.Recv.merge(in.recv[w])
		if in.samplers != nil {
			rep.Spans.merge(in.samplers[w].st)
		}
	}
	if int(topo.ProcOf(tram.WorkerID(in.p.Gen))) == int(proc) {
		rep.Late = appendInt64s(nil, in.late)
		rep.Sent = in.sent
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // only byte slices and integers: cannot fail
	}
	return b
}

func appendInt64s(dst []byte, v []int64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// pacedRep is one completed probe run.
type pacedRep struct {
	lat   []int64 // ascending, ns
	late  []int64 // ascending, ns
	sent  tally
	recv  tally
	spans spanStats
	m     tram.Metrics
}

// failed counts items that did not arrive exactly once and intact.
func (r pacedRep) failed() int64 {
	d := r.sent.Count - r.recv.Count
	if d < 0 {
		d = -d
	}
	if d == 0 && r.sent.Xor != r.recv.Xor {
		d = 1
	}
	if lost := r.m.Inserted - r.m.Delivered; lost > d {
		d = lost
	}
	return d
}

// runPaced executes one probe on backend b and gathers its samples.
func runPaced(b tram.Backend, p pacedParams) (pacedRep, error) {
	in := newPacedInstance(p)
	cfg := p.Tram
	if tram.IsDist(b) {
		raw, err := json.Marshal(p)
		if err != nil {
			return pacedRep{}, err
		}
		cfg.Dist.App = pacedDistName
		cfg.Dist.Params = raw
	}
	m, err := tram.U64().Run(b, cfg, in.app())
	if err != nil {
		return pacedRep{}, fmt.Errorf("paced probe on %v: %w", b, err)
	}
	rep := pacedRep{m: m, sent: in.sent}
	lat, late := in.lat, in.late
	for w, t := range in.recv {
		rep.recv.merge(t)
		if in.samplers != nil {
			rep.spans.merge(in.samplers[w].st)
		}
	}
	for proc, blob := range m.Reports {
		var pr pacedReport
		if err := json.Unmarshal(blob, &pr); err != nil {
			return pacedRep{}, fmt.Errorf("paced probe: proc %d report: %w", proc, err)
		}
		lat = append(lat, decodeInt64s(pr.Lat))
		late = append(late, decodeInt64s(pr.Late)...)
		rep.sent.merge(pr.Sent)
		rep.recv.merge(pr.Recv)
		rep.spans.merge(pr.Spans)
	}
	rep.lat = sortedCopy(lat...)
	rep.late = sortedCopy(late)
	return rep, nil
}
