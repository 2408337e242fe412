package main

import (
	"sort"
	"sync"
	"time"

	"tramlib/tram"
)

// Tracing, from the benchmark's own side of the API. Two kinds of span:
//
//   - coarse spans (a rep, a Lib.Run / Serve / Drain call, a stage driver)
//     are recorded through the tracer, one by one;
//   - fine spans (every sampleEvery-th Insert and Deliver, and whatever they
//     call) are taken inside the benchmark's instrumented kernels by a
//     per-worker sampler with no shared state, summed there as self time, and
//     only their first few raw spans per worker are kept for the trace file.
//
// All spans are kept in memory and written once, when the run ends. Times
// are wall-clock nanoseconds, the one clock the worker processes of a Dist
// run share with the coordinator.

// span is one recorded interval. Spans of one rep share Rep; Parent is the
// ID of the span that caused this one (0: none).
type span struct {
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	spans []span
	rep   int
}

func nowNs() int64 { return time.Now().UnixNano() }

// nextRep starts a new rep: spans begun from now on carry its id.
func (t *tracer) nextRep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep++
	return t.rep
}

// begin opens a span and returns its id for end and for children. A nil
// tracer (an untraced run) records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Rep: t.rep, ID: id, Parent: parent, Start: nowNs()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := nowNs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	defer t.end(id)
	return fn()
}

// adopt files fine spans taken elsewhere (another goroutine, another
// process) under parent.
func (t *tracer) adopt(parent int, st spanStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range st.Raw {
		t.spans = append(t.spans, span{
			Name: spanNames[r.Kind], Rep: t.rep, ID: len(t.spans) + 1, Parent: parent,
			Start: r.Start, End: r.Start + r.Dur,
		})
	}
}

// write stores every span, in start order, as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return writeJSON(path, struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
}

// --- fine spans ---

// Fine span kinds.
const (
	spanInsert = iota
	spanDeliver
	spanKinds
)

var spanNames = [spanKinds]string{"tram.Lib.Insert", "App.Deliver"}

const (
	// sampleEvery: one Insert (and one Deliver) in this many is timed. Two
	// clock reads cost more than either call, so timing each would measure
	// the clock. A prime, so that the timed calls do not fall on fixed
	// positions of the power-of-two scheduler chunks and buffer sizes (the
	// first Insert after an inbox drain is not a typical one).
	sampleEvery = 61
	// longSpan separates calls from waits. The slowest real Insert seals,
	// groups, encodes and writes one buffer: tens of microseconds. A span
	// longer than this contains a stretch in which the worker was not
	// running at all (its goroutine or thread was descheduled, or it was
	// blocked on a full link), typically 1-20 ms; a few of those in a
	// hundred thousand spans would double the mean. Such spans are counted
	// (spanStats.Long) and left out of the sums.
	longSpan = 100 * time.Microsecond
	// rawPerWorker fine spans of each kind are kept verbatim per worker.
	rawPerWorker = 64
)

// rawSpan is one fine span as taken.
type rawSpan struct {
	Kind   int   `json:"kind"`
	Worker int   `json:"worker"`
	Start  int64 `json:"start_ns"`
	Dur    int64 `json:"dur_ns"`
}

// spanStats sums fine spans by kind: N spans with Total self time, and Long
// further spans left out for exceeding longSpan.
type spanStats struct {
	N     [spanKinds]int64 `json:"n"`
	Total [spanKinds]int64 `json:"total_ns"`
	Long  [spanKinds]int64 `json:"long"`
	Raw   []rawSpan        `json:"raw,omitempty"`
}

func (s *spanStats) merge(o spanStats) {
	for k := 0; k < spanKinds; k++ {
		s.N[k] += o.N[k]
		s.Total[k] += o.Total[k]
		s.Long[k] += o.Long[k]
	}
	s.Raw = append(s.Raw, o.Raw...)
}

// longShare is the share of all fine spans that exceeded longSpan.
func (s spanStats) longShare() float64 {
	var long, all int64
	for k := 0; k < spanKinds; k++ {
		long += s.Long[k]
		all += s.N[k] + s.Long[k]
	}
	return ratio(float64(long), float64(all))
}

// meanNs returns the mean self time of kind's spans less the clock's own
// cost, which every span contains once.
func (s spanStats) meanNs(kind int, clockNs float64) float64 {
	if s.N[kind] == 0 {
		return 0
	}
	if m := float64(s.Total[kind])/float64(s.N[kind]) - clockNs; m > 0 {
		return m
	}
	return 0
}

// sampler is one worker's fine-span state. Kernels and Deliver run serially
// per worker, so it needs no locking; the padding keeps neighbouring
// workers' samplers off one cache line.
type sampler struct {
	worker int
	tick   [spanKinds]uint32
	kept   [spanKinds]int
	// open points at the running total of child time of the span being
	// timed on this worker, nil when none is.
	open *int64
	st   spanStats
	_    [64]byte
}

// span runs fn, timing it if it is this kind's sampleEvery-th call — or if
// it runs inside a span that is being timed, whichever its turn: calls nest
// (a self-addressed Insert delivers inline; a Deliver may Insert a
// response), and a span records self time, its duration less its children's,
// which is only known if every child is timed.
func (s *sampler) span(kind int, fn func()) {
	s.tick[kind]++
	if s.open == nil && s.tick[kind]%sampleEvery != 0 {
		fn()
		return
	}
	parent := s.open
	var children int64
	s.open = &children
	t0 := nowNs()
	fn()
	dur := nowNs() - t0
	s.open = parent
	if parent != nil {
		*parent += dur
	}
	if dur > int64(longSpan) {
		s.st.Long[kind]++
	} else {
		s.st.N[kind]++
		s.st.Total[kind] += dur - children
	}
	if s.kept[kind] < rawPerWorker {
		s.kept[kind]++
		s.st.Raw = append(s.st.Raw, rawSpan{Kind: kind, Worker: s.worker, Start: t0, Dur: dur})
	}
}

func newSamplers(workers int) []sampler {
	ss := make([]sampler, workers)
	for i := range ss {
		ss[i].worker = i
	}
	return ss
}

// timedInsert is Lib.Insert under the executing worker's sampler; with ss nil
// (an untraced run) it is Lib.Insert.
func timedInsert(ss []sampler, ctx tram.Ctx, dest tram.WorkerID, v uint64) {
	if ss == nil {
		tram.U64().Insert(ctx, dest, v)
		return
	}
	ss[ctx.Self()].span(spanInsert, func() { tram.U64().Insert(ctx, dest, v) })
}

// timedDeliver runs a Deliver body under the executing worker's sampler.
func timedDeliver(ss []sampler, ctx tram.Ctx, v uint64, body func(ctx tram.Ctx, v uint64)) {
	if ss == nil {
		body(ctx, v)
		return
	}
	ss[ctx.Self()].span(spanDeliver, func() { body(ctx, v) })
}

// clockCost measures what an empty span reads: the cost of the second clock
// read as seen from the first.
func clockCost() float64 {
	const n = 2001
	d := make([]float64, n)
	for i := range d {
		t0 := nowNs()
		d[i] = float64(nowNs() - t0)
	}
	return median(d)
}
