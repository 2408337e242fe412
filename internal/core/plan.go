package core

import (
	"fmt"

	"tramlib/internal/cluster"
)

// Scheme selects the aggregation strategy.
type Scheme uint8

// The aggregation schemes of §III-B, plus the no-aggregation baseline.
const (
	Direct Scheme = iota
	WW
	WPs
	WsP
	PP
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Direct:
		return "Direct"
	case WW:
		return "WW"
	case WPs:
		return "WPs"
	case WsP:
		return "WsP"
	case PP:
		return "PP"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ParseScheme converts a scheme name (as printed by String) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "Direct", "direct", "none":
		return Direct, nil
	case "WW", "ww":
		return WW, nil
	case "WPs", "wps":
		return WPs, nil
	case "WsP", "wsp":
		return WsP, nil
	case "PP", "pp":
		return PP, nil
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// AllSchemes lists every aggregating scheme in the order the paper's figures
// use. It must contain exactly the aggregating subset of Schemes() — a test
// enforces the lockstep, so adding a scheme to one list without the other
// fails CI.
var AllSchemes = []Scheme{WW, WPs, PP, WsP}

// Schemes returns the canonical enumeration of every scheme, Direct first and
// the aggregating schemes in declaration order. Scheme-sweep loops, CLI
// listings, and the real-runtime tables all derive from this single list, so
// adding a scheme is a one-place change. The returned slice is fresh; callers
// may reslice it (Schemes()[1:] is the aggregating subset).
func Schemes() []Scheme {
	return []Scheme{Direct, WW, WPs, WsP, PP}
}

// Grouping says where a buffer's items are grouped by destination worker.
type Grouping uint8

const (
	// GroupNone: the buffer is addressed to one worker; nothing to group.
	GroupNone Grouping = iota
	// GroupAtSource: the sealing side sorts items into per-worker runs, so
	// the receiving process only forwards them (Fig. 6).
	GroupAtSource
	// GroupAtDest: a worker of the receiving process sorts the arriving
	// items and forwards the runs (Figs. 5, 7).
	GroupAtDest
)

// Plan is what a scheme decides, as data: the §III-B table. This file is the
// only place that maps a Scheme to behaviour; the simulated library (Lib) and
// the goroutine runtime (internal/rt) read a Plan once at construction and
// branch on its fields, never on the scheme.
type Plan struct {
	// Buffered: items aggregate in buffers. False sends every item as its
	// own message, and no other field applies.
	Buffered bool
	// ProcRouted: a buffer is addressed to a destination process. False
	// addresses it to a destination worker.
	ProcRouted bool
	// Shared: the workers of a source process fill one set of buffers
	// together, with atomics. False gives every source worker its own set.
	Shared bool
	// Group is where items are grouped by destination worker.
	Group Grouping
	// BypassLocal: an item for another worker of the sender's own process is
	// delivered through shared memory, unbuffered.
	BypassLocal bool
	// Tagged: an item travels with its destination worker (the paper's
	// <item, dest_w> pair). False ships the bare payload.
	Tagged bool
}

// plans is the table, indexed by Scheme:
//
//	scheme  buffer addressed to  filled by      grouped at   same-process items  wire item
//	Direct  (no buffers)
//	WW      worker               one worker     nowhere      buffered            bare
//	WPs     process              one worker     destination  bypass              tagged
//	WsP     process              one worker     source       bypass              tagged
//	PP      process              whole process  destination  bypass              tagged
var plans = [...]Plan{
	Direct: {},
	WW:     {Buffered: true},
	WPs:    {Buffered: true, ProcRouted: true, Group: GroupAtDest, BypassLocal: true, Tagged: true},
	WsP:    {Buffered: true, ProcRouted: true, Group: GroupAtSource, BypassLocal: true, Tagged: true},
	PP:     {Buffered: true, ProcRouted: true, Shared: true, Group: GroupAtDest, BypassLocal: true, Tagged: true},
}

// Plan returns the scheme's row of the table. The scheme must be valid
// (Config.Validate checks the range).
func (s Scheme) Plan() Plan { return plans[s] }

// Routes returns the number of routes — distinct buffer addresses — on topo:
// N·t destination workers, or N destination processes. Zero when nothing is
// buffered. A route index is also the adaptive controller's unit of control.
func (p Plan) Routes(topo cluster.Topology) int {
	switch {
	case !p.Buffered:
		return 0
	case p.ProcRouted:
		return topo.TotalProcs()
	}
	return topo.TotalWorkers()
}

// Route returns the index of the route that carries items for worker dest.
func (p Plan) Route(topo cluster.Topology, dest cluster.WorkerID) int {
	if p.ProcRouted {
		return int(topo.ProcOf(dest))
	}
	return int(dest)
}

// Owners returns the number of buffer sets on topo: one per source process
// when they are shared, else one per source worker. Every owner holds at most
// Routes buffers, which is the §III-C memory bound (Lib.MemoryModelBytes).
func (p Plan) Owners(topo cluster.Topology) int {
	if p.Shared {
		return topo.TotalProcs()
	}
	return topo.TotalWorkers()
}

// Owner returns the index of the buffer set worker w fills.
func (p Plan) Owner(topo cluster.Topology, w cluster.WorkerID) int {
	if p.Shared {
		return int(topo.ProcOf(w))
	}
	return int(w)
}
