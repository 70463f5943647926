package simnet

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Network fault injection.
//
// A NetworkPlan scripts link degradation and outage against the
// simulated clock, mirroring simcluster.FailurePlan's shape: validate
// at registration, sort, replay deterministically. Where a FailurePlan
// kills whole nodes, a NetworkPlan leaves every node computing but
// degrades the fabric between them — a node's NIC, a rack's uplink,
// the core bisection, or a full bipartition of the cluster. Faults are
// piecewise-constant: a transfer is priced by the overlay active at
// its start time.

// FaultKind identifies which fabric resource a NetFault degrades.
type FaultKind string

const (
	// FaultNodeLink degrades one node's NIC (both directions).
	FaultNodeLink FaultKind = "node-link"
	// FaultRackUplink degrades one rack switch's uplink to the core
	// (both directions).
	FaultRackUplink FaultKind = "rack-uplink"
	// FaultCore degrades the core bisection bandwidth.
	FaultCore FaultKind = "core"
	// FaultPartition splits the cluster in two: no traffic crosses
	// between Nodes and the rest while the fault is active. Factor
	// must be zero — a partition is total by definition.
	FaultPartition FaultKind = "partition"
)

// NetFault is one scripted fault window [Start, End) on the simulated
// clock. Factor is the capacity multiplier the targeted resource keeps
// while the fault is active: 0 is a hard outage (the resource is
// unreachable), 0 < Factor < 1 is a brownout. Target fields not used
// by the fault's Kind must be left zero.
type NetFault struct {
	Kind FaultKind
	// Node targets FaultNodeLink.
	Node int
	// Rack targets FaultRackUplink.
	Rack int
	// Nodes is one side of a FaultPartition cut; the other side is
	// every remaining node.
	Nodes []int
	// Start and End bound the window; the fault is active for
	// Start <= t < End.
	Start, End simtime.Time
	// Factor is the residual capacity fraction in [0, 1).
	Factor float64
}

// target returns a stable identity for overlap checking: faults with
// equal targets may not have overlapping windows.
func (nf NetFault) target() string {
	switch nf.Kind {
	case FaultNodeLink:
		return fmt.Sprintf("node:%d", nf.Node)
	case FaultRackUplink:
		return fmt.Sprintf("rack:%d", nf.Rack)
	case FaultCore:
		return "core"
	case FaultPartition:
		// Any two partitions overlap by construction: each cuts the
		// cluster in two, and composing cuts is not modelled.
		return "partition"
	}
	return string(nf.Kind)
}

// Describe renders the fault for schedules and trace events.
func (nf NetFault) Describe() string {
	switch nf.Kind {
	case FaultNodeLink:
		return fmt.Sprintf("node-link node=%d factor=%g [%g,%g)", nf.Node, nf.Factor, float64(nf.Start), float64(nf.End))
	case FaultRackUplink:
		return fmt.Sprintf("rack-uplink rack=%d factor=%g [%g,%g)", nf.Rack, nf.Factor, float64(nf.Start), float64(nf.End))
	case FaultCore:
		return fmt.Sprintf("core factor=%g [%g,%g)", nf.Factor, float64(nf.Start), float64(nf.End))
	case FaultPartition:
		return fmt.Sprintf("partition side=%v [%g,%g)", nf.Nodes, float64(nf.Start), float64(nf.End))
	}
	return string(nf.Kind)
}

// activeAt reports whether the fault window covers time t.
func (nf NetFault) activeAt(t simtime.Time) bool {
	return nf.Start <= t && t < nf.End
}

// PlanError reports why a NetworkPlan failed validation. Index is the
// offending fault's position in Faults.
type PlanError struct {
	Index  int
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("simnet: network fault %d: %s", e.Index, e.Reason)
}

// NetworkPlan scripts network faults against the simulated clock.
// Register it with Fabric.SetNetworkPlan (or
// simcluster.Cluster.SetNetworkPlan) before building runtimes; the
// transfer models then honor it. A nil plan — or a plan whose windows
// never cover a transfer's start time — changes nothing: transfer
// times stay float-identical to an unfaulted fabric.
type NetworkPlan struct {
	Faults []NetFault
}

// Validate reports whether every fault targets an existing resource of
// cfg with a sane window and factor, and that no two faults on the
// same target overlap. Errors are typed *PlanError.
func (p *NetworkPlan) Validate(cfg Config) error {
	if p == nil {
		return nil
	}
	type window struct {
		index      int
		start, end simtime.Time
	}
	byTarget := map[string][]window{}
	for i, nf := range p.Faults {
		fail := func(format string, args ...any) error {
			return &PlanError{Index: i, Reason: fmt.Sprintf(format, args...)}
		}
		switch nf.Kind {
		case FaultNodeLink:
			if nf.Node < 0 || nf.Node >= cfg.Nodes {
				return fail("node %d out of range [0,%d)", nf.Node, cfg.Nodes)
			}
		case FaultRackUplink:
			if nf.Rack < 0 || nf.Rack >= cfg.Racks() {
				return fail("rack %d out of range [0,%d)", nf.Rack, cfg.Racks())
			}
		case FaultCore:
			// No target id.
		case FaultPartition:
			if len(nf.Nodes) == 0 {
				return fail("partition has an empty side")
			}
			seen := map[int]bool{}
			for _, n := range nf.Nodes {
				if n < 0 || n >= cfg.Nodes {
					return fail("partition node %d out of range [0,%d)", n, cfg.Nodes)
				}
				if seen[n] {
					return fail("partition lists node %d twice", n)
				}
				seen[n] = true
			}
			if len(seen) == cfg.Nodes {
				return fail("partition side covers every node; nothing is cut")
			}
			if nf.Factor != 0 {
				return fail("partition factor %g must be zero; a partition is a total cut", nf.Factor)
			}
		default:
			return fail("unknown fault kind %q", nf.Kind)
		}
		if nf.Start < 0 {
			return fail("negative start time %g", float64(nf.Start))
		}
		if nf.End <= nf.Start {
			return fail("window [%g,%g) is empty or inverted", float64(nf.Start), float64(nf.End))
		}
		if nf.Factor != nf.Factor || nf.Factor < 0 || nf.Factor >= 1 {
			return fail("factor %g outside [0, 1)", nf.Factor)
		}
		tgt := nf.target()
		for _, w := range byTarget[tgt] {
			if nf.Start < w.end && w.start < nf.End {
				return fail("window overlaps fault %d on the same target (%s)", w.index, tgt)
			}
		}
		byTarget[tgt] = append(byTarget[tgt], window{index: i, start: nf.Start, end: nf.End})
	}
	return nil
}

// Sorted returns the faults ordered by start time; faults starting at
// equal times keep their plan order, so replaying is deterministic.
func (p *NetworkPlan) Sorted() []NetFault {
	if p == nil {
		return nil
	}
	out := append([]NetFault(nil), p.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// NextTransition returns the earliest fault-window boundary (a start
// or an end) strictly after t, and whether one exists. Degraded-mode
// callers block until the next transition: the overlay is constant in
// between, so nothing can change earlier.
func (p *NetworkPlan) NextTransition(t simtime.Time) (simtime.Time, bool) {
	if p == nil {
		return 0, false
	}
	var next simtime.Time
	found := false
	consider := func(b simtime.Time) {
		if b > t && (!found || b < next) {
			next, found = b, true
		}
	}
	for _, nf := range p.Faults {
		consider(nf.Start)
		consider(nf.End)
	}
	return next, found
}

// ActiveAt returns the faults whose windows cover time t, in plan
// order.
func (p *NetworkPlan) ActiveAt(t simtime.Time) []NetFault {
	if p == nil {
		return nil
	}
	var out []NetFault
	for _, nf := range p.Faults {
		if nf.activeAt(t) {
			out = append(out, nf)
		}
	}
	return out
}

// TransferErrorKind classifies a failed transfer attempt.
type TransferErrorKind string

const (
	// TransferTimeout: the transfer would have outlived the caller's
	// deadline. Produced by the engine, which knows the deadline.
	TransferTimeout TransferErrorKind = "timeout"
	// TransferUnreachable: an active outage or partition severs the
	// path, so no deadline would help. Produced by the fabric.
	TransferUnreachable TransferErrorKind = "unreachable"
	// TransferCorrupt: every attempt inside the corruption retry budget
	// arrived with a bad checksum. Produced by the engine, which owns
	// checksum verification (see the corrupt package).
	TransferCorrupt TransferErrorKind = "corrupt"
)

// TransferError is the typed failure a degraded transfer returns. Src
// and Dst identify the first offending flow; At is the attempt time.
type TransferError struct {
	Kind     TransferErrorKind
	Src, Dst int
	At       simtime.Time
}

func (e *TransferError) Error() string {
	return fmt.Sprintf("simnet: transfer %d->%d %s at t=%g", e.Src, e.Dst, e.Kind, float64(e.At))
}

// overlay is the capacity picture at one instant: per-resource
// multipliers (absent means 1) and active partition cuts.
type overlay struct {
	node map[int]float64
	rack map[int]float64
	core float64
	cuts []map[int]bool
}

// identityOverlay is the unfaulted picture: every factor is 1 and
// nothing is cut.
var identityOverlay = overlay{core: 1}

// overlayAt builds the overlay active at time t: the identity when no
// plan is registered or no fault window covers t.
func (f *Fabric) overlayAt(t simtime.Time) overlay {
	ov := identityOverlay
	if f.netplan == nil {
		return ov
	}
	for _, nf := range f.netplan.Faults {
		if !nf.activeAt(t) {
			continue
		}
		switch nf.Kind {
		case FaultNodeLink:
			if ov.node == nil {
				ov.node = map[int]float64{}
			}
			ov.node[nf.Node] = nf.Factor
		case FaultRackUplink:
			if ov.rack == nil {
				ov.rack = map[int]float64{}
			}
			ov.rack[nf.Rack] = nf.Factor
		case FaultCore:
			ov.core = nf.Factor
		case FaultPartition:
			side := make(map[int]bool, len(nf.Nodes))
			for _, n := range nf.Nodes {
				side[n] = true
			}
			ov.cuts = append(ov.cuts, side)
		}
	}
	return ov
}

// nodeFactor returns the capacity multiplier for node n's NIC.
func (ov *overlay) nodeFactor(n int) float64 {
	if len(ov.node) != 0 {
		if v, ok := ov.node[n]; ok {
			return v
		}
	}
	return 1
}

// rackFactor returns the capacity multiplier for rack r's uplink.
func (ov *overlay) rackFactor(r int) float64 {
	if len(ov.rack) != 0 {
		if v, ok := ov.rack[r]; ok {
			return v
		}
	}
	return 1
}

// severs reports whether the overlay makes src->dst unreachable: an
// endpoint NIC is out, a traversed rack uplink or the core is out for
// a cross-rack path, or a partition cut separates the endpoints.
func (ov *overlay) severs(src, dst, srcRack, dstRack int) bool {
	if ov.nodeFactor(src) == 0 || ov.nodeFactor(dst) == 0 {
		return true
	}
	if srcRack != dstRack {
		if ov.rackFactor(srcRack) == 0 || ov.rackFactor(dstRack) == 0 || ov.core == 0 {
			return true
		}
	}
	for _, side := range ov.cuts {
		if side[src] != side[dst] {
			return true
		}
	}
	return false
}

// SetNetworkPlan registers a network fault script on the fabric. Pass
// nil to clear. It panics on an invalid plan; use NetworkPlan.Validate
// for the typed error.
func (f *Fabric) SetNetworkPlan(p *NetworkPlan) {
	if err := p.Validate(f.cfg); err != nil {
		panic(err)
	}
	f.netplan = p
}

// NetworkPlan returns the registered network fault script (nil when
// none).
func (f *Fabric) NetworkPlan() *NetworkPlan { return f.netplan }

// ReachableAt reports whether a transfer src->dst can make progress at
// time t under the registered network plan. Src == dst is always
// reachable (in-memory hand-off).
func (f *Fabric) ReachableAt(src, dst int, t simtime.Time) bool {
	if src == dst {
		return true
	}
	ov := f.overlayAt(t)
	return !ov.severs(src, dst, f.Rack(src), f.Rack(dst))
}

// UnreachableFrom returns the set of nodes that cannot be reached from
// node `from` at time t under the registered network plan. The result
// is nil when everything is reachable.
func (f *Fabric) UnreachableFrom(from int, t simtime.Time) map[int]bool {
	ov := f.overlayAt(t)
	fr := f.Rack(from)
	var cut map[int]bool
	for n := 0; n < f.cfg.Nodes; n++ {
		if n != from && ov.severs(from, n, fr, f.Rack(n)) {
			if cut == nil {
				cut = map[int]bool{}
			}
			cut[n] = true
		}
	}
	return cut
}

// TransferTimeAt computes, without recording any traffic, how long the
// given concurrent flows take when started at time t: price under the
// overlay the registered network plan has active at t. An idle or
// absent plan yields the identity overlay, so the result is
// float-identical to TransferTime by construction. If an active outage
// or partition severs any flow's path it returns a typed
// *TransferError (unreachable) naming the first offending flow;
// brownouts stretch the time instead. Faults are evaluated
// piecewise-constant at t: a window opening or closing mid-transfer
// does not re-price it.
func (f *Fabric) TransferTimeAt(flows []Flow, t simtime.Time) (simtime.Duration, error) {
	ov := f.overlayAt(t)
	return f.price(flows, &ov, t)
}
