package core

import (
	"sort"

	"repro/internal/simcluster"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// faultClass orders fault events that share an instant. The constants'
// order is the tie order: a node crash or recovery applies before a
// network-fault onset, which applies before a corruption event — so the
// same scripts replay identically no matter which plan the driver
// registered first.
type faultClass int

const (
	classNode faultClass = iota
	classNet
	classCorrupt
)

// faultEvent is one scripted onset on the merged timeline.
type faultEvent struct {
	at    simtime.Time
	class faultClass
	apply func(rt *Runtime)
}

// faultTimeline replays a cluster's FailurePlan, NetworkPlan and
// corrupt.Plan against the runtime clock as one list ordered by (time,
// class, plan order) with one cursor. It is shared by a root runtime
// and all its forks (like the DFS and fabric), so every event is
// applied exactly once — by whichever runtime's clock first passes it —
// no matter which sub-runtime is executing when it strikes. Only
// onsets are events: network windows close and bit-error windows open
// and close without side effects, because transfers price and verify
// themselves from the plans at their own start time.
type faultTimeline struct {
	events []faultEvent
	next   int
	// dead is the set of nodes crashed and not yet recovered, as of the
	// last applied event.
	dead map[int]bool
}

func newFaultTimeline(cluster *simcluster.Cluster) *faultTimeline {
	tl := &faultTimeline{dead: map[int]bool{}}
	for _, ev := range cluster.FailurePlan().Sorted() {
		ev := ev
		tl.events = append(tl.events, faultEvent{ev.Time, classNode, func(rt *Runtime) { rt.applyNodeEvent(ev) }})
	}
	for _, nf := range cluster.NetworkPlan().Sorted() {
		nf := nf
		tl.events = append(tl.events, faultEvent{nf.Start, classNet, func(rt *Runtime) { rt.applyNetFault(nf) }})
	}
	for _, ev := range cluster.CorruptionPlan().Sorted() {
		ev := ev
		tl.events = append(tl.events, faultEvent{ev.Time(), classCorrupt, func(rt *Runtime) { rt.applyCorruptEvent(ev) }})
	}
	// Stable, so events of one class at one instant keep their plan order.
	sort.SliceStable(tl.events, func(i, j int) bool {
		a, b := tl.events[i], tl.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.class < b.class
	})
	return tl
}

// syncFaults applies every fault event the clock has passed, in
// timeline order. Runtimes call it after every clock advance. After
// the drain, any detection/repair activity the DFS integrity layer
// accumulated (from verified reads anywhere) is folded into the trace
// and counters.
func (rt *Runtime) syncFaults() {
	tl := rt.faults
	for tl.next < len(tl.events) && tl.events[tl.next].at <= rt.now() {
		ev := tl.events[tl.next]
		tl.next++
		ev.apply(rt)
	}
	rt.drainIntegrity(rt.now())
}

// blockUntil advances the clock to next — a fault plan's next window
// boundary — and reports the wait, recording it as a blocked transfer
// span named after why. The IC stepper uses it to stall out an
// iteration whose transfer was severed or exhausted its checksum
// re-send budget — the conventional driver's only recourse, per the
// paper's turbulence argument: the plans are piecewise-constant, so
// nothing can change before the boundary.
func (rt *Runtime) blockUntil(next simtime.Time, why string) simtime.Duration {
	start := rt.now()
	wait := simtime.Duration(next - start)
	rt.AdvanceTime(wait)
	rt.tracer.Record(trace.Event{
		Kind: trace.KindTransfer, Name: "blocked: waiting out " + why,
		Start: start, End: rt.now(), Lane: rt.lane, Parent: rt.span,
	})
	return wait
}
