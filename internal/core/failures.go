package core

import (
	"fmt"
	"sort"

	"repro/internal/simcluster"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// applyNodeEvent applies one failure event: a crash destroys the node's
// DFS replicas and triggers a re-replication pass (charged as traffic,
// in metrics and on the trace; the copies run in the background, so the
// driver clock does not block on them), and a recovery returns the node
// to service with empty disks. Crashing a dead node or recovering a
// live one is a no-op.
func (rt *Runtime) applyNodeEvent(ev simcluster.NodeEvent) {
	dead := rt.faults.dead
	if ev.Recover {
		if !dead[ev.Node] {
			return
		}
		delete(dead, ev.Node)
		rt.fs.MarkAlive(ev.Node)
		rt.tracer.Record(trace.Event{
			Kind: trace.KindNodeRecover, Name: fmt.Sprintf("node %d", ev.Node),
			Start: ev.Time, End: ev.Time, Lane: rt.lane,
		})
		// A returning node may let blocks stuck below full
		// replication (too few live nodes) top back up.
		rt.repairDFS(ev.Time)
		return
	}
	if dead[ev.Node] {
		return
	}
	dead[ev.Node] = true
	rt.metrics.NodeCrashes++
	rt.fs.MarkDead(ev.Node)
	rt.tracer.Record(trace.Event{
		Kind: trace.KindNodeCrash, Name: fmt.Sprintf("node %d", ev.Node),
		Start: ev.Time, End: ev.Time, Lane: rt.lane,
	})
	// A crash takes the node's persistent worker — and its invariant-
	// input cache — with it. Splits re-homed onto surviving replicas
	// re-stage cold there on the next iteration.
	if rt.family != nil {
		rt.family.EvictNode(ev.Node)
		rt.observeCache(ev.Time)
	}
	rt.repairDFS(ev.Time)
}

// repairDFS runs one DFS re-replication pass and records its traffic.
func (rt *Runtime) repairDFS(at simtime.Time) {
	report, d := rt.fs.Repair()
	if report.ReplicatedBytes == 0 {
		return
	}
	rt.metrics.ReReplicationBytes += report.ReplicatedBytes
	rt.tracer.Record(trace.Event{
		Kind: trace.KindReReplication, Name: fmt.Sprintf("%d blocks", report.ReplicatedBlocks),
		Start: at, End: at + d, Bytes: report.ReplicatedBytes, Lane: rt.lane,
	})
}

// DeadNodes returns the nodes currently dead on the runtime's clock, in
// sorted order (nil when none).
func (rt *Runtime) DeadNodes() []int {
	return newlyDead(rt, nil)
}

// deadSnapshot copies the current dead set (nil when empty).
func (rt *Runtime) deadSnapshot() map[int]bool {
	if len(rt.faults.dead) == 0 {
		return nil
	}
	out := make(map[int]bool, len(rt.faults.dead))
	for n := range rt.faults.dead {
		out[n] = true
	}
	return out
}

// newlyDead lists the nodes dead now that were not dead in before, in
// sorted order.
func newlyDead(rt *Runtime, before map[int]bool) []int {
	var out []int
	for n := range rt.faults.dead {
		if !before[n] {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// viewTouches reports whether any of the given nodes belongs to view.
func viewTouches(view *simcluster.Cluster, nodes []int) bool {
	for _, n := range nodes {
		if view.Contains(n) {
			return true
		}
	}
	return false
}

// liveView restricts a cluster view to its currently-live nodes,
// returning the view unchanged when nothing in it is dead and nil when
// nothing in it is alive.
func (rt *Runtime) liveView(view *simcluster.Cluster) *simcluster.Cluster {
	dead := rt.faults.dead
	if len(dead) == 0 {
		return view
	}
	live := make([]int, 0, view.Size())
	for _, n := range view.Nodes() {
		if !dead[n] {
			live = append(live, n)
		}
	}
	switch {
	case len(live) == 0:
		return nil
	case len(live) == view.Size():
		return view
	}
	return view.Subset(live)
}

// LiveModelHome returns the engine's model-home node, re-homing it to
// the first live node of the view when the configured home has crashed
// (HDFS would have re-replicated the model file's blocks off the dead
// primary already).
func (rt *Runtime) LiveModelHome() int {
	home := rt.engine.ModelHome
	dead := rt.faults.dead
	if !dead[home] {
		return home
	}
	for _, n := range rt.Cluster().Nodes() {
		if !dead[n] {
			rt.engine.ModelHome = n
			return n
		}
	}
	panic("core: no live nodes remain in the runtime's view")
}
