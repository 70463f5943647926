package core

import (
	"fmt"
	"sort"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// applyNetFault applies one fault window's onset: the net-fault trace
// span (recorded with the window's full extent), the net.faults
// counter, and — for a partition — a re-replication pass on the model
// home's side of the cut, so reads there keep a full complement of
// reachable replicas (the far side heals on its own when the window
// closes; any replicas it holds are retained, not forgotten).
func (rt *Runtime) applyNetFault(nf simnet.NetFault) {
	rt.tracer.Record(trace.Event{
		Kind: trace.KindNetFault, Name: nf.Describe(),
		Start: nf.Start, End: nf.End, Lane: rt.lane,
	})
	if rt.obs != nil {
		rt.obs.Counter("net.faults").Add(1)
	}
	if nf.Kind != simnet.FaultPartition {
		return
	}
	report, d := rt.fs.RepairReachable(rt.LiveModelHome(), nf.Start)
	if rt.obs != nil && report.UnreachableBlocks > 0 {
		rt.obs.Counter("net.unreachable_blocks").Add(float64(report.UnreachableBlocks))
	}
	if report.ReplicatedBytes == 0 {
		return
	}
	rt.metrics.ReReplicationBytes += report.ReplicatedBytes
	rt.tracer.Record(trace.Event{
		Kind: trace.KindReReplication, Name: fmt.Sprintf("%d blocks (around partition)", report.ReplicatedBlocks),
		Start: nf.Start, End: nf.Start + d, Bytes: report.ReplicatedBytes, Lane: rt.lane,
	})
}

// UnreachableNodes returns the view nodes with no fabric path from the
// model home at the runtime's current time, in sorted order (nil when
// no plan is registered or nothing is cut off).
func (rt *Runtime) UnreachableNodes() []int {
	fabric := rt.Cluster().Fabric()
	if fabric.NetworkPlan() == nil {
		return nil
	}
	cut := fabric.UnreachableFrom(rt.LiveModelHome(), rt.now())
	if len(cut) == 0 {
		return nil
	}
	var out []int
	for _, n := range rt.Cluster().Nodes() {
		if cut[n] {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}
