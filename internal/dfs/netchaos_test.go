package dfs

import (
	"errors"
	"testing"

	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// netFS builds the standard 8-node FS with a network plan registered on
// the cluster fabric before any reads run.
func netFS(plan *simnet.NetworkPlan, cfg Config) (*FS, *simcluster.Cluster) {
	c := testCluster()
	c.SetNetworkPlan(plan)
	return New(c, cfg), c
}

// TestReadAtMatchesReadOutsideWindows is the dfs half of the zero-fault
// no-op guarantee: a file system whose network plan is idle at the read
// time is indistinguishable from one with no plan at all — both reads,
// time-aware and plan-blind, pick the same replicas and charge the same
// duration, FS counters and fabric counters on either.
func TestReadAtMatchesReadOutsideWindows(t *testing.T) {
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultCore, Start: 50, End: 60},
	}}
	planned, pc := netFS(plan, Config{Replication: 3, BlockSize: 1000})
	clean, cc := netFS(nil, Config{Replication: 3, BlockSize: 1000})
	pf, _ := planned.Create("f", 2500, 0)
	cf, _ := clean.Create("f", 2500, 0)

	_, want, err := clean.ReadDataChecked(cf, 1)
	if err != nil || want <= 0 {
		t.Fatalf("plan-less read = %v, %v", want, err)
	}
	// Both sides charge the same two reads, so their counters must end
	// equal too.
	reads := []struct {
		name string
		read func() ([]byte, simtime.Duration, error)
	}{
		{"no plan, ReadDataCheckedAt", func() ([]byte, simtime.Duration, error) { return clean.ReadDataCheckedAt(cf, 1, 0) }},
		{"idle plan, ReadDataChecked", func() ([]byte, simtime.Duration, error) { return planned.ReadDataChecked(pf, 1) }},
		{"idle plan, ReadDataCheckedAt", func() ([]byte, simtime.Duration, error) { return planned.ReadDataCheckedAt(pf, 1, 0) }},
	}
	for _, r := range reads {
		if _, got, err := r.read(); err != nil || got != want {
			t.Fatalf("%s = %v, %v; want the plan-less %v", r.name, got, err, want)
		}
	}
	if planned.Counters() != clean.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", planned.Counters(), clean.Counters())
	}
	if pc.Fabric().Counters() != cc.Fabric().Counters() {
		t.Fatalf("fabric counters diverged: %+v vs %+v", pc.Fabric().Counters(), cc.Fabric().Counters())
	}
}

// TestReadAtFailsOverAcrossReplicas isolates the reader's intra-rack
// replica: the read must succeed anyway by falling back to a cross-rack
// copy, and return to the cheap path once the window closes.
func TestReadAtFailsOverAcrossReplicas(t *testing.T) {
	// Writer 0 places replicas {0, x, y} with x and y in rack 1, so for
	// reader 1 the cheapest copy is node 0 next door.
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultNodeLink, Node: 0, Start: 0, End: 10},
	}}
	fs, c := netFS(plan, Config{Replication: 3, BlockSize: 1000})
	f, _ := fs.Create("f", 1000, 0)

	before := c.Fabric().Counters()
	if _, _, err := fs.ReadDataCheckedAt(f, 1, 5); err != nil {
		t.Fatalf("read with a cross-rack replica in reach failed: %v", err)
	}
	during := c.Fabric().Counters()
	if got := during.CrossRack - before.CrossRack; got != 1000 {
		t.Fatalf("failover moved %d cross-rack bytes, want 1000", got)
	}

	// After the window the intra-rack replica serves again.
	if _, _, err := fs.ReadDataCheckedAt(f, 1, 10); err != nil {
		t.Fatal(err)
	}
	after := c.Fabric().Counters()
	if got := after.CrossRack - during.CrossRack; got != 0 {
		t.Fatalf("healed read still crossed the core (%d bytes)", got)
	}
	if got := after.IntraRack - during.IntraRack; got != 1000 {
		t.Fatalf("healed read moved %d intra-rack bytes, want 1000", got)
	}
}

// TestReadAtAllReplicasSevered partitions the reader away from every
// replica holder: the read fails with the typed transfer error and
// charges nothing.
func TestReadAtAllReplicasSevered(t *testing.T) {
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultPartition, Nodes: []int{1}, Start: 0, End: 10},
	}}
	fs, c := netFS(plan, Config{Replication: 3, BlockSize: 1000})
	f, _ := fs.Create("f", 2000, 0) // replicas on 0 and rack 1; reader 1 holds none

	before, netBefore := fs.Counters(), c.Fabric().Counters()
	_, _, err := fs.ReadDataCheckedAt(f, 1, 5)
	var te *simnet.TransferError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *simnet.TransferError", err)
	}
	if te.Kind != simnet.TransferUnreachable || te.Dst != 1 || te.At != 5 {
		t.Fatalf("TransferError = %+v", te)
	}
	if fs.Counters() != before || c.Fabric().Counters() != netBefore {
		t.Fatal("failed read charged traffic")
	}

	// A replica holder still reads its own copy locally through the cut.
	holder := f.Blocks[0].Replicas[0]
	if _, _, err := fs.ReadDataCheckedAt(f, holder, 5); err != nil {
		t.Fatalf("local read on a holder failed under the partition: %v", err)
	}
}

// TestRepairReachableAroundPartition bisects the cluster along racks:
// the near side re-replicates the blocks it can still reach, skips the
// ones it cannot, and the post-heal Repair leaves the extra copies
// alone.
func TestRepairReachableAroundPartition(t *testing.T) {
	// Replication 1 keeps each block on its writer, so the rack-1 file
	// is wholly out of reach from rack 0's side of the bisection.
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultPartition, Nodes: []int{4, 5, 6, 7}, Start: 0, End: 100},
	}}
	fs, _ := netFS(plan, Config{Replication: 1, BlockSize: 1000})
	fs.Create("near", 2000, 0)
	fs.Create("far", 1000, 4)

	// Replication 1 is already satisfied; nothing to copy, nothing lost,
	// but the far file's block is visibly out of reach.
	rep, d := fs.RepairReachable(0, 5)
	if rep.ReplicatedBlocks != 0 || rep.LostBlocks != 0 {
		t.Fatalf("replication-1 repair copied blocks: %+v", rep)
	}
	if rep.UnreachableBlocks != 1 {
		t.Fatalf("UnreachableBlocks = %d, want 1 (the far file)", rep.UnreachableBlocks)
	}
	if d != 0 {
		t.Fatalf("no-copy repair took %v", d)
	}
}

// TestRepairReachableRestoresReplication cuts the rack holding two of a
// block's three replicas: the reachable side copies the block back up
// to full replication from the surviving replica, charging the copies
// to ReReplication, and the post-heal Repair has nothing left to do.
func TestRepairReachableRestoresReplication(t *testing.T) {
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultRackUplink, Rack: 1, Start: 0, End: 100},
	}}
	fs, _ := netFS(plan, Config{Replication: 3, BlockSize: 1000})
	// Writer 0: replicas {0, x, y} with x and y in rack 1 — the cut
	// leaves one reachable copy of each block on node 0.
	f, _ := fs.Create("f", 2000, 0)

	rep, d := fs.RepairReachable(0, 5)
	if rep.ReplicatedBlocks != 4 || rep.ReplicatedBytes != 4000 {
		t.Fatalf("repair = %+v, want 2 new copies for each of 2 blocks", rep)
	}
	if rep.UnreachableBlocks != 0 || rep.LostBlocks != 0 {
		t.Fatalf("repair = %+v, want no skipped or lost blocks", rep)
	}
	if fs.Counters().ReReplication != 4000 {
		t.Fatalf("ReReplication = %d, want 4000", fs.Counters().ReReplication)
	}
	if d <= 0 {
		t.Fatal("copy burst took no time")
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 5 {
			t.Fatalf("block holds %d replicas, want 5 (3 original + 2 repairs)", len(b.Replicas))
		}
		for _, r := range b.Replicas[3:] {
			if r >= 4 {
				t.Fatalf("repair copied to far-side node %d", r)
			}
		}
	}

	// Once the fault heals the blocks are over-replicated, which Repair
	// tolerates without copying more.
	rep2, _ := fs.Repair()
	if rep2.ReplicatedBlocks != 0 {
		t.Fatalf("post-heal repair copied %d blocks over full replication", rep2.ReplicatedBlocks)
	}
}

// TestRepairReachablePricedUnderBrownout overlaps the repair with a
// core brownout: the copy burst is intra-rack only (targets are picked
// on the reachable side), so its duration must match the un-browned
// fabric exactly — the overlay prices, it does not re-route.
func TestRepairReachablePricedUnderBrownout(t *testing.T) {
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultRackUplink, Rack: 1, Start: 0, End: 100},
		{Kind: simnet.FaultCore, Start: 100, End: 200, Factor: 0.5},
	}}
	fs, _ := netFS(plan, Config{Replication: 3, BlockSize: 1000})
	fs.Create("f", 1000, 0)

	_, during := fs.RepairReachable(0, 5)

	fs2, _ := netFS(nil, Config{Replication: 3, BlockSize: 1000})
	fs2.Create("f", 1000, 0)
	fs2.MarkDead(4)
	fs2.MarkDead(5)
	fs2.MarkDead(6)
	fs2.MarkDead(7)
	_, clean := fs2.Repair()
	if during != clean {
		t.Fatalf("reachable repair priced at %v, plain repair at %v", during, clean)
	}
}
