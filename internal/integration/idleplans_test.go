package integration

import (
	"bytes"
	"testing"

	"repro/internal/apps/pagerank"
	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/webgraph"
)

// TestIdlePlansAreNoOps pins the one-path contract end to end: calm
// and chaos runs execute the same code, so registering a FailurePlan, a
// NetworkPlan and a corrupt.Plan whose every event and window lies
// after the run's end must leave nothing observable changed — result
// model, mapred.Metrics, fabric counters, DFS counters and the encoded
// trace are byte-identical to the plan-less run, on both backends, for
// IC and PIC.
func TestIdlePlansAreNoOps(t *testing.T) {
	const never = 1e8
	idleFail := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 5, Time: never}, {Node: 5, Time: never + 1, Recover: true},
	}}
	idleNet := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultCore, Start: never, End: never + 1, Factor: 0.1},
		{Kind: simnet.FaultNodeLink, Node: 1, Start: never, End: never + 1},
		{Kind: simnet.FaultPartition, Nodes: []int{0, 1, 2}, Start: never + 2, End: never + 3},
	}}
	idleCorrupt := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: never, End: never + 1, Rate: 1, Seed: 1},
		{Kind: corrupt.KindBlockReplica, File: "models/pagerank/0", Block: 0, Node: corrupt.PrimaryReplica, At: never, Seed: 2},
		{Kind: corrupt.KindCheckpoint, Model: "pagerank", At: never, Seed: 3},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: never},
	}}

	type observed struct {
		model   []byte
		metrics mapred.Metrics
		net     simnet.Counters
		fs      dfs.Counters
		trace   []byte
	}
	run := func(t *testing.T, backend core.Backend, pic, planned bool) observed {
		t.Helper()
		g := webgraph.NearlyUncoupled(21, 400, 4, 0.1, 3)
		c := simcluster.New(simcluster.Small())
		if planned {
			c.SetFailurePlan(idleFail)
			c.SetNetworkPlan(idleNet)
			c.SetCorruptionPlan(idleCorrupt)
		}
		rt := core.NewRuntime(c, dfs.Config{Replication: 3, BlockSize: 64 << 20})
		if err := rt.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		rt.SetTracer(tr)
		app := pagerank.New(g, 0.85, 1e-10, 4)
		in := mapred.NewInput(pagerank.Records(g), c, c.MapSlots())
		var final []byte
		if pic {
			res, err := core.RunPIC(rt, app, in, pagerank.InitialModel(g), core.PICOptions{
				Partitions: 4, MaxBEIterations: 3, MaxLocalIterations: 5, MaxTopOffIterations: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			final = res.Model.Encode(nil)
		} else {
			res, err := core.RunIC(rt, app, in, pagerank.InitialModel(g), &core.ICOptions{MaxIterations: 6})
			if err != nil {
				t.Fatal(err)
			}
			final = res.Model.Encode(nil)
		}
		if rt.Elapsed() >= never {
			t.Fatalf("run lasted %v simulated s; the idle plans are not idle", rt.Elapsed())
		}
		var chrome bytes.Buffer
		if err := tr.ChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		return observed{final, rt.Metrics(), c.Fabric().Counters(), rt.FS().Counters(), chrome.Bytes()}
	}

	for _, backend := range []core.Backend{core.BackendMapred, core.BackendBSP} {
		for _, scheme := range []struct {
			name string
			pic  bool
		}{{"ic", false}, {"pic", true}} {
			t.Run(string(backend)+"/"+scheme.name, func(t *testing.T) {
				bare := run(t, backend, scheme.pic, false)
				idle := run(t, backend, scheme.pic, true)
				if !bytes.Equal(bare.model, idle.model) {
					t.Error("idle plans changed the result model")
				}
				if bare.metrics != idle.metrics {
					t.Errorf("idle plans changed mapred.Metrics:\n%+v\n%+v", bare.metrics, idle.metrics)
				}
				if bare.net != idle.net {
					t.Errorf("idle plans changed simnet.Counters: %+v vs %+v", bare.net, idle.net)
				}
				if bare.fs != idle.fs {
					t.Errorf("idle plans changed dfs.Counters: %+v vs %+v", bare.fs, idle.fs)
				}
				if !bytes.Equal(bare.trace, idle.trace) {
					t.Errorf("idle plans changed the encoded trace (%d vs %d bytes)", len(bare.trace), len(idle.trace))
				}
				if len(bare.trace) == 0 || bare.net.Total == 0 {
					t.Fatal("the run traced or moved nothing; the comparison is vacuous")
				}
			})
		}
	}
}
