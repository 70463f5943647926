package integration

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webgraph"
)

// bspChaosRun is one full run on the BSP backend: model bytes, runtime
// metrics and the rendered trace — everything the determinism contract
// covers.
type bspChaosRun struct {
	model   []byte
	metrics mapred.Metrics
	trace   string
	elapsed simtime.Duration
}

// bspCluster builds the 6-node Small-preset cluster with optional
// crash and network chaos registered before the runtime snapshots it.
func bspCluster(fail *simcluster.FailurePlan, net *simnet.NetworkPlan) *simcluster.Cluster {
	c := simcluster.New(simcluster.Small())
	if fail != nil {
		c.SetFailurePlan(fail)
	}
	if net != nil {
		c.SetNetworkPlan(net)
	}
	return c
}

// runPageRankBSP runs the native PageRank vertex program (IC or PIC)
// on the BSP backend under the given chaos plans.
func runPageRankBSP(t *testing.T, pic bool, workers int, fail *simcluster.FailurePlan, net *simnet.NetworkPlan) bspChaosRun {
	t.Helper()
	g := webgraph.NearlyUncoupled(21, 400, 4, 0.1, 3)
	c := bspCluster(fail, net)
	rt := core.NewRuntime(c, dfs.Config{Replication: 3, BlockSize: 64 << 20})
	rt.Engine().Workers = workers
	if err := rt.SetBackend(core.BackendBSP); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	rt.SetTracer(tr)
	rt.SetObservability(metrics.New())
	app := pagerank.New(g, 0.85, 1e-10, 4)
	in := mapred.NewInput(pagerank.Records(g), c, c.MapSlots())
	var (
		m   *core.ICResult
		p   *core.PICResult
		err error
	)
	if pic {
		p, err = core.RunPIC(rt, app, in, pagerank.InitialModel(g), core.PICOptions{
			Partitions:          4,
			MaxBEIterations:     3,
			MaxLocalIterations:  5,
			MaxTopOffIterations: 3,
		})
	} else {
		m, err = core.RunIC(rt, app, in, pagerank.InitialModel(g), &core.ICOptions{MaxIterations: 6})
	}
	if err != nil {
		t.Fatal(err)
	}
	run := bspChaosRun{trace: tr.Render(), metrics: rt.Metrics(), elapsed: rt.Elapsed()}
	if pic {
		run.model = p.Model.Encode(nil)
	} else {
		run.model = m.Model.Encode(nil)
	}
	return run
}

// chaosPlans derives a combined crash + network chaos script from a
// clean run's elapsed time, so every fault provably lands inside the
// run window: node 5 crashes a third of the way in and recovers, node 2
// browns out for most of the run, and a short hard outage severs node
// 1's link (the typed-transfer-error path the driver waits out).
func chaosPlans(d simtime.Duration) (*simcluster.FailurePlan, *simnet.NetworkPlan) {
	t := simtime.Time(0)
	fail := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 5, Time: t + simtime.Time(0.3*float64(d))},
		{Node: 5, Time: t + simtime.Time(0.7*float64(d)), Recover: true},
	}}
	net := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultNodeLink, Node: 2, Factor: 0.4,
			Start: simtime.Time(0.1 * float64(d)), End: simtime.Time(0.9 * float64(d))},
		{Kind: simnet.FaultNodeLink, Node: 1, Factor: 0,
			Start: simtime.Time(0.45 * float64(d)), End: simtime.Time(0.5 * float64(d))},
	}}
	return fail, net
}

func TestBSPPageRankDeterministicUnderCombinedChaos(t *testing.T) {
	for _, scheme := range []struct {
		name string
		pic  bool
	}{{"ic", false}, {"pic", true}} {
		t.Run(scheme.name, func(t *testing.T) {
			clean := runPageRankBSP(t, scheme.pic, 1, nil, nil)
			fail, net := chaosPlans(clean.elapsed)
			base := runPageRankBSP(t, scheme.pic, 1, fail, net)
			if base.elapsed <= clean.elapsed {
				t.Fatalf("chaos run (%v) not slower than clean run (%v) — chaos never engaged",
					base.elapsed, clean.elapsed)
			}
			// Chaos vs clean is rounding-equal, not byte-equal: crash
			// re-homing regroups the sender-side float-sum combiner, so
			// inbound scores sum in a different order. Byte identity is
			// the contract across workers and repeats under the same
			// plans, checked below.
			if len(base.model) != len(clean.model) {
				t.Fatal("chaos changed the model shape, not just its cost")
			}
			for name, workers := range map[string]int{"workers=8": 8, "repeat": 1, "workers=3": 3} {
				got := runPageRankBSP(t, scheme.pic, workers, fail, net)
				if !bytes.Equal(got.model, base.model) {
					t.Errorf("%s: model bytes diverge under chaos", name)
				}
				if got.trace != base.trace {
					t.Errorf("%s: trace diverges under chaos", name)
				}
				if !reflect.DeepEqual(got.metrics, base.metrics) {
					t.Errorf("%s: metrics diverge under chaos:\n got %+v\nwant %+v",
						name, got.metrics, base.metrics)
				}
			}
		})
	}
}

// runSmoothing runs the smoothing IC loop on the given backend: the
// native vertex program on BSP, the map-only sweep job on mapred.
func runSmoothing(t *testing.T, backend core.Backend, workers int, fail *simcluster.FailurePlan, net *simnet.NetworkPlan) bspChaosRun {
	t.Helper()
	img := data.NoisyImage(31, 64, 48, 15)
	c := bspCluster(fail, net)
	rt := core.NewRuntime(c, dfs.Config{Replication: 3, BlockSize: 64 << 20})
	rt.Engine().Workers = workers
	if err := rt.SetBackend(backend); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	rt.SetTracer(tr)
	app := smoothing.New(64, 48, 0.5, 1e-6)
	in := mapred.NewInput(smoothing.Records(img), c, c.MapSlots())
	res, err := core.RunIC(rt, app, in, smoothing.InitialModel(img), &core.ICOptions{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	return bspChaosRun{
		model:   res.Model.Encode(nil),
		metrics: rt.Metrics(),
		trace:   tr.Render(),
		elapsed: rt.Elapsed(),
	}
}

// TestSmoothingDeterministicUnderCombinedChaos: every row of a sweep is
// computed from the previous iterate alone, so on either backend crash,
// brownout and outage move the cost and never the image — the chaos
// model equals the calm one byte for byte, including the sweep output
// slab rows that re-homed map tasks write — and the run is byte-identical
// across worker counts and repeats.
func TestSmoothingDeterministicUnderCombinedChaos(t *testing.T) {
	for _, backend := range []core.Backend{core.BackendMapred, core.BackendBSP} {
		t.Run(string(backend), func(t *testing.T) {
			clean := runSmoothing(t, backend, 1, nil, nil)
			fail, net := chaosPlans(clean.elapsed)
			base := runSmoothing(t, backend, 1, fail, net)
			if base.elapsed <= clean.elapsed {
				t.Fatalf("chaos run (%v) not slower than clean run (%v) — chaos never engaged",
					base.elapsed, clean.elapsed)
			}
			if !bytes.Equal(base.model, clean.model) {
				t.Fatal("chaos changed the smoothed image, not just its cost")
			}
			for name, workers := range map[string]int{"workers=8": 8, "repeat": 1, "workers=3": 3} {
				got := runSmoothing(t, backend, workers, fail, net)
				if !bytes.Equal(got.model, base.model) {
					t.Errorf("%s: model bytes diverge under chaos", name)
				}
				if got.trace != base.trace {
					t.Errorf("%s: trace diverges under chaos", name)
				}
				if !reflect.DeepEqual(got.metrics, base.metrics) {
					t.Errorf("%s: metrics diverge under chaos:\n got %+v\nwant %+v", name, got.metrics, base.metrics)
				}
			}
		})
	}
}

// TestAblationBackendSmoke runs the shrunken IC/PIC × mapred/BSP grid
// end to end — the abl-backend cell of the CI backend-smoke job.
func TestAblationBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("abl-backend smoke is not a -short test")
	}
	old := bench.Scale()
	bench.SetScale(0.1)
	defer bench.SetScale(old)
	res, err := bench.AblationBackend()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() {
		t.Fatal("abl-backend: BSP cells not identical across workers/repeats")
	}
	if len(res.Cells) != 8 {
		t.Fatalf("abl-backend: %d cells, want 8", len(res.Cells))
	}
}
