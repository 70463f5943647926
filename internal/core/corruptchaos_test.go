package core

import (
	"reflect"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// corruptChaosRuntime builds the standard 4-node test runtime with a
// corruption plan (and optionally network and failure plans) registered
// on the cluster before the runtime snapshots it.
func corruptChaosRuntime(cplan *corrupt.Plan, netplan *simnet.NetworkPlan, failplan *simcluster.FailurePlan) *Runtime {
	return corruptChaosRuntimeOrdered(cplan, netplan, failplan, "nfc")
}

// corruptChaosRuntimeOrdered registers the plans in the given order, one
// letter per plan: n(etwork), f(ailure), c(orruption).
func corruptChaosRuntimeOrdered(cplan *corrupt.Plan, netplan *simnet.NetworkPlan, failplan *simcluster.FailurePlan, order string) *Runtime {
	cluster := simcluster.New(simcluster.Config{
		Nodes:              4,
		RackSize:           2,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		ComputeRate:        1e6,
		NodeBandwidth:      1e6,
		RackBandwidth:      4e6,
		CoreBandwidth:      4e6,
	})
	for _, which := range order {
		switch which {
		case 'n':
			cluster.SetNetworkPlan(netplan)
		case 'f':
			cluster.SetFailurePlan(failplan)
		case 'c':
			cluster.SetCorruptionPlan(cplan)
		}
	}
	return NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 10})
}

// runCorruptChaosPIC executes the shared mean-seeker PIC workload under
// a corruption plan, mirroring runNetChaosPIC: degraded-transfer knobs,
// a 3-of-4 merge quorum, and integrity detection toggled per arm.
func runCorruptChaosPIC(t *testing.T, cplan *corrupt.Plan, netplan *simnet.NetworkPlan,
	failplan *simcluster.FailurePlan, workers int, detect bool) (*PICResult, *Runtime, *trace.Tracer) {
	t.Helper()
	return runCorruptChaosPICOn(t, corruptChaosRuntime(cplan, netplan, failplan), workers, detect)
}

func runCorruptChaosPICOn(t *testing.T, rt *Runtime, workers int, detect bool) (*PICResult, *Runtime, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	rt.SetTracer(tr)
	rt.Engine().TransferTimeout = 1
	rt.Engine().TransferRetries = 2
	if workers > 0 {
		rt.Engine().Workers = workers
	}
	rt.SetIntegrityChecks(detect)
	rt.FS().CreateWithData("input/points", make([]byte, 200<<10), 0)
	in, _ := pointsInput(rt, 40)
	opts := chaosPICOpts
	opts.MergeQuorum = 3
	opts.MergeTimeout = 0.5
	res, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rt, tr
}

// TestCorruptChaosZeroPlanIsNoOp is the zero-corruption no-op
// guarantee end to end: a registered plan whose events never cover the
// run — including a bit-error window, which flips the engines onto
// their payload-checking path — must leave the timeline, metrics and
// final model byte-identical to no plan at all.
func TestCorruptChaosZeroPlanIsNoOp(t *testing.T) {
	bare, bareRT, bareTr := runCorruptChaosPIC(t, nil, nil, nil, 0, true)
	idle := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 1e8, End: 1e8 + 10, Rate: 1, Seed: 7},
		{Kind: corrupt.KindBlockReplica, File: "input/points", Block: 0, Node: corrupt.PrimaryReplica, At: 1e8, Seed: 8},
		{Kind: corrupt.KindCheckpoint, Model: "mean-seeker-be", At: 1e8, Seed: 9},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: 1e8},
	}}
	planned, plannedRT, plannedTr := runCorruptChaosPIC(t, idle, nil, nil, 0, true)
	if bareTr.Render() != plannedTr.Render() {
		t.Fatalf("idle corruption plan perturbed the timeline:\n--- no plan ---\n%s--- idle plan ---\n%s",
			bareTr.Render(), plannedTr.Render())
	}
	if bare.Metrics != planned.Metrics || bare.Duration != planned.Duration {
		t.Fatalf("idle corruption plan perturbed metrics or duration:\n%+v\n%+v", bare.Metrics, planned.Metrics)
	}
	if !reflect.DeepEqual(bare.Model.Encode(nil), planned.Model.Encode(nil)) {
		t.Fatal("idle corruption plan perturbed the final model")
	}
	if got := plannedRT.FS().Integrity(); got != (dfs.IntegrityCounters{}) {
		t.Fatalf("idle plan left integrity counters: %+v", got)
	}
	if got := bareRT.FS().Integrity(); got != (dfs.IntegrityCounters{}) {
		t.Fatalf("plan-free run left integrity counters: %+v", got)
	}
}

// TestCorruptChaosDetectionConverges drives the whole detection stack
// at once — bit-error windows over most of the run, a poisoned input
// replica, a scheduled scrub — and requires the detected-and-repaired
// run to land on the healthy answer.
func TestCorruptChaosDetectionConverges(t *testing.T) {
	healthy, _, _ := runCorruptChaosPIC(t, nil, nil, nil, 0, true)
	if !healthy.TopOffConverged {
		t.Fatal("healthy run did not converge")
	}
	horizon := simtime.Duration(healthy.Duration) * 8
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: horizon, Rate: 0.6, Seed: 11},
		{Kind: corrupt.KindTransfer, Node: 2, Start: 0, End: horizon, Rate: 0.6, Seed: 12},
		{Kind: corrupt.KindTransfer, Node: 3, Start: 0, End: horizon, Rate: 0.6, Seed: 13},
		{Kind: corrupt.KindBlockReplica, File: "input/points", Block: 0, Node: corrupt.PrimaryReplica,
			At: simtime.Duration(healthy.Duration) / 10, Seed: 14},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: simtime.Duration(healthy.Duration) / 3},
	}}
	res, rt, tr := runCorruptChaosPIC(t, plan, nil, nil, 0, true)
	if !res.TopOffConverged {
		t.Fatal("detected run did not converge")
	}
	if d := model.MaxVectorDelta(healthy.Model, res.Model); d > 1e-6 {
		t.Fatalf("detected run converged %g away from the healthy solution", d)
	}
	if res.Metrics.CorruptRetries == 0 {
		t.Fatal("rate-0.6 windows over the whole run caused no checksum re-sends")
	}
	if res.Metrics.CorruptRetryBytes == 0 {
		t.Fatal("re-sends carried no bytes")
	}
	if countKind(tr, trace.KindCorruptionDetect) == 0 {
		t.Fatal("trace has no corruption-detect events")
	}
	if countKind(tr, trace.KindScrub) != 1 {
		t.Fatalf("trace has %d scrub events, want 1", countKind(tr, trace.KindScrub))
	}
	ic := rt.FS().Integrity()
	if ic.InjectedBlocks == 0 {
		t.Fatalf("block poisoning never landed: %+v", ic)
	}
	if ic.DetectedBlocks == 0 || ic.RepairedBlocks == 0 {
		t.Fatalf("poisoned replica neither detected nor repaired: %+v", ic)
	}
	if res.Duration <= healthy.Duration {
		t.Fatalf("re-sends and repairs cost no time: %v vs healthy %v", res.Duration, healthy.Duration)
	}
}

// TestCorruptChaosSilentFlowsPerturb pins the detection-off contract of
// the flow-charging hub: a corrupt arrival is reported to the caller as
// silent damage (for the caller to model), nothing is re-sent, and no
// counter or trace event betrays it — while detection on re-sends the
// same flow until it lands clean and charges the re-sent bytes.
func TestCorruptChaosSilentFlowsPerturb(t *testing.T) {
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 0.2, Rate: 1, Seed: 21},
	}}
	flows := []simnet.Flow{{Src: 1, Dst: 0, Bytes: 64 << 10}}

	silent := corruptChaosRuntime(plan, nil, nil)
	silent.SetIntegrityChecks(false)
	before := silent.Cluster().Fabric().Counters().Total
	moved, dmg := silent.chargeFlowsVerified(flows)
	if len(dmg) != 1 || dmg[0].idx != 0 || dmg[0].seed == 0 {
		t.Fatalf("silent charge reported damage %+v, want one seeded hit on flow 0", dmg)
	}
	if moved != 64<<10 || silent.Cluster().Fabric().Counters().Total-before != 64<<10 {
		t.Fatalf("silent damage moved %d bytes, want exactly one send", moved)
	}
	if m := silent.Metrics(); m.CorruptRetries != 0 || m.CorruptRetryBytes != 0 {
		t.Fatalf("silent damage counted re-sends: %+v", m)
	}

	checked := corruptChaosRuntime(plan, nil, nil)
	checked.SetIntegrityChecks(true)
	moved2, dmg2 := checked.chargeFlowsVerified(flows)
	if len(dmg2) != 0 {
		t.Fatalf("verified charge leaked damage %+v", dmg2)
	}
	m := checked.Metrics()
	if m.CorruptRetries == 0 {
		t.Fatal("verified charge re-sent nothing through a rate-1 window")
	}
	if want := int64(m.CorruptRetries+1) * (64 << 10); moved2 != want {
		t.Fatalf("verified charge moved %d bytes, want %d (%d re-sends conserved)", moved2, want, m.CorruptRetries)
	}
}

// TestCorruptChaosSilentRunDegrades compares a full PIC run with
// detection off against the healthy run: the corruption must leave no
// trace anywhere — no detects, no re-sends, no repairs — while still
// actually perturbing the execution, and identical silent runs must
// stay byte-identical (the damage is scripted, not random).
func TestCorruptChaosSilentRunDegrades(t *testing.T) {
	healthy, _, _ := runCorruptChaosPIC(t, nil, nil, nil, 0, false)
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1e6, Rate: 1, Seed: 31},
		{Kind: corrupt.KindTransfer, Node: 2, Start: 0, End: 1e6, Rate: 1, Seed: 32},
		{Kind: corrupt.KindTransfer, Node: 3, Start: 0, End: 1e6, Rate: 1, Seed: 33},
	}}
	silent, rt, tr := runCorruptChaosPIC(t, plan, nil, nil, 0, false)
	silent2, _, tr2 := runCorruptChaosPIC(t, plan, nil, nil, 0, false)

	if silent.Metrics.CorruptRetries != 0 || silent.Metrics.CorruptRetryBytes != 0 {
		t.Fatalf("silent run counted re-sends: %+v", silent.Metrics)
	}
	if n := countKind(tr, trace.KindCorruptionDetect); n != 0 {
		t.Fatalf("silent run recorded %d corruption-detect events", n)
	}
	if ic := rt.FS().Integrity(); ic.DetectedBlocks != 0 || ic.RepairedBlocks != 0 {
		t.Fatalf("silent run detected or repaired blocks: %+v", ic)
	}
	sameModel := reflect.DeepEqual(healthy.Model.Encode(nil), silent.Model.Encode(nil))
	if sameModel && silent.Duration == healthy.Duration && silent.BEIterations == healthy.BEIterations {
		t.Fatal("rate-1 bit errors on three nodes left the silent run identical to healthy")
	}
	if tr.Render() != tr2.Render() {
		t.Fatal("silent damage not deterministic across identical runs")
	}
	if silent.Metrics != silent2.Metrics || silent.Duration != silent2.Duration ||
		!reflect.DeepEqual(silent.Model.Encode(nil), silent2.Model.Encode(nil)) {
		t.Fatal("silent runs differ between repeats")
	}
}

// allKindsPlan scripts every corruption event kind at once for the
// determinism tests: a bit-error window, a poisoned input replica,
// checkpoint damage, and a scrub pass.
func allKindsPlan() *corrupt.Plan {
	return &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 2, Start: 0.2, End: 2.2, Rate: 0.7, Seed: 41},
		{Kind: corrupt.KindBlockReplica, File: "input/points", Block: 0, Node: corrupt.PrimaryReplica, At: 0.3, Seed: 42},
		{Kind: corrupt.KindCheckpoint, Model: "mean-seeker-be", At: 1.0, Seed: 43},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: 1.5},
	}}
}

// TestCorruptChaosWorkerCountByteIdentical is the engine half of the
// determinism guard under a corruption-heavy plan: real execution
// parallelism must not leak into the simulated timeline, and repeats
// must replay byte-identically.
func TestCorruptChaosWorkerCountByteIdentical(t *testing.T) {
	plan := allKindsPlan()
	run := func(workers int) (*PICResult, string) {
		res, _, tr := runCorruptChaosPIC(t, plan, nil, nil, workers, true)
		return res, tr.Render()
	}
	one, tl1 := run(1)
	again, tlAgain := run(1)
	eight, tl8 := run(8)
	if tl1 != tl8 {
		t.Fatalf("timelines differ across worker counts:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", tl1, tl8)
	}
	if tl1 != tlAgain {
		t.Fatal("timelines differ between repeated identical runs")
	}
	if one.Metrics != eight.Metrics || one.Duration != eight.Duration ||
		one.Metrics != again.Metrics || one.Duration != again.Duration {
		t.Fatalf("results differ across worker counts or repeats:\n%+v\n%+v\n%+v",
			one.Metrics, eight.Metrics, again.Metrics)
	}
	if !reflect.DeepEqual(one.Model.Encode(nil), eight.Model.Encode(nil)) {
		t.Fatal("final models differ across worker counts")
	}
}

// TestCorruptChaosThreeWayDeterminism is the combined-fault acceptance
// test: a node crash, a network fault and scripted corruption in one
// run must replay byte-identically across worker counts and repeats,
// with the documented tie order (node event, then net fault, then
// corruption) holding at shared timestamps — and still converge.
func TestCorruptChaosThreeWayDeterminism(t *testing.T) {
	const at = simtime.Time(0.4)
	cplan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 2, Start: simtime.Duration(at), End: simtime.Duration(at) + 3, Rate: 0.5, Seed: 51},
		{Kind: corrupt.KindBlockReplica, File: "input/points", Block: 0, Node: corrupt.PrimaryReplica,
			At: simtime.Duration(at), Seed: 52},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: 1.0},
	}}
	netplan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultNodeLink, Node: 1, Start: at, End: at + 2},
	}}
	failplan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 1, Time: at},
	}}
	run := func(workers int) (*PICResult, *trace.Tracer) {
		res, _, tr := runCorruptChaosPIC(t, cplan, netplan, failplan, workers, true)
		return res, tr
	}
	one, tr1 := run(1)
	again, trAgain := run(1)
	eight, tr8 := run(8)
	if tr1.Render() != tr8.Render() {
		t.Fatalf("timelines differ across worker counts:\n--- 1 worker ---\n%s--- 8 workers ---\n%s",
			tr1.Render(), tr8.Render())
	}
	if tr1.Render() != trAgain.Render() {
		t.Fatal("timelines differ between repeated identical runs")
	}
	if one.Metrics != eight.Metrics || one.Duration != eight.Duration ||
		one.Metrics != again.Metrics || one.Duration != again.Duration {
		t.Fatalf("results differ across worker counts or repeats:\n%+v\n%+v", one.Metrics, eight.Metrics)
	}
	if !reflect.DeepEqual(one.Model.Encode(nil), eight.Model.Encode(nil)) {
		t.Fatal("final models differ across worker counts")
	}
	if !one.TopOffConverged {
		t.Fatal("three-way chaos run did not converge")
	}
	if one.Metrics.NodeCrashes != 1 {
		t.Fatalf("NodeCrashes = %d, want 1", one.Metrics.NodeCrashes)
	}
	if countKind(tr1, trace.KindNetFault) == 0 {
		t.Fatal("trace has no net-fault events")
	}
	if countKind(tr1, trace.KindScrub) != 1 {
		t.Fatalf("trace has %d scrub events, want 1", countKind(tr1, trace.KindScrub))
	}
	// The crash and the fault onset share a timestamp: the node event
	// must precede the net-fault event in the recorded timeline.
	crashIdx, faultIdx := -1, -1
	for i, e := range tr1.Events() {
		if e.Kind == trace.KindNodeCrash && crashIdx < 0 {
			crashIdx = i
		}
		if e.Kind == trace.KindNetFault && faultIdx < 0 {
			faultIdx = i
		}
	}
	if crashIdx < 0 || faultIdx < 0 {
		t.Fatalf("missing events: crash %d, net fault %d", crashIdx, faultIdx)
	}
	if crashIdx > faultIdx {
		t.Fatalf("net fault recorded before the simultaneous node crash (%d vs %d)", faultIdx, crashIdx)
	}
}

// TestCorruptChaosRegistrationOrderIrrelevant replays a script whose
// crash, net-fault onset and corruption events all share one instant
// under every order the driver could have registered the three plans
// in: the timeline's declared tie order (node, then net, then
// corruption) must make all six replays byte-identical.
func TestCorruptChaosRegistrationOrderIrrelevant(t *testing.T) {
	const at = simtime.Time(0.4)
	cplan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindBlockReplica, File: "input/points", Block: 0, Node: corrupt.PrimaryReplica, At: at, Seed: 71},
		{Kind: corrupt.KindScrub, Budget: 1 << 30, At: at},
		{Kind: corrupt.KindTransfer, Node: 2, Start: at, End: at + 3, Rate: 0.5, Seed: 72},
	}}
	netplan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultPartition, Nodes: []int{3}, Start: at, End: at + 1},
	}}
	failplan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{{Node: 1, Time: at}}}

	var want string
	var wantRes *PICResult
	for _, order := range []string{"nfc", "ncf", "fnc", "fcn", "cnf", "cfn"} {
		rt := corruptChaosRuntimeOrdered(cplan, netplan, failplan, order)
		res, _, tr := runCorruptChaosPICOn(t, rt, 0, true)
		if countKind(tr, trace.KindNodeCrash) != 1 || countKind(tr, trace.KindNetFault) != 1 || countKind(tr, trace.KindScrub) != 1 {
			t.Fatalf("order %s: the tied events did not all fire:\n%s", order, tr.Render())
		}
		if want == "" {
			want, wantRes = tr.Render(), res
			continue
		}
		if got := tr.Render(); got != want {
			t.Fatalf("registration order %s changed the timeline:\n--- nfc ---\n%s--- %s ---\n%s", order, want, order, got)
		}
		if res.Metrics != wantRes.Metrics || res.Duration != wantRes.Duration ||
			!reflect.DeepEqual(res.Model.Encode(nil), wantRes.Model.Encode(nil)) {
			t.Fatalf("registration order %s changed the result", order)
		}
	}
}
