package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Telemetry determinism and attribution tests.
//
// The obs layer's contract is that telemetry is a pure function of the
// simulated execution: the JSONL event log, the OpenMetrics export and
// every render must be byte-identical across engine worker counts,
// across serial and parallel harness execution, and across repeated
// runs — even with node crashes and network faults injected. And the
// straggler detector must attribute injected causes correctly, because
// the simulator knows the ground truth.

// obsArtifacts is every byte-comparable telemetry artifact of one run.
type obsArtifacts struct {
	jsonl  string
	om     string
	render string
	flight string
}

// obsChaosWorkload is the K-means problem the chaos tests run, on the
// multi-rack testbed the fault plans act on.
func obsChaosWorkload() *Workload {
	w, _ := KMeansWorkload("kmeans-obschaos", tenancyCluster(), scaled(300_000, 40_000), 25, 3, 6, 3)
	return w
}

// obsChaosRun executes one fully-instrumented PIC run under combined
// chaos — periodic rack-uplink outages and a whole-node crash with
// recovery — at the given engine worker count, and derives all
// telemetry artifacts.
func obsChaosRun(workers int) (obsArtifacts, error) {
	const period = 2.0
	w := obsChaosWorkload()
	netPlan := netFaultPlan(0.25, period, 1000)
	failPlan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 5, Time: 1.5},
		{Node: 5, Time: 6.0, Recover: true},
	}}

	cluster := simcluster.New(w.Cluster)
	cluster.SetFailurePlan(failPlan)
	cluster.SetNetworkPlan(netPlan)
	rt := core.NewRuntime(cluster, dfs.DefaultConfig())
	rt.Engine().SetCostModel(HadoopCost())
	rt.Engine().Workers = workers
	rt.Engine().TransferTimeout = simtime.Duration(period / 3)
	rt.Engine().TransferRetries = 3
	rt.Engine().RetryBackoff = simtime.Duration(period / 24)
	tr := trace.New()
	reg := metrics.New()
	rt.SetTracer(tr)
	rt.SetObservability(reg)
	rt.FS().Create("input/"+w.Name, 64<<20, 0)

	in := w.MakeInput(rt.Cluster())
	if _, err := core.RunPIC(rt, w.MakeApp(), in, w.MakeModel(), w.PICOpts); err != nil {
		return obsArtifacts{}, err
	}
	p := obs.Collect(w.Name, tr, reg, obs.Options{
		Plan: netPlan,
		Sentinel: obs.Sentinel{
			Factor:         4,
			ExpectedRounds: w.PICOpts.MaxBEIterations + w.PICOpts.MaxTopOffIterations + 4,
			BytesPerRound:  in.TotalBytes(),
		},
	})
	var jl, om bytes.Buffer
	if err := p.WriteJSONL(&jl); err != nil {
		return obsArtifacts{}, err
	}
	if err := obs.ValidateJSONL(bytes.NewReader(jl.Bytes())); err != nil {
		return obsArtifacts{}, fmt.Errorf("chaos run log invalid: %w", err)
	}
	if err := p.WriteOpenMetrics(&om); err != nil {
		return obsArtifacts{}, err
	}
	return obsArtifacts{
		jsonl:  jl.String(),
		om:     om.String(),
		render: p.Render(),
		flight: p.Flight.Render(),
	}, nil
}

// diffObs names the first artifact that differs, or "".
func diffObs(base, got obsArtifacts) string {
	switch {
	case base.jsonl != got.jsonl:
		return "JSONL event log"
	case base.om != got.om:
		return "OpenMetrics export"
	case base.render != got.render:
		return "telemetry render"
	case base.flight != got.flight:
		return "flight recorder"
	}
	return ""
}

// TestTelemetryDeterminism is the obs invariant end to end: under
// combined crash + network chaos, every telemetry artifact is
// byte-identical at 1 and 8 engine workers, across repeated runs, and
// under the parallel cell harness.
func TestTelemetryDeterminism(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	base, err := obsChaosRun(1)
	if err != nil {
		t.Fatal(err)
	}
	// The run must actually have seen the chaos, or the test compares
	// fair-weather telemetry.
	if !strings.Contains(base.jsonl, `"span":"net-fault"`) {
		t.Fatal("chaos run recorded no net-fault span")
	}
	if !strings.Contains(base.jsonl, `"span":"node-crash"`) {
		t.Fatal("chaos run recorded no node-crash span")
	}

	for _, workers := range []int{1, 8} {
		got, err := obsChaosRun(workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffObs(base, got); d != "" {
			t.Fatalf("workers=%d: %s differs from baseline", workers, d)
		}
	}

	// Parallel harness: four concurrent cells re-run the same chaos
	// workload; every one must reproduce the serial baseline exactly.
	SetParallelism(4)
	defer SetParallelism(1)
	results := make([]obsArtifacts, 4)
	err = runCells(len(results), func(i int) error {
		var cellErr error
		results[i], cellErr = obsChaosRun(1 + i%2*7) // alternate 1 and 8 workers
		return cellErr
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		if d := diffObs(base, got); d != "" {
			t.Fatalf("parallel cell %d: %s differs from serial baseline", i, d)
		}
	}
}

// TestTelemetryDoesNotPerturbRun pins the zero-cost side of the obs
// contract: a run with the tracer and registry attached produces
// exactly the simulated results of a run with observability disabled —
// the instrumentation only observes, never steers.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	run := func(instrument bool) (string, string) {
		w := obsChaosWorkload()
		rt := w.NewRuntime()
		if instrument {
			rt.SetTracer(trace.New())
			rt.SetObservability(metrics.New())
		}
		res, err := core.RunPIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts)
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Model.Encode(nil)), fmt.Sprintf("%+v", res.Metrics)
	}
	bareModel, bareMetrics := run(false)
	obsModel, obsMetrics := run(true)
	if bareModel != obsModel {
		t.Fatal("instrumentation changed the final model bytes")
	}
	if bareMetrics != obsMetrics {
		t.Fatalf("instrumentation changed driver metrics:\nbare: %s\nobs:  %s", bareMetrics, obsMetrics)
	}
}

// TestObsBrownoutAttribution injects a core-bisection brownout window
// and expects the detector to flag at least one slow transfer and
// attribute it to the scripted fault.
func TestObsBrownoutAttribution(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	w := obsChaosWorkload()
	// One deep brownout early in the run: cross-rack traffic inside the
	// window crawls at 5% bandwidth while the rest of the run supplies
	// the healthy peer baseline.
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultCore, Start: 0.5, End: 2.0, Factor: 0.05},
	}}
	cluster := simcluster.New(w.Cluster)
	cluster.SetNetworkPlan(plan)
	rt := core.NewRuntime(cluster, dfs.DefaultConfig())
	rt.Engine().SetCostModel(HadoopCost())
	tr := trace.New()
	reg := metrics.New()
	rt.SetTracer(tr)
	rt.SetObservability(reg)
	if _, err := core.RunPIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts); err != nil {
		t.Fatal(err)
	}

	p := obs.Collect(w.Name, tr, reg, obs.Options{Plan: plan})
	var hit *obs.Anomaly
	for i, a := range p.Anomalies {
		if a.Kind == "slow-transfer" && a.Cause == obs.CauseLinkBrownout {
			hit = &p.Anomalies[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no slow-transfer attributed to the brownout; anomalies:\n%s", renderAnomalies(p))
	}
	if !strings.Contains(strings.Join(hit.Evidence, "; "), "overlaps fault") {
		t.Fatalf("brownout anomaly lacks fault evidence: %+v", hit)
	}
	// The flagged span must actually overlap the scripted window.
	if hit.End <= 0.5 || hit.Start >= 2.0 {
		t.Fatalf("flagged span [%g, %g] outside the fault window", float64(hit.Start), float64(hit.End))
	}
}

// skewApp wraps a PICApp and concentrates records into partition 0, so
// one best-effort group carries an outsized share of the work. It
// deliberately does not forward LoopPartitioner: the skewed layout must
// be re-dealt (and re-sampled) every iteration.
type skewApp struct {
	core.PICApp
}

func (a skewApp) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	subs, err := a.PICApp.Partition(in, m, p)
	if err != nil || len(subs) < 2 {
		return subs, err
	}
	// Move 3/4 of every other partition's records into partition 0.
	skewed := append([]mapred.Record(nil), subs[0].Records...)
	for i := 1; i < len(subs); i++ {
		cut := len(subs[i].Records) * 3 / 4
		skewed = append(skewed, subs[i].Records[:cut]...)
		subs[i].Records = subs[i].Records[cut:]
	}
	subs[0].Records = skewed
	return subs, nil
}

// TestObsSkewAttribution runs K-means with an injected skewed
// partitioning and expects the detector to flag the overloaded group as
// a straggler and attribute it to the partition skew.
func TestObsSkewAttribution(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	w := obsChaosWorkload()
	rt := w.NewRuntime()
	tr := trace.New()
	reg := metrics.New()
	rt.SetTracer(tr)
	rt.SetObservability(reg)
	app := skewApp{w.MakeApp()}
	if _, err := core.RunPIC(rt, app, w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts); err != nil {
		t.Fatal(err)
	}

	p := obs.Collect(w.Name, tr, reg, obs.Options{})
	var hit *obs.Anomaly
	for i, a := range p.Anomalies {
		if a.Kind == "straggler-group" && a.Cause == obs.CauseSkewedPartition {
			hit = &p.Anomalies[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no straggler attributed to partition skew; anomalies:\n%s", renderAnomalies(p))
	}
	if !strings.Contains(strings.Join(hit.Evidence, "; "), "partition 0 holds") {
		t.Fatalf("skew anomaly lacks partition evidence: %+v", hit)
	}
	if hit.Severity <= 1.5 {
		t.Fatalf("skew severity = %g, expected a clear outlier", hit.Severity)
	}
}

// renderAnomalies prints a product's anomalies for failure messages.
func renderAnomalies(p *obs.Product) string {
	if len(p.Anomalies) == 0 {
		return "  (none)"
	}
	var sb strings.Builder
	for _, a := range p.Anomalies {
		fmt.Fprintf(&sb, "  %s\n", a.Render())
	}
	return sb.String()
}

// TestReportTelemetryArtifacts exercises the report-level plumbing: the
// inspector's report writes a valid event log and a well-formed
// OpenMetrics export, twice identically.
func TestReportTelemetryArtifacts(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	rep, err := RunReport("linsolve")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rep.WriteEventLog(&a); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSONL(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("report event log invalid: %v", err)
	}
	if err := rep.WriteEventLog(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated WriteEventLog calls differ")
	}
	a.Reset()
	if err := rep.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(a.String(), "# EOF\n") {
		t.Fatal("OpenMetrics export does not end with # EOF")
	}
	if !strings.Contains(a.String(), "pic_mapred_jobs_total") {
		t.Fatal("OpenMetrics export missing the jobs counter")
	}
}

// TestLiveReportMatchesFinal pins the live-inspector contract: tailing
// a run through StartReport's event stream never changes the final
// telemetry — the finished report's artifacts match a plain RunReport
// byte for byte.
func TestLiveReportMatchesFinal(t *testing.T) {
	SetScale(0.05)
	defer SetScale(1.0)

	live, err := StartReport("linsolve")
	if err != nil {
		t.Fatal(err)
	}
	// Drain the live stream like the watcher does (dropping is allowed).
	streamed := 0
	for range live.Events {
		streamed++
	}
	liveRep, err := live.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("live stream delivered no events")
	}
	plainRep, err := RunReport("linsolve")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := liveRep.WriteEventLog(&a); err != nil {
		t.Fatal(err)
	}
	if err := plainRep.WriteEventLog(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("live-tailed run's event log differs from a plain run")
	}
}
