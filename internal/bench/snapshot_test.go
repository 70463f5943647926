package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

// BenchmarkKMeansBEIter measures one best-effort PIC round of K-means —
// partition, local convergence on every node group, merge — the phase
// the paper's speedups come from.
func BenchmarkKMeansBEIter(b *testing.B) {
	w := kmeansBEIterWorkload("bench-kmeans-be")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunPIC(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedMultiTenant measures one multi-tenant scheduler run — a
// PIC job contending with a synthetic co-tenant on one shared cluster —
// mirroring the sched-multitenant snapshot kernel for CI's single-pass
// bench smoke.
func BenchmarkSchedMultiTenant(b *testing.B) {
	w, _ := PageRankWorkload("bench-sched", tenancyCluster(), 2_000, 5, 0.02, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runTenancyCell(w, "pic", 0.5, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegradedMerge measures one best-effort PIC round through the
// degraded network path — fault-overlay transfer pricing and a quorum
// merge around a cut rack — mirroring the degraded-merge snapshot
// kernel for CI's single-pass bench smoke.
func BenchmarkDegradedMerge(b *testing.B) {
	w, _ := KMeansWorkload("bench-degraded", netFaultCluster(), 50_000, 25, 3, 6, 3)
	w.PICOpts.MaxBEIterations = 1
	w.PICOpts.MaxLocalIterations = 10
	w.PICOpts.MaxTopOffIterations = 1
	w.PICOpts.MergeQuorum = 4
	w.PICOpts.MergeTimeout = 5
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultRackUplink, Rack: 2, Start: 0, End: 1e9, Factor: 0},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := netFaultRuntime(w, plan, 60)
		if _, err := core.RunPIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func validSnapshot() *Snapshot {
	s := &Snapshot{GoVersion: "go1.24.0", GOMAXPROCS: 1, Scale: 1, SuiteWallSeconds: 42}
	for _, name := range KernelNames() {
		s.Kernels = append(s.Kernels, KernelResult{Name: name, Iters: 3, NsPerOp: 1e6})
	}
	return s
}

func TestCheckSnapshotRoundTrip(t *testing.T) {
	s := validSnapshot()
	s.SuiteWallSeconds = 123.4
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := CheckSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.SuiteWallSeconds != 123.4 || len(got.Kernels) != len(KernelNames()) {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
}

func TestCheckSnapshotRejectsBadInputs(t *testing.T) {
	marshal := func(s *Snapshot) []byte {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"not json", []byte("nope{")},
		{"empty header", marshal(&Snapshot{Scale: 1})},
		{"zero scale", marshal(func() *Snapshot { s := validSnapshot(); s.Scale = 0; return s }())},
		{"negative scale", marshal(func() *Snapshot { s := validSnapshot(); s.Scale = -2; return s }())},
		{"missing kernel", marshal(func() *Snapshot { s := validSnapshot(); s.Kernels = s.Kernels[1:]; return s }())},
		{"zero timing", marshal(func() *Snapshot { s := validSnapshot(); s.Kernels[0].NsPerOp = 0; return s }())},
		// The suite wall total must be positive: a zero marks the
		// pre-fix bug where baselines recorded suite_wall_seconds 0.
		{"zero wall total", marshal(func() *Snapshot { s := validSnapshot(); s.SuiteWallSeconds = 0; return s }())},
		{"negative wall total", marshal(func() *Snapshot { s := validSnapshot(); s.SuiteWallSeconds = -1; return s }())},
	}
	for _, tc := range cases {
		if _, err := CheckSnapshot(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Ladder tiers above 1 are valid snapshots now (the old (0,1]
	// bound made tier snapshots uncheckable).
	tier := validSnapshot()
	tier.Scale = 10
	if _, err := CheckSnapshot(marshal(tier)); err != nil {
		t.Errorf("tier snapshot rejected: %v", err)
	}
}

func TestKernelNamesStable(t *testing.T) {
	want := []string{"run-grouped", "shuffle-accounting", "local-iteration", "sched-multitenant", "kmeans-be-iter", "per-iter-overhead", "degraded-merge", "stream-split-gen", "sparse-delta", "hier-merge", "scrub-repair", "bsp-superstep", "model-iterate", "run-grouped-distinct"}
	got := KernelNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("kernel set changed: %v (update BENCH_baseline.json and this test together)", got)
	}
}

// TestHarnessParallelismDeterministic holds the harness half of the
// determinism guard: running experiment cells concurrently must render
// byte-identical results, because every cell owns its simulated clocks
// and counters and results are deposited by index.
func TestHarnessParallelismDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("harness determinism test skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	run := func() string {
		fig, err := Fig9()
		if err != nil {
			t.Fatal(err)
		}
		rate, err := AblationConvergenceRate()
		if err != nil {
			t.Fatal(err)
		}
		net, err := AblationNetworkModel()
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render() + rate.Render() + net.Render()
	}
	serial := run()
	SetParallelism(4)
	defer SetParallelism(1)
	parallel := run()
	if serial != parallel {
		t.Fatalf("parallel harness changed rendered output:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestReportIdenticalAcrossWorkerCounts holds the engine half of the
// guard end to end: a fully-instrumented report run — render, Chrome
// trace, convergence CSV — is byte-identical whether user code runs on
// one worker or many.
func TestReportIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("report worker-count test skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	type artifacts struct {
		render, csv string
		trace       []byte
	}
	run := func(workers int) artifacts {
		SetEngineWorkers(workers)
		defer SetEngineWorkers(0)
		rep, err := RunReport("kmeans")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return artifacts{render: rep.Render(), csv: rep.ConvergenceCSV(), trace: buf.Bytes()}
	}
	one := run(1)
	many := run(8)
	if one.render != many.render {
		t.Fatal("report text differs between worker counts")
	}
	if one.csv != many.csv {
		t.Fatal("convergence CSV differs between worker counts")
	}
	if !bytes.Equal(one.trace, many.trace) {
		t.Fatal("trace JSON differs between worker counts")
	}
}
