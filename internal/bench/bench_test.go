package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simcluster"
	"repro/internal/simtime"
)

// testKMeans builds a fast workload for harness tests.
func testKMeans(t *testing.T) *Workload {
	t.Helper()
	w, _ := KMeansWorkload("kmeans-test", simcluster.Small(), 30_000, 8, 3, 6, 1)
	return w
}

func TestHadoopCostValid(t *testing.T) {
	if err := HadoopCost().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunComparisonProducesBothResults(t *testing.T) {
	c, err := RunComparison(testKMeans(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.IC == nil || c.PIC == nil {
		t.Fatal("missing results")
	}
	if c.IC.Duration <= 0 || c.PIC.Duration <= 0 {
		t.Fatal("zero durations")
	}
	if c.Speedup() <= 0 {
		t.Fatalf("speedup = %v", c.Speedup())
	}
}

func TestComparisonTrafficAccessors(t *testing.T) {
	c, err := RunComparison(testKMeans(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.ICNetworkBytes() <= 0 || c.PICNetworkBytes() <= 0 {
		t.Fatalf("traffic: ic=%d pic=%d", c.ICNetworkBytes(), c.PICNetworkBytes())
	}
}

func TestWorkloadRunICWithObserver(t *testing.T) {
	w := testKMeans(t)
	n := 0
	res, err := w.RunIC(func(core.Sample) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Iterations {
		t.Fatalf("observer fired %d times for %d iterations", n, res.Iterations)
	}
}

func TestWorkloadDefaultsCost(t *testing.T) {
	w := testKMeans(t)
	rt := w.NewRuntime()
	if rt.Engine().CostModelValue() != HadoopCost() {
		t.Fatal("workload without Cost did not default to HadoopCost")
	}
	w.Cost = HadoopCost()
	w.Cost.JobOverhead = 42
	rt = w.NewRuntime()
	if rt.Engine().CostModelValue().JobOverhead != 42 {
		t.Fatal("explicit cost not applied")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.00 KB",
		3 << 20:       "3.00 MB",
		5 << 30:       "5.00 GB",
		9<<30 + 1<<29: "9.50 GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(simtime.Duration(12.34)); got != "12.3 s" {
		t.Fatalf("FormatDuration = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	var tb table
	tb.title("Demo")
	tb.row("col", "a", "b")
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "----") {
		t.Fatalf("missing title/underline: %q", out)
	}
	if !strings.Contains(out, "col") || !strings.Contains(out, "a") {
		t.Fatalf("missing cells: %q", out)
	}
}

func TestWorkloadConstructorsBuild(t *testing.T) {
	// Every constructor must produce a runnable workload (checked by
	// building inputs and models, not full runs — those are the
	// benchmarks' job).
	kw, ps := KMeansWorkload("k", simcluster.Small(), 1_000, 4, 3, 2, 1)
	if len(ps.Points) != 1_000 {
		t.Fatal("kmeans dataset size")
	}
	pw, g := PageRankWorkload("p", simcluster.Small(), 500, 5, 0.1, 1)
	if g.N != 500 {
		t.Fatal("graph size")
	}
	lw, app := LinSolveWorkload("l", simcluster.Small(), 20, 4, 1)
	if app == nil {
		t.Fatal("nil linsolve app")
	}
	nw, _, train, valid := NeuralNetWorkload("n", simcluster.Small(), 200, 4, 1)
	if len(train.Vectors) != 200 || len(valid.Vectors) != 50 {
		t.Fatal("ocr sizes")
	}
	sw, img := SmoothingWorkload("s", simcluster.Small(), 32, 16, 4, 1)
	if img.Width != 32 {
		t.Fatal("image size")
	}
	for _, w := range []*Workload{kw, pw, lw, nw, sw} {
		rt := w.NewRuntime()
		in := w.MakeInput(rt.Cluster())
		if in.NumRecords() == 0 {
			t.Fatalf("%s: empty input", w.Name)
		}
		if w.MakeModel().Len() == 0 {
			t.Fatalf("%s: empty model", w.Name)
		}
		if w.MakeApp() == nil {
			t.Fatalf("%s: nil app", w.Name)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	// Rendering smoke tests over synthetic results (no experiment runs).
	fig := &SpeedupFigure{Title: "T", Rows: []SpeedupRow{{App: "a", Speedup: 2}}}
	if !strings.Contains(fig.Render(), "2.00x") {
		t.Fatal("SpeedupFigure.Render missing speedup")
	}
	f2 := &Fig2Result{Speedup: 3, ICTrafficBytes: 1 << 20, PICTraffic: 1 << 10}
	if !strings.Contains(f2.Render(), "3.00x") {
		t.Fatal("Fig2Result.Render missing speedup")
	}
	f11 := &Fig11Result{Points: []Fig11Point{{Nodes: 64, Speedup: 3.3}}}
	if !strings.Contains(f11.Render(), "64") {
		t.Fatal("Fig11Result.Render missing nodes")
	}
	f12 := &Fig12Result{Title: "t", Metric: "err",
		IC:  Trajectory{Points: []TrajectoryPoint{{Time: 1, Value: 0.5}}},
		PIC: Trajectory{Points: []TrajectoryPoint{{Time: 2, Value: 0.25}}}}
	if !strings.Contains(f12.Render(), "0.5") {
		t.Fatal("Fig12Result.Render missing values")
	}
	t1 := &Table1Result{Rows: []Table1Row{{Size: 1000, ICIterations: 30, BEIterations: 4, MaxLocalIters: []int{20, 3}}}}
	if !strings.Contains(t1.Render(), "30") || !strings.Contains(t1.Render(), "20 3") {
		t.Fatal("Table1Result.Render missing data")
	}
	t2 := &Table2Result{OneIterIntermediate: 1 << 20}
	if !strings.Contains(t2.Render(), "1.00 MB") {
		t.Fatal("Table2Result.Render missing bytes")
	}
	t3 := &Table3Result{Rows: []Table3Row{{Dataset: "Dataset 1", ICJagota: 2.1, PICBEJagota: 2.15, DiffPercent: 2.4}}}
	if !strings.Contains(t3.Render(), "2.40%") {
		t.Fatal("Table3Result.Render missing percent")
	}
	ps := &PartitionSweepResult{Rows: []PartitionSweepRow{{Partitions: 6, Speedup: 2}}}
	if !strings.Contains(ps.Render(), "6") {
		t.Fatal("PartitionSweepResult.Render missing partitions")
	}
	cs := &CouplingSweepResult{Rows: []CouplingRow{{CrossFraction: 0.05, Speedup: 2}}}
	if !strings.Contains(cs.Render(), "0.05") {
		t.Fatal("CouplingSweepResult.Render missing fraction")
	}
	lf := &LocalFactorSweepResult{Rows: []LocalFactorRow{{Factor: 0.5, Speedup: 2}}}
	if !strings.Contains(lf.Render(), "0.500") {
		t.Fatal("LocalFactorSweepResult.Render missing factor")
	}
	dg := &DegenerateResult{MaxCentroidDelta: 0.001}
	if !strings.Contains(dg.Render(), "0.001") {
		t.Fatal("DegenerateResult.Render missing delta")
	}
}

func TestFig12TimeToReach(t *testing.T) {
	r := &Fig12Result{
		IC: Trajectory{Points: []TrajectoryPoint{
			{Time: 1, Value: 0.9}, {Time: 2, Value: 0.5}, {Time: 3, Value: 0.1}}},
		PIC: Trajectory{Points: []TrajectoryPoint{
			{Time: 0.5, Value: 0.4}, {Time: 1, Value: 0.05}}},
	}
	icT, picT := r.TimeToReach(0.45)
	if icT != 3 || picT != 0.5 {
		t.Fatalf("TimeToReach = %v, %v", icT, picT)
	}
	icT, _ = r.TimeToReach(0.001)
	if icT != -1 {
		t.Fatalf("unreachable level gave %v", icT)
	}
	ic, pic := r.FinalValues()
	if ic != 0.1 || pic != 0.05 {
		t.Fatalf("FinalValues = %v, %v", ic, pic)
	}
}

func TestPICBeatsICOnSmallWorkload(t *testing.T) {
	// The headline claim at unit-test scale: PIC is faster and moves
	// fewer recurring bytes.
	c, err := RunComparison(testKMeans(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Speedup() <= 1 {
		t.Fatalf("PIC not faster: %.2fx", c.Speedup())
	}
	// Excluding the one-time repartitioning, PIC's recurring traffic
	// must be lower.
	picRecurring := c.PICNetworkBytes() - c.PIC.RepartitionBytes
	if picRecurring >= c.ICNetworkBytes() {
		t.Fatalf("PIC recurring traffic %d not below IC %d", picRecurring, c.ICNetworkBytes())
	}
}

func TestChartRendering(t *testing.T) {
	r := &Fig12Result{
		Title:  "demo",
		Metric: "err",
		IC: Trajectory{Points: []TrajectoryPoint{
			{Time: 0, Value: 100}, {Time: 10, Value: 1}, {Time: 20, Value: 0.01}}},
		PIC: Trajectory{Points: []TrajectoryPoint{
			{Time: 0, Value: 100}, {Time: 5, Value: 0.01}}},
	}
	chart := r.Chart(40, 10)
	if !strings.Contains(chart, "log scale") {
		t.Fatal("wide-range chart not log scaled")
	}
	if !strings.Contains(chart, "i") || !strings.Contains(chart, "p") {
		t.Fatalf("chart missing series marks:\n%s", chart)
	}
	lines := strings.Split(strings.TrimRight(chart, "\n"), "\n")
	if len(lines) != 2+10+2 { // header, axis label, grid, axis, x labels
		t.Fatalf("chart has %d lines:\n%s", len(lines), chart)
	}
	// Tiny dimensions are clamped, empty input handled.
	if out := r.Chart(1, 1); out == "" {
		t.Fatal("clamped chart empty")
	}
	empty := &Fig12Result{}
	if out := empty.Chart(40, 10); !strings.Contains(out, "no samples") {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestChartLinearScale(t *testing.T) {
	r := &Fig12Result{
		Metric: "err",
		IC:     Trajectory{Points: []TrajectoryPoint{{Time: 0, Value: 10}, {Time: 1, Value: 5}}},
		PIC:    Trajectory{Points: []TrajectoryPoint{{Time: 0, Value: 9}}},
	}
	if strings.Contains(r.Chart(40, 10), "log scale") {
		t.Fatal("narrow-range chart log scaled")
	}
}

func TestSpeedupBars(t *testing.T) {
	fig := &SpeedupFigure{Title: "demo", Rows: []SpeedupRow{
		{App: "kmeans", Speedup: 3.0},
		{App: "pagerank", Speedup: 1.5},
	}}
	out := fig.Bars(40)
	if !strings.Contains(out, "###") || !strings.Contains(out, "3.00x") {
		t.Fatalf("Bars missing content:\n%s", out)
	}
	if !strings.Contains(out, "IC baseline") {
		t.Fatalf("Bars missing baseline reference:\n%s", out)
	}
	// The longer bar belongs to the larger speedup.
	lines := strings.Split(out, "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Fatalf("bar lengths not ordered:\n%s", out)
	}
}

func TestConvergenceRateDegradesWithPartitions(t *testing.T) {
	// §VI-B: "more partitions translate to a slower convergence rate
	// in the best-effort phase."
	r, err := AblationConvergenceRate()
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.BERate <= first.BERate {
		t.Errorf("BE contraction rate did not degrade: %.3f (p=%d) vs %.3f (p=%d)",
			first.BERate, first.Partitions, last.BERate, last.Partitions)
	}
	// Each best-effort iteration still contracts far more than one
	// conventional sweep — it embeds many local sweeps.
	for _, row := range r.Rows {
		if row.BERate >= row.ICRate {
			t.Errorf("p=%d: BE rate %.3f not below IC rate %.3f",
				row.Partitions, row.BERate, row.ICRate)
		}
	}
}
