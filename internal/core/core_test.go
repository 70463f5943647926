package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/trace"
	"repro/internal/writable"
)

// meanSeeker is a minimal iterative-convergence application for testing
// the drivers: its model is a single vector that moves halfway toward
// the mean of the input points each iteration, so it converges
// geometrically to the mean. Under PIC it partitions points round-robin,
// copies the model, and merges by averaging — K-means in miniature.
type meanSeeker struct {
	eps       float64
	failIter  func(iter *int) error // optional fault hook
	iterCount int
}

func (a *meanSeeker) Name() string { return "mean-seeker" }

func (a *meanSeeker) Iteration(rt *Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	a.iterCount++
	if a.failIter != nil {
		if err := a.failIter(&a.iterCount); err != nil {
			return nil, err
		}
	}
	job := &mapred.Job{
		Name: "mean",
		Mapper: mapred.MapperFunc(func(_ string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			p := v.(writable.Vector)
			withCount := append(p.Clone(), 1)
			emit.Emit("mean", withCount)
			return nil
		}),
		Combiner: sumReducer{},
		Reducer:  sumReducer{},
	}
	out, err := rt.RunJob(job, in, m)
	if err != nil {
		return nil, err
	}
	cur, _ := m.Vector("mean")
	next := model.New()
	for _, rec := range out.Records {
		acc := rec.Value.(writable.Vector)
		n := acc[len(acc)-1]
		moved := make(writable.Vector, len(acc)-1)
		for i := range moved {
			moved[i] = cur[i] + 0.5*(acc[i]/n-cur[i])
		}
		next.Set("mean", moved)
	}
	return next, nil
}

type sumReducer struct{}

func (sumReducer) Reduce(key string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
	acc := values[0].(writable.Vector).Clone()
	for _, v := range values[1:] {
		vec := v.(writable.Vector)
		for i := range acc {
			acc[i] += vec[i]
		}
	}
	emit.Emit(key, acc)
	return nil
}

func (a *meanSeeker) Converged(prev, next *model.Model) bool {
	return model.MaxVectorDelta(prev, next) < a.eps
}

func (a *meanSeeker) Partition(in *mapred.Input, m *model.Model, p int) ([]SubProblem, error) {
	groups := DealRecords(in.Records(), p)
	models := CopyModels(m, p)
	subs := make([]SubProblem, p)
	for i := range subs {
		subs[i] = SubProblem{Records: groups[i], Model: models[i]}
	}
	return subs, nil
}

func (a *meanSeeker) Merge(parts []*model.Model, _ *model.Model) (*model.Model, error) {
	return AverageModels(parts)
}

func testRuntime() *Runtime {
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
	return NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 10})
}

func pointsInput(rt *Runtime, n int) (*mapred.Input, writable.Vector) {
	recs := make([]mapred.Record, n)
	var sum writable.Vector = writable.Vector{0, 0}
	for i := range recs {
		p := writable.Vector{float64(i%7) - 3, float64(i%5) * 2}
		sum[0] += p[0]
		sum[1] += p[1]
		recs[i] = mapred.Record{Key: fmt.Sprintf("p%d", i), Value: p}
	}
	mean := writable.Vector{sum[0] / float64(n), sum[1] / float64(n)}
	return mapred.NewInput(recs, rt.Cluster(), 8), mean
}

func startModel() *model.Model {
	m := model.New()
	m.Set("mean", writable.Vector{100, -100})
	return m
}

func TestRunICConvergesToMean(t *testing.T) {
	rt := testRuntime()
	in, mean := pointsInput(rt, 20)
	app := &meanSeeker{eps: 1e-9}
	res, err := RunIC(rt, app, in, startModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got, _ := res.Model.Vector("mean")
	for i := range mean {
		if math.Abs(got[i]-mean[i]) > 1e-6 {
			t.Fatalf("mean = %v, want %v", got, mean)
		}
	}
	if res.Iterations < 10 {
		t.Fatalf("converged suspiciously fast: %d iterations", res.Iterations)
	}
	if res.Duration <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if res.Metrics.Jobs != res.Iterations {
		t.Fatalf("Jobs = %d, want %d", res.Metrics.Jobs, res.Iterations)
	}
	if res.ModelUpdateBytes == 0 {
		t.Fatal("no model update traffic recorded")
	}
}

func TestRunICIterationCap(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	app := &meanSeeker{eps: 0} // never converges
	res, err := RunIC(rt, app, in, startModel(), &ICOptions{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 5 {
		t.Fatalf("converged=%v iterations=%d, want capped at 5", res.Converged, res.Iterations)
	}
}

func TestRunICObserver(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	app := &meanSeeker{eps: 1e-6}
	var samples []Sample
	res, err := RunIC(rt, app, in, startModel(), &ICOptions{
		Observer: func(s Sample) { samples = append(samples, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != res.Iterations {
		t.Fatalf("got %d samples for %d iterations", len(samples), res.Iterations)
	}
	for i, s := range samples {
		if s.Phase != PhaseIC {
			t.Fatalf("sample %d phase = %q", i, s.Phase)
		}
		if s.Iteration != i+1 {
			t.Fatalf("sample %d iteration = %d", i, s.Iteration)
		}
		if i > 0 && s.Time <= samples[i-1].Time {
			t.Fatalf("sample times not increasing: %v", samples)
		}
		if s.Model == nil {
			t.Fatalf("sample %d has nil model", i)
		}
	}
}

func TestRunICWithModelWritesDisabled(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	app := &meanSeeker{eps: 1e-6}
	res, err := RunIC(rt, app, in, startModel(), &ICOptions{DisableModelWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelUpdateBytes != 0 {
		t.Fatalf("ModelUpdateBytes = %d with writes disabled", res.ModelUpdateBytes)
	}
}

func TestRunICErrorPropagates(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	app := &meanSeeker{eps: 1e-6, failIter: func(iter *int) error {
		if *iter == 3 {
			return errors.New("iteration exploded")
		}
		return nil
	}}
	if _, err := RunIC(rt, app, in, startModel(), nil); err == nil {
		t.Fatal("iteration error swallowed")
	}
}

func TestRunPICMatchesICSolution(t *testing.T) {
	rtIC := testRuntime()
	in, mean := pointsInput(rtIC, 24)
	appIC := &meanSeeker{eps: 1e-9}
	ic, err := RunIC(rtIC, appIC, in, startModel(), nil)
	if err != nil {
		t.Fatal(err)
	}

	rtPIC := testRuntime()
	inPIC, _ := pointsInput(rtPIC, 24)
	appPIC := &meanSeeker{eps: 1e-9}
	pic, err := RunPIC(rtPIC, appPIC, inPIC, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}

	icMean, _ := ic.Model.Vector("mean")
	picMean, _ := pic.Model.Vector("mean")
	for i := range mean {
		if math.Abs(picMean[i]-icMean[i]) > 1e-6 {
			t.Fatalf("PIC mean %v != IC mean %v", picMean, icMean)
		}
	}
	if pic.BEIterations < 1 {
		t.Fatal("no best-effort iterations")
	}
	if len(pic.LocalIterations) != pic.BEIterations {
		t.Fatalf("LocalIterations has %d rows for %d BE iterations",
			len(pic.LocalIterations), pic.BEIterations)
	}
	for b, row := range pic.LocalIterations {
		if len(row) != 4 {
			t.Fatalf("BE iteration %d has %d sub-problems", b, len(row))
		}
	}
	if pic.Duration != pic.BEDuration+pic.TopOffDuration {
		t.Fatalf("Duration %v != BE %v + top-off %v", pic.Duration, pic.BEDuration, pic.TopOffDuration)
	}
	if pic.BEMetrics.LocalJobs == 0 {
		t.Fatal("best-effort phase ran no local jobs")
	}
}

func TestRunPICFirstBEIterationDoesMostWork(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 24)
	app := &meanSeeker{eps: 1e-9}
	pic, err := RunPIC(rt, app, in, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	maxLocal := pic.MaxLocalIterationsPerBE()
	if len(maxLocal) < 2 {
		t.Skipf("only %d BE iterations; cannot compare", len(maxLocal))
	}
	// The paper's Table I: the first best-effort iteration does almost
	// all local iterations; later ones need only a few.
	if maxLocal[0] <= maxLocal[1] {
		t.Fatalf("local iterations per BE iteration = %v, want decreasing", maxLocal)
	}
}

func TestRunPICDegeneratesToIC(t *testing.T) {
	// §III-B special case: with one partition, an identity merge and a
	// BE_converged that stops after one best-effort iteration, PIC
	// reduces to the conventional execution — same solution (to within
	// floating-point summation order; the paper notes PIC does not
	// preserve bitwise numerical equivalence) and the same iteration
	// count, executed as local iterations.
	rtIC := testRuntime()
	in, _ := pointsInput(rtIC, 20)
	ic, err := RunIC(rtIC, &meanSeeker{eps: 1e-9}, in, startModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rtPIC := testRuntime()
	inPIC, _ := pointsInput(rtPIC, 20)
	pic, err := RunPIC(rtPIC, &looseBE{meanSeeker{eps: 1e-9}}, inPIC, startModel(), PICOptions{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	icMean, _ := ic.Model.Vector("mean")
	picMean, _ := pic.Model.Vector("mean")
	for i := range icMean {
		if math.Abs(icMean[i]-picMean[i]) > 1e-9 {
			t.Fatalf("degenerate PIC mean %v differs from IC %v", picMean, icMean)
		}
	}
	if got := pic.LocalIterations[0][0]; got != ic.Iterations {
		t.Fatalf("degenerate PIC ran %d local iterations, IC ran %d", got, ic.Iterations)
	}
}

func TestRunPICMorePartitionsThanNodes(t *testing.T) {
	rt := testRuntime() // 4 nodes
	in, _ := pointsInput(rt, 30)
	app := &meanSeeker{eps: 1e-9}
	pic, err := RunPIC(rt, app, in, startModel(), PICOptions{Partitions: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pic.LocalIterations[0]) != 10 {
		t.Fatalf("got %d sub-problems, want 10", len(pic.LocalIterations[0]))
	}
}

// TestSubProblemsSharingAGroupRunBackToBack: with more sub-problems
// than node groups, a group's sub-problems run one after another on the
// simulated clock — each lane's sub-problem spans are disjoint and back
// to back — and the critical path books none of the solve as idle: its
// idle time is the merges' job overhead, which no span records.
func TestSubProblemsSharingAGroupRunBackToBack(t *testing.T) {
	rt := testRuntime() // 4 nodes: 4 groups for 10 sub-problems
	tr := trace.New()
	rt.SetTracer(tr)
	in, _ := pointsInput(rt, 30)
	const parts, groups = 10, 4
	res, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), PICOptions{Partitions: parts, MaxBEIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A sub-problem is one IC phase span on its group's lane.
	lanes := map[int][]trace.Event{}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindPhase && e.Lane > 0 {
			lanes[e.Lane] = append(lanes[e.Lane], e)
		}
	}
	if len(lanes) != groups {
		t.Fatalf("sub-problems ran on %d lanes, want %d", len(lanes), groups)
	}
	const eps = 1e-9 // a later start is the phase start plus summed durations
	abutting := 0
	for lane, spans := range lanes {
		for k := 1; k < len(spans); k++ {
			prev, cur := spans[k-1], spans[k]
			if float64(cur.Start) < float64(prev.End)-eps {
				t.Errorf("lane %d: sub-problem at %.6fs starts before the previous one ends at %.6fs",
					lane, float64(cur.Start), float64(prev.End))
			} else if float64(cur.Start) <= float64(prev.End)+eps {
				abutting++
			}
		}
	}
	// Within one best-effort iteration a group with k sub-problems runs
	// them back to back: k-1 abutting pairs, P - groups over all groups.
	if want := res.BEIterations * (parts - groups); abutting != want {
		t.Errorf("%d sub-problems start where their group's previous one ended, want %d", abutting, want)
	}
	// Every second of the run is some span's, the merges' overhead too.
	if bd := tr.CriticalPath(); math.Abs(float64(bd.Idle)) > eps {
		t.Errorf("critical path idle %.6fs, want 0\n%s", float64(bd.Idle), bd.Render())
	}
}

// TestMergeOverheadUntracedAllocatesNothing: charging a merge's overhead
// builds its span only for a tracer.
func TestMergeOverheadUntracedAllocatesNothing(t *testing.T) {
	rt := testRuntime()
	if allocs := testing.AllocsPerRun(10, func() { rt.chargeMergeOverhead("app") }); allocs != 0 {
		t.Errorf("untraced merge overhead allocates %.1f objects, want 0", allocs)
	}
}

func TestRunPICRequiresPartitions(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	if _, err := RunPIC(rt, &meanSeeker{eps: 1e-6}, in, startModel(), PICOptions{}); err == nil {
		t.Fatal("Partitions = 0 accepted")
	}
}

type badPartitioner struct{ meanSeeker }

func (b *badPartitioner) Partition(*mapred.Input, *model.Model, int) ([]SubProblem, error) {
	return nil, errors.New("partition failed")
}

type wrongCountPartitioner struct{ meanSeeker }

func (w *wrongCountPartitioner) Partition(in *mapred.Input, m *model.Model, p int) ([]SubProblem, error) {
	return []SubProblem{{Records: in.Records(), Model: m.Clone()}}, nil
}

type badMerger struct{ meanSeeker }

func (b *badMerger) Merge([]*model.Model, *model.Model) (*model.Model, error) {
	return nil, errors.New("merge failed")
}

func TestRunPICPartitionErrors(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	if _, err := RunPIC(rt, &badPartitioner{meanSeeker{eps: 1e-6}}, in, startModel(), PICOptions{Partitions: 2}); err == nil {
		t.Fatal("partition error swallowed")
	}
	if _, err := RunPIC(rt, &wrongCountPartitioner{meanSeeker{eps: 1e-6}}, in, startModel(), PICOptions{Partitions: 2}); err == nil {
		t.Fatal("wrong sub-problem count accepted")
	}
	if _, err := RunPIC(rt, &badMerger{meanSeeker{eps: 1e-6}}, in, startModel(), PICOptions{Partitions: 2}); err == nil {
		t.Fatal("merge error swallowed")
	}
}

// looseBE terminates the best-effort phase after the first iteration.
type looseBE struct{ meanSeeker }

func (l *looseBE) BEConverged(_, _ *model.Model) bool { return true }

func TestBEConvergedOverride(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 20)
	pic, err := RunPIC(rt, &looseBE{meanSeeker{eps: 1e-9}}, in, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pic.BEIterations != 1 {
		t.Fatalf("BEIterations = %d, want 1 with always-true BEConverged", pic.BEIterations)
	}
	// Top-off must still reach the true solution.
	if !pic.TopOffConverged {
		t.Fatal("top-off did not converge")
	}
}

func TestRunPICObserverPhases(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 20)
	var be, topoff int
	var lastBETime, firstTopOffTime float64
	_, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), PICOptions{
		Partitions: 4,
		Observer: func(s Sample) {
			switch s.Phase {
			case PhaseBestEffort:
				be++
				lastBETime = float64(s.Time)
			case PhaseTopOff:
				if topoff == 0 {
					firstTopOffTime = float64(s.Time)
				}
				topoff++
			default:
				t.Errorf("unexpected phase %q", s.Phase)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if be == 0 || topoff == 0 {
		t.Fatalf("samples: be=%d topoff=%d", be, topoff)
	}
	if firstTopOffTime <= lastBETime {
		t.Fatalf("top-off samples (%v) do not continue after best-effort (%v)", firstTopOffTime, lastBETime)
	}
}

func TestRunPICChargesPartitionAndMergeTraffic(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 24)
	pic, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pic.RepartitionBytes == 0 {
		t.Error("no repartition traffic charged")
	}
	if pic.MergeTrafficBytes == 0 {
		t.Error("no merge traffic charged")
	}
	if pic.ModelUpdateBytes == 0 {
		t.Error("no model update traffic charged")
	}
}

func TestRunPICLocalIterationsCapped(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 20)
	app := &meanSeeker{eps: 0} // local loops never converge
	pic, err := RunPIC(rt, app, in, startModel(), PICOptions{
		Partitions:          2,
		MaxLocalIterations:  3,
		MaxBEIterations:     2,
		MaxTopOffIterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range pic.LocalIterations {
		for _, n := range row {
			if n > 3 {
				t.Fatalf("local iterations %d exceeded cap", n)
			}
		}
	}
	if pic.BEIterations != 2 || pic.TopOffIterations != 2 {
		t.Fatalf("caps not honored: %+v", pic)
	}
}

func TestModelCheckpointRestore(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 20)
	app := &meanSeeker{eps: 1e-9}
	res, err := RunIC(rt, app, in, startModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The last persisted checkpoint is the converged model: a restarted
	// driver resumes from exactly that state.
	restored, err := rt.RestoreModel(app.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(res.Model) {
		t.Fatal("restored checkpoint differs from the final model")
	}
	// Resuming from the checkpoint converges immediately.
	resumed, err := RunIC(rt, app, in, restored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iterations > 1 {
		t.Fatalf("resume from checkpoint took %d iterations", resumed.Iterations)
	}
}

func TestRestoreModelWithoutCheckpoint(t *testing.T) {
	rt := testRuntime()
	if _, err := rt.RestoreModel("never-written"); err == nil {
		t.Fatal("missing checkpoint restored")
	}
}

func TestCheckpointsAdvance(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 20)
	app := &meanSeeker{eps: 1e-6}
	// Run a few capped iterations, snapshot, run more: the restored
	// model must track the newest write.
	res1, err := RunIC(rt, app, in, startModel(), &ICOptions{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := rt.RestoreModel(app.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !snap1.Equal(res1.Model) {
		t.Fatal("checkpoint does not match model after first run")
	}
	res2, err := RunIC(rt, app, in, res1.Model, &ICOptions{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := rt.RestoreModel(app.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !snap2.Equal(res2.Model) {
		t.Fatal("checkpoint not advanced by second run")
	}
	if snap2.Equal(snap1) {
		t.Fatal("second checkpoint identical to first")
	}
}

func TestTracerRecordsTimeline(t *testing.T) {
	rt := testRuntime()
	tr := trace.New()
	rt.SetTracer(tr)
	in, _ := pointsInput(rt, 24)
	res, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	kinds := map[trace.Kind]int{}
	var maxLane int
	for _, e := range tr.Events() {
		kinds[e.Kind]++
		if e.Lane > maxLane {
			maxLane = e.Lane
		}
	}
	if kinds[trace.KindLocalJob] == 0 {
		t.Error("no local jobs on the timeline")
	}
	if kinds[trace.KindJob] == 0 {
		t.Error("no framework jobs on the timeline (top-off)")
	}
	if kinds[trace.KindModelWrite] == 0 {
		t.Error("no model writes on the timeline")
	}
	if kinds[trace.KindPhase] == 0 {
		t.Error("no phase spans on the timeline")
	}
	if kinds[trace.KindTransfer] == 0 {
		t.Error("no transfers on the timeline")
	}
	if maxLane < 4 {
		t.Errorf("expected 4 group lanes, max lane = %d", maxLane)
	}
	_, end := tr.Span()
	if float64(end) < float64(res.Duration)*0.99 {
		t.Errorf("timeline ends at %v but run took %v", end, res.Duration)
	}
}

// keyMergingSeeker extends meanSeeker with a per-key merge so the
// distributed-merge path can run.
type keyMergingSeeker struct{ meanSeeker }

func (k *keyMergingSeeker) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	acc := values[0].(writable.Vector).Clone()
	for _, v := range values[1:] {
		vec := v.(writable.Vector)
		for i := range acc {
			acc[i] += vec[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(values))
	}
	return acc, nil
}

func TestDistributedMergeMatchesCentralized(t *testing.T) {
	run := func(distributed bool) *PICResult {
		rt := testRuntime()
		in, _ := pointsInput(rt, 24)
		res, err := RunPIC(rt, &keyMergingSeeker{meanSeeker{eps: 1e-9}}, in, startModel(), PICOptions{
			Partitions:       4,
			DistributedMerge: distributed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	central := run(false)
	dist := run(true)
	if !central.Model.Equal(dist.Model) {
		t.Fatal("distributed merge changed the final model")
	}
	if dist.MergeTrafficBytes == 0 {
		t.Fatal("distributed merge charged no traffic")
	}
}

func TestDistributedMergeRequiresKeyMerger(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 10)
	_, err := RunPIC(rt, &meanSeeker{eps: 1e-6}, in, startModel(), PICOptions{
		Partitions:       2,
		DistributedMerge: true,
	})
	if err == nil {
		t.Fatal("DistributedMerge without KeyMerger accepted")
	}
}

func TestObservabilityInstrumentation(t *testing.T) {
	rt := testRuntime()
	in, _ := pointsInput(rt, 24)
	reg := metrics.New()
	tr := trace.New()
	rt.SetObservability(reg)
	rt.SetTracer(tr)

	res, err := RunPIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), PICOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	jobs, ok := snap.Get("mapred.jobs")
	if !ok || jobs.Value < 1 {
		t.Fatalf("mapred.jobs missing or zero: %+v", jobs)
	}
	be, ok := snap.Get("core.be_delta")
	if !ok || len(be.Samples) != res.BEIterations {
		t.Fatalf("core.be_delta samples = %+v, want %d", be, res.BEIterations)
	}
	for i := 1; i < len(be.Samples); i++ {
		if be.Samples[i].Time <= be.Samples[i-1].Time {
			t.Fatal("be_delta samples not strictly increasing in time")
		}
	}
	if _, ok := snap.Get("core.residual{phase=top-off}"); !ok {
		var ids []string
		for _, m := range snap.Metrics {
			ids = append(ids, m.ID())
		}
		t.Fatalf("no top-off residual series; have %v", ids)
	}
	if skew, ok := snap.Get("core.be_skew"); !ok || len(skew.Samples) == 0 || skew.Samples[0].Value < 1 {
		t.Fatalf("core.be_skew = %+v", skew)
	}
	if cb, ok := snap.Get("simnet.core_busy_seconds"); !ok || len(cb.Samples) == 0 {
		t.Fatalf("simnet.core_busy_seconds = %+v", cb)
	}

	// The trace carries hierarchical spans: jobs parent under phase
	// spans, and framework jobs decompose into phase sub-spans.
	var phaseIDs []int64
	for _, e := range tr.Events() {
		if e.Kind == trace.KindPhase {
			if e.ID == 0 {
				t.Fatalf("phase span without id: %+v", e)
			}
			phaseIDs = append(phaseIDs, e.ID)
		}
	}
	if len(phaseIDs) < 2 { // best-effort + top-off
		t.Fatalf("phase spans = %d", len(phaseIDs))
	}
	parented, subSpans := 0, 0
	isPhase := map[int64]bool{}
	for _, id := range phaseIDs {
		isPhase[id] = true
	}
	for _, e := range tr.Events() {
		if isPhase[e.Parent] {
			parented++
		}
		switch e.Kind {
		case trace.KindMap, trace.KindShuffle, trace.KindReduce, trace.KindOverhead, trace.KindModelDist:
			subSpans++
			if e.Parent == 0 {
				t.Fatalf("sub-span without parent: %+v", e)
			}
		}
	}
	if parented == 0 {
		t.Fatal("no events parented under phase spans")
	}
	if subSpans == 0 {
		t.Fatal("no per-job phase sub-spans recorded")
	}
}
