package pagerank

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// propOutcome is everything one propagation job, or one Iteration,
// shows: the model it wrote and its Metrics, or its error.
type propOutcome struct {
	Model   []byte
	Metrics mapred.Metrics
	Err     string
}

// propCase is a propagation input and the models it steps through: the
// standalone job runs on each as both job model and previous model, and
// Iteration starts from the first.
type propCase struct {
	name   string
	recs   []mapred.Record
	models []*model.Model
}

// evictOdd drops a node's cache entries before every odd step.
func evictOdd(step int, f *mapred.JobFamily) {
	if step%2 == 1 {
		f.EvictNode(step % 4)
	}
}

// runPropagateJob runs c's propagation jobs on a fresh engine, warm when
// budget > 0, one job per model through Run and then RunLocal, each
// writing into a float copy of its model.
func runPropagateJob(t *testing.T, app *App, c propCase, workers int, budget int64,
	disturb func(step int, f *mapred.JobFamily)) ([]propOutcome, mapred.FamilyStats) {
	t.Helper()
	cluster := simcluster.New(simcluster.Small())
	e := mapred.NewEngine(cluster)
	e.Workers = workers
	if budget > 0 {
		e.Family = mapred.NewJobFamily("test", budget)
	}
	in := mapred.NewInput(c.recs, cluster, 12)
	var outcomes []propOutcome
	for step, m := range c.models {
		if disturb != nil && e.Family != nil {
			disturb(step, e.Family)
		}
		for _, run := range []func(*mapred.Job, *mapred.Input, *model.Model) (*mapred.Output, mapred.Metrics, error){
			e.Run, e.RunLocal,
		} {
			into := floatCopy(m)
			out, met, err := run(app.propagateJob(app.layoutOf(m.Schema()), m, into), in, m)
			o := propOutcome{Model: into.Encode(nil), Metrics: met}
			if err != nil {
				o = propOutcome{Err: err.Error()}
			} else if out.Records != nil {
				t.Fatalf("%s: the job listed %d records beside Into", c.name, len(out.Records))
			}
			outcomes = append(outcomes, o)
		}
	}
	if e.Family == nil {
		return outcomes, mapred.FamilyStats{}
	}
	return outcomes, e.Family.Stats()
}

// runIterations steps Iteration from c's first model three times on a
// fresh runtime — in memory when local — and records each step's model
// and the runtime's Metrics after it.
func runIterations(t *testing.T, app *App, c propCase, workers int, warm, local bool,
	disturb func(step int, f *mapred.JobFamily)) []propOutcome {
	t.Helper()
	rt := testRuntime()
	rt.SetLoopCache(warm)
	rt.Engine().Workers = workers
	if local {
		rt = rt.Fork(rt.Cluster(), true)
	}
	in := mapred.NewInput(c.recs, rt.Cluster(), rt.Cluster().MapSlots())
	var outcomes []propOutcome
	m := c.models[0]
	for step := 0; step < 3; step++ {
		if disturb != nil && rt.LoopFamily() != nil {
			disturb(step, rt.LoopFamily())
		}
		next, err := app.Iteration(rt, in, m)
		if err != nil {
			return append(outcomes, propOutcome{Err: err.Error()})
		}
		outcomes = append(outcomes, propOutcome{Model: next.Encode(nil), Metrics: rt.Metrics()})
		m = next
	}
	return outcomes
}

// boxedCopy returns m as a boxed model on m's schema.
func boxedCopy(m *model.Model) *model.Model {
	b := model.NewOn(m.Schema())
	for i := range m.Schema().Keys() {
		b.CopyAt(i, m, i)
	}
	return b
}

// TestPropagateIntoMatchesCold holds the fused propagation to the cold
// one, for the propagation job alone (Run and RunLocal) and for whole
// Iterations (framework and in-memory), at 1, 2 and 8 workers: on the
// full model, boxed and float; on one lacking some ranks and edge
// scores; on PIC sub-models, whose cross edges are absent and in-flows
// present; over parallel edges; with a malformed record; and with a
// node's cache entries evicted mid-loop, every written model, Metrics
// and error matches the cold single-worker run's.
func TestPropagateIntoMatchesCold(t *testing.T) {
	g := withParallelEdges(webgraph.NearlyUncoupled(5, 600, 3, 0.2, 4))
	app := New(g, 0.85, 1e-9, 1)
	recs := Records(g)

	rt := testRuntime()
	rt.SetLoopCache(false)
	in := graphInput(rt, g)
	traj := []*model.Model{InitialModel(g)}
	for len(traj) < 3 {
		next, err := app.Iteration(rt, in, traj[len(traj)-1])
		if err != nil {
			t.Fatal(err)
		}
		traj = append(traj, next)
	}
	// A model that lacks some edge scores and ranks of its schema: the
	// propagation skips those edges and vertices.
	sparse := floatCopy(traj[2])
	for i, key := range sparse.Schema().Keys() {
		if i%5 == 0 {
			sparse.Delete(key)
		}
	}
	cases := []propCase{
		{"full-float", recs, traj[1:]},
		{"full-boxed", recs, []*model.Model{traj[0], boxedCopy(traj[1]), boxedCopy(traj[2])}},
		{"sparse", recs, []*model.Model{sparse, boxedCopy(sparse)}},
	}
	subs, err := app.Partition(in, traj[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		lay := app.layoutOf(sub.Model.Schema())
		inflows := 0
		for _, s := range lay.inflow {
			if sub.Model.HasAt(int(s)) {
				inflows++
			}
		}
		if inflows == 0 || sub.Model.Len() >= traj[2].Len() {
			t.Fatalf("sub-model %d: %d in-flows, %d of %d keys; want in-flows and no cross edges",
				i, inflows, sub.Model.Len(), traj[2].Len())
		}
		cases = append(cases, propCase{fmt.Sprintf("pic-%d", i), sub.Records, []*model.Model{sub.Model, boxedCopy(sub.Model)}})
	}
	bad := append([]mapred.Record(nil), recs...)
	bad[len(bad)/2].Value = writable.Text("not an adjacency")
	cases = append(cases, propCase{"malformed", bad, traj[1:]})

	for _, c := range cases {
		cold, _ := runPropagateJob(t, app, c, 1, 0, nil)
		if c.name == "malformed" && cold[0].Err == "" {
			t.Fatal("malformed: the cold job ran without error")
		}
		coldIter := map[bool][]propOutcome{}
		for _, local := range []bool{false, true} {
			coldIter[local] = runIterations(t, app, c, 1, false, local, nil)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, disturb := range []func(int, *mapred.JobFamily){nil, evictOdd} {
				label := fmt.Sprintf("%s workers=%d evict=%v", c.name, workers, disturb != nil)
				warm, stats := runPropagateJob(t, app, c, workers, mapred.DefaultNodeCacheBytes, disturb)
				if !reflect.DeepEqual(warm, cold) {
					t.Errorf("%s: warm propagation job differs from cold", label)
				}
				if c.name != "malformed" && (stats.Misses == 0 || stats.Hits == 0) {
					t.Errorf("%s: warm propagation job never fused: %+v", label, stats)
				}
				if disturb != nil && c.name != "malformed" && stats.Evictions == 0 {
					t.Errorf("%s: nothing was evicted", label)
				}
				for _, local := range []bool{false, true} {
					if got := runIterations(t, app, c, workers, true, local, disturb); !reflect.DeepEqual(got, coldIter[local]) {
						t.Errorf("%s local=%v: warm Iteration differs from cold", label, local)
					}
				}
			}
			if got, _ := runPropagateJob(t, app, c, workers, 0, nil); !reflect.DeepEqual(got, cold) {
				t.Errorf("%s: cold workers=%d differs from cold workers=1", c.name, workers)
			}
		}
	}
}

// TestWarmMapIntoAllocatesNothing pins the fused propagation kernel on a
// warm split: it writes every edge score by slot and allocates nothing.
func TestWarmMapIntoAllocatesNothing(t *testing.T) {
	g := webgraph.NearlyUncoupled(3, 4_000, 4, 0.1, 6)
	app := New(g, 0.85, 1e-9, 1)
	m := floatCopy(InitialModel(g))
	mp := &propagateMapper{a: app, lay: app.layoutOf(m.Schema()), prev: m}
	d := mp.NewDerived(Records(g)[:1_000])
	into := m.Clone()
	records, _, err := mp.MapInto(d, m, into, nil)
	if err != nil || records == 0 {
		t.Fatalf("MapInto wrote %d records, err %v", records, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := mp.MapInto(d, m, into, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MapInto allocated %.1f objects for %d records", allocs, records)
	}
}
