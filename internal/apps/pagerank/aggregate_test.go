package pagerank

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// aggOutcome is everything one aggregation job run shows: its records'
// bytes and Metrics, or its error.
type aggOutcome struct {
	Records []byte
	Metrics mapred.Metrics
	Err     string
}

// aggCase is an aggregation job's input and the models it runs under,
// one job per model through Run and then RunLocal.
type aggCase struct {
	name   string
	recs   []mapred.Record
	models []*model.Model
}

// runAggregate runs c's jobs on a fresh engine, warm when budget > 0,
// calling disturb on the family before each model's pair of jobs.
func runAggregate(t *testing.T, app *App, c aggCase, workers int, budget int64,
	disturb func(step int, f *mapred.JobFamily)) ([]aggOutcome, mapred.FamilyStats) {
	t.Helper()
	cluster := simcluster.New(simcluster.Small())
	e := mapred.NewEngine(cluster)
	e.Workers = workers
	if budget > 0 {
		e.Family = mapred.NewJobFamily("test", budget)
	}
	in := mapred.NewInput(c.recs, cluster, 12)
	var outcomes []aggOutcome
	note := func(out *mapred.Output, met mapred.Metrics, err error) {
		o := aggOutcome{Metrics: met}
		if err != nil {
			o.Err = err.Error()
		} else {
			for _, r := range out.Records {
				o.Records = writable.Encode(append(o.Records, r.Key...), r.Value)
			}
		}
		outcomes = append(outcomes, o)
	}
	for step, m := range c.models {
		if disturb != nil {
			disturb(step, e.Family)
		}
		job := app.aggregateJob(app.layoutOf(m.Schema()))
		note(e.Run(job, in, m))
		note(e.RunLocal(job, in, m))
	}
	if e.Family == nil {
		return outcomes, mapred.FamilyStats{}
	}
	return outcomes, e.Family.Stats()
}

// withParallelEdges returns g with a repeat of every seventh vertex's
// first out-edge appended.
func withParallelEdges(g *webgraph.Graph) *webgraph.Graph {
	for v := 0; v < g.N; v += 7 {
		if len(g.Out[v]) > 0 {
			g.Out[v] = append(g.Out[v], g.Out[v][0])
		}
	}
	return g
}

// floatCopy returns m as a float-column model on m's schema.
func floatCopy(m *model.Model) *model.Model {
	f := model.NewFloatsOn(m.Schema())
	for i := range m.Schema().Keys() {
		f.CopyAt(i, m, i)
	}
	return f
}

// TestAggregateFusedMatchesCold holds the fused aggregation to the cold
// one: through Run and RunLocal, at 1, 2 and 8 workers, on boxed and
// float models, on PIC sub-models whose in-flows are +0, -0 and
// non-zero, over parallel edges, with a node's cache entries evicted
// mid-loop and with a malformed record, every run's records, Metrics and
// error match the cold single-worker run's.
func TestAggregateFusedMatchesCold(t *testing.T) {
	g := withParallelEdges(webgraph.NearlyUncoupled(5, 600, 3, 0.2, 4))
	app := New(g, 0.85, 1e-9, 1)
	recs := Records(g)

	// An IC trajectory: the boxed initial model, then float iterates.
	rt := testRuntime()
	rt.SetLoopCache(false)
	in := graphInput(rt, g)
	traj := []*model.Model{InitialModel(g)}
	for len(traj) < 4 {
		next, err := app.Iteration(rt, in, traj[len(traj)-1])
		if err != nil {
			t.Fatal(err)
		}
		traj = append(traj, next)
	}
	cases := []aggCase{
		{"ic-boxed", recs, traj[:1]},
		{"ic-float", recs, append([]*model.Model{floatCopy(traj[0])}, traj[1:]...)},
	}

	// PIC sub-problems, boxed and float, with chosen in-flows.
	var zeros, negZeros, nonZeros int
	for _, full := range []*model.Model{traj[0], traj[2]} {
		subs, err := app.Partition(in, full, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			lay := app.layoutOf(sub.Model.Schema())
			for v, s := range lay.inflow {
				if s < 0 {
					continue
				}
				switch v % 3 {
				case 0:
					sub.Model.SetFloatAt(int(s), 0)
					zeros++
				case 1:
					sub.Model.SetFloatAt(int(s), math.Copysign(0, -1))
					negZeros++
				default:
					sub.Model.SetFloatAt(int(s), 0.125+float64(v)/7)
					nonZeros++
				}
			}
			cases = append(cases, aggCase{"pic", sub.Records, []*model.Model{sub.Model}})
		}
	}
	if zeros == 0 || negZeros == 0 || nonZeros == 0 {
		t.Fatalf("in-flows +0/-0/other: %d/%d/%d, want each present", zeros, negZeros, nonZeros)
	}

	bad := append([]mapred.Record(nil), recs...)
	bad[len(bad)/2].Value = writable.Text("not an adjacency")
	cases = append(cases, aggCase{"malformed", bad, traj[:2]})

	evict := func(step int, f *mapred.JobFamily) {
		if step%2 == 1 {
			f.EvictNode(step % 4)
		}
	}
	for _, c := range cases {
		cold, _ := runAggregate(t, app, c, 1, 0, nil)
		for _, workers := range []int{1, 2, 8} {
			if got, _ := runAggregate(t, app, c, workers, 0, nil); !reflect.DeepEqual(got, cold) {
				t.Errorf("%s: cold workers=%d differs from cold workers=1", c.name, workers)
			}
			warm, stats := runAggregate(t, app, c, workers, mapred.DefaultNodeCacheBytes, nil)
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s: warm workers=%d differs from cold", c.name, workers)
			}
			if c.name == "malformed" {
				if warm[0].Err == "" {
					t.Errorf("malformed: warm workers=%d ran without error", workers)
				}
			} else if stats.Misses == 0 || (len(c.models) > 1 && stats.Hits == 0) {
				t.Errorf("%s: warm workers=%d never fused: %+v", c.name, workers, stats)
			}
			if len(c.models) > 1 {
				evicted, stats := runAggregate(t, app, c, workers, mapred.DefaultNodeCacheBytes, evict)
				if !reflect.DeepEqual(evicted, cold) {
					t.Errorf("%s: warm workers=%d with EvictNode differs from cold", c.name, workers)
				}
				if c.name != "malformed" && stats.Evictions == 0 {
					t.Errorf("%s: workers=%d: nothing was evicted", c.name, workers)
				}
			}
		}
	}
}

// countEmitter counts emissions and keeps nothing.
type countEmitter struct{ n int }

func (e *countEmitter) Emit(string, writable.Writable) { e.n++ }

// TestWarmMapSplitAllocatesPerEmittedRecord pins the fused kernel's
// allocations on a warm split: the boxed value of each record it emits,
// plus a constant — nothing per edge.
func TestWarmMapSplitAllocatesPerEmittedRecord(t *testing.T) {
	g := webgraph.NearlyUncoupled(3, 4_000, 4, 0.1, 6)
	app := New(g, 0.85, 1e-9, 1)
	m := floatCopy(InitialModel(g))
	mp := &aggregateMapper{a: app, lay: app.layoutOf(m.Schema())}
	d := mp.NewDerived(Records(g)[:1_000])
	var em countEmitter
	if _, _, err := mp.MapSplit(d, m, &em); err != nil {
		t.Fatal(err)
	}
	emitted := em.n
	allocs := testing.AllocsPerRun(20, func() {
		em.n = 0
		if _, _, err := mp.MapSplit(d, m, &em); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(emitted)+2 {
		t.Fatalf("warm MapSplit allocated %.1f objects for %d emitted records", allocs, emitted)
	}
}

// BenchmarkIteration times one IC iteration — aggregation, then
// propagation — on a 10 000-vertex graph, warm (the loop cache attached,
// so both jobs run fused) and cold. Each call steps from the previous
// one's model.
func BenchmarkIteration(b *testing.B) {
	g := webgraph.NearlyUncoupled(11, 10_000, 4, 0.05, 4)
	for _, warm := range []bool{true, false} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			app := New(g, 0.85, 1e-9, 1)
			rt := testRuntime()
			rt.SetLoopCache(warm)
			in := graphInput(rt, g)
			// The first iteration builds the layouts and stages the cache.
			m, err := app.Iteration(rt, in, InitialModel(g))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m, err = app.Iteration(rt, in, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
