package pagerank

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// aggOutcome is everything one aggregation job run shows: the ranks it
// wrote into Into, its Output and Metrics, or its error.
type aggOutcome struct {
	Into    []byte
	Output  *mapred.Output
	Metrics mapred.Metrics
	Err     string
}

// aggCase is an aggregation job's input and the models it runs under,
// one job per model through Run and then RunLocal. declines marks a
// case whose fused runs must fall back to the cold path.
type aggCase struct {
	name     string
	recs     []mapred.Record
	models   []*model.Model
	declines bool
}

// countingAggregate is the aggregation mapper with its cold Map
// counted, so a run shows whether it fused.
type countingAggregate struct {
	*aggregateMapper
	maps *atomic.Int64
}

func (c countingAggregate) Map(key string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
	c.maps.Add(1)
	return c.aggregateMapper.Map(key, v, m, emit)
}

// runAggregate runs c's jobs on a fresh engine, warm when budget > 0,
// calling disturb on the family before each model's pair of jobs. Each
// job writes into its own new ranks, as Iteration's does. coldMaps is
// how many records the cold Map read.
func runAggregate(t *testing.T, app *App, c aggCase, workers int, budget int64,
	disturb func(step int, f *mapred.JobFamily)) (outcomes []aggOutcome, stats mapred.FamilyStats, coldMaps int64) {
	t.Helper()
	cluster := simcluster.New(simcluster.Small())
	e := mapred.NewEngine(cluster)
	e.Workers = workers
	if budget > 0 {
		e.Family = mapred.NewJobFamily("test", budget)
	}
	in := mapred.NewInput(c.recs, cluster, 12)
	var maps atomic.Int64
	for step, m := range c.models {
		if disturb != nil && e.Family != nil {
			disturb(step, e.Family)
		}
		lay := app.layoutOf(m.Schema())
		for _, run := range []func(*mapred.Job, *mapred.Input, *model.Model) (*mapred.Output, mapred.Metrics, error){
			e.Run, e.RunLocal,
		} {
			into := app.newRanks(lay, m)
			job := app.aggregateJob(lay, into)
			job.Mapper = countingAggregate{job.Mapper.(*aggregateMapper), &maps}
			out, met, err := run(job, in, m)
			if err != nil {
				outcomes = append(outcomes, aggOutcome{Err: err.Error()})
				continue
			}
			if out.Records != nil || out.ByReducer != nil {
				t.Fatalf("%s: the job listed %d records beside Into", c.name, len(out.Records))
			}
			outcomes = append(outcomes, aggOutcome{Into: into.Encode(nil), Output: out, Metrics: met})
		}
	}
	if e.Family != nil {
		stats = e.Family.Stats()
	}
	return outcomes, stats, maps.Load()
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

// withoutKeys returns m, in its column kind, on a schema without the
// keys drop picks.
func withoutKeys(m *model.Model, drop func(key string) bool) *model.Model {
	var keys []string
	for _, k := range m.Schema().Keys() {
		if !drop(k) {
			keys = append(keys, k)
		}
	}
	out := m.NewLikeOn(model.NewSchema(keys))
	for i, k := range out.Schema().Keys() {
		j, _ := m.Schema().Slot(k)
		out.CopyAt(i, m, j)
	}
	return out
}

// TestAggregateFusedMatchesCold holds the fused aggregation into the
// new ranks to the cold one: through Run and RunLocal, at 1, 2 and 8
// workers, on boxed and float models, on a model that lacks ranks its
// edges point at, on PIC sub-models whose in-flows are +0, -0 and
// non-zero, over parallel edges, with a node's cache entries evicted
// mid-loop, with a malformed record and with a rank key the ranks'
// schema lacks (one split declines, and the job runs cold), every
// run's ranks, Output, Metrics and error match the cold single-worker
// run's.
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
	// A model without some ranks its held edges point at: the
	// aggregation still sums into them.
	sparse := floatCopy(traj[2])
	for v := 0; v < g.N; v += 4 {
		sparse.Delete(RankKey(v))
	}
	// A model, and so new ranks, whose schema lacks vertex 1's rank key:
	// only the splits holding an edge into vertex 1 decline.
	narrow := withoutKeys(traj[2], func(key string) bool { return key == RankKey(1) })
	cases := []aggCase{
		{name: "ic-boxed", recs: recs, models: traj[:1]},
		{name: "ic-float", recs: recs, models: append([]*model.Model{floatCopy(traj[0])}, traj[1:]...)},
		{name: "sparse", recs: recs, models: []*model.Model{sparse, boxedCopy(sparse)}},
		{name: "narrow", recs: recs, models: []*model.Model{narrow, boxedCopy(narrow)}, declines: true},
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
			cases = append(cases, aggCase{name: "pic", recs: sub.Records, models: []*model.Model{sub.Model}})
		}
	}
	if zeros == 0 || negZeros == 0 || nonZeros == 0 {
		t.Fatalf("in-flows +0/-0/other: %d/%d/%d, want each present", zeros, negZeros, nonZeros)
	}

	bad := append([]mapred.Record(nil), recs...)
	bad[len(bad)/2].Value = writable.Text("not an adjacency")
	cases = append(cases, aggCase{name: "malformed", recs: bad, models: traj[:2], declines: true})

	evict := func(step int, f *mapred.JobFamily) {
		if step%2 == 1 {
			f.EvictNode(step % 4)
		}
	}
	for _, c := range cases {
		cold, _, _ := runAggregate(t, app, c, 1, 0, nil)
		if c.name == "malformed" && cold[0].Err == "" {
			t.Fatal("malformed: the cold job ran without error")
		}
		for _, workers := range []int{1, 2, 8} {
			if got, _, _ := runAggregate(t, app, c, workers, 0, nil); !reflect.DeepEqual(got, cold) {
				t.Errorf("%s: cold workers=%d differs from cold workers=1", c.name, workers)
			}
			warm, stats, coldMaps := runAggregate(t, app, c, workers, mapred.DefaultNodeCacheBytes, nil)
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s: warm workers=%d differs from cold", c.name, workers)
			}
			if fused := coldMaps == 0; fused == c.declines {
				t.Errorf("%s: warm workers=%d: cold Map read %d records, want fused = %v", c.name, workers, coldMaps, !c.declines)
			}
			if c.name != "malformed" && (stats.Misses == 0 || (len(c.models) > 1 && stats.Hits == 0)) {
				t.Errorf("%s: warm workers=%d never staged: %+v", c.name, workers, stats)
			}
			if len(c.models) > 1 {
				evicted, stats, _ := runAggregate(t, app, c, workers, mapred.DefaultNodeCacheBytes, evict)
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

// TestWarmIterationAllocsIndependentOfGraphSize pins the record-free
// iteration: with the loop cache warm, an IC iteration on the framework
// and a local (best-effort) iteration each allocate as many objects on
// a 2 000-vertex graph as on an 8 000-vertex one — nothing per vertex,
// edge or record. The collector is off, so the pools keep what they
// hold between runs, and one P runs everything, so a pool never misses
// an object another P holds.
func TestWarmIterationAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(n int, local bool) float64 {
		g := webgraph.NearlyUncoupled(7, n, 4, 0.05, 4)
		app := New(g, 0.85, 1e-9, 1)
		rt := testRuntime()
		rt.Engine().Workers = 1
		if local {
			rt = rt.Fork(rt.Cluster(), true)
		}
		in := graphInput(rt, g)
		m := InitialModel(g)
		step := func() {
			var err error
			if m, err = app.Iteration(rt, in, m); err != nil {
				t.Fatal(err)
			}
		}
		// The first iterations build the layouts, stage the cache and
		// fill the pools.
		step()
		step()
		return testing.AllocsPerRun(5, step)
	}
	for _, local := range []bool{false, true} {
		small, large := allocs(2_000, local), allocs(8_000, local)
		if small != large {
			t.Errorf("local=%v: a warm iteration allocates %.1f objects at 2 000 vertices, %.1f at 8 000", local, small, large)
		}
	}
}

// BenchmarkIteration times one IC iteration — aggregation, then
// propagation — on a 10 000-vertex graph, warm (the loop cache attached,
// so both jobs run fused into their models by slot) and cold. Each call
// steps from the previous one's model.
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
