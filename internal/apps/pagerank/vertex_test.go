package pagerank

import (
	"bytes"
	"math"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

func bspRuntime(workers int) *core.Runtime {
	rt := testRuntime()
	rt.Engine().Workers = workers
	if err := rt.SetBackend(core.BackendBSP); err != nil {
		panic(err)
	}
	return rt
}

func TestBSPICMatchesSequentialReference(t *testing.T) {
	g := webgraph.NearlyUncoupled(1, 200, 4, 0.1, 3)
	rt := bspRuntime(1)
	app := New(g, 0.85, 1e-12, 1)
	res, err := core.RunIC(rt, app, graphInput(rt, g), InitialModel(g), &core.ICOptions{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := Ranks(res.Model, g.N)
	want := Reference(g, 0.85, 10)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank %d = %v, reference %v", v, got[v], want[v])
		}
	}
}

func TestBSPMatchesMapredWithinRounding(t *testing.T) {
	g := webgraph.NearlyUncoupled(3, 150, 3, 0.1, 3)
	run := func(backend core.Backend) []float64 {
		rt := testRuntime()
		if err := rt.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		app := New(g, 0.85, 1e-12, 1)
		res, err := core.RunIC(rt, app, graphInput(rt, g), InitialModel(g), &core.ICOptions{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return Ranks(res.Model, g.N)
	}
	mr := run(core.BackendMapred)
	bp := run(core.BackendBSP)
	// The vertex program replays the aggregate/propagate arithmetic but
	// may sum a vertex's inbound scores in a different order than the
	// mapred reducer, so the backends agree to rounding, not bytes.
	for v := range mr {
		if math.Abs(mr[v]-bp[v]) > 1e-12 {
			t.Fatalf("rank %d diverges across backends: mapred %v, bsp %v", v, mr[v], bp[v])
		}
	}
}

func TestBSPDeterministicAcrossWorkersAndRepeats(t *testing.T) {
	g := webgraph.NearlyUncoupled(5, 200, 4, 0.1, 3)
	run := func(workers int) ([]byte, *core.ICResult) {
		rt := bspRuntime(workers)
		app := New(g, 0.85, 1e-12, 1)
		res, err := core.RunIC(rt, app, graphInput(rt, g), InitialModel(g), &core.ICOptions{MaxIterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model.Encode(nil), res
	}
	base, baseRes := run(1)
	for name, workers := range map[string]int{"workers=8": 8, "repeat": 1} {
		got, gotRes := run(workers)
		if !bytes.Equal(got, base) {
			t.Errorf("%s: BSP model bytes diverge", name)
		}
		if !reflect.DeepEqual(gotRes.Metrics, baseRes.Metrics) {
			t.Errorf("%s: metrics diverge:\n got %+v\nwant %+v", name, gotRes.Metrics, baseRes.Metrics)
		}
	}
}

// TestPICOnBSPHierarchicalMatchesFlat exercises the satellite mergers:
// pagerank's key merge is identity over disjoint rank/edge keys and
// FinalizeMerge recomputes cross scores deterministically, so the
// rack-tree merge must reproduce the flat gather byte for byte.
func TestPICOnBSPHierarchicalMatchesFlat(t *testing.T) {
	g := webgraph.NearlyUncoupled(7, 200, 4, 0.1, 3)
	run := func(hier bool) []byte {
		rt := bspRuntime(4)
		app := New(g, 0.85, 1e-9, 4)
		res, err := core.RunPIC(rt, app, graphInput(rt, g), InitialModel(g), core.PICOptions{
			Partitions:          4,
			MaxBEIterations:     3,
			MaxLocalIterations:  5,
			MaxTopOffIterations: 3,
			HierarchicalMerge:   hier,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model.Encode(nil)
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("hierarchical merge diverges from flat merge on BSP backend")
	}
}

func TestMergeKeyIdentityAndValidation(t *testing.T) {
	app := New(smallGraph(), 0.85, 1e-6, 1)
	v := writable.Float64(0.25)
	got, err := app.MergeKey(RankKey(1), []writable.Writable{v})
	if err != nil || got != v {
		t.Fatalf("MergeKey identity = %v, %v", got, err)
	}
	if _, err := app.MergeKey(RankKey(1), []writable.Writable{v, v}); err == nil {
		t.Fatal("MergeKey accepted a duplicated rank key")
	}
	if _, err := app.MergeKeyWeighted(RankKey(1), []writable.Writable{v}, []int{1, 2}); err == nil {
		t.Fatal("MergeKeyWeighted accepted mismatched weights")
	}
	if _, err := app.MergeKeyWeighted(RankKey(1), []writable.Writable{v}, []int{0}); err == nil {
		t.Fatal("MergeKeyWeighted accepted weight 0")
	}
	if got, err := app.MergeKeyWeighted(RankKey(1), []writable.Writable{v}, []int{3}); err != nil || got != v {
		t.Fatalf("MergeKeyWeighted identity = %v, %v", got, err)
	}
}

// TestVertexProgramRejectsRepeatedVertex: program vertices are found by
// graph vertex number, so an input that holds a vertex twice — even
// under two keys — is refused when the program is built.
func TestVertexProgramRejectsRepeatedVertex(t *testing.T) {
	g := webgraph.NearlyUncoupled(2, 30, 2, 0.1, 3)
	rt := bspRuntime(1)
	app := New(g, 0.85, 1e-9, 1)
	recs := Records(g)
	recs = append(recs, recs[7])
	recs[len(recs)-1].Key = "again"
	in := mapred.NewInput(recs, rt.Cluster(), 4)
	if _, err := app.VertexProgram(in, InitialModel(g)); err == nil || !strings.Contains(err.Error(), "vertex 7 has two records") {
		t.Fatalf("err = %v, want the repeated vertex named", err)
	}
}

// discard is a bsp.Sender that drops every message.
type discard struct{}

func (discard) Send(int, string, writable.Writable) {}
func (discard) SendFloat(int, float64)              {}

// On the float column and the float lane the vertex program reads and
// writes the model by slot and sends scores unboxed: one iteration's
// superstep-0 and superstep-1 Compute plus Model allocate a fixed
// number of objects — the next model's — whatever the graph's size.
func TestVertexProgramAllocatesConstantPerIteration(t *testing.T) {
	const limit = 8
	for _, n := range []int{400, 4_000} {
		g := webgraph.NearlyUncoupled(7, n, 4, 0.1, 3)
		rt := bspRuntime(1)
		app := New(g, 0.85, 1e-12, 1)
		in := graphInput(rt, g)
		// Two real iterations: the model is a float column with the
		// nonzero scores of a run.
		res, err := core.RunIC(rt, app, in, InitialModel(g), &core.ICOptions{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Model
		prog, err := app.VertexProgram(in, m)
		if err != nil {
			t.Fatal(err)
		}
		p := prog.(*prProgram)
		mail := bsp.Inbox{Floats: []float64{0.25, 0.5}}
		allocs := testing.AllocsPerRun(3, func() {
			for v := range p.Vertices() {
				if _, err := p.Compute(0, v, bsp.Inbox{}, discard{}); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Compute(1, v, mail, discard{}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Model(m); err != nil {
				t.Fatal(err)
			}
		})
		if g.NumEdges() < 2*g.N {
			t.Fatalf("%d edges on %d vertices: too few to tell per-edge from per-vertex", g.NumEdges(), g.N)
		}
		t.Logf("%d vertices: %.0f objects", n, allocs)
		if allocs > limit {
			t.Errorf("Compute+Model allocate %.0f objects for %d vertices and %d edges, want at most %d", allocs, g.N, g.NumEdges(), limit)
		}
	}
}

// TestWarmBSPIterationAllocsIndependentOfGraphSize pins the float lane
// and the derived vertex state end to end: a warm IC iteration of
// PageRank on the BSP backend — model distribution, both supersteps,
// pricing, the next model — allocates the same number of objects at
// 2 000 vertices as at 8 000, and no more than the ratchet.
func TestWarmBSPIterationAllocsIndependentOfGraphSize(t *testing.T) {
	const ratchet = 41
	if raceEnabled {
		t.Skip("the race detector drops pooled objects")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		g := webgraph.NearlyUncoupled(7, n, 4, 0.05, 4)
		app := New(g, 0.85, 1e-12, 1)
		rt := bspRuntime(1)
		in := graphInput(rt, g)
		m := InitialModel(g)
		step := func() {
			res, err := core.RunIC(rt, app, in, m, &core.ICOptions{MaxIterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			m = res.Model
		}
		// The first iterations build the layout and fill the pools.
		step()
		step()
		return testing.AllocsPerRun(5, step)
	}
	small, large := allocs(2_000), allocs(8_000)
	t.Logf("%.1f objects at 2 000 vertices, %.1f at 8 000", small, large)
	if small != large {
		t.Errorf("a warm BSP iteration allocates %.1f objects at 2 000 vertices, %.1f at 8 000", small, large)
	}
	if large > ratchet {
		t.Errorf("a warm BSP iteration allocates %.1f objects, want at most %d", large, ratchet)
	}
}

// BenchmarkVertexIteration times one warm IC iteration on the BSP
// backend — both supersteps, their pricing and the next model — on a
// 10 000-vertex graph. The input, the vertex set and the first float
// model's slot plan are built before the timer starts; each call steps
// from the previous one's model, as a loop does.
func BenchmarkVertexIteration(b *testing.B) {
	g := webgraph.NearlyUncoupled(11, 10_000, 4, 0.05, 4)
	app := New(g, 0.85, 1e-12, 1)
	rt := bspRuntime(1)
	in := graphInput(rt, g)
	opt := &core.ICOptions{MaxIterations: 1, DisableModelWrites: true}
	m := InitialModel(g)
	for range 2 {
		res, err := core.RunIC(rt, app, in, m, opt)
		if err != nil {
			b.Fatal(err)
		}
		m = res.Model
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunIC(rt, app, in, m, opt)
		if err != nil {
			b.Fatal(err)
		}
		m = res.Model
	}
}
