package pagerank

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// The derived vertex state is host memory: a run that keeps it across
// iterations and restart attempts (the loop cache attached, the
// default) and a run that derives it every attempt (detached) must be
// the same run, byte for byte.

// derivedRun is everything a run's determinism covers.
type derivedRun struct {
	model    []byte
	metrics  mapred.Metrics
	trace    string
	elapsed  simtime.Duration
	restarts float64
}

func (r derivedRun) equal(o derivedRun) bool {
	return bytes.Equal(r.model, o.model) && reflect.DeepEqual(r.metrics, o.metrics) &&
		r.trace == o.trace && r.elapsed == o.elapsed && r.restarts == o.restarts
}

// derivedCase is one loop on the BSP backend: IC or PIC, at a worker
// count, on a cluster with an optional crash plan, and an optional hook
// run between IC steps.
type derivedCase struct {
	pic     bool
	workers int
	fail    *simcluster.FailurePlan
	between func(rt *core.Runtime, step int)
}

func (c derivedCase) run(t *testing.T, warm bool) derivedRun {
	t.Helper()
	g := webgraph.NearlyUncoupled(13, 240, 4, 0.1, 3)
	cl := simcluster.New(simcluster.Small())
	if c.fail != nil {
		cl.SetFailurePlan(c.fail)
	}
	rt := core.NewRuntime(cl, dfs.Config{Replication: 3, BlockSize: 64 << 20})
	rt.Engine().Workers = c.workers
	if err := rt.SetBackend(core.BackendBSP); err != nil {
		t.Fatal(err)
	}
	rt.SetLoopCache(warm)
	tr := trace.New()
	rt.SetTracer(tr)
	reg := metrics.New()
	rt.SetObservability(reg)
	app := New(g, 0.85, 1e-12, 4)
	in := mapred.NewInput(Records(g), cl, cl.MapSlots())
	var m *model.Model
	if c.pic {
		res, err := core.RunPIC(rt, app, in, InitialModel(g), core.PICOptions{
			Partitions:          4,
			MaxBEIterations:     3,
			MaxLocalIterations:  4,
			MaxTopOffIterations: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m = res.Model
	} else {
		s := core.NewICStepper(rt, app, in, InitialModel(g), &core.ICOptions{MaxIterations: 6})
		for step := 0; ; step++ {
			done, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			if c.between != nil {
				c.between(rt, step)
			}
		}
		m = s.Result().Model
	}
	restarts, _ := reg.Snapshot().Get("bsp.restarts")
	return derivedRun{m.Encode(nil), rt.Metrics(), tr.Render(), rt.Elapsed(), restarts.Value}
}

func checkWarmMatchesCold(t *testing.T, name string, c derivedCase) derivedRun {
	t.Helper()
	cold, warm := c.run(t, false), c.run(t, true)
	if !warm.equal(cold) {
		t.Errorf("%s: a run that keeps its derived vertex state differs from one that derives it per attempt:\n"+
			"warm %+v\ncold %+v", name, warm.metrics, cold.metrics)
	}
	return warm
}

// TestWarmBSPPageRankMatchesCold: IC over the full model (a boxed first
// model, then float ones) and PIC over partition models, whose cross
// edges are untracked, at 1, 2 and 8 workers.
func TestWarmBSPPageRankMatchesCold(t *testing.T) {
	for _, pic := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			checkWarmMatchesCold(t, fmt.Sprintf("pic=%v workers=%d", pic, workers), derivedCase{pic: pic, workers: workers})
		}
	}
}

// TestWarmBSPPageRankMatchesColdAcrossRestarts: a node crash in the
// middle of the loop restarts BSP attempts, which rebind the kept vertex
// set; the kept state is also dropped mid-loop by Release and by
// EvictNode, and rebuilt.
func TestWarmBSPPageRankMatchesColdAcrossRestarts(t *testing.T) {
	calm := derivedCase{workers: 2}.run(t, false)
	crash := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{{Node: 4, Time: simtime.Time(calm.elapsed / 2)}}}
	for _, pic := range []bool{false, true} {
		run := checkWarmMatchesCold(t, fmt.Sprintf("crash pic=%v", pic), derivedCase{pic: pic, workers: 2, fail: crash})
		if !pic && run.restarts == 0 {
			t.Errorf("the crash at %v restarted no BSP attempt: the test does not exercise a rebind", crash.Events[0].Time)
		}
	}
	for name, drop := range map[string]func(rt *core.Runtime){
		"Release": func(rt *core.Runtime) { rt.ReleaseLoopCache() },
		"EvictNode": func(rt *core.Runtime) {
			if f := rt.LoopFamily(); f != nil {
				f.EvictNode(3)
			}
		},
	} {
		checkWarmMatchesCold(t, name, derivedCase{workers: 2, between: func(rt *core.Runtime, step int) {
			if step == 2 {
				drop(rt)
			}
		}})
	}
}

// recorder is a bsp.Sender that keeps what a vertex sends: each
// destination and the bits of its value.
type recorder struct{ sends [][2]uint64 }

func (r *recorder) Send(int, string, writable.Writable) { panic("boxed send") }
func (r *recorder) SendFloat(to int, f float64) {
	r.sends = append(r.sends, [2]uint64{uint64(to), math.Float64bits(f)})
}

// slotWalk is the vertex program's iteration as it was written before
// slot plans: per-edge presence tests against the model in Compute and
// Model. It is the reference every plan must reproduce.
type slotWalk struct {
	app    *App
	lay    *layout
	vertex []int32
	index  []int32
}

func (w slotWalk) sends(prev *model.Model, pv int, s bsp.Sender) {
	v := int(w.vertex[pv])
	for i, dst := range w.lay.out[v] {
		if f, tracked := prev.FloatAt(int(w.lay.edgeSlot(v, i))); tracked {
			s.SendFloat(int(w.index[dst]), f)
		}
	}
}

func (w slotWalk) inflow(prev *model.Model, pv int) float64 {
	sum, _ := prev.FloatAt(int(w.lay.inflow[w.vertex[pv]]))
	return sum
}

func (w slotWalk) model(prev *model.Model, newRank []float64) *model.Model {
	lay := w.lay
	next := model.NewFloatsOn(lay.schema)
	floor := 1 - w.app.Damping
	for v := range lay.rank {
		if prev.HasAt(int(lay.rank[v])) {
			next.SetFloatAt(int(lay.rank[v]), floor)
		}
		next.CopyAt(int(lay.inflow[v]), prev, int(lay.inflow[v]))
	}
	for pv, gv := range w.vertex {
		v := int(gv)
		if _, hasRank := prev.FloatAt(int(lay.rank[v])); !hasRank {
			continue
		}
		next.SetFloatAt(int(lay.rank[v]), newRank[pv])
		out := lay.out[v]
		score := newRank[pv] / float64(len(out))
		for i := range out {
			e := int(lay.edgeSlot(v, i))
			if _, tracked := prev.FloatAt(e); tracked {
				next.SetFloatAt(e, score)
			}
		}
	}
	return next
}

// checkAgainstSlotWalk binds d to m and checks the program's superstep-0
// sends, superstep-1 in-flows and next model — its presence, its bits
// and its column kind — against the slot walk.
func checkAgainstSlotWalk(t *testing.T, name string, d *prVertices, m *model.Model) {
	t.Helper()
	prog, err := d.Bind(m)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.(*prProgram)
	w := slotWalk{d.app, d.app.layoutOf(m.Schema()), d.vertex, d.index}
	newRank := make([]float64, len(d.vertex))
	for pv := range d.vertex {
		var got, want recorder
		if _, err := p.Compute(0, pv, bsp.Inbox{}, &got); err != nil {
			t.Fatal(err)
		}
		w.sends(m, pv, &want)
		if !slices.Equal(got.sends, want.sends) {
			t.Fatalf("%s: vertex %d sends %v, the slot walk %v", name, pv, got.sends, want.sends)
		}
		mail := bsp.Inbox{Floats: []float64{0.125 * float64(pv%5), 0.5}}
		if _, err := p.Compute(1, pv, mail, &got); err != nil {
			t.Fatal(err)
		}
		newRank[pv] = d.app.rank(w.inflow(m, pv) + mail.Floats[0] + mail.Floats[1])
		if math.Float64bits(p.newRank[pv]) != math.Float64bits(newRank[pv]) {
			t.Fatalf("%s: vertex %d ranks %v, the slot walk %v", name, pv, p.newRank[pv], newRank[pv])
		}
	}
	got, err := p.Model(m)
	if err != nil {
		t.Fatal(err)
	}
	want := w.model(m, newRank)
	if !bytes.Equal(got.Encode(nil), want.Encode(nil)) || !got.Equal(want) || got.Len() != want.Len() {
		t.Fatalf("%s: next model differs from the slot walk's", name)
	}
	_, _, gotFloat := got.FloatColumn()
	_, _, wantFloat := want.FloatColumn()
	if gotFloat != wantFloat {
		t.Fatalf("%s: next model float=%v, the slot walk's float=%v", name, gotFloat, wantFloat)
	}
}

// TestSlotPlanMatchesSlotWalk binds one derived vertex set to models of
// every shape a loop hands it — the boxed initial model, float models,
// a model whose presence differs from the cached plan's, partition
// models with untracked cross edges and in-flows, a boxed model holding
// an in-flow that is not a Float64 — and checks each program against
// the per-edge slot walk. A float model with the cached plan's schema
// and presence reuses the plan; any other rebuilds it.
func TestSlotPlanMatchesSlotWalk(t *testing.T) {
	g := webgraph.NearlyUncoupled(17, 300, 4, 0.1, 3)
	rt := bspRuntime(1)
	app := New(g, 0.85, 1e-12, 3)
	in := graphInput(rt, g)
	dv, err := app.DeriveVertices(in)
	if err != nil {
		t.Fatal(err)
	}
	d := dv.(*prVertices)

	boxed := InitialModel(g)
	checkAgainstSlotWalk(t, "boxed initial model", d, boxed)
	if d.plan != nil {
		t.Fatal("a boxed model's plan was cached")
	}
	res, err := core.RunIC(rt, app, in, boxed, &core.ICOptions{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	float := res.Model
	checkAgainstSlotWalk(t, "float model", d, float)
	plan := d.plan
	checkAgainstSlotWalk(t, "float model, again", d, float.Clone())
	if d.plan != plan {
		t.Fatal("a model with the cached plan's schema and presence rebuilt the plan")
	}

	// Presence changes: a rank gone (its vertex keeps sending but is no
	// longer ranked), an edge gone (no longer sent or scored).
	sparse := float.Clone()
	sparse.Delete(RankKey(5))
	sparse.Delete(EdgeKey(7, int(g.Out[7][0])))
	checkAgainstSlotWalk(t, "float model, sparser", d, sparse)
	if d.plan == plan {
		t.Fatal("a model with other presence words reused the cached plan")
	}

	// Partition models: each sub-problem's own vertex set over its
	// sub-model, whose cross edges are untracked and whose in-flows are
	// frozen — and one boxed copy with a non-Float64 in-flow.
	subs, err := app.Partition(in, float, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		subIn := mapred.NewInput(sub.Records, rt.Cluster(), 2)
		sdv, err := app.DeriveVertices(subIn)
		if err != nil {
			t.Fatal(err)
		}
		sd := sdv.(*prVertices)
		checkAgainstSlotWalk(t, fmt.Sprintf("partition %d", i), sd, sub.Model)
		odd := model.NewOn(sub.Model.Schema())
		for s := range sub.Model.Schema().Keys() {
			odd.CopyAt(s, sub.Model, s)
		}
		// One in-flow and one rank of a program vertex that are present
		// but not Float64s: the in-flow is carried as it is, the rank
		// keeps the floor and its vertex is not ranked.
		lay := app.layoutOf(odd.Schema())
		for v, s := range lay.inflow {
			if s >= 0 && odd.HasAt(int(s)) {
				odd.SetAt(int(s), writable.Vector{float64(v)})
				break
			}
		}
		odd.SetAt(int(lay.rank[sd.vertex[0]]), writable.Vector{1})
		checkAgainstSlotWalk(t, fmt.Sprintf("partition %d, boxed with a vector in-flow and rank", i), sd, odd)
	}
}
