package pagerank

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// VertexProgram implements core.VertexApp: under the BSP backend one
// PageRank iteration runs as a native two-superstep vertex program
// instead of the aggregate+propagate job pair. Superstep 0 is the
// propagation side: each vertex sends its tracked outgoing edge scores
// to the destination vertices on the float lane, unboxed (bsp.FloatSum
// collapses them per sender node, like the mapred combiner). Superstep
// 1 is the aggregation side: each vertex sums its incoming scores, in
// wire order, onto its frozen cross-partition in-flow, applies
// PR = (1-c) + c·Σ, and votes to halt. The per-key semantics match
// Iteration exactly; floating-sum order may differ, so backends agree
// to rounding, not byte-for-byte.
//
// The program is DeriveVertices(in) bound to m; the runtime keeps the
// derived half across a loop's iterations.
func (a *App) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	d, err := a.DeriveVertices(in)
	if err != nil {
		return nil, err
	}
	return d.Bind(m)
}

// DeriveVertices implements core.VertexDeriver: the vertex set of the
// graph vertices in's records hold — all of them, or one partition's —
// with its index maps, built and checked once per input.
func (a *App) DeriveVertices(in *mapred.Input) (core.DerivedVertices, error) {
	n := int(in.NumRecords())
	infos := make([]bsp.VertexInfo, 0, n)
	d := &prVertices{app: a, vertex: make([]int32, 0, n), index: make([]int32, a.graph.N)}
	for v := range d.index {
		d.index[v] = -1
	}
	for _, split := range in.Splits {
		for _, rec := range split.Records {
			src, _, err := a.adjacency(rec.Value)
			if err != nil {
				return nil, fmt.Errorf("%w (record %q)", err, rec.Key)
			}
			if d.index[src] >= 0 {
				return nil, fmt.Errorf("pagerank: vertex %d has two records (%q and %q)", src, infos[d.index[src]].ID, rec.Key)
			}
			d.index[src] = int32(len(infos))
			d.vertex = append(d.vertex, int32(src))
			infos = append(infos, bsp.VertexInfo{ID: rec.Key, Home: split.Home})
		}
	}
	d.set = bsp.NewVertexSet(infos)
	return d, nil
}

// prVertices is the input-only half of the vertex program: one input's
// vertex set and index maps, and the slot plan of the last float model
// it was bound to.
type prVertices struct {
	app    *App
	set    *bsp.VertexSet
	vertex []int32 // program vertex -> graph vertex
	index  []int32 // graph vertex -> program vertex, -1 outside the input

	mu   sync.Mutex
	plan *slotPlan
}

// slotPlan is every slot an iteration over one model reads or writes,
// resolved for a vertex set once. A float model's plan depends only on
// its layout and its presence words, so a bind to a model with the same
// schema and words reuses it; a boxed model's depends on the kinds of
// its values too, and each bind resolves its own.
type slotPlan struct {
	lay *layout
	has []uint64 // the float model's presence words; nil for a boxed model

	// Superstep 0: program vertex pv sends the scores of its tracked
	// out-edges, sends[sendOff[pv]:sendOff[pv+1]], in edge order.
	sendOff []int32
	sends   []planSend
	// Superstep 1: program vertex pv's frozen in-flow slot, -1 where the
	// model holds no Float64 in-flow for it.
	inflow []int32

	// Model: the next model holds exactly the slots next marks. rank[pv]
	// is pv's rank slot, -1 where the model holds no Float64 rank for it;
	// a ranked vertex's new rank goes there and its score to each of its
	// sends' slots. floors are the other present ranks, which keep 1-c;
	// carry the present Float64 in-flows, copied; odd the present
	// in-flows of any other kind, which only a boxed model can hold and
	// CopyAt carries over last.
	next   []uint64
	rank   []int32
	floors []int32
	carry  []int32
	odd    []int32
}

// planSend is one tracked out-edge: its score's slot and the program
// vertex it is bound for, -1 for a vertex outside the input — a send
// that fails the run.
type planSend struct{ slot, to int32 }

// Bind implements core.DerivedVertices: the iteration's program over m.
func (d *prVertices) Bind(m *model.Model) (bsp.Program, error) {
	lay := d.app.layoutOf(m.Schema())
	vals, has, isFloat := m.FloatColumn()
	var plan *slotPlan
	if isFloat {
		d.mu.Lock()
		if plan = d.plan; plan == nil || plan.lay != lay || !slices.Equal(plan.has, has) {
			plan = d.resolve(lay, m)
			plan.has = slices.Clone(has)
			d.plan = plan
		}
		d.mu.Unlock()
	} else {
		plan = d.resolve(lay, m)
		vals = make([]float64, len(lay.schema.Keys()))
		for s := range vals {
			vals[s], _ = m.FloatAt(s)
		}
	}
	return &prProgram{d: d, plan: plan, prev: m, vals: vals, newRank: make([]float64, len(d.vertex))}, nil
}

// resolve builds the vertex set's plan for m, on layout lay. What it
// records is what Compute and Model would find slot by slot: a slot is
// tracked when m holds a Float64 there, a rank floors when m holds
// anything there.
func (d *prVertices) resolve(lay *layout, m *model.Model) *slotPlan {
	np, edges := len(d.vertex), 0
	for _, v := range d.vertex {
		edges += len(lay.out[v])
	}
	by := make([]int32, 3*np+1)
	pl := &slotPlan{lay: lay,
		next:    make([]uint64, (len(lay.schema.Keys())+63)/64),
		sendOff: by[:np+1],
		inflow:  by[np+1 : 2*np+1],
		rank:    by[2*np+1:],
		sends:   make([]planSend, 0, edges),
	}
	mark := func(s int32) { pl.next[s>>6] |= 1 << (s & 63) }
	tracked := func(s int32) bool {
		_, ok := m.FloatAt(int(s))
		return ok
	}
	for pv, gv := range d.vertex {
		v := int(gv)
		for i, dst := range lay.out[v] {
			if e := lay.edgeSlot(v, i); tracked(e) {
				pl.sends = append(pl.sends, planSend{slot: e, to: d.index[dst]})
			}
		}
		pl.sendOff[pv+1] = int32(len(pl.sends))
		pl.inflow[pv], pl.rank[pv] = -1, -1
		if s := lay.inflow[v]; tracked(s) {
			pl.inflow[pv] = s
		}
		if s := lay.rank[v]; tracked(s) {
			pl.rank[pv] = s
			mark(s)
			for _, sd := range pl.sends[pl.sendOff[pv]:] {
				mark(sd.slot)
			}
		}
	}
	for v, s := range lay.rank {
		if m.HasAt(int(s)) && (d.index[v] < 0 || pl.rank[d.index[v]] < 0) {
			pl.floors = append(pl.floors, s)
			mark(s)
		}
		switch s := lay.inflow[v]; {
		case tracked(s):
			pl.carry = append(pl.carry, s)
			mark(s)
		case m.HasAt(int(s)):
			pl.odd = append(pl.odd, s)
		}
	}
	return pl
}

// prProgram is one iteration's vertex program: a derived vertex set
// bound to the previous model, read by slot through the plan. Only the
// new ranks are the program's own.
type prProgram struct {
	d       *prVertices
	plan    *slotPlan
	prev    *model.Model
	vals    []float64 // prev's Float64s by slot: its own column when it is a float model
	newRank []float64 // by program vertex, set in superstep 1
}

// Vertices implements bsp.Program.
func (p *prProgram) Vertices() []bsp.VertexInfo { return p.d.set.Infos() }

// VertexSet implements bsp.SetProgram: the set derived with the input.
func (p *prProgram) VertexSet() *bsp.VertexSet { return p.d.set }

// Compute implements bsp.Program.
func (p *prProgram) Compute(step, pv int, in bsp.Inbox, s bsp.Sender) (bool, error) {
	pl := p.plan
	if step == 0 {
		// Untracked edges are cross edges during local iterations; they
		// enter through the frozen in-flow.
		for _, sd := range pl.sends[pl.sendOff[pv]:pl.sendOff[pv+1]] {
			s.SendFloat(int(sd.to), p.vals[sd.slot])
		}
		return false, nil
	}
	if len(in.Msgs) > 0 {
		return false, fmt.Errorf("pagerank: vertex %d got non-float message", p.d.vertex[pv])
	}
	var sum float64
	if f := pl.inflow[pv]; f >= 0 {
		sum = p.vals[f]
	}
	for _, f := range in.Floats {
		sum += f
	}
	p.newRank[pv] = p.d.app.rank(sum)
	return true, nil
}

// Combiner implements bsp.CombinerProgram: incoming edge scores sum.
func (p *prProgram) Combiner() bsp.Combiner { return bsp.FloatSum{} }

// Model implements bsp.Modeler, mirroring Iteration's model assembly:
// every tracked rank defaults to 1-c and is overwritten by the computed
// value; tracked edge scores become new-rank/outdegree; frozen in-flow
// constants carry over unchanged. prev must be the model the program
// was bound to. The next model is a float column whose presence is the
// plan's, filled by slot without boxing a value.
func (p *prProgram) Model(prev *model.Model) (*model.Model, error) {
	if prev != p.prev {
		return nil, fmt.Errorf("pagerank: Model of a model other than the one the vertex program was bound to")
	}
	pl := p.plan
	next, vals := model.NewFloatsWith(pl.lay.schema, pl.next)
	floor := 1 - p.d.app.Damping
	for _, s := range pl.floors {
		vals[s] = floor
	}
	for pv, s := range pl.rank {
		if s < 0 {
			continue
		}
		r := p.newRank[pv]
		vals[s] = r
		score := r / float64(len(pl.lay.out[p.d.vertex[pv]]))
		for _, sd := range pl.sends[pl.sendOff[pv]:pl.sendOff[pv+1]] {
			vals[sd.slot] = score
		}
	}
	for _, s := range pl.carry {
		vals[s] = p.vals[s]
	}
	for _, s := range pl.odd {
		next.CopyAt(int(s), prev, int(s))
	}
	return next, nil
}

// MergeKey implements core.KeyMerger. Partial models are disjoint —
// every rank and internal edge belongs to exactly one partition — so
// the key merge is identity with a disjointness check, matching Merge's
// duplicate detection.
func (a *App) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	if len(values) != 1 {
		return nil, fmt.Errorf("pagerank: key %q in %d partitions, want 1", key, len(values))
	}
	return values[0], nil
}

// MergeKeyWeighted implements core.WeightedKeyMerger: pre-combined
// partials stay identity merges (weights only count how many partials
// each value summarizes), so hierarchical rack-level pre-merges are
// exactly as unbiased as the flat merge.
func (a *App) MergeKeyWeighted(key string, values []writable.Writable, weights []int) (writable.Writable, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("pagerank: bad weighted merge for %q: %d values, %d weights", key, len(values), len(weights))
	}
	for _, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("pagerank: weight %d for %q", w, key)
		}
	}
	return a.MergeKey(key, values)
}

// FinalizeMerge implements core.MergeFinalizer: the distributed and
// hierarchical merges combine partials key by key, which carries the
// frozen in-flow constants through and leaves cross-edge scores stale;
// Merge's post-processing — drop the 'f' keys, recompute every cross
// edge from the merged source ranks — runs here instead.
func (a *App) FinalizeMerge(merged, prev *model.Model) (*model.Model, error) {
	if a.assign == nil {
		return nil, fmt.Errorf("pagerank: FinalizeMerge before Partition")
	}
	// Rebuilt on prev's schema, which already holds the cross edges, so
	// the merged model stays on the layout every other version is on.
	out := a.likePrev(prev, prev)
	ms := merged.Schema()
	for i, s := range mergeSlots(ms, out.Schema()) {
		switch key := ms.Key(i); {
		case strings.HasPrefix(key, "f"): // a frozen in-flow constant
		case s >= 0:
			out.CopyAt(int(s), merged, i)
		default:
			if v, ok := merged.At(i); ok {
				out.Set(key, v)
			}
		}
	}
	if err := a.refreshCrossScores(out); err != nil {
		return nil, err
	}
	return out, nil
}

var _ core.VertexDeriver = (*App)(nil)
var _ bsp.SetProgram = (*prProgram)(nil)
var _ core.WeightedKeyMerger = (*App)(nil)
var _ core.MergeFinalizer = (*App)(nil)
