package pagerank

import (
	"fmt"
	"strings"

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
func (a *App) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	lay := a.layoutOf(m.Schema())
	n := int(in.NumRecords())
	p := &prProgram{app: a, lay: lay, prev: m,
		verts:   make([]bsp.VertexInfo, 0, n),
		vertex:  make([]int32, 0, n),
		index:   make([]int32, a.graph.N),
		newRank: make([]float64, n),
	}
	for v := range p.index {
		p.index[v] = -1
	}
	for _, split := range in.Splits {
		for _, rec := range split.Records {
			src, _, err := a.adjacency(rec.Value)
			if err != nil {
				return nil, fmt.Errorf("%w (record %q)", err, rec.Key)
			}
			if p.index[src] >= 0 {
				return nil, fmt.Errorf("pagerank: vertex %d has two records (%q and %q)", src, p.verts[p.index[src]].ID, rec.Key)
			}
			p.index[src] = int32(len(p.verts))
			p.vertex = append(p.vertex, int32(src))
			p.verts = append(p.verts, bsp.VertexInfo{ID: rec.Key, Home: split.Home})
		}
	}
	return p, nil
}

// prProgram is one iteration's vertex program over the graph vertices
// its input holds — all of them, or one partition's. Its per-vertex
// state is the previous model itself, read through its layout; only the
// new ranks are the program's own.
type prProgram struct {
	app     *App
	lay     *layout
	prev    *model.Model
	verts   []bsp.VertexInfo
	vertex  []int32   // program vertex -> graph vertex
	index   []int32   // graph vertex -> program vertex, -1 outside the input
	newRank []float64 // by program vertex, set in superstep 1
}

// Vertices implements bsp.Program.
func (p *prProgram) Vertices() []bsp.VertexInfo { return p.verts }

// Compute implements bsp.Program.
func (p *prProgram) Compute(step, pv int, in bsp.Inbox, s bsp.Sender) (bool, error) {
	v := int(p.vertex[pv])
	if step == 0 {
		for i, dst := range p.lay.out[v] {
			// Untracked edges are cross edges during local iterations;
			// they enter through the frozen in-flow. A tracked edge
			// into a vertex the input lacks is sent to -1, which fails
			// the run.
			if f, tracked := p.prev.FloatAt(int(p.lay.edgeSlot(v, i))); tracked {
				s.SendFloat(int(p.index[dst]), f)
			}
		}
		return false, nil
	}
	if len(in.Msgs) > 0 {
		return false, fmt.Errorf("pagerank: vertex %d got non-float message", v)
	}
	sum, _ := p.prev.FloatAt(int(p.lay.inflow[v]))
	for _, f := range in.Floats {
		sum += f
	}
	p.newRank[pv] = p.app.rank(sum)
	return true, nil
}

// Combiner implements bsp.CombinerProgram: incoming edge scores sum.
func (p *prProgram) Combiner() bsp.Combiner { return bsp.FloatSum{} }

// Model implements bsp.Modeler, mirroring Iteration's model assembly:
// every tracked rank defaults to 1-c and is overwritten by the computed
// value; tracked edge scores become new-rank/outdegree; frozen in-flow
// constants carry over unchanged. The model is a float column, written
// and read by slot without boxing a value.
func (p *prProgram) Model(prev *model.Model) (*model.Model, error) {
	lay := p.app.layoutFor(prev, p.lay)
	next := model.NewFloatsOn(lay.schema)
	floor := 1 - p.app.Damping
	for v := range lay.rank {
		if prev.HasAt(int(lay.rank[v])) {
			next.SetFloatAt(int(lay.rank[v]), floor)
		}
		next.CopyAt(int(lay.inflow[v]), prev, int(lay.inflow[v]))
	}
	for pv, gv := range p.vertex {
		v := int(gv)
		if _, hasRank := prev.FloatAt(int(lay.rank[v])); !hasRank {
			continue // rank outside this partition's model
		}
		next.SetFloatAt(int(lay.rank[v]), p.newRank[pv])
		out := lay.out[v]
		score := p.newRank[pv] / float64(len(out))
		for i := range out {
			e := int(lay.edgeSlot(v, i))
			if _, tracked := prev.FloatAt(e); tracked {
				next.SetFloatAt(e, score)
			}
		}
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

var _ core.VertexApp = (*App)(nil)
var _ core.WeightedKeyMerger = (*App)(nil)
var _ core.MergeFinalizer = (*App)(nil)
