package pagerank

import (
	"math/bits"
	"sync"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// The aggregation job's mapper, cold and fused.
//
// The job sums each vertex's in-flows into its new rank: Iteration runs
// it with Into set to the new ranks, the combiner mapred.FloatSum{} and
// the reducer mapred.FloatSum{Then: App.rank}. Cold, Map runs once per
// vertex record: it emits the vertex's frozen in-flow when that is
// present and != 0, then one (rank key of dst, score) record per
// out-edge whose score the model holds. A map task's combiner sums each
// key's values from +0 in emission order (the group step is stable); the
// stable group step of a reduce task hands the reducer each key's
// per-split sums c₁, c₂, … in split order, and the reducer writes
// rank(((+0 + c₁) + c₂) + …). In memory, RunLocal groups all splits'
// emissions stably, split by split, and the reducer sums them from +0
// in that order. The engine Sets each output record into Into.
//
// Fused, the same values are added into one dense per-vertex sum array
// in the same order, and Into, the Output and every Metrics field come
// out identical because:
//
//  1. Same operands, same order. The fold walks a split's vertices in
//     record order and each vertex's in-flow, then out-edges, in Map's
//     order, skipping exactly what Map skips (an absent or non-Float64
//     slot; an in-flow == 0, so ±0 in-flows never fold). The sum array
//     is zeroed, as FloatSum's sum starts at +0, so a split's sum for a
//     vertex is its combiner's cᵢ. MapInto hands the engine those sums,
//     and the engine adds them per slot in split order from +0 and
//     writes rank of the total by slot (mapred's into.go): each rank is
//     still rank(((+0 + c₁) + c₂) + …). FuseLocal folds the splits
//     serially in split order into one array — the global arrival
//     order of RunLocal's group step — and writes rank of each sum.
//  2. Same keys, same slots. A vertex has a sum iff some value was
//     folded into it (the touched bitmap), iff the cold path formed a
//     group for its rank key, and the sum goes to that key's slot in
//     Into's schema. A touched vertex whose rank key Into's schema lacks
//     makes both kernels decline, and the cold path Sets the key; values
//     FuseLocal wrote before declining are ones the cold run writes
//     again. Below 1e8 vertices every rank key is 'r' plus eight digits,
//     so ascending vertex order is ascending key order and ascending
//     slot order, the order the combiner emits in. NewDerived declines
//     larger graphs.
//  3. Same counters. MapInto's records (and FuseLocal's mapEmits) count
//     the folds, one per record Map would have emitted; every such
//     record is a 9-byte rank key and a Float64, so bytes is folds times
//     that record's size. FuseLocal's written counts the touched
//     vertices, one reducer output each.

// aggregateMapper emits each edge's current score keyed by its
// destination's rank key (and each vertex's frozen in-flow keyed by its
// own). Beyond the record-at-a-time Map it implements
// mapred.IntoMapper and mapred.LocalFuser over a split's cached vertex
// ids.
type aggregateMapper struct {
	a   *App
	lay *layout // the job model's layout, the common case of layoutFor
}

// The fused kernels' signatures, checked when the package builds: a
// drifted one would only send every job down the cold path.
var (
	_ mapred.IntoMapper = (*aggregateMapper)(nil)
	_ mapred.LocalFuser = (*aggregateMapper)(nil)
	_ mapred.IntoMapper = (*propagateMapper)(nil)
)

// Map implements mapred.Mapper — the cold path.
func (mp *aggregateMapper) Map(_ string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
	a := mp.a
	src, out, err := a.adjacency(v)
	if err != nil {
		return err
	}
	l := a.layoutFor(m, mp.lay)
	// During local iterations, the vertex's frozen cross-partition
	// in-flow contributes as a constant.
	if inflow, ok := floatAt(m, l.inflow[src]); ok && inflow.(writable.Float64) != 0 {
		emit.Emit(l.rankKey(src), inflow)
	}
	for i, dst := range out {
		score, ok := floatAt(m, l.edgeSlot(src, i))
		if !ok {
			// Edge not in this (sub-)model: a cross edge during local
			// iterations. Its effect enters through the frozen in-flow
			// and the merge.
			continue
		}
		emit.Emit(l.rankKey(int(dst)), score)
	}
	return nil
}

// splitVertices is a split's derived form: its vertex ids in record
// order, each checked against graph once.
type splitVertices struct {
	graph *webgraph.Graph
	ids   []int32
}

// SizeBytes implements mapred.SplitDerived.
func (sv *splitVertices) SizeBytes() int64 { return 4 * int64(len(sv.ids)) }

// NewDerived implements mapred.IntoMapper/LocalFuser.
func (mp *aggregateMapper) NewDerived(recs []mapred.Record) mapred.SplitDerived {
	return mp.a.deriveSplit(recs)
}

// deriveSplit is both mappers' NewDerived. A malformed record, or a
// graph whose keys outgrow eight digits, declines fusion (nil): the
// cold path then runs and reports its own error.
func (a *App) deriveSplit(recs []mapred.Record) mapred.SplitDerived {
	if a.graph.N >= 100_000_000 {
		return nil
	}
	ids := make([]int32, len(recs))
	for i, r := range recs {
		src, _, err := a.adjacency(r.Value)
		if err != nil {
			return nil
		}
		ids[i] = int32(src)
	}
	return &splitVertices{graph: a.graph, ids: ids}
}

// rankRecordBytes is the encoded size of one (rank key, Float64) record
// for a vertex below 1e8.
var rankRecordBytes = mapred.Record{Key: RankKey(0), Value: writable.Float64(0)}.Size()

// MapInto implements mapred.IntoMapper for a job that reduces into
// Into: the split's map+combine as one fold, each touched vertex's sum
// added to part under its rank's slot in Into's schema.
func (mp *aggregateMapper) MapInto(d mapred.SplitDerived, m, into *model.Model, part *mapred.Partial) (int64, int64, error) {
	sv, ok := d.(*splitVertices)
	if !ok || sv.graph != mp.a.graph || part == nil {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	f := getFold(sv.graph.N)
	defer foldPool.Put(f)
	folds := f.add(sv.ids, m, mp.a.layoutFor(m, mp.lay))
	if !f.drain(mp.a.layoutFor(into, mp.lay), part.Add) {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	return folds, folds * rankRecordBytes, nil
}

// FuseLocal implements mapred.LocalFuser: a best-effort local
// iteration's map+reduce as one serial fold over the splits in order,
// each touched vertex's sum put through the rank formula and written
// into Into by slot. Without an Into it declines.
func (mp *aggregateMapper) FuseLocal(ds []mapred.SplitDerived, m, into *model.Model, _ func(int, func(int)), _ mapred.Emitter) (int64, int64, error) {
	if into == nil {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	for _, d := range ds {
		if sv, ok := d.(*splitVertices); !ok || sv.graph != mp.a.graph {
			return 0, 0, mapred.ErrFusedUnsupported
		}
	}
	f := getFold(mp.a.graph.N)
	defer foldPool.Put(f)
	l := mp.a.layoutFor(m, mp.lay)
	var folds, written int64
	for _, d := range ds {
		folds += f.add(d.(*splitVertices).ids, m, l)
	}
	if !f.drain(mp.a.layoutFor(into, mp.lay), func(slot int, sum float64) {
		into.SetFloatAt(slot, mp.a.rank(sum))
		written++
	}) {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	return folds, written, nil
}

// fold is a dense per-vertex sum array and the bitmap of vertices some
// value was added into. Between uses every sum is +0 and every bit clear.
type fold struct {
	sums    []float64
	touched []uint64
}

var foldPool sync.Pool

// getFold returns a clean fold for n vertices.
func getFold(n int) *fold {
	if f, _ := foldPool.Get().(*fold); f != nil && len(f.sums) >= n {
		return f
	}
	return &fold{sums: make([]float64, n), touched: make([]uint64, (n+63)/64)}
}

// add folds the in-flows and scores of ids' vertices, in Map's order,
// and returns how many values it added.
func (f *fold) add(ids []int32, m *model.Model, l *layout) int64 {
	var folds int64
	for _, src := range ids {
		if inflow, ok := m.FloatAt(int(l.inflow[src])); ok && inflow != 0 {
			f.sums[src] += inflow
			f.touched[src>>6] |= 1 << (src & 63)
			folds++
		}
		edges := l.edge[l.off[src]:l.off[src+1]]
		for i, dst := range l.out[src] {
			score, ok := m.FloatAt(int(edges[i]))
			if !ok {
				continue // a cross edge, as in Map
			}
			f.sums[dst] += score
			f.touched[dst>>6] |= 1 << (dst & 63)
			folds++
		}
	}
	return folds
}

// drain hands put the slot of each touched vertex's rank in il's schema
// and the vertex's sum, in ascending vertex order, and leaves f clean.
// It reports false, and puts nothing more, once a touched vertex's rank
// has no slot there.
func (f *fold) drain(il *layout, put func(slot int, sum float64)) bool {
	ok := true
	for w, word := range f.touched {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			if s := il.rank[v]; s < 0 {
				ok = false
			} else if ok {
				put(int(s), f.sums[v])
			}
			f.sums[v] = 0
		}
		f.touched[w] = 0
	}
	return ok
}
