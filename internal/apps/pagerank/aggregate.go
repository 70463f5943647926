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
// Cold, Map runs once per vertex record: it emits the vertex's frozen
// in-flow when that is present and != 0, then one (rank key of dst,
// score) record per out-edge whose score the model holds. The framework
// path sorts a task's emissions stably by key and the floatSum combiner
// sums each key's values from +0 in arrival order; the in-memory path
// sorts all splits' emissions stably, split by split, and the reducer
// sums from +0 the same way before applying App.rank.
//
// Fused, the same values are added into one dense per-vertex sum array
// in the same order, and the outputs are byte-identical because:
//
//  1. Same operands, same order. The fold walks a split's vertices in
//     record order and each vertex's in-flow, then out-edges, in Map's
//     order, skipping exactly what Map skips (an absent or non-Float64
//     slot; an in-flow == 0, so ±0 in-flows never fold). A stable sort
//     hands a key's values to the combiner or reducer in exactly that
//     arrival order, so every sum is the same sequence of float64
//     additions starting from +0 — the sum array is zeroed, as floatSum's
//     `var sum float64` is. FuseLocal folds the splits serially in split
//     order, the global arrival order RunLocal's group step produces.
//  2. Same key set, same key order. A vertex is emitted iff some value
//     was folded into it (the touched bitmap), which is iff the cold path
//     formed a group for its rank key. Keys are the layout's rank keys,
//     the strings Map emits; below 1e8 vertices every one is 'r' plus
//     eight digits, so ascending vertex order is ascending key order, the
//     order the combiner (and the group step) emits in. NewDerived
//     declines larger graphs.
//  3. Same counters. preRecords (and FuseLocal's mapEmits) count the
//     folds, one per record Map would have emitted; every such record is
//     a 9-byte rank key and a Float64, so preBytes is folds times that
//     record's size.

// aggregateMapper emits each edge's current score keyed by its
// destination's rank key (and each vertex's frozen in-flow keyed by its
// own). Beyond the record-at-a-time Map it implements
// mapred.FusedMapper and mapred.LocalFuser over a split's cached vertex
// ids.
type aggregateMapper struct {
	a   *App
	lay *layout // the job model's layout, the common case of layoutFor
}

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

// NewDerived implements mapred.FusedMapper/LocalFuser.
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

// MapSplit implements mapred.FusedMapper: the split's map+combine as one
// fold, emitting each touched vertex's sum in ascending key order.
func (mp *aggregateMapper) MapSplit(d mapred.SplitDerived, m *model.Model, emit mapred.Emitter) (int64, int64, error) {
	sv, ok := d.(*splitVertices)
	if !ok || sv.graph != mp.a.graph {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	f := getFold(sv.graph.N)
	defer foldPool.Put(f)
	l := mp.a.layoutFor(m, mp.lay)
	folds := f.add(sv.ids, m, l)
	f.drain(l, func(sum float64) float64 { return sum }, emit)
	return folds, folds * rankRecordBytes, nil
}

// FuseLocal implements mapred.LocalFuser: a best-effort local
// iteration's map+reduce as one serial fold over the splits in order,
// each touched vertex's sum put through the rank formula.
func (mp *aggregateMapper) FuseLocal(ds []mapred.SplitDerived, m *model.Model, _ func(int, func(int)), emit mapred.Emitter) (int64, error) {
	for _, d := range ds {
		if sv, ok := d.(*splitVertices); !ok || sv.graph != mp.a.graph {
			return 0, mapred.ErrFusedUnsupported
		}
	}
	f := getFold(mp.a.graph.N)
	defer foldPool.Put(f)
	l := mp.a.layoutFor(m, mp.lay)
	var folds int64
	for _, d := range ds {
		folds += f.add(d.(*splitVertices).ids, m, l)
	}
	f.drain(l, mp.a.rank, emit)
	return folds, nil
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

// drain emits (rank key, value(sum)) for every touched vertex in
// ascending order and leaves f clean.
func (f *fold) drain(l *layout, value func(sum float64) float64, emit mapred.Emitter) {
	for w, word := range f.touched {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			emit.Emit(l.rankKey(v), writable.Float64(value(f.sums[v])))
			f.sums[v] = 0
		}
		f.touched[w] = 0
	}
}
