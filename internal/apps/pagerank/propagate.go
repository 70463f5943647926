package pagerank

import (
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// The propagation job's mapper, cold and fused.
//
// The job is map-only and writes the next model: Iteration runs it on
// the new ranks with Job.Into set to a clone of them. Cold, Map runs
// once per vertex record: when the job model holds the vertex's rank as
// a float, it emits (edge key, rank/out-degree) for every out-edge whose
// score slot the previous model holds, and the engine Sets each record
// into Into in split order, record order within a split. Fused, MapInto
// walks the split's cached vertex ids in the same order and writes the
// same values by slot. Into comes out identical because:
//
//  1. Same slots. Both paths skip a vertex whose rank the job model
//     lacks (or holds as a non-float) and an edge whose slot the
//     previous model lacks; every other out-edge slot s is written. The
//     cold key is lay.schema.Key(s) and Into is on lay.schema (MapInto
//     declines otherwise), so Setting the key reaches slot s.
//  2. Same values. score = rank/out-degree is one division of the same
//     operands on both paths. Parallel edges share one slot and one
//     score, so writing it twice leaves what writing it once does.
//  3. Same writes. Set of a schema key on a float model is putFloat, as
//     SetFloatAt is; on a boxed Into both store a Float64 of the score.
//     Blind distribution damage perturbs a copy of the job model — on
//     both paths the ranks read, never Into.
//  4. Same counters. MapInto counts one record per written edge slot,
//     parallel edges each once, as Map emits them. Below 1e8 vertices
//     (NewDerived declines larger graphs) every edge key the layout
//     resolves is 'e', eight digits, ':' and eight digits, so every
//     record is edgeRecordBytes long.

// propagateMapper gives every out-edge of a vertex the score
// rank/out-degree, read from the job model, for the edges the previous
// model holds. Beyond the record-at-a-time Map it implements
// mapred.IntoMapper over the split vertex ids the aggregation caches.
type propagateMapper struct {
	a    *App
	lay  *layout      // the previous model's layout: its edges, and the schema of Into
	prev *model.Model // the previous model: which edges this (sub-)model holds
}

// Map implements mapred.Mapper — the cold path.
func (mp *propagateMapper) Map(_ string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
	src, out, err := mp.a.adjacency(v)
	if err != nil {
		return err
	}
	rank, ok := m.FloatAt(int(mp.a.layoutFor(m, mp.lay).rank[src]))
	if !ok {
		return nil // vertex outside this partition's model
	}
	var score writable.Writable = writable.Float64(rank / float64(len(out))) // one box per vertex
	for i := range out {
		s := int(mp.lay.edgeSlot(src, i))
		if !mp.prev.HasAt(s) {
			continue // cross edge, not part of this sub-model
		}
		emit.Emit(mp.lay.schema.Key(s), score)
	}
	return nil
}

// NewDerived implements mapred.IntoMapper with the aggregation's split
// form, so both jobs of an iteration share one cache entry per split.
func (mp *propagateMapper) NewDerived(recs []mapred.Record) mapred.SplitDerived {
	return mp.a.deriveSplit(recs)
}

// edgeRecordBytes is the encoded size of one (edge key, Float64) record
// for an edge between vertices below 1e8.
var edgeRecordBytes = mapred.Record{Key: EdgeKey(0, 0), Value: writable.Float64(0)}.Size()

// MapInto implements mapred.IntoMapper for a map-only job: the split's
// propagation written into Into by slot, one division per vertex.
func (mp *propagateMapper) MapInto(d mapred.SplitDerived, m, into *model.Model, part *mapred.Partial) (int64, int64, error) {
	sv, ok := d.(*splitVertices)
	if !ok || sv.graph != mp.a.graph || part != nil || into.Schema() != mp.lay.schema {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	rl, el := mp.a.layoutFor(m, mp.lay), mp.lay
	var records int64
	for _, src := range sv.ids {
		rank, ok := m.FloatAt(int(rl.rank[src]))
		if !ok {
			continue
		}
		score := rank / float64(len(el.out[src]))
		for _, s := range el.edge[el.off[src]:el.off[src+1]] {
			if mp.prev.HasAt(int(s)) {
				into.SetFloatAt(int(s), score)
				records++
			}
		}
	}
	return records, records * edgeRecordBytes, nil
}
