package pagerank

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/writable"
)

// Key parsing and per-schema slot tables: what lets an iteration reach
// every rank, in-flow and edge score of a model without rendering,
// hashing or sorting a key.

// parseKey inverts RankKey, inflowKey, EdgeKey and the input records'
// keys: kind is the key's first byte ('r', 'f', 'e' or 'v') and a, b the
// vertex numbers it names (b only for an edge). Keys in any other form
// report !ok. An 18-byte edge key — both vertices below 1e8 — is split
// at its fixed ':'; longer ones at their first.
func parseKey(key string) (kind byte, a, b int, ok bool) {
	if key == "" {
		return 0, 0, 0, false
	}
	kind, rest := key[0], key[1:]
	switch kind {
	case 'r', 'f', 'v':
		a, ok = parse8(rest)
	case 'e':
		var src, dst string
		if len(rest) == 17 && rest[8] == ':' {
			src, dst = rest[:8], rest[9:]
		} else {
			src, dst, _ = strings.Cut(rest, ":")
		}
		if a, ok = parse8(src); ok {
			b, ok = parse8(dst)
		}
	}
	return kind, a, b, ok
}

// parse8 inverts "%08d" for non-negative numbers: at least eight digits,
// more only when the first is not a padding zero. Exactly eight digits —
// every vertex below 1e8 — take one big-endian load: each byte is a
// digit when its high nibble is 3 and stays 3 after adding 6, and three
// multiply-add folds join digit pairs, then pairs of pairs, then halves.
func parse8(s string) (int, bool) {
	if len(s) == 8 {
		x := uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
		const hi, six, zeros = 0xF0F0F0F0F0F0F0F0, 0x0606060606060606, 0x3030303030303030
		if x&hi != zeros || (x+six)&hi != zeros {
			return 0, false
		}
		x -= zeros
		x = ((x>>8)&0x00FF00FF00FF00FF)*10 + x&0x00FF00FF00FF00FF
		x = ((x>>16)&0x0000FFFF0000FFFF)*100 + x&0x0000FFFF0000FFFF
		x = (x>>32)*10000 + x&0xFFFFFFFF
		return int(x), true
	}
	if len(s) < 8 || len(s) > 18 || s[0] == '0' {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int(d)
	}
	return v, true
}

// layout resolves the app's keys against one model schema, once: the
// slot of every vertex's rank and frozen in-flow and of every out-edge's
// score, -1 where the schema lacks the key. Iterations, partitioning
// and merging then read and write by slot and take key strings from the
// schema instead of rendering them.
type layout struct {
	schema *model.Schema
	off    []int32   // the app's edgeOff
	out    [][]int32 // the graph's adjacency
	rank   []int32   // by vertex
	inflow []int32   // by vertex
	edge   []int32   // by edgeOff[v]+i
}

// maxLayouts bounds the layout cache: one per sub-model plus the full
// model's is the steady state, and a run that keeps minting schemas
// starts over rather than growing without bound.
const maxLayouts = 64

// layoutOf returns the layout of schema s, building it on first sight by
// one walk over the schema's keys.
func (a *App) layoutOf(s *model.Schema) *layout {
	a.mu.Lock()
	defer a.mu.Unlock()
	if l := a.layouts[s]; l != nil {
		return l
	}
	g := a.graph
	if a.edgeOff == nil {
		a.edgeOff = make([]int32, g.N+1)
		for v, out := range g.Out {
			a.edgeOff[v+1] = a.edgeOff[v] + int32(len(out))
		}
	}
	slots := make([]int32, 2*g.N+int(a.edgeOff[g.N]))
	for i := range slots {
		slots[i] = -1
	}
	l := &layout{schema: s, off: a.edgeOff, out: g.Out,
		rank: slots[:g.N], inflow: slots[g.N : 2*g.N], edge: slots[2*g.N:]}
	for slot, key := range s.Keys() {
		kind, v, w, ok := parseKey(key)
		if !ok || v >= g.N {
			continue
		}
		switch kind {
		case 'r':
			l.rank[v] = int32(slot)
		case 'f':
			l.inflow[v] = int32(slot)
		case 'e':
			for i, dst := range g.Out[v] {
				if int(dst) == w { // every parallel edge shares the key
					l.edge[int(a.edgeOff[v])+i] = int32(slot)
				}
			}
		}
	}
	if a.layouts == nil || len(a.layouts) >= max(maxLayouts, 2*a.parts+2) {
		a.layouts = map[*model.Schema]*layout{}
	}
	a.layouts[s] = l
	return l
}

// layoutFor returns m's layout: hint when m is on hint's schema, as the
// model a job hands its tasks is.
func (a *App) layoutFor(m *model.Model, hint *layout) *layout {
	if s := m.Schema(); s != hint.schema {
		return a.layoutOf(s)
	}
	return hint
}

// edgeSlot returns the slot of the score of v's i-th out-edge, or -1.
func (l *layout) edgeSlot(v, i int) int32 { return l.edge[int(l.off[v])+i] }

// rankKey returns RankKey(v), the schema's own string when it has one.
func (l *layout) rankKey(v int) string {
	if s := l.rank[v]; s >= 0 {
		return l.schema.Key(int(s))
	}
	return RankKey(v)
}

// floatAt returns the Float64 in slot s of m, still boxed: scores and
// ranks travel from model to emitter to model as the values they are.
func floatAt(m *model.Model, s int32) (writable.Writable, bool) {
	v, _ := m.At(int(s))
	_, ok := v.(writable.Float64)
	return v, ok
}

// outsideSchema is a merge slot map's entry for a key without a slot in
// the merged model's schema: merges Set it by key.
const outsideSchema int32 = -1

// mergeSlots maps each slot of a partial model's schema to the slot of
// the same key in the merged model's schema, or outsideSchema, by one
// walk of two cursors over the two sorted key sets, so merges copy slot
// to slot without parsing, hashing or boxing a key's value.
func mergeSlots(part, merged *model.Schema) []int32 {
	keys, into := part.Keys(), merged.Keys()
	slots := make([]int32, len(keys))
	j := 0
	for i, k := range keys {
		for j < len(into) && into[j] < k {
			j++
		}
		slots[i] = outsideSchema
		if j < len(into) && into[j] == k {
			slots[i] = int32(j)
		}
	}
	return slots
}

// slotsIn maps each slot of l's schema to the slot of the same key in
// into's schema, through the ranks and edge scores both layouts
// resolve: Merge's map from a partial model to the merged one, at the
// cost of integer reads, since Partition has built the partial
// schemas' layouts already. A slot whose key is no rank or edge of the
// graph, or that into's schema lacks, maps to outsideSchema.
func (l *layout) slotsIn(into *layout) []int32 {
	slots := make([]int32, len(l.schema.Keys()))
	for i := range slots {
		slots[i] = outsideSchema
	}
	for v, s := range l.rank {
		if s >= 0 {
			slots[s] = into.rank[v]
		}
	}
	for e, s := range l.edge {
		if s >= 0 {
			slots[s] = into.edge[e]
		}
	}
	return slots
}

// adjacency reads a vertex record: the vertex and its out-neighbours,
// which are the graph's own list (layouts number edges by it).
func (a *App) adjacency(v writable.Writable) (int, []int32, error) {
	val, ok := v.(writable.Vector)
	if !ok || len(val) == 0 {
		return 0, nil, fmt.Errorf("pagerank: record value is not a vertex adjacency")
	}
	src := int(val[0])
	if src < 0 || src >= a.graph.N || len(val)-1 != len(a.graph.Out[src]) {
		return 0, nil, fmt.Errorf("pagerank: record of vertex %d does not match the app's graph", src)
	}
	return src, a.graph.Out[src], nil
}
