// Package pagerank implements the paper's second case study (§IV-B):
// the Nutch-style PageRank computation, whose model is both the vertex
// ranks and the per-edge scores — the "large model" case where model
// update traffic dominates conventional MapReduce execution.
//
// Each iteration has two phases (the paper's Figure 7): aggregation
// (a vertex's rank is recomputed from its incoming edge scores:
// PR_i = (1-c) + c·Σ_j edge_ji) and propagation (every edge's score
// becomes the source rank divided by the source out-degree).
//
// Under PIC (Figure 8), the vertex set is split into disjoint groups;
// vertices plus fully-internal edges form the sub-graphs, and the
// cross-partition edges are grouped into p² sets. Local iterations
// update only intra-partition state; the merge step computes the scores
// of cross edges from the partial models and folds them into the
// destination vertices' ranks — "the only mechanism used to factor in
// the dependencies between the sub-problems".
package pagerank

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// App is the PageRank application. It implements core.App, core.PICApp
// and core.BEConvergedApp.
type App struct {
	// Damping is the paper's constant c (typically 0.85).
	Damping float64
	// Tolerance is the rank-delta convergence bound; Nutch instead
	// stops on a fixed iteration cap, which experiments impose through
	// the driver options.
	Tolerance float64
	// BETolerance is the best-effort convergence bound. It defaults to
	// Tolerance (the paper's default — the same criterion): each
	// best-effort iteration is one outer block-Jacobi step that feeds
	// cross-partition rank flow through the merge, so stopping early
	// leaves inter-partition influence unpropagated.
	BETolerance float64

	// Strategy selects how the vertex set is split for the best-effort
	// phase. The paper's default is random (§IV-B); it also suggests
	// min-cut partitioning "for example using the METIS package"
	// (§VI-B), which PartitionMultilevel provides.
	Strategy PartitionStrategy

	graph  *webgraph.Graph
	assign []int // vertex -> partition (fixed per app, like the paper's static partitioning)
	parts  int
	seed   int64

	// Loop-invariant tables, built on first use inside a run (set-up
	// pays for none of them).
	mu         sync.Mutex
	edgeOff    []int32                   // edgeOff[v]+i numbers out-edge i of v; len N+1
	layouts    map[*model.Schema]*layout // slot tables per model schema
	subSchemas []*model.Schema           // Partition's sub-model key sets under assign
}

// PartitionStrategy selects the graph partitioner for the best-effort
// phase.
type PartitionStrategy int

// The available partitioning strategies.
const (
	// PartitionRandom splits vertices uniformly at random — the
	// paper's default.
	PartitionRandom PartitionStrategy = iota
	// PartitionLocality splits vertices into contiguous ranges, which
	// aligns with communities when vertex ids do.
	PartitionLocality
	// PartitionMultilevel runs the METIS-style multilevel min-cut
	// partitioner.
	PartitionMultilevel
)

// New returns a PageRank application over g. partitionSeed fixes the
// random vertex partitioning used by the PIC best-effort phase.
func New(g *webgraph.Graph, damping, tolerance float64, partitionSeed int64) *App {
	if damping <= 0 || damping >= 1 {
		panic(fmt.Sprintf("pagerank: damping = %g out of (0,1)", damping))
	}
	if tolerance <= 0 {
		panic("pagerank: tolerance must be positive")
	}
	return &App{
		Damping:     damping,
		Tolerance:   tolerance,
		BETolerance: tolerance,
		graph:       g,
		seed:        partitionSeed,
	}
}

// Name implements core.App.
func (a *App) Name() string { return "pagerank" }

// RankKey returns the model key of vertex v's PageRank.
func RankKey(v int) string { return pad8Key('r', v) }

// EdgeKey returns the model key of edge (src,dst)'s score.
func EdgeKey(src, dst int) string {
	if uint(src) >= 100_000_000 || uint(dst) >= 100_000_000 {
		return fmt.Sprintf("e%08d:%08d", src, dst)
	}
	var b [18]byte
	b[0] = 'e'
	put8(b[1:9], src)
	b[9] = ':'
	put8(b[10:18], dst)
	return string(b[:])
}

// pad8Key renders prefix + "%08d" without fmt: the aggregation mapper
// builds one key per edge per iteration, and Sprintf dominated the
// PageRank profile.
func pad8Key(prefix byte, v int) string {
	if uint(v) >= 100_000_000 {
		return fmt.Sprintf("%c%08d", prefix, v)
	}
	var b [9]byte
	b[0] = prefix
	put8(b[1:9], v)
	return string(b[:])
}

// put8 writes v as exactly eight decimal digits, zero-padded.
func put8(dst []byte, v int) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// inflowKey returns the sub-model key of vertex v's frozen
// cross-partition in-flow: the summed scores of its incoming cross
// edges, fixed at their merged values for the duration of one
// best-effort iteration. This is the block-Jacobi treatment of the
// inter-partition dependencies (§VI-B's additive-Schwarz analogy): the
// paper's merge step is "the only mechanism used to factor in the
// dependencies", and freezing the inflow is the natural way to carry
// that merged information through the local iterations.
func inflowKey(v int) string { return pad8Key('f', v) }

// vertexValue encodes a vertex for the input records: component 0 is
// the vertex id, the rest are out-neighbor ids.
func vertexValue(v int, out []int32) writable.Vector {
	val := make(writable.Vector, 1+len(out))
	val[0] = float64(v)
	for i, w := range out {
		val[i+1] = float64(w)
	}
	return val
}

// Records converts the graph's adjacency into input records, one per
// vertex.
func Records(g *webgraph.Graph) []mapred.Record {
	recs := make([]mapred.Record, g.N)
	for v := 0; v < g.N; v++ {
		recs[v] = mapred.Record{Key: pad8Key('v', v), Value: vertexValue(v, g.Out[v])}
	}
	return recs
}

// InitialModel builds the Nutch starting state: every rank 1.0 and every
// edge score rank/outdegree.
func InitialModel(g *webgraph.Graph) *model.Model {
	// Keys are set in ascending order — every edge by (src, dst), then
	// every rank — which the store takes without hashing or sorting.
	m := model.NewWithCapacity(g.N + g.NumEdges())
	var out []int32
	for v := 0; v < g.N; v++ {
		out = append(out[:0], g.Out[v]...)
		slices.Sort(out)
		var score writable.Writable = writable.Float64(1.0 / float64(len(out))) // boxed once per vertex
		for _, w := range out {
			m.Set(EdgeKey(v, int(w)), score)
		}
	}
	var one writable.Writable = writable.Float64(1)
	for v := 0; v < g.N; v++ {
		m.Set(RankKey(v), one)
	}
	return m
}

// Ranks extracts the vertex ranks from a model, reading each by slot.
func Ranks(m *model.Model, n int) []float64 {
	out := make([]float64, n)
	for slot, key := range m.Schema().Keys() {
		if kind, v, _, ok := parseKey(key); ok && kind == 'r' && v < n {
			if r, isFloat := m.FloatAt(slot); isFloat {
				out[v] = r
			}
		}
	}
	return out
}

// Iteration implements core.App: the aggregation job followed by the
// propagation job, each writing its output into the model it builds.
// The next model is a float column on m's schema and every key is
// reached through m's layout, so an iteration renders, hashes and sorts
// no key.
func (a *App) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	lay := a.layoutOf(m.Schema())
	ranks := a.newRanks(lay, m)
	if _, err := rt.RunJob(a.aggregateJob(lay, ranks), in, m); err != nil {
		return nil, err
	}

	// Propagation: every edge's score becomes new-rank/outdegree,
	// written into the next model. The job reads the ranks alone, so the
	// model it distributes is the ranks, not the model it writes.
	next := ranks.Clone()
	if _, err := rt.RunJob(a.propagateJob(lay, m, next), in, ranks); err != nil {
		return nil, err
	}
	// Frozen cross-partition in-flows persist across local iterations.
	for _, s := range lay.inflow {
		next.CopyAt(int(s), m, int(s))
	}
	return next, nil
}

// newRanks returns the new ranks before the aggregation writes them: a
// float column on lay's schema holding 1-c for every rank m holds, the
// rank of a vertex with no in-edges in (this partition of) the graph.
func (a *App) newRanks(lay *layout, m *model.Model) *model.Model {
	ranks := model.NewFloatsOn(lay.schema)
	for _, s := range lay.rank {
		if m.HasAt(int(s)) {
			ranks.SetFloatAt(int(s), 1-a.Damping)
		}
	}
	return ranks
}

// propagateJob is an iteration's propagation: a map-only job over the
// new ranks that writes every edge score prev holds into next.
func (a *App) propagateJob(lay *layout, prev, next *model.Model) *mapred.Job {
	return &mapred.Job{
		Name:             "pagerank-propagate",
		PartitionedModel: true,
		Mapper:           &propagateMapper{a: a, lay: lay, prev: prev},
		Into:             next,
	}
}

// aggregateJob is an iteration's aggregation into ranks: every vertex
// emits, for each outgoing edge, the edge's current score keyed by the
// destination vertex; the combiner sums and the reducer applies the
// rank formula.
func (a *App) aggregateJob(lay *layout, ranks *model.Model) *mapred.Job {
	return &mapred.Job{
		Name:             "pagerank-aggregate",
		PartitionedModel: true, // tasks read the state of their own vertices
		Mapper:           &aggregateMapper{a: a, lay: lay},
		Combiner:         mapred.FloatSum{},
		Reducer:          mapred.FloatSum{Then: a.rank},
		Into:             ranks,
	}
}

// rank is the rank formula PR = (1-c) + c·Σ, for every path that applies
// it. The conversion keeps the product rounded on its own: without it
// the compiler may fuse multiply and add (the spec allows it, and arm64
// does), and the rank would depend on the host.
func (a *App) rank(sum float64) float64 {
	return (1 - a.Damping) + float64(a.Damping*sum)
}

// Converged implements core.App: the largest rank change is below
// Tolerance. (Nutch also simply caps iterations; experiments do that via
// driver options.)
func (a *App) Converged(prev, next *model.Model) bool {
	return model.FloatDeltaBelow(prev, next, a.Tolerance)
}

// BEConverged implements core.BEConvergedApp with the looser
// best-effort bound.
func (a *App) BEConverged(prev, next *model.Model) bool {
	return model.FloatDeltaBelow(prev, next, a.BETolerance)
}

// Partition implements core.PICApp: random disjoint vertex groups; each
// sub-problem holds its vertices' adjacency records, their ranks and
// the scores of fully-internal edges.
func (a *App) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	if a.assign == nil || a.parts != p {
		switch a.Strategy {
		case PartitionLocality:
			a.assign = webgraph.LocalityPartition(a.graph.N, p)
		case PartitionMultilevel:
			a.assign = webgraph.MultilevelPartition(a.graph, p)
		default:
			a.assign = webgraph.RandomPartition(a.seed, a.graph.N, p)
		}
		a.parts = p
		a.subSchemas = nil
	}
	assign := a.assign

	records, err := core.PartitionRecordsBy(in.Records(), p, func(r mapred.Record) int {
		val := r.Value.(writable.Vector)
		return assign[int(val[0])]
	})
	if err != nil {
		return nil, err
	}
	full := a.layoutOf(m.Schema())
	if a.subSchemas == nil {
		a.subSchemas = a.partitionSchemas(full)
	}
	// Sub-models take the full model's column kind; values move slot to
	// slot.
	models := make([]*model.Model, p)
	lays := make([]*layout, p)
	for i := range models {
		models[i] = m.NewLikeOn(a.subSchemas[i])
		lays[i] = a.layoutOf(a.subSchemas[i])
	}
	inflow := make([]float64, a.graph.N)
	for v := 0; v < a.graph.N; v++ {
		pv := assign[v]
		models[pv].CopyAt(int(lays[pv].rank[v]), m, int(full.rank[v]))
		for i, w := range a.graph.Out[v] {
			if assign[int(w)] == pv {
				models[pv].CopyAt(int(lays[pv].edgeSlot(v, i)), m, int(full.edgeSlot(v, i)))
			} else if score, ok := m.FloatAt(int(full.edgeSlot(v, i))); ok {
				// Cross edge: excluded from the sub-graph; its
				// current score is frozen into the destination's
				// in-flow constant.
				inflow[int(w)] += score
			}
		}
	}
	for v, f := range inflow {
		if f != 0 {
			models[assign[v]].SetFloatAt(int(lays[assign[v]].inflow[v]), f)
		}
	}
	subs := make([]core.SubProblem, p)
	for i := range subs {
		subs[i] = core.SubProblem{Records: records[i], Model: models[i]}
	}
	return subs, nil
}

// partitionSchemas returns the key set of each partition's sub-model
// under a.assign: its vertices' ranks, its internal edges, and an
// in-flow constant for every vertex a cross edge points at. The sets
// depend only on the graph and the assignment, so every best-effort
// iteration's sub-models share them.
func (a *App) partitionSchemas(full *layout) []*model.Schema {
	keys := make([][]string, a.parts)
	fed := make([]bool, a.graph.N) // some cross edge points at the vertex
	for v, out := range a.graph.Out {
		pv := a.assign[v]
		keys[pv] = append(keys[pv], full.rankKey(v))
		for i, w := range out {
			if a.assign[int(w)] != pv {
				fed[int(w)] = true
			} else if s := full.edgeSlot(v, i); s >= 0 {
				keys[pv] = append(keys[pv], full.schema.Key(int(s)))
			} else {
				keys[pv] = append(keys[pv], EdgeKey(v, int(w)))
			}
		}
	}
	for v, is := range fed {
		if is {
			keys[a.assign[v]] = append(keys[a.assign[v]], inflowKey(v))
		}
	}
	schemas := make([]*model.Schema, a.parts)
	for i := range schemas {
		schemas[i] = model.NewSchema(keys[i])
	}
	return schemas
}

// Merge implements core.PICApp (Figure 8): concatenate the partial
// models (ranks and internal edge scores; the frozen in-flow constants
// are dropped) and recompute the scores of all cross edges from the
// newly merged source ranks. The refreshed cross scores carry
// inter-partition influence into the next best-effort iteration through
// the in-flow constants — "the only mechanism used to factor in the
// dependencies between the sub-problems".
func (a *App) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	if a.assign == nil {
		return nil, fmt.Errorf("pagerank: Merge before Partition")
	}
	kind := prev
	if len(parts) > 0 {
		kind = parts[0] // the merged model takes the partial models' column kind
	}
	merged := a.likePrev(prev, kind)
	into := a.layoutOf(merged.Schema())
	for _, part := range parts {
		ps := part.Schema()
		for i, s := range a.layoutOf(ps).slotsIn(into) {
			if !part.HasAt(i) {
				continue
			}
			if s >= 0 {
				if merged.HasAt(int(s)) {
					return nil, fmt.Errorf("pagerank: duplicate key %q across partitions", ps.Key(i))
				}
				merged.CopyAt(int(s), part, i)
				continue
			}
			key := ps.Key(i)
			if strings.HasPrefix(key, "f") {
				continue // a frozen in-flow constant: merges drop it
			}
			if _, dup := merged.Get(key); dup {
				return nil, fmt.Errorf("pagerank: duplicate key %q across partitions", key)
			}
			v, _ := part.At(i)
			merged.Set(key, writable.Clone(v))
		}
	}
	if err := a.refreshCrossScores(merged); err != nil {
		return nil, err
	}
	return merged, nil
}

// likePrev returns an empty model with kind's column kind on the
// previous merged model's schema — which holds every rank and every
// edge, cross edges included.
func (a *App) likePrev(prev, kind *model.Model) *model.Model {
	if prev == nil {
		return model.New()
	}
	return kind.NewLikeOn(prev.Schema())
}

// refreshCrossScores recomputes every cross-partition edge score from
// the merged source ranks — the merge step's dependency propagation,
// shared by Merge and FinalizeMerge. A source's later cross edges copy
// its first one's slot, so a boxed model shares one box per source and
// a float model boxes none.
func (a *App) refreshCrossScores(merged *model.Model) error {
	lay := a.layoutOf(merged.Schema())
	for v, out := range a.graph.Out {
		var score float64          // rank/outdegree
		scored, first := false, -1 // first: the slot of v's first refreshed cross edge
		for i, w := range out {
			if a.assign[int(w)] == a.assign[v] {
				continue
			}
			if !scored {
				rank, ok := merged.FloatAt(int(lay.rank[v]))
				if !ok {
					return fmt.Errorf("pagerank: merged model missing rank of %d", v)
				}
				score, scored = rank/float64(len(out)), true
			}
			switch s := int(lay.edgeSlot(v, i)); {
			case s < 0:
				merged.Set(EdgeKey(v, int(w)), writable.Float64(score))
			case first < 0:
				merged.SetFloatAt(s, score)
				first = s
			default:
				merged.CopyAt(s, merged, first)
			}
		}
	}
	return nil
}

// Reference computes PageRank sequentially with the same two-phase
// update for the given number of iterations — the golden comparison for
// tests and quality metrics.
func Reference(g *webgraph.Graph, damping float64, iterations int) []float64 {
	ranks := make([]float64, g.N)
	scores := make(map[int64]float64, g.NumEdges())
	key := func(src, dst int) int64 { return int64(src)<<32 | int64(dst) }
	for v := 0; v < g.N; v++ {
		ranks[v] = 1
		s := 1.0 / float64(len(g.Out[v]))
		for _, w := range g.Out[v] {
			scores[key(v, int(w))] = s
		}
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, g.N)
		for v := range next {
			next[v] = 1 - damping
		}
		for v := 0; v < g.N; v++ {
			for _, w := range g.Out[v] {
				next[int(w)] += float64(damping * scores[key(v, int(w))])
			}
		}
		ranks = next
		for v := 0; v < g.N; v++ {
			s := ranks[v] / float64(len(g.Out[v]))
			for _, w := range g.Out[v] {
				scores[key(v, int(w))] = s
			}
		}
	}
	return ranks
}
