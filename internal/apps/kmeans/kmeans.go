// Package kmeans implements the paper's first case study (§IV-A):
// K-means clustering as a conventional iterative-convergence MapReduce
// application (Figure 1(b)) and its PIC extension (Figure 6).
//
// The map computation associates each point with its closest centroid;
// a combiner pre-aggregates partial sums; the reduce computation
// re-computes centroid positions. Convergence holds when no centroid
// moved by more than a threshold. Under PIC, the input points are
// partitioned randomly, the model (all K centroids) is replicated into
// every sub-problem, and partial models are merged by averaging
// corresponding centroids — exactly the paper's choices.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// App is the K-means application. It implements core.App and
// core.PICApp.
type App struct {
	// K is the number of clusters.
	K int
	// Threshold is the convergence bound on centroid displacement.
	Threshold float64
	// BEThreshold is the best-effort convergence bound. The paper's
	// API allows "a much looser criterion to quickly terminate the
	// best-effort phase" (§III-B); it defaults to Threshold.
	BEThreshold float64
}

// New returns a K-means application.
func New(k int, threshold float64) *App {
	if k <= 0 || threshold <= 0 {
		panic(fmt.Sprintf("kmeans: bad parameters k=%d threshold=%g", k, threshold))
	}
	return &App{K: k, Threshold: threshold, BEThreshold: threshold}
}

// Name implements core.App.
func (a *App) Name() string { return "kmeans" }

// CentroidKey returns the model key of centroid j.
func CentroidKey(j int) string { return fmt.Sprintf("c%05d", j) }

// Records converts points into input records keyed p0 … pN-1. The keys
// are slices of one backing string, written once into an exactly-sized
// buffer, so the only per-record allocation left is boxing the vector.
func Records(points []linalg.Vector) []mapred.Record {
	var keys strings.Builder
	keys.Grow(keyBytes(len(points)))
	recs := make([]mapred.Record, len(points))
	var digits [20]byte
	for i, p := range points {
		off := keys.Len()
		keys.WriteByte('p')
		keys.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		recs[i] = mapred.Record{Key: keys.String()[off:], Value: writable.Vector(p)}
	}
	return recs
}

// keyBytes is the total length of the keys p0 … p(n-1).
func keyBytes(n int) int {
	total := 0
	// The keys of one width are p<lo> … p<hi-1>: a decade each.
	for lo, width := 0, 2; lo < n; width++ {
		hi := min(n, max(10, 10*lo))
		total += (hi - lo) * width
		lo = hi
	}
	return total
}

// InitialModel builds a starting model from the first K points — since
// generators emit points in randomized order, this is the paper's
// "arbitrary initial model (often chosen randomly)", reproducibly.
func InitialModel(points []linalg.Vector, k int) *model.Model {
	if len(points) < k {
		panic(fmt.Sprintf("kmeans: %d points for k=%d", len(points), k))
	}
	m := model.New()
	for j := 0; j < k; j++ {
		m.Set(CentroidKey(j), writable.Vector(points[j]).Clone())
	}
	return m
}

// Centroids extracts the centroid vectors from a model in key order.
func Centroids(m *model.Model) []linalg.Vector {
	var out []linalg.Vector
	m.Range(func(_ string, v writable.Writable) bool {
		if vec, ok := v.(writable.Vector); ok {
			out = append(out, linalg.Vector(vec))
		}
		return true
	})
	return out
}

// centroidSet is a flat view of a model's centroids, extracted once per
// iteration so the per-point nearest-centroid search does not touch the
// model's sorted-key machinery.
type centroidSet struct {
	keys []string
	mus  []writable.Vector
	// dims is the common centroid dimension, or -1 when centroids are
	// ragged (or absent); flat packs the centroids contiguously when
	// dims >= 0, so the per-point search walks one cache-friendly array
	// instead of len(keys) separate slices.
	dims int
	flat []float64
	// maxDims is the longest centroid's length: what a point must cover
	// for a ragged set's scan to stay in bounds.
	maxDims int
	// prune is the centre–centre geometry the memo-carrying assignment
	// reads (assign.go); nil when the set is ragged or not all finite,
	// which sends every point to the full scan.
	prune *pruneTable
}

func centroidsOf(m *model.Model) *centroidSet {
	cs := &centroidSet{dims: -1}
	m.Range(func(key string, v writable.Writable) bool {
		if mu, ok := v.(writable.Vector); ok {
			cs.keys = append(cs.keys, key)
			cs.mus = append(cs.mus, mu)
		}
		return true
	})
	for _, mu := range cs.mus {
		cs.maxDims = max(cs.maxDims, len(mu))
	}
	ragged := slices.ContainsFunc(cs.mus, func(mu writable.Vector) bool { return len(mu) != cs.maxDims })
	if len(cs.mus) > 0 && !ragged {
		cs.dims = cs.maxDims
		cs.flat = make([]float64, 0, len(cs.mus)*cs.dims)
		for _, mu := range cs.mus {
			cs.flat = append(cs.flat, mu...)
		}
		cs.prune = newPruneTable(cs.flat, len(cs.mus), cs.dims)
	}
	return cs
}

// nearestKey returns the model key of the centroid closest to p. All
// paths accumulate squared differences in the same component order, so
// the argmin — and every byte downstream of it — is identical whichever
// path runs.
func (cs *centroidSet) nearestKey(p writable.Vector) string {
	best := cs.nearestIndex(p)
	if best < 0 {
		return ""
	}
	return cs.keys[best]
}

// nearestIndex is nearestKey returning the centroid's index (-1 when
// the model has no centroids or no distance is finite).
func (cs *centroidSet) nearestIndex(p writable.Vector) int {
	best, _ := cs.nearest(p)
	return best
}

// nearest is the full scan: the index of the centroid with the least
// computed squared distance to p — the lowest index on ties, never one
// whose distance is NaN or +Inf — and that distance; -1 when there is
// none. p must cover the set's dimension (maxDims when ragged).
func (cs *centroidSet) nearest(p []float64) (int, float64) {
	best := -1
	bestDist := math.Inf(1)
	switch {
	case cs.dims == 3:
		// Every paper workload clusters in three dimensions; an
		// unrolled kernel over the packed array avoids the inner loop
		// and its bounds checks entirely.
		x, y, z := p[0], p[1], p[2]
		flat := cs.flat
		for j := 0; j+3 <= len(flat); j += 3 {
			if d := sqDist3(x, y, z, flat[j:j+3]); d < bestDist {
				best, bestDist = j/3, d
			}
		}
	case cs.dims > 0:
		dims := cs.dims
		for j := 0; j*dims < len(cs.flat); j++ {
			if d := sqDist(p, cs.flat[j*dims:(j+1)*dims]); d < bestDist {
				best, bestDist = j, d
			}
		}
	default:
		for c, mu := range cs.mus {
			if d := sqDist(p, mu); d < bestDist {
				best, bestDist = c, d
			}
		}
	}
	return best, bestDist
}

// mean is the reducer's last step: a centroid's (sum..., count) row
// divided through by its count.
func mean(acc []float64) writable.Vector {
	dims := len(acc) - 1
	n := acc[dims]
	centroid := make(writable.Vector, dims)
	for i := range centroid {
		centroid[i] = acc[i] / n
	}
	return centroid
}

// ShapeError reports an input record whose value cannot be measured
// against the model's centroids: not a vector (PointDims -1), or a
// vector whose length differs from the centroids' common dimension
// (ModelDims; -1 for a ragged model the point is too short for).
type ShapeError struct {
	Key                  string
	PointDims, ModelDims int
}

func (e *ShapeError) Error() string {
	if e.PointDims < 0 {
		return fmt.Sprintf("kmeans: record %q is not a vector", e.Key)
	}
	return fmt.Sprintf("kmeans: record %q has %d dimensions, model centroids have %d", e.Key, e.PointDims, e.ModelDims)
}

// iterMapper assigns each point to its nearest centroid. Beyond the
// record-at-a-time Map, it implements the loop-aware capabilities
// mapred.IntoMapper and mapred.LocalFuser: points are parsed once into a
// packed array cached in the job family, and each iteration's
// map+combine (MapInto, one (sum..., count) row per centroid a split's
// points reach, which the engine reduces by slot into the job's Into) or
// map+reduce (FuseLocal) runs fused over it. Every fused path
// accumulates in the exact floating-point order of the cold pipeline —
// the VectorSum combiner's and reducer's copy-the-first-then-add — so
// outputs are byte-identical. That covers the assignment too: the fused
// paths find each point's centroid through packedPoints.assign, which
// skips the k-way scan only when remembered bounds prove the scan would
// return the remembered index, and otherwise evaluates the same distance
// expression Map's scan does (the argument is in assign.go) — so whether
// a split's memo is present, cold, evicted or stale changes how long an
// iteration takes and nothing else.
type iterMapper struct {
	cs *centroidSet
	// slots is the slot of each of cs.keys in the schema of the job's
	// Into, nil without an Into or when a key is missing there, which
	// declines MapInto.
	slots []int32
}

// newIterMapper is the mapper of a job reading model m and reducing
// into into (nil for none).
func newIterMapper(m, into *model.Model) *iterMapper {
	mp := &iterMapper{cs: centroidsOf(m)}
	if into == nil {
		return mp
	}
	schema := into.Schema()
	mp.slots = make([]int32, len(mp.cs.keys))
	for j, key := range mp.cs.keys {
		s, ok := schema.Slot(key)
		if !ok {
			mp.slots = nil
			break
		}
		mp.slots[j] = int32(s)
	}
	return mp
}

// Map implements mapred.Mapper — the cold path.
func (mp *iterMapper) Map(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
	cs := mp.cs
	p, ok := v.(writable.Vector)
	switch {
	case !ok:
		return &ShapeError{Key: key, PointDims: -1, ModelDims: cs.dims}
	case cs.dims >= 0 && len(p) != cs.dims, len(p) < cs.maxDims:
		return &ShapeError{Key: key, PointDims: len(p), ModelDims: cs.dims}
	}
	centroid := cs.nearestKey(p)
	if centroid == "" {
		return fmt.Errorf("kmeans: model has no centroids")
	}
	// Build the (point..., count) accumulator in one exact-size
	// allocation; Clone+append would allocate twice per point.
	acc := make(writable.Vector, len(p)+1)
	copy(acc, p)
	acc[len(p)] = 1
	emit.Emit(centroid, acc)
	return nil
}

// NewDerived implements mapred.IntoMapper/LocalFuser. Splits that are
// not uniform-dimension vectors decline fusion (nil): the cold path
// handles them with its per-record shape checks.
func (mp *iterMapper) NewDerived(recs []mapred.Record) mapred.SplitDerived {
	if len(recs) == 0 {
		return nil
	}
	first, ok := recs[0].Value.(writable.Vector)
	if !ok || len(first) == 0 {
		return nil
	}
	dims := len(first)
	flat := make([]float64, 0, len(recs)*dims)
	for _, r := range recs {
		p, ok := r.Value.(writable.Vector)
		if !ok || len(p) != dims {
			return nil
		}
		flat = append(flat, p...)
	}
	return &packedPoints{flat: flat, n: len(recs), dims: dims}
}

// MapInto implements mapred.IntoMapper for the job that reduces into
// the next model: map+combine over one split. Each centroid's (sum...,
// count) row starts as a copy of the first point assigned to it and
// adds the rest in arrival order — the VectorSum combiner's sequence —
// and every centroid some point reached adds its row to part under its
// slot in into's schema.
func (mp *iterMapper) MapInto(d mapred.SplitDerived, _, _ *model.Model, part *mapred.Partial) (int64, int64, error) {
	pp := d.(*packedPoints)
	cs := mp.cs
	k := len(cs.keys)
	if k == 0 {
		return 0, 0, fmt.Errorf("kmeans: model has no centroids")
	}
	if part == nil || mp.slots == nil || pp.dims != cs.dims {
		// A mismatched split is the cold path's ShapeError (or a scan
		// of a ragged model).
		return 0, 0, mapred.ErrFusedUnsupported
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	assign, ok := pp.assign(cs)
	if !ok {
		return 0, 0, fmt.Errorf("kmeans: model has no centroids")
	}
	width := pp.dims + 1
	if cap(pp.rows) < k*width {
		pp.rows = make([]float64, k*width)
	}
	rows := pp.rows[:k*width]
	clear(rows)
	accumulate(rows, pp, assign)
	// Pre-combine accounting: the cold path emits one (key, point+count)
	// record per point, so its intermediate bytes are Σ count_j·size_j.
	valueBytes := int64(writable.VectorSize(width))
	var preBytes int64
	for j := 0; j < k; j++ {
		row := rows[j*width : (j+1)*width]
		if n := row[pp.dims]; n != 0 {
			preBytes += int64(n) * (mapred.KeySize(cs.keys[j]) + valueBytes)
			part.AddRow(int(mp.slots[j]), row)
		}
	}
	return int64(pp.n), preBytes, nil
}

// accumulate adds pp's points into their assigned centroids' (sum...,
// count) rows, which start zeroed, in arrival order: a row starts as a
// copy of its first point and adds the rest — VectorSum's
// copy-the-first-then-add sequence. A row whose count is still 0 drew
// no point.
func accumulate(rows []float64, pp *packedPoints, assign []int32) {
	dims := pp.dims
	width := dims + 1
	for r := 0; r < pp.n; r++ {
		j := int(assign[r])
		acc := rows[j*width : (j+1)*width]
		p := pp.flat[r*dims : (r+1)*dims]
		if acc[dims] == 0 {
			copy(acc, p)
		} else {
			for c, x := range p {
				acc[c] += x
			}
		}
		acc[dims]++
	}
}

// FuseLocal implements mapred.LocalFuser: the in-memory map+reduce of a
// best-effort local iteration. Assignment (stage 1) touches only each
// split's own points and memo and runs parallel; accumulation (stage 2)
// is serial in global arrival order — the exact floating-point order
// the cold reducer sums in after its stable sort. Shapes the cold path
// reports errors for (ragged or mismatched dimensions, NaN distances,
// empty model) decline fusion instead, so the cold run produces its
// byte-identical diagnostics.
func (mp *iterMapper) FuseLocal(ds []mapred.SplitDerived, _, _ *model.Model, par func(int, func(int)), emit mapred.Emitter) (int64, int64, error) {
	cs := mp.cs
	k := len(cs.keys)
	if k == 0 {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	pps := make([]*packedPoints, len(ds))
	dims := -1
	var total int64
	for i, d := range ds {
		pp := d.(*packedPoints)
		pps[i] = pp
		if pp.n == 0 {
			continue
		}
		if dims == -1 {
			dims = pp.dims
		} else if pp.dims != dims {
			return 0, 0, mapred.ErrFusedUnsupported
		}
		total += int64(pp.n)
	}
	if dims < 0 {
		return 0, 0, nil
	}
	if dims != cs.dims {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	assign := make([][]int32, len(pps))
	par(len(pps), func(i int) {
		pp := pps[i]
		pp.mu.Lock()
		defer pp.mu.Unlock()
		if idx, ok := pp.assign(cs); ok {
			assign[i] = idx
		}
	})
	width := dims + 1
	rows := make([]float64, k*width)
	for i, pp := range pps {
		if assign[i] == nil {
			return 0, 0, mapred.ErrFusedUnsupported
		}
		accumulate(rows, pp, assign[i])
	}
	for j := 0; j < k; j++ {
		if row := rows[j*width : (j+1)*width]; row[dims] != 0 {
			emit.Emit(cs.keys[j], mean(row))
		}
	}
	return total, 0, nil
}

// The fused kernels' signatures, checked when the package builds: a
// drifted one would only send every job down the cold path.
var (
	_ mapred.IntoMapper = (*iterMapper)(nil)
	_ mapred.LocalFuser = (*iterMapper)(nil)
)

// iterJob is one Lloyd iteration under model m as a MapReduce job
// whose new centroids are written into into.
func iterJob(m, into *model.Model) *mapred.Job {
	return &mapred.Job{
		Name:     "kmeans-iter",
		Mapper:   newIterMapper(m, into),
		Combiner: mapred.VectorSum{},
		Reducer:  mapred.VectorSum{Then: mean},
		Into:     into,
	}
}

// Iteration implements core.App: one MapReduce job assigning points to
// centroids and writing the recomputed ones into a copy of m, so
// centroids that attracted no points keep their previous position.
func (a *App) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	next := m.Clone()
	if _, err := rt.RunJob(iterJob(m, next), in, m); err != nil {
		return nil, err
	}
	return next, nil
}

// Converged implements core.App: every centroid moved less than the
// threshold.
func (a *App) Converged(prev, next *model.Model) bool {
	return model.VectorDeltaBelow(prev, next, a.Threshold)
}

// BEConverged implements core.BEConvergedApp with the (possibly looser)
// best-effort bound. Successive merged models of randomly partitioned
// K-means differ by per-partition sampling noise, so a bound a few times
// the final threshold terminates the best-effort phase once merging has
// stopped making systematic progress.
func (a *App) BEConverged(prev, next *model.Model) bool {
	return model.VectorDeltaBelow(prev, next, a.BEThreshold)
}

// Partition implements core.PICApp: deal the points into p random
// sub-problems, each starting from a copy of the full model (Figure 6).
func (a *App) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	groups := core.DealRecords(in.Records(), p)
	models := core.CopyModels(m, p)
	subs := make([]core.SubProblem, p)
	for i := range subs {
		subs[i] = core.SubProblem{Records: groups[i], Model: models[i]}
	}
	return subs, nil
}

// PartitionModels implements core.LoopPartitioner: Partition's record
// deal is deterministic and model-independent, so the PIC stepper may
// keep the first best-effort iteration's record layout and refresh only
// the per-partition model copies — the loop-invariant half of the
// sub-problems stays cached on the node groups.
func (a *App) PartitionModels(m *model.Model, p int) []*model.Model {
	return core.CopyModels(m, p)
}

// Merge implements core.PICApp: average corresponding centroids from
// every partition (Figure 6 — "identifies corresponding centroid values
// from each partition and averages them").
func (a *App) Merge(parts []*model.Model, _ *model.Model) (*model.Model, error) {
	return core.AverageModels(parts)
}

// SequentialReference runs plain in-process Lloyd iteration from the
// given starting centroids until the displacement threshold (or the
// iteration cap) — the "final solution produced by a sequential
// implementation" the paper measures distance against in §VI-A.
func SequentialReference(points []linalg.Vector, initial []linalg.Vector, threshold float64, maxIters int) []linalg.Vector {
	centroids := make([]linalg.Vector, len(initial))
	for i, c := range initial {
		centroids[i] = c.Clone()
	}
	dims := len(points[0])
	for it := 0; it < maxIters; it++ {
		sums := make([]linalg.Vector, len(centroids))
		counts := make([]int, len(centroids))
		for i := range sums {
			sums[i] = make(linalg.Vector, dims)
		}
		for _, p := range points {
			best, bestDist := 0, math.Inf(1)
			for c, mu := range centroids {
				var d float64
				for i := range mu {
					diff := p[i] - mu[i]
					d += diff * diff
				}
				if d < bestDist {
					best, bestDist = c, d
				}
			}
			for i := range p {
				sums[best][i] += p[i]
			}
			counts[best]++
		}
		var worst float64
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			var d2 float64
			for i := range centroids[c] {
				next := sums[c][i] / float64(counts[c])
				diff := next - centroids[c][i]
				d2 += diff * diff
				centroids[c][i] = next
			}
			if d2 > worst {
				worst = d2
			}
		}
		if math.Sqrt(worst) < threshold {
			break
		}
	}
	return centroids
}

// MergeKey implements core.KeyMerger: corresponding centroids from every
// partition are averaged, so the merge can run as a distributed
// MapReduce job (§III-C).
func (a *App) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("kmeans: no values for %q", key)
	}
	acc := values[0].(writable.Vector).Clone()
	for _, v := range values[1:] {
		vec, ok := v.(writable.Vector)
		if !ok || len(vec) != len(acc) {
			return nil, fmt.Errorf("kmeans: incompatible centroids at %q", key)
		}
		for i := range acc {
			acc[i] += vec[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(values))
	}
	return acc, nil
}

// MergeKeyWeighted implements core.WeightedKeyMerger: the
// weights-weighted mean of the partial centroids, so rack-level
// pre-averages combine without biasing toward small racks.
func (a *App) MergeKeyWeighted(key string, values []writable.Writable, weights []int) (writable.Writable, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, fmt.Errorf("kmeans: bad weighted merge for %q: %d values, %d weights", key, len(values), len(weights))
	}
	acc := make(writable.Vector, len(values[0].(writable.Vector)))
	total := 0
	for vi, v := range values {
		vec, ok := v.(writable.Vector)
		if !ok || len(vec) != len(acc) {
			return nil, fmt.Errorf("kmeans: incompatible centroids at %q", key)
		}
		w := weights[vi]
		if w < 1 {
			return nil, fmt.Errorf("kmeans: weight %d for %q", w, key)
		}
		total += w
		for i := range acc {
			acc[i] += float64(w) * vec[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(total)
	}
	return acc, nil
}

// InitialModelPlusPlus builds a starting model with the k-means++
// seeding strategy (deterministic in the seed): the first centroid is a
// uniformly random point and each subsequent centroid is drawn with
// probability proportional to its squared distance from the nearest
// chosen centroid. Better seeds shorten both the conventional run and
// PIC's first batch of local iterations.
func InitialModelPlusPlus(points []linalg.Vector, k int, seed int64) *model.Model {
	if len(points) < k {
		panic(fmt.Sprintf("kmeans: %d points for k=%d", len(points), k))
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := make([]linalg.Vector, 0, k)
	chosen = append(chosen, points[rng.Intn(len(points))])
	dist2 := make([]float64, len(points))
	for i := range dist2 {
		dist2[i] = sqDist(points[i], chosen[0])
	}
	for len(chosen) < k {
		var total float64
		for _, d := range dist2 {
			total += d
		}
		var next linalg.Vector
		if total == 0 {
			// All remaining points coincide with chosen centroids.
			next = points[rng.Intn(len(points))]
		} else {
			r := rng.Float64() * total
			idx := len(points) - 1
			for i, d := range dist2 {
				if r < d {
					idx = i
					break
				}
				r -= d
			}
			next = points[idx]
		}
		chosen = append(chosen, next)
		for i := range dist2 {
			if d := sqDist(points[i], next); d < dist2[i] {
				dist2[i] = d
			}
		}
	}
	m := model.New()
	for j, c := range chosen {
		m.Set(CentroidKey(j), writable.Vector(c).Clone())
	}
	return m
}
