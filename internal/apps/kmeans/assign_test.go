package kmeans

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/writable"
)

// The oracle for everything in this file is the cold pipeline: the
// record-at-a-time Map (a full nearestIndex scan per point) followed by
// the engine's own group step. The memo-carrying kernels must match it
// to the byte on every centroid set of every sequence, whatever state
// the memo was left in by the sets before.

// encodeRecords is the byte form records are compared in.
func encodeRecords(recs []mapred.Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = append(buf, r.Key...)
		buf = append(buf, 0)
		buf = writable.Encode(buf, r.Value)
	}
	return buf
}

// pointSplits turns groups of points into record splits.
func pointSplits(groups ...[]linalg.Vector) [][]mapred.Record {
	splits := make([][]mapred.Record, len(groups))
	for i, g := range groups {
		splits[i] = Records(g)
	}
	return splits
}

// checkPrunedSequence drives one memo-carrying packedPoints per split
// through the centroid sets in order and, after every set, holds
// MapInto's partial rows and counts, the memo's indices and FuseLocal
// against the cold pipeline. fuseFirst[i] makes step i call FuseLocal
// before MapInto, so each kernel meets real drift on some steps and a
// repeated model on others.
func checkPrunedSequence(t testing.TB, splits [][]mapred.Record, models []*model.Model, fuseFirst func(step int) bool) {
	t.Helper()
	var proto iterMapper
	pps := make([]mapred.SplitDerived, len(splits))
	for i, recs := range splits {
		if pps[i] = proto.NewDerived(recs); pps[i] == nil {
			t.Fatalf("split %d declined fusion", i)
		}
	}
	for step, m := range models {
		into := m.Clone()
		mp := newIterMapper(m, into)
		var coldAll []mapred.Record
		var coldErr error
		cold := make([][]mapred.Record, len(splits))
		for i, recs := range splits {
			ems, err := mapred.RunMap(mp, recs, m)
			if err != nil {
				coldErr = err
				continue
			}
			cold[i] = ems
			coldAll = append(coldAll, ems...)
		}
		checkMapInto := func() {
			for i, recs := range splits {
				pp := pps[i].(*packedPoints)
				var part mapred.Partial
				preRecs, preBytes, err := mp.MapInto(pp, m, into, &part)
				if declined := errors.Is(err, mapred.ErrFusedUnsupported); declined != (pp.dims != mp.cs.dims && len(mp.cs.keys) > 0) {
					t.Fatalf("step %d split %d: MapInto declined=%v with point dims %d, model dims %d", step, i, declined, pp.dims, mp.cs.dims)
				} else if declined {
					continue
				}
				if cold[i] == nil {
					if err == nil {
						t.Fatalf("step %d split %d: MapInto succeeded where the cold map fails", step, i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d split %d: MapInto: %v", step, i, err)
				}
				want, err := mapred.RunGrouped(mapred.VectorSum{}, cold[i], m)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]mapred.Record, part.Len())
				for r := range got {
					slot, row := part.Row(r)
					got[r] = mapred.Record{Key: into.Schema().Key(slot), Value: writable.Vector(row)}
				}
				if !bytes.Equal(encodeRecords(got), encodeRecords(want)) {
					t.Fatalf("step %d split %d: MapInto's partial holds\n%v\ncold combine\n%v", step, i, got, want)
				}
				if preRecs != int64(len(cold[i])) || preBytes != mapred.RecordsSize(cold[i]) {
					t.Fatalf("step %d split %d: pre-combine %d records / %d bytes, cold %d / %d",
						step, i, preRecs, preBytes, len(cold[i]), mapred.RecordsSize(cold[i]))
				}
				for r, rec := range recs {
					if got, want := int(pp.memo.assign[r]), mp.cs.nearestIndex(rec.Value.(writable.Vector)); got != want {
						t.Fatalf("step %d split %d point %d: memo says centroid %d, full scan %d", step, i, r, got, want)
					}
				}
			}
		}
		checkFuseLocal := func() {
			var em recordList
			mapEmits, _, err := mp.FuseLocal(pps, m, nil, func(n int, f func(int)) {
				for i := 0; i < n; i++ {
					f(i)
				}
			}, &em)
			if coldErr != nil {
				if !errors.Is(err, mapred.ErrFusedUnsupported) {
					t.Fatalf("step %d: FuseLocal returned %v where the cold map fails with %v", step, err, coldErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("step %d: FuseLocal: %v", step, err)
			}
			want, err := mapred.RunGrouped(mapred.VectorSum{Then: mean}, coldAll, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeRecords(em), encodeRecords(want)) {
				t.Fatalf("step %d: FuseLocal emitted\n%v\ncold reduce\n%v", step, em, want)
			}
			if mapEmits != int64(len(coldAll)) {
				t.Fatalf("step %d: FuseLocal reports %d map emissions, cold %d", step, mapEmits, len(coldAll))
			}
		}
		if fuseFirst(step) {
			checkFuseLocal()
			checkMapInto()
		} else {
			checkMapInto()
			checkFuseLocal()
		}
	}
}

type recordList []mapred.Record

func (l *recordList) Emit(key string, v writable.Writable) {
	*l = append(*l, mapred.Record{Key: key, Value: writable.Clone(v)})
}

// genPrunedCase expands a seed into 1–4 splits of points and a sequence
// of 2–12 centroid sets that visits the shapes the pruning must survive:
// small drifts, a large jump, centroids that stay put, exact duplicates,
// a centroid exactly on a point, two centroids equidistant from a point,
// coordinates at the edges of the float range, non-finite centroids, a
// changing k, a repeated set and a return to an earlier one.
func genPrunedCase(seed int64) (splits [][]mapred.Record, models []*model.Model) {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{1, 2, 3, 3, 3, 5}[rng.Intn(6)]
	scale := []float64{1, 1, 1, 1e-160, 1e150, 1e-100, 1e100, 0x1p-1040}[rng.Intn(8)]
	lattice := rng.Intn(3) == 0 // small integer coordinates: exact ties are common
	coord := func(spread float64) float64 {
		if lattice {
			return scale * float64(rng.Intn(9)-4)
		}
		return scale * spread * (2*rng.Float64() - 1)
	}
	vec := func(spread float64) linalg.Vector {
		v := make(linalg.Vector, dims)
		for c := range v {
			v[c] = coord(spread)
		}
		return v
	}
	near := func(c linalg.Vector, sigma float64) linalg.Vector {
		v := c.Clone()
		if !lattice {
			for i := range v {
				v[i] += scale * sigma * rng.NormFloat64()
			}
		}
		return v
	}
	centres := []linalg.Vector{vec(100), vec(100), vec(100)}
	var points []linalg.Vector
	groups := make([][]linalg.Vector, 1+rng.Intn(4))
	for g := range groups {
		for n := 1 + rng.Intn(30); n > 0; n-- {
			var p linalg.Vector
			switch r := rng.Intn(20); {
			case r == 0 && len(points) > 0:
				p = points[rng.Intn(len(points))].Clone() // coincident points
			case r == 1:
				p = vec(300) // an outlier
			default:
				p = near(centres[rng.Intn(len(centres))], 15)
			}
			groups[g] = append(groups[g], p)
			points = append(points, p)
		}
	}
	if rng.Intn(40) == 0 { // a point no centroid is at a finite distance from
		points[rng.Intn(len(points))][rng.Intn(dims)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	}
	splits = pointSplits(groups...)

	// cur is the evolving finite centroid set, keyed by its original
	// index so deleting one shifts the dense indices of those after it.
	type centroid struct {
		id int
		v  linalg.Vector
	}
	var cur []centroid
	nextID := 0
	add := func(v linalg.Vector) {
		cur = append(cur, centroid{nextID, v})
		nextID++
	}
	for k := 1 + rng.Intn(8); k > 0; k-- {
		if rng.Intn(2) == 0 {
			add(points[rng.Intn(len(points))].Clone())
		} else {
			add(vec(120))
		}
	}
	build := func(cs []centroid) *model.Model {
		m := model.New()
		for _, c := range cs {
			m.Set(CentroidKey(c.id), writable.Vector(c.v).Clone())
		}
		return m
	}
	models = append(models, build(cur))
	for steps := 1 + rng.Intn(11); steps > 0; steps-- {
		j := rng.Intn(len(cur))
		switch rng.Intn(14) {
		case 0: // every centroid drifts a little
			for i := range cur {
				cur[i].v = near(cur[i].v, 0.5)
			}
		case 1: // one centroid jumps
			cur[j].v = vec(200)
		case 2: // some drift, the rest stay exactly where they were
			for i := range cur {
				if rng.Intn(2) == 0 {
					cur[i].v = near(cur[i].v, 2)
				}
			}
		case 3: // exact duplicate of another centroid
			cur[j].v = cur[rng.Intn(len(cur))].v.Clone()
		case 4: // exactly on a point
			cur[j].v = points[rng.Intn(len(points))].Clone()
		case 5: // mirror image of another centroid through a point
			p, o := points[rng.Intn(len(points))], cur[rng.Intn(len(cur))].v
			for c := range cur[j].v {
				cur[j].v[c] = 2*p[c] - o[c]
			}
		case 6: // one non-finite coordinate, for this step only
			tmp := append([]centroid(nil), cur...)
			tmp[j].v = tmp[j].v.Clone()
			tmp[j].v[rng.Intn(dims)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			models = append(models, build(tmp))
			continue
		case 7: // k changes
			if len(cur) > 1 && rng.Intn(2) == 0 {
				cur = append(cur[:j], cur[j+1:]...)
			} else {
				add(near(centres[rng.Intn(len(centres))], 30))
			}
		case 8: // the same set again
			models = append(models, models[len(models)-1])
			continue
		case 9: // back to an earlier set
			models = append(models, models[rng.Intn(len(models))])
			continue
		case 10: // a Lloyd step
			next := lloydStep(points, build(cur))
			for i := range cur {
				v, _ := next.Vector(CentroidKey(cur[i].id))
				cur[i].v = linalg.Vector(v)
			}
		case 11: // so far away that squared distances overflow
			cur[j].v = cur[j].v.Clone()
			cur[j].v[rng.Intn(dims)] = 1e200 * float64(1-2*rng.Intn(2))
		case 12: // nothing finite at all, for this step only
			tmp := make([]centroid, len(cur))
			for i, c := range cur {
				tmp[i] = centroid{c.id, make(linalg.Vector, dims)}
				for d := range tmp[i].v {
					tmp[i].v[d] = math.NaN()
				}
			}
			models = append(models, build(tmp))
			continue
		case 13: // centroids of another dimension, for this step only
			tmp := make([]centroid, len(cur))
			for i, c := range cur {
				tmp[i] = centroid{c.id, append(c.v.Clone(), 0)}
			}
			models = append(models, build(tmp))
			continue
		}
		models = append(models, build(cur))
	}
	return splits, models
}

func checkPrunedSeed(t testing.TB, seed int64) {
	splits, models := genPrunedCase(seed)
	order := rand.New(rand.NewSource(seed ^ 0x5eed))
	flips := make([]bool, len(models))
	for i := range flips {
		flips[i] = order.Intn(2) == 0
	}
	checkPrunedSequence(t, splits, models, func(step int) bool { return flips[step] })
}

func FuzzPrunedAssignMatchesFullScan(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, -7, 1 << 40, 20260929} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkPrunedSeed(t, seed) })
}

// TestPrunedAssignMatchesFullScan replays the fuzz generator over a
// fixed block of seeds, so every `go test` covers each shape many times.
func TestPrunedAssignMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkPrunedSeed(t, seed)
	}
}

// prunedTable is the named rows: each is a point set and a sequence of
// centroid sets built for one hazard, in dims dimensions (coordinates
// beyond the first are copies, so the geometry of a row is the same in
// every dimension).
func prunedTable(dims int) []struct {
	name   string
	points []linalg.Vector
	sets   [][]linalg.Vector
} {
	v := func(x float64) linalg.Vector {
		out := make(linalg.Vector, dims)
		for i := range out {
			out[i] = x
		}
		return out
	}
	vs := func(xs ...float64) []linalg.Vector {
		out := make([]linalg.Vector, len(xs))
		for i, x := range xs {
			out[i] = v(x)
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	line := vs(-9, -8, -7, -1, 0, 1, 2, 7, 8, 9, 10, 40)
	return []struct {
		name   string
		points []linalg.Vector
		sets   [][]linalg.Vector
	}{
		// A point midway between two centroids goes to the lower index,
		// whichever of them the memo remembered.
		{"tie", line, [][]linalg.Vector{vs(-8, 8), vs(-1, 1), vs(1, -1), vs(-1, 1), vs(-2, 2), vs(2, -2, 2)}},
		// Duplicated centroids: every point of the pair's cell is an
		// exact tie, before and after the pair moves together.
		{"duplicate-centroid", line, [][]linalg.Vector{vs(-8, 8, 8), vs(-8, 8.5, 8.5), vs(8.5, -8, 8.5), vs(0, 0, 0), vs(0, 0, 0)}},
		// A NaN or Inf coordinate poisons one centroid for one step; the
		// sets before and after are finite.
		{"nan-centroid", line, [][]linalg.Vector{vs(-8, 0, 8), vs(-8, nan, 8), vs(-8, 0, 8), vs(-7.5, 0.5, 8.5), vs(nan, nan, nan), vs(-7.5, 0.5, 8.5)}},
		{"inf-centroid", line, [][]linalg.Vector{vs(-8, 0, 8), vs(-8, inf, 8), vs(-8, -inf, 8), vs(-8, 0, 8), vs(-8, 1e200, 8), vs(-8, 0, 8)}},
		// k grows and shrinks between calls.
		{"k-change", line, [][]linalg.Vector{vs(-8, 8), vs(-8, 0, 8), vs(-8, 0, 8, 40), vs(-8, 8), vs(0), vs(-8, 0, 8)}},
		// The same model again (a retried attempt), then a return to an
		// earlier one (a rollback).
		{"repeated-model", line, [][]linalg.Vector{vs(-8, 0, 8), vs(-8, 0, 8), vs(-7, 1, 9), vs(-7, 1, 9), vs(-8, 0, 8), vs(-7, 1, 9)}},
		// Centroids exactly on points: distance 0 to the winner.
		{"centroid-on-point", line, [][]linalg.Vector{vs(-8, 0, 8), vs(-9, 1, 10), vs(-9, 1, 1), vs(40, 40, -9)}},
		// One centroid crosses the others' cells in large jumps.
		{"large-jump", line, [][]linalg.Vector{vs(-8, 0, 8), vs(-8, 0, 100), vs(-8, 0, -100), vs(-8, 0, 8), vs(8, 0, -8)}},
		// Distances whose squares are subnormal or overflow.
		{"tiny-scale", vs(-9e-160, -8e-160, 0, 1e-160, 8e-160, 9e-160), [][]linalg.Vector{vs(-8e-160, 8e-160), vs(-8e-160, 8.5e-160), vs(-1e-160, 1e-160), vs(-1e-160, 1e-160), vs(0, 1e-300)}},
		// The only centroid drifts from a distance whose square is finite
		// to one whose square overflows: no centroid is at a finite
		// distance any more, and remembering the old one must not hide it.
		{"overflow", vs(0, 1e150), [][]linalg.Vector{vs(2e153), vs(2e153), vs(1.05 * math.Sqrt(math.MaxFloat64/float64(dims))), vs(2e153)}},
		{"huge-scale", vs(-9e150, -8e150, 0, 1e150, 8e150, 9e150), [][]linalg.Vector{vs(-8e150, 8e150), vs(-8e150, 8.5e150), vs(-1e150, 1e150), vs(-1e155, 1e150), vs(-1e150, 1e150)}},
	}
}

// TestPrunedAssignTable runs the named rows through the kernels directly
// (both call orders) and through the engine — the framework and the
// in-memory path, warm against cold — at Workers 1, 2 and 8.
func TestPrunedAssignTable(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		for _, row := range prunedTable(dims) {
			t.Run(fmt.Sprintf("%s/dims=%d", row.name, dims), func(t *testing.T) {
				models := make([]*model.Model, len(row.sets))
				for i, set := range row.sets {
					models[i] = InitialModel(set, len(set))
				}
				half := len(row.points) / 2
				for _, fuseFirst := range []bool{false, true} {
					checkPrunedSequence(t, pointSplits(row.points[:half], row.points[half:]), models,
						func(int) bool { return fuseFirst })
				}
				recs := Records(row.points)
				for _, workers := range []int{1, 2, 8} {
					want, _ := runSequence(t, recs, models, workers, 0, nil, iterJob)
					got, _ := runSequence(t, recs, models, workers, mapred.DefaultNodeCacheBytes, nil, iterJob)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d: warm run\n%+v\ncold run\n%+v", workers, got, want)
					}
				}
			})
		}
	}
}

// stepOutcome is what one job of a sequence produced, in comparable
// form: the encoded model it wrote into, or its error, and its Metrics.
type stepOutcome struct {
	Model   []byte
	Err     string
	Metrics mapred.Metrics
}

// runSequence runs one framework iteration and one in-memory iteration
// per model over 12 splits (two per node) on a fresh engine — with a job
// family of the given per-node budget, or cold when budget is 0 — and
// returns every job's outcome and the family's final counters. disturb,
// if set, is handed the family before each step; job builds each step's
// job from its model and a copy of it to write into.
func runSequence(t *testing.T, recs []mapred.Record, models []*model.Model, workers int, budget int64,
	disturb func(step int, f *mapred.JobFamily), job func(m, into *model.Model) *mapred.Job) ([]stepOutcome, mapred.FamilyStats) {
	t.Helper()
	cluster := simcluster.New(simcluster.Small())
	e := mapred.NewEngine(cluster)
	e.Workers = workers
	if budget > 0 {
		e.Family = mapred.NewJobFamily("test", budget)
	}
	in := mapred.NewInput(recs, cluster, 12)
	var outcomes []stepOutcome
	note := func(into *model.Model, out *mapred.Output, met mapred.Metrics, err error) {
		o := stepOutcome{Metrics: met}
		if err != nil {
			o.Err = err.Error()
		} else {
			if out.Records != nil {
				t.Fatalf("a job with Into output %d records", len(out.Records))
			}
			o.Model = into.Encode(nil)
		}
		outcomes = append(outcomes, o)
	}
	for step, m := range models {
		if disturb != nil {
			disturb(step, e.Family)
		}
		into := m.Clone()
		out, met, err := e.Run(job(m, into), in, m)
		note(into, out, met, err)
		into = m.Clone()
		out, met, err = e.RunLocal(job(m, into), in, m)
		note(into, out, met, err)
	}
	if e.Family == nil {
		return outcomes, mapred.FamilyStats{}
	}
	return outcomes, e.Family.Stats()
}

// memoWipingMapper is iterMapper with every split's memo thrown away
// before each use: the kernel as it would behave if no state survived
// between calls.
type memoWipingMapper struct{ *iterMapper }

func (w memoWipingMapper) MapInto(d mapred.SplitDerived, m, into *model.Model, part *mapred.Partial) (int64, int64, error) {
	d.(*packedPoints).memo = assignMemo{}
	return w.iterMapper.MapInto(d, m, into, part)
}

func (w memoWipingMapper) FuseLocal(ds []mapred.SplitDerived, m, into *model.Model, par func(int, func(int)), emit mapred.Emitter) (int64, int64, error) {
	for _, d := range ds {
		d.(*packedPoints).memo = assignMemo{}
	}
	return w.iterMapper.FuseLocal(ds, m, into, par, emit)
}

// TestMemoIsObservationallyInvisible holds the SplitDerived contract:
// results must not depend on whether a split's memo is present. A run
// left alone, a run whose family budget is so small that entries are
// evicted between iterations and a run with Invalidate called mid-loop
// all write the same models and produce the same Metrics, step for
// step, as a cold run; and under each disturbance the cache counters are exactly those
// of a kernel that keeps no memo at all.
func TestMemoIsObservationallyInvisible(t *testing.T) {
	ps := data.GaussianMixture(5, 4_000, 6, 3, 100, 25)
	recs := Records(ps.Points)
	models := lloydTrajectory(ps.Points, InitialModel(ps.Points, 6), 8)
	wiping := func(m, into *model.Model) *mapred.Job {
		job := iterJob(m, into)
		job.Mapper = memoWipingMapper{job.Mapper.(*iterMapper)}
		return job
	}
	scenarios := []struct {
		name    string
		budget  int64
		disturb func(step int, f *mapred.JobFamily)
	}{
		{"undisturbed", mapred.DefaultNodeCacheBytes, nil},
		// A node's second split always evicts its first: every touch of
		// every split is a miss.
		{"tiny-budget", 1, nil},
		{"invalidate", mapred.DefaultNodeCacheBytes, func(step int, f *mapred.JobFamily) {
			if step == 3 || step == 4 {
				f.Invalidate()
			}
		}},
		// One node at a time loses its entries; the others stay warm.
		{"evict-node", mapred.DefaultNodeCacheBytes, func(step int, f *mapred.JobFamily) {
			if step%2 == 1 {
				f.EvictNode(step % 4)
			}
		}},
	}
	for _, workers := range []int{1, 2, 8} {
		cold, _ := runSequence(t, recs, models, workers, 0, nil, iterJob)
		for _, sc := range scenarios {
			memo, memoStats := runSequence(t, recs, models, workers, sc.budget, sc.disturb, iterJob)
			none, noneStats := runSequence(t, recs, models, workers, sc.budget, sc.disturb, wiping)
			if !reflect.DeepEqual(memo, cold) {
				t.Errorf("workers=%d %s: models or Metrics differ from the cold run", workers, sc.name)
			}
			if !reflect.DeepEqual(none, cold) {
				t.Errorf("workers=%d %s: the memo-less control differs from the cold run", workers, sc.name)
			}
			if memoStats != noneStats {
				t.Errorf("workers=%d %s: FamilyStats %+v with the memo, %+v without", workers, sc.name, memoStats, noneStats)
			}
			if sc.name != "undisturbed" && memoStats.Evictions == 0 {
				t.Errorf("workers=%d %s: nothing was evicted, the scenario tests nothing", workers, sc.name)
			}
		}
	}
}

// TestPrunedAssignActuallyPrunes pins the point of the memo on a
// realistic trajectory: once the centroids settle, most points keep
// their assignment without a scan, and the scans that remain visit a
// handful of centroids, not all 25.
func TestPrunedAssignActuallyPrunes(t *testing.T) {
	ps := data.GaussianMixture(11, 20_000, 25, 3, 100, 0.2*200/math.Cbrt(25))
	var mp iterMapper
	pp := mp.NewDerived(Records(ps.Points)).(*packedPoints)
	var late assignMemo
	for step, m := range lloydTrajectory(ps.Points, InitialModel(ps.Points, 25), 20) {
		if step == 12 {
			late = pp.memo
		}
		if _, ok := pp.assign(centroidsOf(m)); !ok {
			t.Fatal("no finite distance")
		}
	}
	skipped := pp.memo.skipped - late.skipped
	scanned := pp.memo.scanned - late.scanned
	visits := skipped + scanned + pp.memo.reevaluated - late.reevaluated
	if visits != 8*int64(pp.n) {
		t.Fatalf("steps 13–20 decided %d point-visits, want %d", visits, 8*pp.n)
	}
	if share := float64(skipped) / float64(visits); share < 0.5 {
		t.Errorf("steps 13–20 kept %.0f%% of assignments on bounds alone, want ≥ 50%%", 100*share)
	}
	if perScan := float64(pp.memo.scanDists-late.scanDists) / float64(max(scanned, 1)); perScan > 6 {
		t.Errorf("a fallback scan evaluates %.1f further distances on average, want ≤ 6 of 24", perScan)
	}
}
