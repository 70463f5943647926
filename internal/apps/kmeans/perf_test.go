package kmeans

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/writable"
)

// lloydStep is one step of Lloyd's algorithm from m over points,
// assigning through the full scan: the model a run hands the assignment
// kernel next, computed without it. Points with no finite distance to
// any centroid are left out; centroids that attract none stay put.
func lloydStep(points []linalg.Vector, m *model.Model) *model.Model {
	cs := centroidsOf(m)
	sums := make([]linalg.Vector, len(cs.keys))
	counts := make([]float64, len(cs.keys))
	for _, p := range points {
		j := cs.nearestIndex(writable.Vector(p))
		if j < 0 {
			continue
		}
		if sums[j] == nil {
			sums[j] = make(linalg.Vector, len(p))
		}
		for c, x := range p {
			sums[j][c] += x
		}
		counts[j]++
	}
	next := m.Clone()
	for j, sum := range sums {
		if sum != nil {
			for c := range sum {
				sum[c] /= counts[j]
			}
			next.Set(cs.keys[j], writable.Vector(sum))
		}
	}
	return next
}

// lloydTrajectory returns the first steps models of Lloyd's algorithm
// from m over points, m itself first.
func lloydTrajectory(points []linalg.Vector, m *model.Model, steps int) []*model.Model {
	traj := make([]*model.Model, steps)
	for i := range traj {
		traj[i] = m
		m = lloydStep(points, m)
	}
	return traj
}

// BenchmarkAssignPruned drives cold memo-carrying splits along a
// recorded 12-step Lloyd trajectory at the kmeans_fig2 geometry (k = 25,
// 3-D, 2 000-point splits) and reports what an assignment costs per
// point on the first step (no memo: the plain scan plus writing the
// memo), on steps 2–4 (large drifts) and on steps 5–12 (settling), next
// to a plain nearestIndex loop over the same points, and how the
// memoised point-visits were decided. A change that silently loses
// pruning power moves the shares and the late-step cost.
func BenchmarkAssignPruned(b *testing.B) {
	const n, k, splitSize, steps = 100_000, 25, 2_000, 12
	ps := data.GaussianMixture(11, n, k, 3, 100, 0.2*200/math.Cbrt(k)) // sigma as in kmeans_fig2
	recs := Records(ps.Points)
	sets := make([]*centroidSet, 0, steps)
	for _, m := range lloydTrajectory(ps.Points, InitialModel(ps.Points, k), steps) {
		sets = append(sets, centroidsOf(m))
	}
	phaseOf := [steps]int{0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	var phase [3]time.Duration // step 1, steps 2–4, steps 5–12
	var full time.Duration
	var decided assignMemo // counters only, summed over splits and ops
	var mp iterMapper
	sink := 0
	for i := 0; i < b.N; i++ {
		var pps []*packedPoints
		for off := 0; off < n; off += splitSize {
			pps = append(pps, mp.NewDerived(recs[off:off+splitSize]).(*packedPoints))
		}
		runtime.GC() // the cycle the packing started would otherwise run inside the first timed loop
		t0 := time.Now()
		for _, pp := range pps {
			for r := 0; r < pp.n; r++ {
				sink += sets[0].nearestIndex(pp.flat[r*3 : r*3+3])
			}
		}
		full += time.Since(t0)
		for s, cs := range sets {
			t0 := time.Now()
			for _, pp := range pps {
				idx, ok := pp.assign(cs)
				if !ok {
					b.Fatal("no finite distance")
				}
				sink += int(idx[0])
			}
			phase[phaseOf[s]] += time.Since(t0)
		}
		for _, pp := range pps {
			decided.skipped += pp.memo.skipped
			decided.reevaluated += pp.memo.reevaluated
			decided.scanned += pp.memo.scanned
			decided.scanDists += pp.memo.scanDists
		}
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
	perPoint := func(d time.Duration, stepsIn int) float64 {
		return float64(d.Nanoseconds()) / float64(b.N*n*stepsIn)
	}
	b.ReportMetric(perPoint(full, 1), "fullscan-ns/point")
	b.ReportMetric(perPoint(phase[0], 1), "step1-ns/point")
	b.ReportMetric(perPoint(phase[1], 3), "steps2-4-ns/point")
	b.ReportMetric(perPoint(phase[2], 8), "steps5-12-ns/point")
	visits := float64(decided.skipped + decided.reevaluated + decided.scanned)
	b.ReportMetric(float64(decided.skipped)/visits, "skip-share")
	b.ReportMetric(float64(decided.reevaluated)/visits, "onedist-share")
	b.ReportMetric(float64(decided.scanned)/visits, "scan-share")
	b.ReportMetric(float64(decided.scanDists)/float64(decided.scanned), "dists/scan")
}

// TestWarmIterationAllocsIndependentOfSplitCount pins the record-free
// iteration: with the loop cache warm, an IC iteration allocates as
// many objects over 6 splits as over 24 — nothing per split, point or
// record. The collector is off, so the pools keep what they hold
// between runs, and one P runs everything, so a pool never misses an
// object another P holds.
func TestWarmIterationAllocsIndependentOfSplitCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ps := data.GaussianMixture(11, 4_800, 5, 3, 100, 20)
	allocs := func(splits int) float64 {
		rt := testRuntime()
		rt.Engine().Workers = 1
		in := mapred.NewInput(Records(ps.Points), rt.Cluster(), splits)
		app := New(5, 1e-9)
		m := InitialModel(ps.Points, 5)
		step := func() {
			var err error
			if m, err = app.Iteration(rt, in, m); err != nil {
				t.Fatal(err)
			}
		}
		// The first iterations stage the cache and fill the pools.
		step()
		step()
		return testing.AllocsPerRun(5, step)
	}
	if small, large := allocs(6), allocs(24); small != large {
		t.Errorf("a warm iteration allocates %.1f objects over 6 splits, %.1f over 24", small, large)
	}
}

// BenchmarkIteration times one warm IC iteration — the loop cache
// attached, so the job folds each split into centroid rows and reduces
// them by slot into the next model — at the kmeans_fig2 geometry (k =
// 25, 3-D, 500-point splits) on the 64-node cluster. Each call steps
// from the previous one's model, back to the start every 20 steps so a
// long run does not settle into the zero-drift path.
func BenchmarkIteration(b *testing.B) {
	const n, k = 40_000, 25
	ps := data.GaussianMixture(11, n, k, 3, 100, 0.2*200/math.Cbrt(k))
	rt := core.NewRuntime(simcluster.New(simcluster.Medium()), dfs.Config{Replication: 3, BlockSize: 64 << 20})
	in := mapred.NewInput(Records(ps.Points), rt.Cluster(), n/500)
	app := New(k, 1e-9)
	m0 := InitialModel(ps.Points, k)
	// The first iteration stages the cache.
	m, err := app.Iteration(rt, in, m0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%20 == 19 {
			m = m0
		}
		if m, err = app.Iteration(rt, in, m); err != nil {
			b.Fatal(err)
		}
	}
}
