package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/simcluster"
	"repro/internal/writable"
)

func testRuntime() *core.Runtime {
	cluster := simcluster.New(simcluster.Config{
		Nodes:              6,
		RackSize:           6,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		ComputeRate:        1e8,
		NodeBandwidth:      125e6,
		RackBandwidth:      750e6,
		CoreBandwidth:      750e6,
	})
	return core.NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 20})
}

func clusteredInput(rt *core.Runtime, n, k int) (*mapred.Input, *data.PointSet) {
	// Overlapping components (sigma 20 on a ±100 box) so Lloyd's
	// algorithm needs a realistic number of iterations to settle.
	ps := data.GaussianMixture(42, n, k, 3, 100, 20)
	return mapred.NewInput(Records(ps.Points), rt.Cluster(), rt.Cluster().MapSlots()), ps
}

func TestNewValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 1) },
		func() { New(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestInitialModel(t *testing.T) {
	points := []linalg.Vector{{1, 2}, {3, 4}, {5, 6}}
	m := InitialModel(points, 2)
	if m.Len() != 2 {
		t.Fatalf("model has %d centroids", m.Len())
	}
	c0, _ := m.Vector(CentroidKey(0))
	if c0[0] != 1 || c0[1] != 2 {
		t.Fatalf("centroid 0 = %v", c0)
	}
	// The model owns copies, not the caller's slices.
	c0[0] = 99
	if points[0][0] != 1 {
		t.Fatal("InitialModel shares storage with points")
	}
}

func TestCentroidsRoundTrip(t *testing.T) {
	points := []linalg.Vector{{1, 1}, {2, 2}, {3, 3}}
	m := InitialModel(points, 3)
	cs := Centroids(m)
	if len(cs) != 3 {
		t.Fatalf("got %d centroids", len(cs))
	}
	if cs[0][0] != 1 || cs[2][0] != 3 {
		t.Fatalf("centroids out of order: %v", cs)
	}
}

func TestNearestKey(t *testing.T) {
	m := InitialModel([]linalg.Vector{{0, 0}, {10, 10}}, 2)
	cs := centroidsOf(m)
	if got := cs.nearestKey(writable.Vector{1, 1}); got != CentroidKey(0) {
		t.Fatalf("nearestKey = %q", got)
	}
	if got := cs.nearestKey(writable.Vector{9, 9}); got != CentroidKey(1) {
		t.Fatalf("nearestKey = %q", got)
	}
}

func TestICRecoversPlantedClusters(t *testing.T) {
	rt := testRuntime()
	in, ps := clusteredInput(rt, 600, 4)
	app := New(4, 1e-3)
	res, err := core.RunIC(rt, app, in, InitialModel(ps.Points, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := Centroids(res.Model)
	// Every true center must have a recovered centroid nearby (within
	// a few sigma of the planted spread).
	if d := quality.MatchCentroids(got, ps.TrueCenters); d > 4.0*float64(len(got)) {
		t.Fatalf("recovered centroids far from truth: total distance %v", d)
	}
}

func TestLloydStepDecreasesJagota(t *testing.T) {
	rt := testRuntime()
	in, ps := clusteredInput(rt, 400, 3)
	app := New(3, 1e-3)
	m0 := InitialModel(ps.Points, 3)
	m1, err := app.Iteration(rt, in, m0)
	if err != nil {
		t.Fatal(err)
	}
	q0 := quality.JagotaIndex(ps.Points, Centroids(m0))
	q1 := quality.JagotaIndex(ps.Points, Centroids(m1))
	if q1 > q0 {
		t.Fatalf("one Lloyd step worsened clustering: %v -> %v", q0, q1)
	}
}

func TestEmptyClusterKeepsPreviousCentroid(t *testing.T) {
	rt := testRuntime()
	// Two points near the origin; one far-away centroid attracts nothing.
	points := []linalg.Vector{{0, 0}, {1, 0}}
	in := mapred.NewInput(Records(points), rt.Cluster(), 2)
	m0 := InitialModel([]linalg.Vector{{0, 0}, {1000, 1000}}, 2)
	app := New(2, 1e-6)
	m1, err := app.Iteration(rt, in, m0)
	if err != nil {
		t.Fatal(err)
	}
	far, ok := m1.Vector(CentroidKey(1))
	if !ok || far[0] != 1000 {
		t.Fatalf("empty centroid moved: %v", far)
	}
}

func TestPICMatchesICQuality(t *testing.T) {
	// The paper's Table III: PIC's best-effort model is within a few
	// percent of IC quality, and after top-off they are equivalent.
	rtIC := testRuntime()
	inIC, ps := clusteredInput(rtIC, 600, 4)
	app := New(4, 1e-3)
	ic, err := core.RunIC(rtIC, app, inIC, InitialModel(ps.Points, 4), nil)
	if err != nil {
		t.Fatal(err)
	}

	rtPIC := testRuntime()
	inPIC, _ := clusteredInput(rtPIC, 600, 4)
	pic, err := core.RunPIC(rtPIC, app, inPIC, InitialModel(ps.Points, 4), core.PICOptions{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}

	qIC := quality.JagotaIndex(ps.Points, Centroids(ic.Model))
	qBE := quality.JagotaIndex(ps.Points, Centroids(pic.BestEffortModel))
	qPIC := quality.JagotaIndex(ps.Points, Centroids(pic.Model))
	if diff := quality.PercentDifference(qBE, qIC); diff > 10 {
		t.Fatalf("best-effort Jagota %.4f vs IC %.4f: %.1f%% apart", qBE, qIC, diff)
	}
	if diff := quality.PercentDifference(qPIC, qIC); diff > 3 {
		t.Fatalf("final PIC Jagota %.4f vs IC %.4f: %.1f%% apart", qPIC, qIC, diff)
	}
}

func TestPICTopOffIsShort(t *testing.T) {
	rt := testRuntime()
	in, ps := clusteredInput(rt, 600, 4)
	app := New(4, 1e-3)
	rtIC := testRuntime()
	inIC, _ := clusteredInput(rtIC, 600, 4)
	ic, err := core.RunIC(rtIC, app, inIC, InitialModel(ps.Points, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := core.RunPIC(rt, app, in, InitialModel(ps.Points, 4), core.PICOptions{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !pic.TopOffConverged {
		t.Fatal("top-off did not converge")
	}
	if pic.TopOffIterations >= ic.Iterations {
		t.Fatalf("top-off took %d iterations, IC took %d — no head start",
			pic.TopOffIterations, ic.Iterations)
	}
}

func TestPICReducesNetworkTraffic(t *testing.T) {
	app := New(4, 1e-3)
	rtIC := testRuntime()
	inIC, ps := clusteredInput(rtIC, 600, 4)
	ic, err := core.RunIC(rtIC, app, inIC, InitialModel(ps.Points, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	rtPIC := testRuntime()
	inPIC, _ := clusteredInput(rtPIC, 600, 4)
	pic, err := core.RunPIC(rtPIC, app, inPIC, InitialModel(ps.Points, 4), core.PICOptions{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	icNet := ic.Metrics.ShuffleNetworkBytes + ic.Metrics.ModelBytes + ic.ModelUpdateBytes
	picNet := pic.Metrics.ShuffleNetworkBytes + pic.Metrics.ModelBytes + pic.ModelUpdateBytes +
		pic.MergeTrafficBytes
	if picNet >= icNet {
		t.Fatalf("PIC network traffic %d not below IC %d", picNet, icNet)
	}
}

func TestIterationErrorOnEmptyModel(t *testing.T) {
	rt := testRuntime()
	points := []linalg.Vector{{0, 0}}
	in := mapred.NewInput(Records(points), rt.Cluster(), 1)
	app := New(1, 1e-3)
	if _, err := app.Iteration(rt, in, InitialModel(points, 1)); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	empty := InitialModel(points, 1)
	empty.Delete(CentroidKey(0))
	if _, err := app.Iteration(rt, in, empty); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestConvergenceThreshold(t *testing.T) {
	app := New(2, 0.5)
	a := InitialModel([]linalg.Vector{{0, 0}, {10, 10}}, 2)
	b := InitialModel([]linalg.Vector{{0.1, 0}, {10, 10.2}}, 2)
	if !app.Converged(a, b) {
		t.Fatal("small move not converged")
	}
	c := InitialModel([]linalg.Vector{{2, 0}, {10, 10}}, 2)
	if app.Converged(a, c) {
		t.Fatal("large move reported converged")
	}
}

func TestPartitionPreservesPointsAndCopiesModel(t *testing.T) {
	rt := testRuntime()
	in, ps := clusteredInput(rt, 100, 2)
	app := New(2, 1e-3)
	m := InitialModel(ps.Points, 2)
	subs, err := app.Partition(in, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range subs {
		total += len(s.Records)
		if s.Model.Len() != 2 {
			t.Fatalf("sub-model has %d centroids", s.Model.Len())
		}
	}
	if total != 100 {
		t.Fatalf("partitions cover %d points", total)
	}
	// Mutating a sub-model must not touch the original.
	v, _ := subs[0].Model.Vector(CentroidKey(0))
	v[0] = math.Inf(1)
	orig, _ := m.Vector(CentroidKey(0))
	if math.IsInf(orig[0], 1) {
		t.Fatal("sub-model shares storage with original model")
	}
}

func TestMergeAveragesCentroids(t *testing.T) {
	app := New(1, 1e-3)
	a := InitialModel([]linalg.Vector{{0, 0}}, 1)
	b := InitialModel([]linalg.Vector{{2, 4}}, 1)
	m, err := app.Merge([]*model.Model{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Vector(CentroidKey(0))
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("merged centroid = %v", v)
	}
}

func TestSequentialReferenceMatchesDistributedIC(t *testing.T) {
	// §VI-A uses the sequential solution as the reference; the
	// distributed IC implementation must land on the same fixed point.
	rt := testRuntime()
	in, ps := clusteredInput(rt, 400, 3)
	app := New(3, 1e-3)
	res, err := core.RunIC(rt, app, in, InitialModel(ps.Points, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := SequentialReference(ps.Points, ps.Points[:3], 1e-3, 500)
	got := Centroids(res.Model)
	if d := quality.MatchCentroids(got, ref); d > 0.1 {
		t.Fatalf("distributed IC centroids %v away from sequential reference", d)
	}
}

func TestSequentialReferenceConverges(t *testing.T) {
	ps := data.GaussianMixture(9, 300, 4, 2, 100, 5)
	ref := SequentialReference(ps.Points, ps.Points[:4], 1e-6, 1000)
	// One more Lloyd step moves nothing: it is a fixed point.
	again := SequentialReference(ps.Points, ref, 1e-6, 1)
	if d := quality.MatchCentroids(again, ref); d > 1e-3 {
		t.Fatalf("reference not a fixed point: moved %v", d)
	}
}

// Property: merging P copies of any centroid model — centrally or per
// key — returns the model itself.
func TestQuickMergeOfCopiesIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		k := rng.Intn(5) + 1
		points := make([]linalg.Vector, k)
		for i := range points {
			points[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
		}
		m := InitialModel(points, k)
		app := New(k, 1e-3)
		p := rng.Intn(4) + 2
		merged, err := app.Merge(core.CopyModels(m, p), nil)
		if err != nil || model.MaxVectorDelta(merged, m) > 1e-12 {
			return false
		}
		// Per-key path agrees.
		for _, key := range m.Keys() {
			v, _ := m.Get(key)
			values := make([]writable.Writable, p)
			for i := range values {
				values[i] = writable.Clone(v)
			}
			out, err := app.MergeKey(key, values)
			if err != nil {
				return false
			}
			want, _ := m.Vector(key)
			got := out.(writable.Vector)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPlusPlusSeedingShape(t *testing.T) {
	ps := data.GaussianMixture(3, 500, 5, 3, 100, 5)
	m := InitialModelPlusPlus(ps.Points, 5, 7)
	if m.Len() != 5 {
		t.Fatalf("model has %d centroids", m.Len())
	}
	// Deterministic in the seed.
	if !m.Equal(InitialModelPlusPlus(ps.Points, 5, 7)) {
		t.Fatal("same seed produced different seeding")
	}
	if m.Equal(InitialModelPlusPlus(ps.Points, 5, 8)) {
		t.Fatal("different seeds produced identical seeding")
	}
}

func TestPlusPlusSeedsSpreadAcrossClusters(t *testing.T) {
	// Well-separated clusters: ++ seeding should hit distinct clusters
	// far more reliably than the first-k default. Check that chosen
	// seeds cover most true centers.
	ps := data.GaussianMixture(9, 1_000, 5, 3, 100, 2)
	m := InitialModelPlusPlus(ps.Points, 5, 1)
	covered := map[int]bool{}
	for _, c := range Centroids(m) {
		covered[quality.NearestCentroid(c, ps.TrueCenters)] = true
	}
	if len(covered) < 4 {
		t.Fatalf("++ seeds cover only %d of 5 clusters", len(covered))
	}
}

func TestPlusPlusDegeneratePoints(t *testing.T) {
	// All points identical: seeding must still return k centroids.
	points := make([]linalg.Vector, 10)
	for i := range points {
		points[i] = linalg.Vector{1, 1}
	}
	m := InitialModelPlusPlus(points, 3, 1)
	if m.Len() != 3 {
		t.Fatalf("model has %d centroids", m.Len())
	}
}

func TestPlusPlusImprovesConvergence(t *testing.T) {
	rt1 := testRuntime()
	in, ps := clusteredInput(rt1, 600, 4)
	app := New(4, 1e-3)
	naive, err := core.RunIC(rt1, app, in, InitialModel(ps.Points, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := testRuntime()
	plus, err := core.RunIC(rt2, app, in, InitialModelPlusPlus(ps.Points, 4, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	qNaive := quality.JagotaIndex(ps.Points, Centroids(naive.Model))
	qPlus := quality.JagotaIndex(ps.Points, Centroids(plus.Model))
	// ++ must be at least as good (it can tie when both find the optimum).
	if qPlus > qNaive*1.05 {
		t.Fatalf("++ seeding worse: %.3f vs %.3f", qPlus, qNaive)
	}
}

// TestIterationShapeMismatchIsTypedError: a record that cannot be
// measured against the model — shorter or longer than the centroids, or
// not a vector at all — is a *ShapeError from Iteration, never a panic,
// whether the loop cache is attached (the fused kernels decline and the
// cold Map reports it) or not.
func TestIterationShapeMismatchIsTypedError(t *testing.T) {
	model3 := InitialModel([]linalg.Vector{{0, 0, 0}, {5, 5, 5}}, 2)
	cases := []struct {
		name      string
		recs      []mapred.Record
		pointDims int
	}{
		{"shorter", Records([]linalg.Vector{{1, 2}, {3, 4}, {5, 6}}), 2},
		{"longer", Records([]linalg.Vector{{1, 2, 3, 4}, {5, 6, 7, 8}}), 4},
		{"non-vector", []mapred.Record{{Key: "p0", Value: writable.Float64(1)}, {Key: "p1", Value: writable.Float64(2)}}, -1},
		{"mixed", append(Records([]linalg.Vector{{1, 2, 3}}), mapred.Record{Key: "p1", Value: writable.Vector{1, 2}}), 2},
	}
	for _, tc := range cases {
		for _, warm := range []bool{true, false} {
			rt := testRuntime()
			rt.SetLoopCache(warm)
			in := mapred.NewInput(tc.recs, rt.Cluster(), 1)
			check := func(path string, run *core.Runtime) {
				_, err := New(2, 1e-3).Iteration(run, in, model3)
				var se *ShapeError
				if !errors.As(err, &se) {
					t.Fatalf("%s warm=%v %s: got %v, want a *ShapeError", tc.name, warm, path, err)
				}
				if se.PointDims != tc.pointDims || se.ModelDims != 3 || se.Key == "" {
					t.Fatalf("%s warm=%v %s: %+v", tc.name, warm, path, se)
				}
			}
			check("framework", rt)
			check("local", rt.Fork(rt.Cluster(), true))
		}
	}
}

func TestRecordsKeysUnchanged(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 99, 100, 101, 1000, 12345} {
		points := make([]linalg.Vector, n)
		for i := range points {
			points[i] = linalg.Vector{float64(i)}
		}
		recs := Records(points)
		if len(recs) != n {
			t.Fatalf("n=%d: %d records", n, len(recs))
		}
		// Boxing each vector into its record is one allocation a point;
		// everything else — the record slice, the key bytes — is bounded.
		if extra := testing.AllocsPerRun(5, func() { Records(points) }) - float64(n); extra > 4 {
			t.Errorf("n=%d: %v allocations beyond one per record, want ≤ 4", n, extra)
		}
		total := 0
		for _, r := range recs {
			total += len(r.Key)
		}
		if got := keyBytes(n); got != total {
			t.Errorf("n=%d: keyBytes = %d, keys total %d", n, got, total)
		}
		for i, r := range recs {
			if want := fmt.Sprintf("p%d", i); r.Key != want {
				t.Fatalf("n=%d: record %d keyed %q, want %q", n, i, r.Key, want)
			}
			if v := r.Value.(writable.Vector); len(v) != 1 || v[0] != float64(i) {
				t.Fatalf("n=%d: record %d carries %v", n, i, v)
			}
		}
	}
}
