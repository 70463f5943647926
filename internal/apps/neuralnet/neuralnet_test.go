package neuralnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
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

func TestNewValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 2, 2, 0.1, 1e-3) },
		func() { New(2, 0, 2, 0.1, 1e-3) },
		func() { New(2, 2, 0, 0.1, 1e-3) },
		func() { New(2, 2, 2, 0, 1e-3) },
		func() { New(2, 2, 2, 0.1, 0) },
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

func TestInitialModelShapeAndDeterminism(t *testing.T) {
	app := New(4, 3, 2, 0.5, 1e-3)
	m := app.InitialModel(1)
	w1, _ := m.Vector(W1Key)
	w2, _ := m.Vector(W2Key)
	if len(w1) != 3*5 || len(w2) != 2*4 {
		t.Fatalf("weight shapes %d/%d", len(w1), len(w2))
	}
	m2 := app.InitialModel(1)
	if !m.Equal(m2) {
		t.Fatal("same seed produced different weights")
	}
	if m.Equal(app.InitialModel(2)) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestForwardOutputsAreProbabilities(t *testing.T) {
	app := New(3, 4, 2, 0.5, 1e-3)
	m := app.InitialModel(1)
	w1, _ := m.Vector(W1Key)
	w2, _ := m.Vector(W2Key)
	_, out := app.forward(w1, w2, []float64{1, -1, 0.5})
	for k, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatalf("output %d = %v outside (0,1)", k, v)
		}
	}
}

// Gradient check: analytic gradients must match finite differences of
// the squared-error loss.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	app := New(3, 4, 2, 0.5, 1e-3)
	m := app.InitialModel(7)
	w1, _ := m.Vector(W1Key)
	w2, _ := m.Vector(W2Key)
	x := []float64{0.8, -0.3, 0.5}
	label := 1

	loss := func(w1, w2 writable.Vector) float64 {
		_, out := app.forward(w1, w2, x)
		var l float64
		for k, o := range out {
			target := 0.0
			if k == label {
				target = 1.0
			}
			l += 0.5 * (o - target) * (o - target)
		}
		return l
	}

	g1, g2 := app.gradients(w1, w2, x, label)
	const h = 1e-6
	for i := range w1 {
		plus, minus := w1.Clone(), w1.Clone()
		plus[i] += h
		minus[i] -= h
		numeric := (loss(plus, w2) - loss(minus, w2)) / (2 * h)
		if math.Abs(numeric-g1[i]) > 1e-6 {
			t.Fatalf("w1[%d]: analytic %v, numeric %v", i, g1[i], numeric)
		}
	}
	for i := range w2 {
		plus, minus := w2.Clone(), w2.Clone()
		plus[i] += h
		minus[i] -= h
		numeric := (loss(w1, plus) - loss(w1, minus)) / (2 * h)
		if math.Abs(numeric-g2[i]) > 1e-6 {
			t.Fatalf("w2[%d]: analytic %v, numeric %v", i, g2[i], numeric)
		}
	}
}

func xorData() ([]linalg.Vector, []int) {
	vectors := []linalg.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	// Replicate so splits are non-trivial.
	var vs []linalg.Vector
	var ls []int
	for r := 0; r < 8; r++ {
		vs = append(vs, vectors...)
		ls = append(ls, labels...)
	}
	return vs, ls
}

func TestLearnsXOR(t *testing.T) {
	app := New(2, 6, 2, 3.0, 1e-5)
	rt := testRuntime()
	vs, ls := xorData()
	in := mapred.NewInput(Records(vs, ls), rt.Cluster(), 8)
	res, err := core.RunIC(rt, app, in, app.InitialModel(3), &core.ICOptions{MaxIterations: 4000, DisableModelWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := app.ModelError(res.Model, vs, ls); e > 0 {
		t.Fatalf("XOR error %v after %d epochs", e, res.Iterations)
	}
}

func TestEpochReducesLossOnOCR(t *testing.T) {
	app := New(data.OCRDims, 12, data.OCRClasses, 0.8, 1e-6)
	set := data.OCRVectors(5, 200, 0.02, 0.05)
	rt := testRuntime()
	in := mapred.NewInput(Records(set.Vectors, set.Labels), rt.Cluster(), rt.Cluster().MapSlots())
	m := app.InitialModel(9)
	errBefore := app.ModelError(m, set.Vectors, set.Labels)
	res, err := core.RunIC(rt, app, in, m, &core.ICOptions{MaxIterations: 60, DisableModelWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	errAfter := app.ModelError(res.Model, set.Vectors, set.Labels)
	if errAfter >= errBefore {
		t.Fatalf("training error did not fall: %v -> %v", errBefore, errAfter)
	}
}

func TestRecordsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Records did not panic")
		}
	}()
	Records([]linalg.Vector{{1}}, []int{0, 1})
}

func TestIterationErrorOnBrokenModel(t *testing.T) {
	app := New(2, 2, 2, 0.5, 1e-3)
	rt := testRuntime()
	vs, ls := xorData()
	in := mapred.NewInput(Records(vs, ls), rt.Cluster(), 4)
	broken := app.InitialModel(1)
	broken.Delete(W1Key)
	if _, err := app.Iteration(rt, in, broken); err == nil {
		t.Fatal("missing weight block accepted")
	}
}

func TestPartitionAndMerge(t *testing.T) {
	app := New(2, 3, 2, 0.5, 1e-3)
	rt := testRuntime()
	vs, ls := xorData()
	in := mapred.NewInput(Records(vs, ls), rt.Cluster(), 4)
	m := app.InitialModel(1)
	subs, err := app.Partition(in, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range subs {
		total += len(s.Records)
		if !s.Model.Equal(m) {
			t.Fatal("sub-model is not a copy of the original")
		}
	}
	if total != len(vs) {
		t.Fatalf("partitions cover %d records", total)
	}
	merged, err := app.Merge([]*model.Model{m.Clone(), m.Clone()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(m) {
		t.Fatal("average of identical models differs")
	}
}

func TestModelErrorPanicsOnBadSet(t *testing.T) {
	app := New(2, 2, 2, 0.5, 1e-3)
	m := app.InitialModel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty validation set accepted")
		}
	}()
	app.ModelError(m, nil, nil)
}

func TestPICReachesICQualityOnOCR(t *testing.T) {
	app := New(data.OCRDims, 10, data.OCRClasses, 1.0, 5e-5)
	train := data.OCRVectors(5, 300, 0.02, 0.05)
	valid := data.OCRVectors(6, 120, 0.02, 0.05)

	rtIC := testRuntime()
	inIC := mapred.NewInput(Records(train.Vectors, train.Labels), rtIC.Cluster(), rtIC.Cluster().MapSlots())
	icRes, err := core.RunIC(rtIC, app, inIC, app.InitialModel(1), &core.ICOptions{MaxIterations: 150})
	if err != nil {
		t.Fatal(err)
	}

	rtPIC := testRuntime()
	inPIC := mapred.NewInput(Records(train.Vectors, train.Labels), rtPIC.Cluster(), rtPIC.Cluster().MapSlots())
	picRes, err := core.RunPIC(rtPIC, app, inPIC, app.InitialModel(1), core.PICOptions{
		Partitions:          6,
		MaxBEIterations:     8,
		MaxLocalIterations:  150,
		MaxTopOffIterations: 150,
	})
	if err != nil {
		t.Fatal(err)
	}

	icErr := app.ModelError(icRes.Model, valid.Vectors, valid.Labels)
	picErr := app.ModelError(picRes.Model, valid.Vectors, valid.Labels)
	// Figure 12(a): PIC reaches virtually identical model error.
	if picErr > icErr+0.08 {
		t.Fatalf("PIC validation error %v much worse than IC %v", picErr, icErr)
	}
}

// TestModelErrorMatchesPredictLoop pins ModelError's shared-buffer path
// to the per-vector Predict loop it replaces: bit-equal rates on random
// models and inputs, and an allocation count that does not grow with
// the validation set.
func TestModelErrorMatchesPredictLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	app := New(data.OCRDims, 16, data.OCRClasses, 0.6, 2e-4)
	set := data.OCRVectors(3, 400, 0.12, 0.15)
	for seed := int64(1); seed <= 8; seed++ {
		m := app.InitialModel(seed)
		for _, key := range []string{W1Key, W2Key} {
			w, _ := m.Vector(key)
			for i := range w {
				w[i] *= 1 + 4*rng.Float64()
			}
		}
		wrong := 0
		for i, v := range set.Vectors {
			if app.Predict(m, v) != set.Labels[i] {
				wrong++
			}
		}
		want := float64(wrong) / float64(len(set.Vectors))
		if got := app.ModelError(m, set.Vectors, set.Labels); got != want {
			t.Fatalf("seed %d: ModelError = %v, Predict loop = %v", seed, got, want)
		}
	}

	m := app.InitialModel(1)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { app.ModelError(m, set.Vectors[:n], set.Labels[:n]) })
	}
	if few, many := allocs(4), allocs(len(set.Vectors)); many != few || many > 2 {
		t.Fatalf("ModelError allocates %v objects for 4 vectors, %v for %d", few, many, len(set.Vectors))
	}
}
