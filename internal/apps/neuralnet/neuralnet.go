// Package neuralnet implements the paper's neural-network-training case
// study: a single-hidden-layer perceptron trained with full-batch
// back-propagation on OCR vectors (§V-B used ~210,000 optical character
// recognition training vectors).
//
// Each iteration is one gradient-descent epoch as a MapReduce job: the
// map computation back-propagates one training sample and emits its
// weight gradients; a combiner sums gradients per split; the reduce
// computation produces the batch gradient, which the model update
// applies with the learning rate. Under PIC, the training data is dealt
// into random partitions, each sub-problem trains a copy of the network
// to local convergence, and the merge averages the partial weight
// vectors — the paper's model-replication strategy (and what is now
// called federated averaging).
package neuralnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// Keys of the two weight blocks in the model.
const (
	W1Key = "w1" // hidden layer: Hidden × (In+1), bias last
	W2Key = "w2" // output layer: Out × (Hidden+1), bias last
)

// App is the neural-network trainer. It implements core.App and
// core.PICApp.
type App struct {
	// In, Hidden, Out are the layer widths.
	In, Hidden, Out int
	// LearningRate scales the batch gradient step.
	LearningRate float64
	// Tolerance is the convergence bound on weight displacement per
	// epoch.
	Tolerance float64
}

// New returns a trainer for an In→Hidden→Out sigmoid network.
func New(in, hidden, out int, learningRate, tolerance float64) *App {
	if in <= 0 || hidden <= 0 || out <= 0 {
		panic(fmt.Sprintf("neuralnet: bad architecture %d-%d-%d", in, hidden, out))
	}
	if learningRate <= 0 || tolerance <= 0 {
		panic("neuralnet: learning rate and tolerance must be positive")
	}
	return &App{In: in, Hidden: hidden, Out: out, LearningRate: learningRate, Tolerance: tolerance}
}

// Name implements core.App.
func (a *App) Name() string { return "neuralnet" }

// InitialModel builds small random starting weights, deterministic in
// the seed.
func (a *App) InitialModel(seed int64) *model.Model {
	rng := rand.New(rand.NewSource(seed))
	w1 := make(writable.Vector, a.Hidden*(a.In+1))
	for i := range w1 {
		w1[i] = (rng.Float64() - 0.5)
	}
	w2 := make(writable.Vector, a.Out*(a.Hidden+1))
	for i := range w2 {
		w2[i] = (rng.Float64() - 0.5)
	}
	m := model.New()
	m.Set(W1Key, w1)
	m.Set(W2Key, w2)
	return m
}

// Records converts labeled vectors into training records: component 0
// is the label, the rest the input.
func Records(vectors []linalg.Vector, labels []int) []mapred.Record {
	if len(vectors) != len(labels) {
		panic(fmt.Sprintf("neuralnet: %d vectors, %d labels", len(vectors), len(labels)))
	}
	recs := make([]mapred.Record, len(vectors))
	for i, v := range vectors {
		val := make(writable.Vector, 1+len(v))
		val[0] = float64(labels[i])
		copy(val[1:], v)
		recs[i] = mapred.Record{Key: fmt.Sprintf("t%06d", i), Value: val}
	}
	return recs
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// forward computes the hidden and output activations.
func (a *App) forward(w1, w2 writable.Vector, x []float64) (hidden, out []float64) {
	hidden = make([]float64, a.Hidden)
	out = make([]float64, a.Out)
	a.forwardInto(w1, w2, x, hidden, out)
	return hidden, out
}

// forwardInto computes the activations into caller-provided buffers of
// length Hidden and Out. Accumulation order — bias first, then inputs in
// ascending index — matches the textbook loop exactly, so results are
// bit-identical; the slice re-slicing just lets the compiler drop the
// inner-loop bounds checks.
func (a *App) forwardInto(w1, w2 writable.Vector, x []float64, hidden, out []float64) {
	in := a.In
	xx := x[:in]
	for j := range hidden {
		row := w1[j*(in+1) : (j+1)*(in+1)]
		s := row[in] // bias
		for i, w := range row[:in] {
			s += w * xx[i]
		}
		hidden[j] = sigmoid(s)
	}
	nh := a.Hidden
	hh := hidden[:nh]
	for k := range out {
		row := w2[k*(nh+1) : (k+1)*(nh+1)]
		s := row[nh] // bias
		for j, w := range row[:nh] {
			s += w * hh[j]
		}
		out[k] = sigmoid(s)
	}
}

// scratch holds the per-sample activation and delta buffers of one
// back-propagation; instances are pooled because every training record
// of every epoch needs the full set and none outlives the call.
type scratch struct {
	hidden, out, deltaOut, deltaHidden []float64
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// gradients back-propagates one sample, returning the squared-error
// gradients of both weight blocks.
func (a *App) gradients(w1, w2 writable.Vector, x []float64, label int) (g1, g2 writable.Vector) {
	sc := scratchPool.Get().(*scratch)
	sc.hidden = grow(sc.hidden, a.Hidden)
	sc.out = grow(sc.out, a.Out)
	sc.deltaOut = grow(sc.deltaOut, a.Out)
	sc.deltaHidden = grow(sc.deltaHidden, a.Hidden)
	hidden, out, deltaOut, deltaHidden := sc.hidden, sc.out, sc.deltaOut, sc.deltaHidden

	a.forwardInto(w1, w2, x, hidden, out)
	for k := range deltaOut {
		target := 0.0
		if k == label {
			target = 1.0
		}
		deltaOut[k] = (out[k] - target) * out[k] * (1 - out[k])
	}
	// Accumulate the hidden deltas with k outermost so w2 is walked
	// contiguously; each deltaHidden[j] still sums its k terms in
	// ascending order, so the floating-point result is unchanged.
	nh := a.Hidden
	for j := range deltaHidden {
		deltaHidden[j] = 0
	}
	for k := 0; k < a.Out; k++ {
		row := w2[k*(nh+1) : k*(nh+1)+nh]
		dk := deltaOut[k]
		for j, w := range row {
			deltaHidden[j] += dk * w
		}
	}
	for j := range deltaHidden {
		deltaHidden[j] = deltaHidden[j] * hidden[j] * (1 - hidden[j])
	}
	g2 = make(writable.Vector, len(w2))
	hh := hidden[:nh]
	for k := 0; k < a.Out; k++ {
		base := k * (nh + 1)
		g2row := g2[base : base+nh+1]
		dk := deltaOut[k]
		for j, h := range hh {
			g2row[j] = dk * h
		}
		g2row[nh] = dk
	}
	g1 = make(writable.Vector, len(w1))
	in := a.In
	xx := x[:in]
	for j := 0; j < nh; j++ {
		base := j * (in + 1)
		g1row := g1[base : base+in+1]
		dj := deltaHidden[j]
		for i, xi := range xx {
			g1row[i] = dj * xi
		}
		g1row[in] = dj
	}
	scratchPool.Put(sc)
	return g1, g2
}

// vectorSum sums same-length vectors, used as combiner and reducer.
type vectorSum struct{}

func (vectorSum) Reduce(key string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
	acc := values[0].(writable.Vector).Clone()
	for _, v := range values[1:] {
		vec := v.(writable.Vector)
		if len(vec) != len(acc) {
			return fmt.Errorf("neuralnet: gradient length mismatch at %q", key)
		}
		vec = vec[:len(acc)] // bounds-check elimination in the sum loop
		for i := range acc {
			acc[i] += vec[i]
		}
	}
	emit.Emit(key, acc)
	return nil
}

// Iteration implements core.App: one full-batch gradient-descent epoch.
func (a *App) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	arch := *a
	job := &mapred.Job{
		Name: "backprop-epoch",
		Mapper: mapred.MapperFunc(func(_ string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
			val := v.(writable.Vector)
			label := int(val[0])
			x := val[1:]
			w1, ok1 := m.Vector(W1Key)
			w2, ok2 := m.Vector(W2Key)
			if !ok1 || !ok2 {
				return fmt.Errorf("neuralnet: model missing weight blocks")
			}
			g1, g2 := arch.gradients(w1, w2, x, label)
			emit.Emit(W1Key, g1)
			emit.Emit(W2Key, g2)
			return nil
		}),
		Combiner:    vectorSum{},
		Reducer:     vectorSum{},
		NumReducers: 2,
	}
	out, err := rt.RunJob(job, in, m)
	if err != nil {
		return nil, err
	}
	n := float64(in.NumRecords())
	next := m.Clone()
	for _, rec := range out.Records {
		w, ok := next.Vector(rec.Key)
		if !ok {
			return nil, fmt.Errorf("neuralnet: gradient for unknown block %q", rec.Key)
		}
		g := rec.Value.(writable.Vector)
		for i := range w {
			w[i] -= a.LearningRate * g[i] / n
		}
	}
	return next, nil
}

// Converged implements core.App: the largest weight-block displacement
// fell below the tolerance.
func (a *App) Converged(prev, next *model.Model) bool {
	return model.VectorDeltaBelow(prev, next, a.Tolerance)
}

// Partition implements core.PICApp: deal the training data randomly and
// replicate the model into every sub-problem.
func (a *App) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	groups := core.DealRecords(in.Records(), p)
	models := core.CopyModels(m, p)
	subs := make([]core.SubProblem, p)
	for i := range subs {
		subs[i] = core.SubProblem{Records: groups[i], Model: models[i]}
	}
	return subs, nil
}

// Merge implements core.PICApp: average the partial weight vectors.
func (a *App) Merge(parts []*model.Model, _ *model.Model) (*model.Model, error) {
	return core.AverageModels(parts)
}

// Predict returns the class with the highest output activation.
func (a *App) Predict(m *model.Model, x linalg.Vector) int {
	w1, _ := m.Vector(W1Key)
	w2, _ := m.Vector(W2Key)
	_, out := a.forward(w1, w2, x)
	return argmax(out)
}

// argmax returns the index of the largest value, the lowest on ties.
func argmax(out []float64) int {
	best, bestV := 0, out[0]
	for k, v := range out[1:] {
		if v > bestV {
			best, bestV = k+1, v
		}
	}
	return best
}

// ModelError evaluates the misclassification rate of m on a validation
// set — the paper's Figure 12(a) metric. It predicts exactly as Predict
// does, but looks the weights up once and reuses one pair of activation
// buffers across the whole set.
func (a *App) ModelError(m *model.Model, vectors []linalg.Vector, labels []int) float64 {
	if len(vectors) == 0 || len(vectors) != len(labels) {
		panic("neuralnet: bad validation set")
	}
	w1, _ := m.Vector(W1Key)
	w2, _ := m.Vector(W2Key)
	hidden, out := make([]float64, a.Hidden), make([]float64, a.Out)
	wrong := 0
	for i, v := range vectors {
		a.forwardInto(w1, w2, v, hidden, out)
		if argmax(out) != labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(vectors))
}

// MergeKey implements core.KeyMerger: partial weight blocks are averaged
// per key, so the merge can run as a distributed MapReduce job.
func (a *App) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("neuralnet: no values for %q", key)
	}
	acc := values[0].(writable.Vector).Clone()
	for _, v := range values[1:] {
		vec, ok := v.(writable.Vector)
		if !ok || len(vec) != len(acc) {
			return nil, fmt.Errorf("neuralnet: incompatible weight blocks at %q", key)
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
// weights-weighted mean of the partial weight blocks, so rack-level
// pre-averages combine without bias.
func (a *App) MergeKeyWeighted(key string, values []writable.Writable, weights []int) (writable.Writable, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, fmt.Errorf("neuralnet: bad weighted merge for %q: %d values, %d weights", key, len(values), len(weights))
	}
	acc := make(writable.Vector, len(values[0].(writable.Vector)))
	total := 0
	for vi, v := range values {
		vec, ok := v.(writable.Vector)
		if !ok || len(vec) != len(acc) {
			return nil, fmt.Errorf("neuralnet: incompatible weight blocks at %q", key)
		}
		w := weights[vi]
		if w < 1 {
			return nil, fmt.Errorf("neuralnet: weight %d for %q", w, key)
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
