package bench

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/simcluster"
)

// Experiment cells.
//
// Every figure row, table column and ablation sweep point is an
// independent experiment cell: it builds its own workload, cluster,
// fabric and metrics registry, runs to completion, and deposits its
// result at a fixed index. Nothing is shared between cells but
// read-only inputs (a generated graph, the global scale) and memoized
// results (below), so cells can execute concurrently without changing
// a single byte of output: the simulated clocks and traffic counters
// live inside each cell, and results are assembled by index, never by
// completion order.

// parallelism is the bound on concurrently running cells. It is set
// once by the driver before experiments start (picbench -parallel).
var parallelism atomic.Int64

func init() { parallelism.Store(1) }

// SetParallelism bounds how many experiment cells may run at once.
// Values below 1 are treated as 1 (serial).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the current cell-parallelism bound.
func Parallelism() int { return int(parallelism.Load()) }

// runCells executes fn(0) … fn(n-1) on at most Parallelism() workers
// and returns the error of the lowest failing index — the same error a
// serial loop would report first. Cells after a failing one may still
// have run; their results are discarded by the caller returning the
// error.
func runCells(n int, fn func(i int) error) error {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// memo runs each shared cell once per process (DESIGN.md §5d). A key is
// the workload constructor's arguments after scaling, so cells at two
// scales never share an entry; a consumer asks for a shared cell only
// where its workload is exactly that cell, and never mutates the result.
var memo sync.Map // key → *memoEntry

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// memoized returns run's result for key, running it on the first call
// only; concurrent callers of one key wait for that single run.
func memoized[T any](key string, run func() (T, error)) (T, error) {
	e, _ := memo.LoadOrStore(key, new(memoEntry))
	entry := e.(*memoEntry)
	entry.once.Do(func() { entry.val, entry.err = run() })
	v, _ := entry.val.(T)
	return v, entry.err
}

// runs counts scheme runs per {workload name, scheme}, so tests can pin
// how often a shared cell actually executes.
var (
	runsMu sync.Mutex
	runs   = map[[2]string]int{}
)

func countRun(name, scheme string) {
	runsMu.Lock()
	runs[[2]string{name, scheme}]++
	runsMu.Unlock()
}

// tracedComparison is a comparison whose observers recorded one scalar
// per sample as it arrived — the curves Figure 12 plots.
type tracedComparison struct {
	*Comparison
	icCurve, picCurve []TrajectoryPoint
}

// runTraced runs w under both schemes, recording metric() — a fresh
// metric per run, so it may carry state across samples — at each
// sample.
func runTraced(w *Workload, metric func() func(*model.Model) float64) (*tracedComparison, error) {
	t := &tracedComparison{}
	record := func(curve *[]TrajectoryPoint) core.Observer {
		m := metric()
		return func(s core.Sample) { *curve = append(*curve, TrajectoryPoint{Time: s.Time, Value: m(s.Model)}) }
	}
	c, err := observedComparison(w, record(&t.icCurve), record(&t.picCurve))
	if err != nil {
		return nil, err
	}
	t.Comparison = c
	return t, nil
}

// panel is the cell's two curves as a Figure 12 panel, on copies of
// the memoized points.
func (t *tracedComparison) panel(title, metric string) *Fig12Result {
	return &Fig12Result{Title: title, Metric: metric,
		IC:  Trajectory{Scheme: "IC", Points: slices.Clone(t.icCurve)},
		PIC: Trajectory{Scheme: "PIC", Points: slices.Clone(t.picCurve)}}
}

// smallKMeans is the small-cluster, 300k-point, seed-3 K-means
// comparison: abl-parts at P=6, abl-localfactor at the default 1/7,
// abl-network's bottleneck model, abl-async's healthy IC baseline and
// sync-PIC row, and abl-seeding's random seeding all run exactly this
// workload.
func smallKMeans() (*Comparison, error) {
	n := scaled(300_000, 40_000)
	return memoized(fmt.Sprint("KMeansWorkload", simcluster.Small(), n, 25, 3, 6, 3), func() (*Comparison, error) {
		w, _ := KMeansWorkload("kmeans-small", simcluster.Small(), n, 25, 3, 6, 3)
		return RunComparison(w)
	})
}

// mediumKMeans is the medium-cluster, 600k-point, seed-2 K-means pair
// with each run's centroid displacement per sample: Figure 2 reads the
// results, Figure 12(b) the curves.
func mediumKMeans() (*tracedComparison, error) {
	n := scaled(600_000, 30_000)
	return memoized(fmt.Sprint("KMeansWorkload", simcluster.Medium(), n, 25, 3, 6, 2), func() (*tracedComparison, error) {
		w, _ := KMeansWorkload("kmeans-medium", simcluster.Medium(), n, 25, 3, 6, 2)
		return runTraced(w, func() func(*model.Model) float64 {
			prev := w.MakeModel()
			return func(m *model.Model) float64 {
				d := model.MaxVectorDelta(prev, m)
				prev = m
				return d
			}
		})
	})
}

// neuralNetCell is the neural-net pair with each run's validation error
// per sample, plus the error of the IC run's final model: Figure 12(a)
// plots the curves and Figure 10 reads its equal-quality row off them.
type neuralNetCell struct {
	*tracedComparison
	icFinalErr float64
}

func neuralNet() (*neuralNetCell, error) {
	n := scaled(8_000, 1_000)
	return memoized(fmt.Sprint("NeuralNetWorkload", simcluster.Medium(), n, 6, 7), func() (*neuralNetCell, error) {
		w, app, _, valid := NeuralNetWorkload("neuralnet", simcluster.Medium(), n, 6, 7)
		modelErr := func(m *model.Model) float64 { return app.ModelError(m, valid.Vectors, valid.Labels) }
		t, err := runTraced(w, func() func(*model.Model) float64 { return modelErr })
		if err != nil {
			return nil, err
		}
		return &neuralNetCell{t, modelErr(t.IC.Model)}, nil
	})
}
