package mapred

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simtime"
)

// RunLocal executes a job entirely in memory on the engine's cluster
// view: the same user map and reduce functions run, but intermediate
// pairs are handed over in memory rather than serialized, spilled,
// sorted and shuffled, and no job is launched on the framework.
//
// This is how the PIC library of the paper executes local iterations in
// the best-effort phase: the sub-problem's records are resident on the
// node group and the original map/reduce computation runs as a tight
// loop. Compute is charged at CostModel.LocalComputeFactor times the
// framework per-record costs (no per-record serialization and framework
// overhead), and no network traffic, model distribution, shuffle or job
// overhead is incurred. Byte counters are untouched: in-memory data is
// invisible to the cluster counters, just as it is invisible to
// Hadoop's.
func (e *Engine) RunLocal(job *Job, in *Input, m *model.Model) (*Output, Metrics, error) {
	if err := e.validateConfig(); err != nil {
		return nil, Metrics{}, err
	}
	if err := job.validate(); err != nil {
		return nil, Metrics{}, err
	}
	cost := e.cost
	if job.Cost != nil {
		if err := job.Cost.Validate(); err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q: %w", job.Name, err)
		}
		cost = *job.Cost
	}
	factor := cost.LocalComputeFactor

	var metrics Metrics
	metrics.LocalJobs = 1
	metrics.InputRecords = in.NumRecords()
	metrics.LocalRecords = in.NumRecords()

	// Loop-aware fusion: with a JobFamily attached and a mapper
	// implementing LocalFuser, run map+reduce fused over the cached
	// derived structures. The kernel confines cross-split floating-point
	// accumulation to a serial pass in arrival order, so its output is
	// byte-identical to the cold map → group → reduce pipeline at any
	// worker count; any split the kernel cannot derive, or a shape it
	// rejects, sends the whole job down the cold path below.
	if e.Family != nil && job.Reducer != nil {
		if lf, ok := job.Mapper.(LocalFuser); ok {
			if out, met, handled, err := e.runLocalFused(lf, job, in, m, cost, metrics); handled {
				return out, met, err
			}
		}
	}

	nSplits := len(in.Splits)
	mapOut := make([]*listEmitter, nSplits)
	mapCosts := make([]float64, nSplits)
	errs := make([]error, nSplits)
	e.parallelFor(nSplits, func(i int) {
		split := in.Splits[i]
		em := getEmitter()
		if err := em.mapAll(job.Mapper, split.Records, m); err != nil {
			errs[i] = fmt.Errorf("job %q local map %d: %w", job.Name, i, err)
			return
		}
		mapOut[i] = em
		mapCosts[i] = factor * cost.MapCostPerRecord * float64(len(split.Records))
	})
	for _, err := range errs {
		if err != nil {
			return nil, Metrics{}, err
		}
	}

	tasks := make([]simcluster.Task, nSplits)
	for i := range tasks {
		tasks[i] = simcluster.Task{Cost: mapCosts[i], Preferred: in.Splits[i].Home}
	}
	_, mapMakespan := e.cluster.Schedule(tasks, e.cluster.Config().MapSlotsPerNode)
	metrics.MapPhase = mapMakespan

	nMapOut := 0
	for i := range mapOut {
		nMapOut += len(mapOut[i].records)
	}

	if job.Reducer == nil {
		// The concatenated emissions are the job's output.
		all := make([]Record, 0, nMapOut)
		for i := range mapOut {
			all = append(all, mapOut[i].records...)
			putEmitter(mapOut[i])
		}
		out := &Output{Records: all}
		metrics.OutputRecords = int64(len(out.Records))
		metrics.Duration = metrics.MapPhase
		e.observeLocal(metrics)
		return out, metrics, nil
	}

	// In-memory grouping and reduction: the per-split emissions go
	// straight from their pooled emitter buffers into the pooled sorted
	// buffer (splits are revisited every local iteration, so in steady
	// state neither allocates), then one reduce pass runs over all
	// emitted pairs with key groups sharded across the real worker pool.
	s := getScratch()
	for i := range mapOut {
		s.addRun(mapOut[i].records)
	}
	outRecs, err := e.reduceSortedParallel(job.Reducer, s.sortedRuns(), m)
	s.release()
	for i := range mapOut {
		putEmitter(mapOut[i])
	}
	if err != nil {
		return nil, Metrics{}, err
	}
	reduceCost := factor * cost.ReduceCostPerValue * float64(nMapOut)
	slots := float64(e.cluster.MapSlots())
	metrics.ReducePhase = simtime.Duration(reduceCost / (e.cluster.Config().ComputeRate * slots))
	metrics.ReduceInputValues = int64(nMapOut)

	out := &Output{Records: outRecs}
	metrics.OutputRecords = int64(len(outRecs))
	metrics.Duration = metrics.MapPhase + metrics.ReducePhase
	e.observeLocal(metrics)
	return out, metrics, nil
}

// runLocalFused executes RunLocal's map+reduce through a LocalFuser
// kernel over cached derived structures. handled=false means the job
// must run cold (a split's derived form is unavailable or the kernel
// rejected the shape); the metrics and costs it produces when handled
// are identical to the cold pipeline's.
func (e *Engine) runLocalFused(lf LocalFuser, job *Job, in *Input, m *model.Model,
	cost CostModel, metrics Metrics) (*Output, Metrics, bool, error) {
	factor := cost.LocalComputeFactor
	nSplits := len(in.Splits)
	deriveds := make([]SplitDerived, nSplits)
	var warmBytes int64
	for i, split := range in.Splits {
		d, hit := e.Family.acquire(split.Home, split.Records, split.Bytes, lf.NewDerived)
		if d == nil {
			return nil, Metrics{}, false, nil
		}
		deriveds[i] = d
		if hit {
			warmBytes += split.Bytes
		}
	}

	em := &listEmitter{}
	mapEmits, err := lf.FuseLocal(deriveds, m, e.parallelFor, em)
	if err != nil {
		if errors.Is(err, ErrFusedUnsupported) {
			return nil, Metrics{}, false, nil
		}
		return nil, Metrics{}, true, fmt.Errorf("job %q local fused: %w", job.Name, err)
	}
	if warmBytes > 0 {
		e.Family.noteIteration(e.Family.shippedDelta(job.Name, m), warmBytes)
	}

	tasks := make([]simcluster.Task, nSplits)
	for i := range tasks {
		tasks[i] = simcluster.Task{
			Cost:      factor * cost.MapCostPerRecord * float64(len(in.Splits[i].Records)),
			Preferred: in.Splits[i].Home,
		}
	}
	_, mapMakespan := e.cluster.Schedule(tasks, e.cluster.Config().MapSlotsPerNode)
	metrics.MapPhase = mapMakespan

	reduceCost := factor * cost.ReduceCostPerValue * float64(mapEmits)
	slots := float64(e.cluster.MapSlots())
	metrics.ReducePhase = simtime.Duration(reduceCost / (e.cluster.Config().ComputeRate * slots))
	metrics.ReduceInputValues = mapEmits

	out := &Output{Records: em.records}
	metrics.OutputRecords = int64(len(em.records))
	metrics.Duration = metrics.MapPhase + metrics.ReducePhase
	e.observeLocal(metrics)
	return out, metrics, true, nil
}
