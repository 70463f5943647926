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
	if err := job.validate(m); err != nil {
		return nil, Metrics{}, err
	}
	cost := e.cost
	if job.Cost != nil {
		if err := job.Cost.Validate(); err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q: %w", job.Name, err)
		}
		cost = *job.Cost
	}
	var metrics Metrics
	metrics.LocalJobs = 1
	metrics.InputRecords = in.NumRecords()
	metrics.LocalRecords = in.NumRecords()

	// Loop-aware fusion: with a JobFamily attached and a mapper
	// implementing LocalFuser (or IntoMapper, for a map-only job with
	// Into), run the job fused over the cached derived structures, into
	// Into by slot where the kernel can. The kernel confines cross-split
	// floating-point accumulation to a serial pass in arrival order, so
	// its output is byte-identical to the cold pipeline at any worker
	// count; any split the kernel cannot derive, or a shape it rejects,
	// sends the whole job down the cold path below.
	if e.Family != nil {
		out, met, handled, err := e.runLocalFused(job, in, m, cost, metrics)
		if err != nil {
			return nil, Metrics{}, err
		}
		if handled {
			return e.finishLocal(out, met)
		}
	}

	nSplits := len(in.Splits)
	mapOut := make([]*listEmitter, nSplits)
	errs := make([]error, nSplits)
	e.parallelFor(nSplits, func(i int) {
		em := getEmitter()
		if err := em.mapAll(job.Mapper, in.Splits[i].Records, m); err != nil {
			errs[i] = fmt.Errorf("job %q local map %d: %w", job.Name, i, err)
			return
		}
		mapOut[i] = em
	})
	for _, err := range errs {
		if err != nil {
			return nil, Metrics{}, err
		}
	}
	metrics.MapPhase = e.localMapPhase(in, cost)

	nMapOut := 0
	for i := range mapOut {
		nMapOut += len(mapOut[i].records)
	}

	if job.Reducer == nil {
		metrics.OutputRecords = int64(nMapOut)
		return e.finishLocal(deliverMapOnly(job, mapOut), metrics)
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
	e.localReducePhase(&metrics, cost, int64(nMapOut))
	metrics.OutputRecords = int64(len(outRecs))
	return e.finishLocal(job.Deliver([][]Record{outRecs}, nil), metrics)
}

// localMapPhase is the makespan of an in-memory job's map tasks, one per
// split at LocalComputeFactor times the per-record framework cost.
func (e *Engine) localMapPhase(in *Input, cost CostModel) simtime.Duration {
	factor := cost.LocalComputeFactor
	tasks := make([]simcluster.Task, len(in.Splits))
	for i, split := range in.Splits {
		tasks[i] = simcluster.Task{Cost: factor * cost.MapCostPerRecord * float64(len(split.Records)), Preferred: split.Home}
	}
	_, makespan := e.cluster.Schedule(tasks, e.cluster.Config().MapSlotsPerNode)
	return makespan
}

// localReducePhase prices an in-memory reduce over mapEmits values,
// spread over every map slot of the view.
func (e *Engine) localReducePhase(metrics *Metrics, cost CostModel, mapEmits int64) {
	reduceCost := cost.LocalComputeFactor * cost.ReduceCostPerValue * float64(mapEmits)
	slots := float64(e.cluster.MapSlots())
	metrics.ReducePhase = simtime.Duration(reduceCost / (e.cluster.Config().ComputeRate * slots))
	metrics.ReduceInputValues = mapEmits
}

// finishLocal closes an in-memory job: its duration is its map and
// reduce phases, observed as a local execution.
func (e *Engine) finishLocal(out *Output, metrics Metrics) (*Output, Metrics, error) {
	metrics.Duration = metrics.MapPhase + metrics.ReducePhase
	e.observeLocal(metrics)
	return out, metrics, nil
}

// runLocalFused executes RunLocal's job through a fused kernel over
// cached derived structures: a LocalFuser's map+reduce (into Job.Into
// when the job has one), or an IntoMapper's map into Job.Into.
// handled=false means the job must run cold (no kernel applies, a
// split's derived form is unavailable or the kernel rejected the
// shape); the metrics and costs it produces when handled are identical
// to the cold pipeline's, short of finishLocal.
func (e *Engine) runLocalFused(job *Job, in *Input, m *model.Model,
	cost CostModel, metrics Metrics) (*Output, Metrics, bool, error) {
	if job.Reducer == nil {
		im, ok := job.Mapper.(IntoMapper)
		if !ok || job.Into == nil {
			return nil, Metrics{}, false, nil
		}
		handled, err := e.fuseInto(im, job, in, nil, m, "local map", func(_ int, records, _ int64) {
			metrics.OutputRecords += records
		})
		if !handled || err != nil {
			return nil, Metrics{}, handled, err
		}
		metrics.MapPhase = e.localMapPhase(in, cost)
		return &Output{}, metrics, true, nil
	}
	lf, ok := job.Mapper.(LocalFuser)
	if !ok {
		return nil, Metrics{}, false, nil
	}
	deriveds, warmBytes := e.stage(in, nil, lf.NewDerived)
	if deriveds == nil {
		return nil, Metrics{}, false, nil
	}
	em := getEmitter()
	defer putEmitter(em)
	mapEmits, written, err := lf.FuseLocal(deriveds, m, job.Into, e.parallelFor, em)
	if err != nil {
		if errors.Is(err, ErrFusedUnsupported) {
			return nil, Metrics{}, false, nil
		}
		return nil, Metrics{}, true, fmt.Errorf("job %q local fused: %w", job.Name, err)
	}
	e.Family.noteWarm(job.Name, m, warmBytes)
	metrics.MapPhase = e.localMapPhase(in, cost)
	e.localReducePhase(&metrics, cost, mapEmits)
	metrics.OutputRecords = written + int64(len(em.records))
	return job.Deliver([][]Record{em.records}, nil), metrics, true, nil
}
