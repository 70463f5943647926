package core

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Backend selects the execution engine an iteration's jobs run on. The
// IC and PIC drivers are backend-neutral: an App's Iteration runs its
// mapred jobs through Runtime.RunJob, which executes them on the
// selected backend, and an App that additionally implements VertexApp
// runs natively as a BSP vertex program when the BSP backend is
// selected.
type Backend string

const (
	// BackendMapred is the default MapReduce engine: per-iteration jobs
	// with map, shuffle and reduce phases.
	BackendMapred Backend = "mapred"
	// BackendBSP runs iterations as Pregel-style superstep programs:
	// native vertex programs for apps that provide one, the
	// partition-level adapter (split vertices → message exchange →
	// reduce vertices) for everything else.
	BackendBSP Backend = "bsp"
)

// BackendError is the typed "unsupported on this backend" error: a
// feature combination that a backend cannot honor fails loudly instead
// of silently degrading.
type BackendError struct {
	Backend Backend
	Feature string
	Reason  string
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("core: backend %q does not support %s: %s", e.Backend, e.Feature, e.Reason)
}

// VertexApp is optionally implemented by an App that has a native
// vertex program: under the BSP backend its iterations skip the mapred
// job shape entirely and run per-vertex compute with message passing.
// VertexProgram builds a fresh program for one iteration over (in, m);
// it must not mutate m, and the returned program must implement
// bsp.Modeler so the runtime can assemble the next model. Vertex state
// is per-vertex (model keys partition across vertices), so the model
// distribution is priced as a partitioned share per home node — the
// same accounting a PartitionedModel mapred job gets.
type VertexApp interface {
	App
	VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error)
}

// VertexDeriver is optionally implemented by a VertexApp whose program
// splits into an input-only half and a model-bound half. DeriveVertices
// builds the input-only half — the vertex set, the tables that index it
// — and its Bind builds one iteration's program over a model, so
// VertexProgram(in, m) is DeriveVertices(in) then Bind(m), and must
// fail as it would. The runtime derives once per input and keeps the
// result in its job family across iterations and crash-restart
// attempts (JobFamily.HostDerived); with the loop cache detached it
// derives per attempt. Results are byte-identical either way.
type VertexDeriver interface {
	VertexApp
	DeriveVertices(in *mapred.Input) (DerivedVertices, error)
}

// DerivedVertices is the input-only half of a vertex program. The
// runtime binds one derived state many times, so Bind leaves m as it is
// and adds to the derived state at most a cache of what any later Bind
// would compute the same way.
type DerivedVertices interface {
	Bind(m *model.Model) (bsp.Program, error)
}

// MergeFinalizer is optionally implemented by a PICApp whose Merge does
// app-specific post-processing after concatenating partials (dropping
// frozen boundary keys, recomputing cross-partition terms). The
// distributed and hierarchical merge paths combine partials key by key
// and never call Merge, so they apply FinalizeMerge to the key-merged
// model instead; the flat gather path ignores it (Merge already
// finalizes). merged may be mutated and returned; prev is the model the
// best-effort iteration started from and must not be mutated.
type MergeFinalizer interface {
	FinalizeMerge(merged, prev *model.Model) (*model.Model, error)
}

// SetBackend selects the execution backend for jobs and iterations run
// through this runtime (and inherited by its forks). Selecting the BSP
// backend validates the engine configuration: mapred-specific fault and
// scheduling knobs that BSP's lockstep execution model cannot honor are
// rejected with a typed *BackendError rather than silently ignored.
// Crash fault plans (restart at the barrier) and network plans (typed
// transfer errors the IC driver waits out) are fully supported.
func (rt *Runtime) SetBackend(b Backend) error {
	switch b {
	case "", BackendMapred:
		rt.backend = BackendMapred
		return nil
	case BackendBSP:
	default:
		return &BackendError{Backend: b, Feature: "backend selection", Reason: "unknown backend"}
	}
	e := rt.engine
	switch {
	case e.FailEveryNthMapTask > 0:
		return &BackendError{Backend: BackendBSP, Feature: "task-level failure injection (FailEveryNthMapTask)",
			Reason: "BSP has no per-task retry; node crashes restart the superstep program at the barrier"}
	case e.StraggleEveryNthMapTask > 0:
		return &BackendError{Backend: BackendBSP, Feature: "straggler injection (StraggleEveryNthMapTask)",
			Reason: "BSP compute is pinned to vertex homes; there is no task list to straggle"}
	case e.SpeculativeExecution:
		return &BackendError{Backend: BackendBSP, Feature: "speculative execution",
			Reason: "BSP cannot run backup copies of pinned vertex work"}
	case e.FairSharingNetwork:
		return &BackendError{Backend: BackendBSP, Feature: "max-min fair shuffle pricing (FairSharingNetwork)",
			Reason: "BSP message exchanges are priced with the bottleneck transfer model only"}
	case e.TransferTimeout > 0 || e.TransferRetries > 0:
		return &BackendError{Backend: BackendBSP, Feature: "transfer retry (TransferTimeout/TransferRetries)",
			Reason: "BSP surfaces transfer faults to the driver, which blocks until the network plan transitions"}
	}
	rt.backend = BackendBSP
	return nil
}

// Backend reports the selected execution backend.
func (rt *Runtime) Backend() Backend {
	if rt.backend == "" {
		return BackendMapred
	}
	return rt.backend
}

// bspEngine lazily builds the runtime's BSP engine over its cluster
// view, refreshing the derived cost model on every call so later
// SetCostModel calls on the mapred engine stay coherent across
// backends.
func (rt *Runtime) bspEngine() *bsp.Engine {
	if rt.bspEng == nil {
		rt.bspEng = bsp.NewEngine(rt.Cluster())
	}
	rt.bspEng.SetCostModel(bsp.DeriveCost(rt.engine.CostModelValue()))
	rt.bspEng.IntegrityChecks = rt.IntegrityChecks()
	return rt.bspEng
}

// runIteration is the backend dispatch seam for one driver iteration:
// the mapred backend (and any app without a native vertex program) runs
// the app's ordinary Iteration — under BSP its framework jobs divert to
// the partition-level adapter inside RunJob — while a VertexApp on the
// BSP backend runs its native superstep program.
func (rt *Runtime) runIteration(app App, in *mapred.Input, m *model.Model) (*model.Model, error) {
	if rt.Backend() != BackendBSP {
		return app.Iteration(rt, in, m)
	}
	va, ok := app.(VertexApp)
	if !ok {
		return app.Iteration(rt, in, m)
	}
	return rt.runVertexIteration(va, in, m)
}

// runVertexIteration executes one native vertex-program iteration on
// the BSP engine, with the same clock/metrics/trace bookkeeping RunJob
// gives a framework job: the BSP run appears as one job event whose
// children are its superstep and barrier spans.
func (rt *Runtime) runVertexIteration(app VertexApp, in *mapred.Input, m *model.Model) (*model.Model, error) {
	e := rt.bspEngine()
	start := rt.now()
	opt := &bsp.RunOptions{
		Name:             app.Name(),
		At:               start,
		Local:            rt.local,
		Workers:          rt.engine.Workers,
		Model:            m,
		PartitionedModel: true,
		Family:           rt.family,
	}
	if !rt.local {
		opt.ModelHome = rt.LiveModelHome()
		if rt.tracer != nil {
			opt.Spans = new([]trace.Event)
		}
	}
	res, err := e.Run(rt.buildVertexProgram(app, in, m), opt)
	if err != nil {
		return nil, err
	}
	modeler, ok := res.Program.(bsp.Modeler)
	if !ok {
		return nil, &BackendError{Backend: BackendBSP, Feature: fmt.Sprintf("vertex program for %s", app.Name()),
			Reason: "program does not implement bsp.Modeler"}
	}
	rt.finishBSP(app.Name(), start, res, opt.Spans, rt.local)
	next, err := modeler.Model(m)
	if err != nil {
		return nil, fmt.Errorf("core: %s: assemble model from vertex program: %w", app.Name(), err)
	}
	return next, nil
}

// buildVertexProgram returns the build function of one vertex iteration's
// runs: the app's program over (in, m), bound to the vertex set the job
// family keeps for in when the app derives one and the family is
// attached.
func (rt *Runtime) buildVertexProgram(app VertexApp, in *mapred.Input, m *model.Model) func() (bsp.Program, error) {
	d, ok := app.(VertexDeriver)
	if !ok || rt.family == nil {
		return func() (bsp.Program, error) { return app.VertexProgram(in, m) }
	}
	return func() (bsp.Program, error) {
		dv, err := rt.family.HostDerived(app, in, func() (any, error) { return d.DeriveVertices(in) })
		if err != nil {
			return nil, err
		}
		return dv.(DerivedVertices).Bind(m)
	}
}

// finishBSP folds one completed BSP run into the runtime: clock,
// metrics, the job trace event with superstep/barrier children, and the
// bsp.* registry family.
func (rt *Runtime) finishBSP(name string, start simtime.Time, res *bsp.Result, spans *[]trace.Event, local bool) {
	folded := res.Metrics.Fold(local)
	rt.metrics.Add(folded)
	rt.elapsed += folded.Duration
	rt.syncFaults()
	kind := trace.KindJob
	if local {
		kind = trace.KindLocalJob
	}
	id := rt.tracer.NextID()
	rt.tracer.Record(trace.Event{
		Kind: kind, Name: name, Start: start, End: rt.now(),
		Bytes: folded.ShuffleNetworkBytes + folded.ModelBytes, Lane: rt.lane,
		ID: id, Parent: rt.span,
	})
	rt.recordBSPSpans(spans, name, id)
	rt.observeBSP(res.Metrics, local)
	rt.observeCache(start)
	rt.observeNow()
}

// recordBSPSpans records the superstep and barrier spans a BSP run
// appended to its sink as children of job span id. The sink is nil
// when no tracer is attached or the run was local.
func (rt *Runtime) recordBSPSpans(spans *[]trace.Event, name string, id int64) {
	if spans == nil {
		return
	}
	for _, ev := range *spans {
		ev.Name = name + "/" + ev.Name
		ev.Lane = rt.lane
		ev.Parent = id
		rt.tracer.Record(ev)
	}
}

// observeBSP records one BSP run into the metrics registry: the bsp.*
// counter family always, plus per-run series for framework runs (local
// best-effort solves are counter-only, like mapred local jobs).
func (rt *Runtime) observeBSP(bm bsp.Metrics, local bool) {
	if rt.obs == nil {
		return
	}
	rt.obs.Counter("bsp.jobs").Add(1)
	rt.obs.Counter("bsp.supersteps").Add(float64(bm.Supersteps))
	rt.obs.Counter("bsp.messages").Add(float64(bm.Messages))
	rt.obs.Counter("bsp.combined_messages").Add(float64(bm.CombinedMessages))
	rt.obs.Counter("bsp.message_bytes").Add(float64(bm.MessageBytes))
	if bm.MessageNetworkBytes != 0 {
		rt.obs.Counter("bsp.message_network_bytes").Add(float64(bm.MessageNetworkBytes))
	}
	if bm.MessageCrossRackBytes != 0 {
		rt.obs.Counter("bsp.message_cross_rack_bytes").Add(float64(bm.MessageCrossRackBytes))
	}
	if bm.Restarts != 0 {
		rt.obs.Counter("bsp.restarts").Add(float64(bm.Restarts))
	}
	for _, p := range [...]struct {
		phase string
		d     float64
	}{
		{"compute", float64(bm.ComputePhase)},
		{"message", float64(bm.MessagePhase)},
		{"barrier", float64(bm.BarrierPhase)},
		{"model", float64(bm.ModelPhase)},
	} {
		if p.d != 0 {
			rt.obs.Counter("bsp.phase_seconds", metrics.L("phase", p.phase)...).Add(p.d)
		}
	}
	if !local {
		now := rt.now()
		rt.obs.Series("bsp.job_seconds").Sample(now, float64(bm.Duration))
		rt.obs.Series("bsp.barrier_seconds").Sample(now, float64(bm.BarrierPhase))
	}
}
