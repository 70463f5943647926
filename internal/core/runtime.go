package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/bsp"
	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/integrity"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Runtime binds a MapReduce engine, a cluster view and the distributed
// file system, and accumulates the simulated clock and metrics of
// everything executed through it. The IC and PIC drivers, and
// application Iteration methods, run all their work through a Runtime.
type Runtime struct {
	engine *mapred.Engine
	fs     *dfs.FS

	// local selects in-memory execution (Engine.RunLocal) for jobs run
	// through this runtime; the PIC driver sets it on the sub-runtimes
	// that execute best-effort local iterations.
	local bool

	elapsed          simtime.Duration
	metrics          mapred.Metrics
	modelUpdateBytes int64
	modelWrites      int64

	// deltaCkpt enables sparse delta checkpoints: WriteModel persists
	// only the changed keys against the last full checkpoint when that
	// encoding is smaller, cutting the replication traffic every
	// best-effort merge pays. Off by default — delta checkpoints change
	// simulated model-update traffic, so the golden experiment numbers
	// keep the full-checkpoint behavior unless a run opts in. ckptBase
	// tracks the last full checkpoint per model name.
	deltaCkpt bool
	ckptBase  map[string]*ckptBase

	// tracer, lane and base implement the optional execution timeline:
	// forked runtimes inherit the tracer, carry their own lane, and
	// stamp events relative to the parent clock at fork time. span is
	// the id of the enclosing phase span; job events parent under it.
	tracer *trace.Tracer
	lane   int
	base   simtime.Time
	span   int64

	// obs, when set, accumulates observability metrics: resource series
	// sampled at event boundaries (job/write/transfer completion) plus
	// the per-phase counters the engine records. Shared by forks.
	obs *metrics.Registry

	// faults replays the cluster's FailurePlan, NetworkPlan and
	// corrupt.Plan as one timeline (see faults.go); it is shared by all
	// forks of a runtime, and syncFaults drains it after every clock
	// advance. integ is the shared end-to-end integrity state (see
	// corruption.go).
	faults *faultTimeline
	integ  *integrityState

	// backend selects the execution engine (mapred by default, BSP via
	// SetBackend); bspEng is the lazily built BSP engine over this
	// runtime's cluster view.
	backend Backend
	bspEng  *bsp.Engine

	// family is the loop-aware job family: persistent per-node workers
	// whose caches keep each split's loop-invariant bytes and derived
	// structures warm across IC/PIC iterations. Attached by default;
	// SetLoopCache(false) detaches it for cold (conformance) runs. Nil
	// never changes simulated outcomes — only real wall-clock and the
	// cache.* observability counters.
	family *mapred.JobFamily
}

// NewRuntime creates a runtime over a full cluster view with a fresh
// DFS using the given configuration. Register any FailurePlan,
// NetworkPlan or corrupt.Plan on the cluster before calling: the
// runtime snapshots them here and processes their events as the
// simulated clock advances.
func NewRuntime(cluster *simcluster.Cluster, fsCfg dfs.Config) *Runtime {
	rt := &Runtime{
		engine: mapred.NewEngine(cluster),
		fs:     dfs.New(cluster, fsCfg),
		faults: newFaultTimeline(cluster),
		integ:  &integrityState{checks: true, ckptSums: map[string]uint32{}},
		family: mapred.NewJobFamily("runtime", mapred.DefaultNodeCacheBytes),
	}
	rt.engine.Family = rt.family
	rt.engine.IntegrityChecks = true
	rt.syncFaults() // apply any events scripted at time zero
	return rt
}

// SetLoopCache attaches (the default) or detaches the loop-aware job
// family. Detached, every job runs cold: derived structures are rebuilt
// from the raw records each iteration. Outputs, Metrics and traced
// spans are byte-identical either way — the cache-conformance suite
// runs both and compares.
func (rt *Runtime) SetLoopCache(enabled bool) {
	if enabled {
		if rt.family == nil {
			rt.family = mapred.NewJobFamily("runtime", mapred.DefaultNodeCacheBytes)
		}
		rt.engine.Family = rt.family
		return
	}
	rt.family = nil
	rt.engine.Family = nil
}

// LoopCacheStats snapshots the job family's cache counters (zero when
// the cache is detached).
func (rt *Runtime) LoopCacheStats() mapred.FamilyStats {
	if rt.family == nil {
		return mapred.FamilyStats{}
	}
	return rt.family.Stats()
}

// LoopFamily exposes the attached job family (nil when detached) for
// the fault layers and tests.
func (rt *Runtime) LoopFamily() *mapred.JobFamily { return rt.family }

// ReleaseLoopCache drops every cached entry on every node, returning
// the persistent workers' memory — the scheduler calls this when a job
// is preempted or restarted; the caches re-warm on first touch after
// resume. The release is recorded as cache-evict activity at the
// runtime's current time.
func (rt *Runtime) ReleaseLoopCache() {
	if rt.family == nil {
		return
	}
	rt.family.Release()
	rt.observeCache(rt.now())
}

// Engine exposes the underlying MapReduce engine (to set cost models or
// failure injection).
func (rt *Runtime) Engine() *mapred.Engine { return rt.engine }

// SetTracer attaches an execution-timeline tracer. A nil tracer (the
// default) records nothing.
func (rt *Runtime) SetTracer(t *trace.Tracer) { rt.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// SetLane labels this runtime's timeline events (the PIC driver gives
// each node group its own lane).
func (rt *Runtime) SetLane(lane int) { rt.lane = lane }

// SetObservability attaches a metrics registry. The runtime samples
// resource timelines into it at event boundaries and wires it into the
// engine for per-phase counters. A nil registry (the default) records
// nothing.
func (rt *Runtime) SetObservability(r *metrics.Registry) {
	rt.obs = r
	rt.engine.Obs = r
}

// Observability returns the attached registry (nil when metrics are
// off).
func (rt *Runtime) Observability() *metrics.Registry { return rt.obs }

// observeNow samples the shared resource accumulators at the current
// simulated time. Called after every clock-advancing operation, it
// yields utilization-over-time series without any wall-clock sampling.
func (rt *Runtime) observeNow() {
	// In-memory local iterations are invisible to the fabric and DFS
	// counters, so sampling from a local fork would only duplicate the
	// previous point.
	if rt.obs == nil || rt.local {
		return
	}
	now := rt.now()
	fabric := rt.Cluster().Fabric()
	rt.obs.Series("simnet.core_busy_seconds").Sample(now, float64(fabric.CoreBusy()))
	c := fabric.Counters()
	rt.obs.Series("simnet.cross_rack_bytes").Sample(now, float64(c.CrossRack))
	rt.obs.Series("dfs.re_replication_bytes").Sample(now, float64(rt.fs.Counters().ReReplication))
	// Co-tenant compute pressure, for straggler attribution. Sampled
	// only while someone is actually squeezing the nodes, so untenanted
	// runs carry no empty series.
	if load := rt.Cluster().MaxComputeLoad(); load > 0 {
		rt.obs.Series("simcluster.tenant_load").Sample(now, load)
	}
}

// now is the runtime's position on the global simulated clock.
func (rt *Runtime) now() simtime.Time { return rt.base + simtime.Time(rt.elapsed) }

// Cluster returns the runtime's cluster view.
func (rt *Runtime) Cluster() *simcluster.Cluster { return rt.engine.Cluster() }

// FS returns the shared distributed file system.
func (rt *Runtime) FS() *dfs.FS { return rt.fs }

// Elapsed reports the simulated time consumed through this runtime.
func (rt *Runtime) Elapsed() simtime.Duration { return rt.elapsed }

// Metrics returns the accumulated job metrics.
func (rt *Runtime) Metrics() mapred.Metrics { return rt.metrics }

// ModelUpdateBytes reports the network bytes spent persisting model
// versions (the replication-pipeline traffic of WriteModel calls) — the
// paper's "model updates" counter.
func (rt *Runtime) ModelUpdateBytes() int64 { return rt.modelUpdateBytes }

// SetTimeOrigin shifts the runtime's clock base so its current position
// equals t on the global simulated clock. The multi-tenant scheduler
// uses it when starting or resuming a job, so trace events from the
// job's next step are stamped at the cluster-wide time it actually ran,
// not at the job's private elapsed time.
func (rt *Runtime) SetTimeOrigin(t simtime.Time) {
	rt.base = t - simtime.Time(rt.elapsed)
}

// Now reports the runtime's position on the global simulated clock.
func (rt *Runtime) Now() simtime.Time { return rt.now() }

// AdvanceTime adds d to the runtime's clock, for costs computed outside
// the engine (e.g. the parallel best-effort groups, whose wall time is
// the maximum over groups).
func (rt *Runtime) AdvanceTime(d simtime.Duration) {
	if d < 0 {
		panic("core: negative time advance")
	}
	rt.elapsed += d
	rt.syncFaults()
}

// chargeMergeOverhead advances the clock by the job overhead a merge
// run under the framework pays, and records the time as an overhead
// span so the critical path attributes it rather than calling it idle.
func (rt *Runtime) chargeMergeOverhead(app string) {
	start := rt.now()
	rt.AdvanceTime(rt.Engine().CostModelValue().JobOverhead)
	if rt.tracer != nil {
		rt.tracer.Record(trace.Event{
			Kind: trace.KindOverhead, Name: app + "-merge/overhead", Start: start, End: rt.now(),
			Lane: rt.lane, Parent: rt.span,
		})
	}
}

// AddMetrics folds externally measured metrics (e.g. a sub-runtime's)
// into this runtime's accumulator without advancing the clock.
func (rt *Runtime) AddMetrics(m mapred.Metrics) { rt.metrics.Add(m) }

// RunJob executes a job over in with model m, advancing the clock and
// accumulating metrics. Applications call this from Iteration.
func (rt *Runtime) RunJob(job *mapred.Job, in *mapred.Input, m *model.Model) (*mapred.Output, error) {
	var (
		out     *mapred.Output
		metrics mapred.Metrics
		err     error
	)
	start := rt.now()
	// Into's rule is checked on the caller's model: once damage below
	// swaps in a perturbed copy, the engines could no longer see that
	// the job writes into the model it reads.
	if err := job.CheckInto(m); err != nil {
		return nil, err
	}
	// Silent model-distribution damage: with detection off, a bit-error
	// window over the distribution leg hands the workers a perturbed
	// model — the caller's copy stays untouched, but the iteration
	// computes from damaged state. With detection on the engines verify
	// and re-send internally, so this path never engages.
	if m != nil && !rt.local {
		if seed, hit := rt.blindModelDamage(start); hit {
			m = corrupt.PerturbModel(m.Clone(), seed)
		}
	}
	kind := trace.KindJob
	var (
		bspRes *bsp.Result
		spans  *[]trace.Event // the BSP run's span sink, with a tracer only
	)
	if rt.local {
		kind = trace.KindLocalJob
		out, metrics, err = rt.engine.RunLocal(job, in, m)
	} else if rt.Backend() == BackendBSP {
		// Divert framework jobs to the partition-level BSP adapter:
		// splits map as vertices, the shuffle rides messages, reducers
		// are vertices — priced on the same fabric.
		opt := &bsp.RunOptions{
			Name:      job.Name,
			At:        start,
			Workers:   rt.engine.Workers,
			ModelHome: rt.LiveModelHome(),
			Family:    rt.family,
		}
		if rt.tracer != nil {
			spans = new([]trace.Event)
			opt.Spans = spans
		}
		out, bspRes, err = bsp.RunJob(rt.bspEngine(), job, in, m, opt)
		if err == nil {
			metrics = bspRes.Metrics.Fold(false)
		}
	} else {
		rt.LiveModelHome() // re-home model distribution off crashed nodes
		out, metrics, err = rt.engine.RunAt(job, in, m, start)
	}
	if err != nil {
		return nil, err
	}
	rt.metrics.Add(metrics)
	rt.elapsed += metrics.Duration
	rt.syncFaults()
	id := rt.tracer.NextID()
	rt.tracer.Record(trace.Event{
		Kind: kind, Name: job.Name, Start: start, End: rt.now(),
		Bytes: metrics.ShuffleNetworkBytes + metrics.ModelBytes, Lane: rt.lane,
		ID: id, Parent: rt.span,
	})
	if bspRes != nil {
		rt.recordBSPSpans(spans, job.Name, id)
		rt.observeBSP(bspRes.Metrics, false)
	} else if kind == trace.KindJob {
		rt.recordJobSpans(id, job.Name, start, metrics)
	}
	rt.observeCache(start)
	rt.observeNow()
	return out, nil
}

// observeCache drains the job family's cache activity into the
// timeline and registry: one cache-warm/cache-evict point annotation
// per staging or eviction, stamped at the triggering event's time, plus
// the cache.* counter family. Cache annotations never take tracer IDs
// and never parent other events, so a cold run and a warm run assign
// identical IDs to every remaining event — the conformance suite
// filters the cache kinds and counters and compares the rest
// byte-for-byte.
func (rt *Runtime) observeCache(at simtime.Time) {
	f := rt.family
	if f == nil {
		return
	}
	if rt.tracer != nil {
		for _, ev := range f.DrainEvents() {
			kind := trace.KindCacheWarm
			name := fmt.Sprintf("node %d: %d records staged", ev.Node, ev.Records)
			if ev.Kind == mapred.CacheEvict {
				kind = trace.KindCacheEvict
				name = fmt.Sprintf("node %d: entry released", ev.Node)
			}
			rt.tracer.Record(trace.Event{
				Kind: kind, Name: name, Start: at, End: at,
				Bytes: ev.Bytes, Lane: rt.lane, Parent: rt.span,
			})
		}
	} else {
		f.DrainEvents()
	}
	if rt.obs != nil {
		d := f.DrainStatsDelta()
		if d.Hits != 0 {
			rt.obs.Counter("cache.hits").Add(float64(d.Hits))
		}
		if d.Misses != 0 {
			rt.obs.Counter("cache.misses").Add(float64(d.Misses))
		}
		if d.Evictions != 0 {
			rt.obs.Counter("cache.evictions").Add(float64(d.Evictions))
		}
		if d.DeltaBytes != 0 {
			rt.obs.Counter("cache.delta_bytes").Add(float64(d.DeltaBytes))
		}
		if d.FullBytes != 0 {
			rt.obs.Counter("cache.full_bytes").Add(float64(d.FullBytes))
		}
		rt.obs.Gauge("cache.resident_bytes").Set(float64(d.ResidentBytes))
	}
}

// recordJobSpans decomposes a framework job's extent into its phase
// sub-spans, sequenced in the same order RunAt charges them (overhead,
// model distribution, map, shuffle, reduce) and parented under the job
// span so the critical-path pass attributes leaf time, not the
// container.
func (rt *Runtime) recordJobSpans(job int64, name string, start simtime.Time, m mapred.Metrics) {
	if rt.tracer == nil {
		return
	}
	t := start
	sub := func(kind trace.Kind, suffix string, d simtime.Duration, bytes int64, attrs ...trace.Attr) {
		if d <= 0 {
			return
		}
		rt.tracer.Record(trace.Event{
			Kind: kind, Name: name + "/" + suffix, Start: t, End: t + simtime.Time(d),
			Bytes: bytes, Lane: rt.lane, Parent: job, Attrs: attrs,
		})
		t += simtime.Time(d)
	}
	sub(trace.KindOverhead, "overhead", m.OverheadPhase, 0)
	sub(trace.KindModelDist, "model", m.ModelPhase, m.ModelBytes)
	sub(trace.KindMap, "map", m.MapPhase, m.NonLocalInputBytes)
	// The shuffle span carries its dominant link class, so the
	// telemetry layer can bucket shuffle latency per class.
	if m.ShuffleNetworkBytes > 0 {
		class := "intra-rack"
		if 2*m.ShuffleCrossRackBytes >= m.ShuffleNetworkBytes {
			class = "cross-rack"
		}
		sub(trace.KindShuffle, "shuffle", m.ShufflePhase, m.ShuffleNetworkBytes, trace.Attr{Key: "class", Value: class})
	} else {
		sub(trace.KindShuffle, "shuffle", m.ShufflePhase, m.ShuffleNetworkBytes)
	}
	sub(trace.KindReduce, "reduce", m.ReducePhase, 0)
	if m.TransferRetries > 0 {
		// The retries themselves are interleaved inside the phases
		// above, so this is a point annotation on the job, not a span.
		rt.tracer.Record(trace.Event{
			Kind: trace.KindTransferRetry, Name: fmt.Sprintf("%s: %d transfer retries", name, m.TransferRetries),
			Start: start, End: start, Bytes: m.RetryBytes, Lane: rt.lane, Parent: job,
		})
	}
}

// ckptBase is the delta-checkpoint anchor for one model name: the last
// full checkpoint's sequence number and content, plus how many deltas
// have chained off it since.
type ckptBase struct {
	seq    int64
	m      *model.Model
	deltas int
}

// maxDeltaChain bounds how many delta checkpoints may follow a full one
// before the next write is forced full again, so a restore is always at
// most one full read plus one delta read, and drift from the anchor
// cannot grow without bound.
const maxDeltaChain = 8

// SetDeltaCheckpoints opts this runtime's WriteModel into sparse delta
// checkpoints (see the deltaCkpt field). Enable before the first write;
// restores transparently handle both formats either way.
func (rt *Runtime) SetDeltaCheckpoints(enabled bool) {
	rt.deltaCkpt = enabled
	if enabled && rt.ckptBase == nil {
		rt.ckptBase = map[string]*ckptBase{}
	}
}

// WriteModel persists a model version (its real encoded bytes) to the
// DFS with replication, charging the pipeline traffic and time — one
// "model update" in the paper's terminology. The checkpoint can be
// recovered with RestoreModel after a driver restart. With
// SetDeltaCheckpoints enabled the version is stored as a sparse delta
// against the last full checkpoint whenever that encoding is smaller.
func (rt *Runtime) WriteModel(name string, m *model.Model) {
	start := rt.now()
	home := rt.LiveModelHome()
	before := rt.fs.Counters().WritePipeline
	file := checkpointName(name, rt.modelWrites)
	// Each version is encoded once, into a buffer of exactly its size
	// that the DFS then owns (it keeps every version's bytes).
	size := m.Size()
	var data []byte
	if base := rt.ckptBase[name]; rt.deltaCkpt && base != nil && base.deltas < maxDeltaChain {
		head := uvarintLen(uint64(base.seq))
		if ds := model.DeltaSize(base.m, m); int64(head)+ds < size {
			file += deltaSuffix
			data = binary.AppendUvarint(make([]byte, 0, int64(head)+ds), uint64(base.seq))
			data = model.EncodeDelta(base.m, m, data)
			base.deltas++
		}
	}
	if data == nil {
		data = m.Encode(make([]byte, 0, size))
		if rt.deltaCkpt {
			rt.ckptBase[name] = &ckptBase{seq: rt.modelWrites, m: m.Clone()}
		}
	}
	f, d := rt.fs.CreateWithData(file, data, home)
	// Seal the checkpoint's content checksum, verified again on restore:
	// even damage that slips past the block layer (or lands while
	// detection is off) is caught before a restored model is trusted.
	// It is the CRC32C of the bytes, combined from the block CRCs the
	// DFS sealed as it stored them.
	rt.integ.ckptSums[file] = f.Checksum()
	// Create replaces the previous pointer file.
	rt.fs.CreateWithData(latestPointer(name), []byte(file), home)
	rt.modelWrites++
	rt.elapsed += d
	rt.syncFaults()
	delta := rt.fs.Counters().WritePipeline - before
	rt.modelUpdateBytes += delta
	rt.tracer.Record(trace.Event{
		Kind: trace.KindModelWrite, Name: name, Start: start, End: rt.now(),
		Bytes: delta, Lane: rt.lane, Parent: rt.span,
	})
	if rt.obs != nil {
		rt.obs.Counter("core.model_writes").Add(1)
		rt.obs.Counter("core.model_update_bytes").Add(float64(delta))
	}
	rt.observeNow()
}

// RestoreModel recovers the most recent checkpoint WriteModel stored
// under name — the driver-restart half of the fault-tolerance story
// (§VII): task failures are retried by the runtime, and a lost driver
// resumes from the last persisted model. With integrity checks on the
// restore is verified end to end — block checksums with replica
// failover on every read, plus the checkpoint's sealed content
// checksum — and a checkpoint damaged beyond repair rolls back to the
// newest earlier full checkpoint that still verifies.
func (rt *Runtime) RestoreModel(name string) (*model.Model, error) {
	ptr, ok := rt.fs.Open(latestPointer(name))
	if !ok {
		return nil, fmt.Errorf("core: no checkpoint for %q", name)
	}
	if rt.fs.Lost(ptr) {
		return nil, fmt.Errorf("core: checkpoint pointer for %q lost to node failures", name)
	}
	target, err := rt.readCheckpointData(ptr)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint pointer for %q unreadable: %w", name, err)
	}
	m, err := rt.decodeCheckpoint(name, string(target))
	if err == nil {
		return m, nil
	}
	if !rt.IntegrityChecks() {
		return nil, err
	}
	// Rollback: the pointed-at checkpoint is damaged beyond the block
	// layer's repair (every replica bad, or its chain broken). Walk the
	// sequence downward to the newest earlier full checkpoint that
	// still verifies and restore that — stale but trustworthy. Delta
	// files are skipped on the way down (they carry the .delta suffix,
	// so the plain sequence name only resolves full checkpoints): their
	// anchor may be the damaged file itself.
	start := rt.now()
	fromSeq := ckptSeq(string(target))
	if fromSeq < 0 {
		fromSeq = rt.modelWrites
	}
	for seq := fromSeq - 1; seq >= 0; seq-- {
		file := checkpointName(name, seq)
		if f, ok := rt.fs.Open(file); !ok || rt.fs.Lost(f) {
			continue
		}
		m, rerr := rt.decodeCheckpoint(name, file)
		if rerr != nil {
			continue // damaged too; keep walking
		}
		rt.integ.rollbacks++
		rt.tracer.Record(trace.Event{
			Kind:  trace.KindCheckpointRollback,
			Name:  fmt.Sprintf("%s: seq %d damaged, rolled back to verified seq %d", name, fromSeq, seq),
			Start: start, End: rt.now(), Lane: rt.lane, Parent: rt.span,
		})
		if rt.obs != nil {
			rt.obs.Counter("integrity.rollbacks").Add(1)
		}
		return m, nil
	}
	return nil, fmt.Errorf("core: %s: no verified checkpoint to roll back to: %w", name, err)
}

// readCheckpointData reads a checkpoint file on the charged read path.
// The DFS verifies (with replica failover and repair) when detection is
// on and serves raw otherwise — a raw read of damaged blocks returns
// the damaged bytes, exactly what a checksum-less storage stack would
// do.
func (rt *Runtime) readCheckpointData(f *dfs.File) ([]byte, error) {
	data, d, err := rt.fs.ReadDataChecked(f, rt.LiveModelHome())
	rt.elapsed += d
	rt.syncFaults()
	return data, err
}

// decodeCheckpoint reads and decodes the checkpoint stored in target —
// a full encoding, or a delta plus its anchor — verifying content
// checksums when detection is on. Errors name the position in the
// chain (the delta, its anchor, or the full checkpoint) and the
// sequence numbers involved, so a failed restore says exactly which
// file is damaged and why.
func (rt *Runtime) decodeCheckpoint(name, target string) (*model.Model, error) {
	f, ok := rt.fs.Open(target)
	if !ok {
		return nil, fmt.Errorf("core: dangling checkpoint pointer %q", target)
	}
	if rt.fs.Lost(f) {
		return nil, fmt.Errorf("core: checkpoint %q lost to node failures", target)
	}
	data, err := rt.readCheckpointData(f)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %q unreadable: %w", target, err)
	}
	seq := ckptSeq(target)
	if err := rt.verifyCkptSum(target, data); err != nil {
		return nil, err
	}
	if !strings.HasSuffix(target, deltaSuffix) {
		m, err := model.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint %q (full, seq %d): %w", target, seq, err)
		}
		return m, nil
	}
	// Delta checkpoint: a varint anchor sequence number followed by the
	// sparse delta against that full checkpoint. Read the anchor (one
	// more charged read) and patch it.
	baseSeq, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("core: corrupt delta checkpoint %q (seq %d): bad base-sequence varint", target, seq)
	}
	if seq >= 0 && int64(baseSeq) >= seq {
		return nil, fmt.Errorf("core: corrupt delta checkpoint %q (seq %d): base sequence %d not before the delta's own",
			target, seq, baseSeq)
	}
	baseFile := checkpointName(name, int64(baseSeq))
	bf, ok := rt.fs.Open(baseFile)
	if !ok {
		return nil, fmt.Errorf("core: delta checkpoint %q (seq %d) references missing base %q (seq %d)",
			target, seq, baseFile, baseSeq)
	}
	if rt.fs.Lost(bf) {
		return nil, fmt.Errorf("core: checkpoint base %q (seq %d, anchor of %q) lost to node failures",
			baseFile, baseSeq, target)
	}
	baseData, err := rt.readCheckpointData(bf)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint base %q (seq %d, anchor of %q) unreadable: %w",
			baseFile, baseSeq, target, err)
	}
	if err := rt.verifyCkptSum(baseFile, baseData); err != nil {
		return nil, err
	}
	baseModel, err := model.Decode(baseData)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint base %q (seq %d, anchor of delta seq %d): %w",
			baseFile, baseSeq, seq, err)
	}
	m, err := model.ApplyDeltaBytes(baseModel, data[n:])
	if err != nil {
		return nil, fmt.Errorf("core: corrupt delta checkpoint %q (seq %d over base seq %d): %w",
			target, seq, baseSeq, err)
	}
	return m, nil
}

// verifyCkptSum checks a checkpoint's bytes against the content
// checksum sealed at write time (a no-op when this runtime never wrote
// the file — a fresh driver has no seals — or when detection is off).
func (rt *Runtime) verifyCkptSum(file string, data []byte) error {
	if !rt.IntegrityChecks() {
		return nil
	}
	want, ok := rt.integ.ckptSums[file]
	if !ok {
		return nil
	}
	if got := integrity.Checksum(data); got != want {
		return fmt.Errorf("core: corrupt checkpoint %q (seq %d): content checksum mismatch: want %08x, got %08x",
			file, ckptSeq(file), want, got)
	}
	return nil
}

// deltaSuffix marks a checkpoint file holding a sparse delta rather
// than a full model encoding.
const deltaSuffix = ".delta"

func checkpointName(name string, seq int64) string {
	return fmt.Sprintf("models/%s/%d", name, seq)
}

func latestPointer(name string) string {
	return fmt.Sprintf("models/%s/latest", name)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// dominantClass reports the link class that carried the most bytes in
// the flow set — the transfer span's class attribute for per-class
// latency telemetry. Ties break toward the more expensive class.
func dominantClass(fabric *simnet.Fabric, flows []simnet.Flow) string {
	var local, intra, cross int64
	for _, fl := range flows {
		switch {
		case fl.Src == fl.Dst:
			local += fl.Bytes
		case fabric.Rack(fl.Src) == fabric.Rack(fl.Dst):
			intra += fl.Bytes
		default:
			cross += fl.Bytes
		}
	}
	switch {
	case cross >= intra && cross >= local:
		return "cross-rack"
	case intra >= local:
		return "intra-rack"
	default:
		return "node-local"
	}
}

// Fork creates a runtime over a sub-cluster view, sharing the file
// system and fabric but with a fresh clock and metrics. When local is
// true, jobs run through the fork execute in memory (best-effort local
// iterations).
func (rt *Runtime) Fork(view *simcluster.Cluster, local bool) *Runtime {
	e := mapred.NewEngine(view)
	e.SetCostModel(rt.engine.CostModelValue())
	e.FailEveryNthMapTask = rt.engine.FailEveryNthMapTask
	e.StraggleEveryNthMapTask = rt.engine.StraggleEveryNthMapTask
	e.StragglerSlowdown = rt.engine.StragglerSlowdown
	e.SpeculativeExecution = rt.engine.SpeculativeExecution
	e.FairSharingNetwork = rt.engine.FairSharingNetwork
	e.Workers = rt.engine.Workers
	e.ModelSources = rt.engine.ModelSources
	e.TransferTimeout = rt.engine.TransferTimeout
	e.TransferRetries = rt.engine.TransferRetries
	e.RetryBackoff = rt.engine.RetryBackoff
	e.IntegrityChecks = rt.engine.IntegrityChecks
	// Local forks run in-memory iterations whose registry traffic is
	// counter-only (observeLocal); framework forks share the full
	// registry wiring.
	e.Obs = rt.engine.Obs
	// The job family is shared: a PIC run's best-effort sub-runtimes and
	// top-off all keep the same per-node caches warm.
	e.Family = rt.engine.Family
	return &Runtime{engine: e, fs: rt.fs, local: local, tracer: rt.tracer, base: rt.now(),
		faults: rt.faults, integ: rt.integ,
		span: rt.span, obs: rt.obs, family: rt.family, backend: rt.backend}
}
