package mapred

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Engine executes MapReduce jobs on a cluster view. The same engine type
// serves the full cluster (conventional IC execution and PIC's top-off
// phase) and the node-group sub-clusters of PIC's best-effort phase.
type Engine struct {
	cluster *simcluster.Cluster
	cost    CostModel

	// ModelHome is the node models are distributed from at job start
	// (the node holding the primary replica of the model file).
	// Defaults to the first node of the view.
	ModelHome int

	// ModelSources is the number of replica nodes that can serve model
	// reads (HDFS replication: default 3). Distribution flows fan out
	// round-robin across the sources, as Hadoop's distributed cache
	// fetches do.
	ModelSources int

	// FailEveryNthMapTask injects a failure into every Nth map task,
	// which the engine recovers from by re-executing the task, as
	// Hadoop's fault tolerance does (§VII of the paper). Zero disables
	// injection.
	FailEveryNthMapTask int

	// StraggleEveryNthMapTask makes every Nth map task a straggler
	// running StragglerSlowdown times longer (a slow disk, a busy
	// node). Zero disables injection.
	StraggleEveryNthMapTask int
	// StragglerSlowdown is the straggler's cost multiplier (default 4
	// when stragglers are enabled).
	StragglerSlowdown float64
	// SpeculativeExecution launches Hadoop-style backup tasks for
	// stragglers: the job finishes when the first copy does, so a
	// straggler costs only the speculative-launch lag (30% over the
	// normal duration) instead of the full slowdown.
	SpeculativeExecution bool

	// FairSharingNetwork charges transfers under progressive max-min
	// fair sharing (simnet.MaxMinTransferTime) instead of the
	// optimally-scheduled bottleneck bound — the skeptical network
	// model for robustness checks. Incompatible with a registered
	// NetworkPlan or scripted transfer bit-error windows (degraded and
	// verified transfers are priced by the bottleneck model only).
	FairSharingNetwork bool

	// TransferTimeout, TransferRetries and RetryBackoff fill the
	// simcluster.TransferPolicy every framework transfer is charged
	// under (see transferAt). TransferTimeout is the deadline one
	// attempt may take before the engine abandons it (shuffle stall
	// detection). Zero disables the deadline: an unreachable transfer
	// then fails immediately and a slow one is waited out. The deadline
	// bounds every attempt, whether or not a fault plan is registered:
	// a calm transfer slower than it is abandoned like a browned-out
	// one.
	TransferTimeout simtime.Duration
	// TransferRetries is how many times a failed transfer attempt is
	// retried with capped exponential backoff before the job surfaces
	// a typed *simnet.TransferError. Requires TransferTimeout > 0.
	TransferRetries int
	// RetryBackoff is the base backoff charged between transfer
	// attempts; attempt k waits RetryBackoff·2^k, capped at eight
	// times the base. Zero selects 1s.
	RetryBackoff simtime.Duration

	// IntegrityChecks enables checksum verification of transfer
	// payloads against the cluster's registered corruption plan: a
	// corrupt arrival is detected and re-sent (with backoff) instead of
	// silently consumed. Independent of TransferTimeout/TransferRetries
	// — corrupt re-sends have their own bounded budget. Off by default
	// on a bare Engine; core.NewRuntime turns it on.
	IntegrityChecks bool

	// Workers bounds real (not simulated) execution parallelism of
	// user code. Zero means GOMAXPROCS.
	Workers int

	// Family, when set, attaches the engine to a loop-aware job family:
	// persistent per-node workers whose caches hold each split's
	// loop-invariant bytes and derived structures across iterations, so
	// mappers implementing IntoMapper/LocalFuser run over pre-parsed
	// input and only the model delta ships per iteration. Nil runs every
	// job cold. The cache never changes simulated outcomes — outputs,
	// Metrics and traced spans are byte-identical either way.
	Family *JobFamily

	// Obs, when set, receives per-job observability metrics: phase-time
	// counters and per-job time series stamped on the simulated clock at
	// job completion. Nil (the default) records nothing.
	Obs *metrics.Registry
}

// NewEngine returns an engine for the given cluster view with the
// default cost model.
func NewEngine(c *simcluster.Cluster) *Engine {
	return &Engine{cluster: c, cost: DefaultCostModel(), ModelHome: c.Nodes()[0], ModelSources: 3}
}

// SetCostModel replaces the engine's default cost model. It panics on an
// invalid model.
func (e *Engine) SetCostModel(cost CostModel) {
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	e.cost = cost
}

// CostModelValue returns the engine's default cost model.
func (e *Engine) CostModelValue() CostModel { return e.cost }

// Cluster returns the engine's cluster view.
func (e *Engine) Cluster() *simcluster.Cluster { return e.cluster }

// Metrics aggregates everything measured about one or more job
// executions. Byte counters are exact encoded sizes of the records the
// user code actually emitted.
type Metrics struct {
	// Duration is total simulated job time.
	Duration simtime.Duration
	// Phase breakdown of Duration.
	MapPhase      simtime.Duration
	ShufflePhase  simtime.Duration
	ReducePhase   simtime.Duration
	ModelPhase    simtime.Duration
	OverheadPhase simtime.Duration

	Jobs        int
	MapTasks    int
	ReduceTasks int
	TaskRetries int
	// StragglerTasks counts injected slow tasks; SpeculativeTasks the
	// subset rescued by speculative backup copies.
	StragglerTasks   int
	SpeculativeTasks int

	// NodeCrashes counts whole-node crash events processed;
	// RescheduledTasks the in-flight task attempts those crashes killed
	// (each re-ran on a survivor); ReReplicationBytes the DFS traffic
	// spent restoring block replication afterwards.
	NodeCrashes        int
	RescheduledTasks   int
	ReReplicationBytes int64

	// TransferRetries counts transfer attempts that failed (timed out
	// or found their path severed) and were retried under the
	// registered NetworkPlan; RetryBytes is the network traffic those
	// failed attempts carried before being abandoned. Retry traffic is
	// also folded into the byte counter of the phase that paid it
	// (shuffle, model or input), so no byte the fabric carried goes
	// unaccounted.
	TransferRetries int
	RetryBytes      int64

	// CorruptRetries counts transfer attempts that arrived with a bad
	// checksum under the registered corruption plan and were re-sent;
	// CorruptRetryBytes is the traffic the corrupt arrivals carried.
	// Like RetryBytes, it also lands in the paying phase's counter.
	CorruptRetries    int
	CorruptRetryBytes int64

	// LocalJobs and LocalRecords count in-memory executions
	// (Engine.RunLocal) — PIC's best-effort local iterations.
	LocalJobs    int
	LocalRecords int64

	InputRecords int64

	// MapOutputRecords/Bytes measure mapper output before the
	// combiner — the paper's "intermediate data".
	MapOutputRecords int64
	MapOutputBytes   int64

	// ShuffleRecords/Bytes measure post-combine data handed to the
	// shuffle; the network counters are the subset that actually
	// crossed node and rack boundaries.
	ShuffleRecords        int64
	ShuffleBytes          int64
	ShuffleNetworkBytes   int64
	ShuffleCrossRackBytes int64

	// ModelBytes is model-distribution traffic (bytes that crossed a
	// node boundary to deliver the current model to task nodes).
	ModelBytes int64

	ReduceInputValues int64
	OutputRecords     int64
	OutputBytes       int64

	NonLocalInputBytes int64
}

// Add accumulates o into m.
func (m *Metrics) Add(o Metrics) {
	m.Duration += o.Duration
	m.MapPhase += o.MapPhase
	m.ShufflePhase += o.ShufflePhase
	m.ReducePhase += o.ReducePhase
	m.ModelPhase += o.ModelPhase
	m.OverheadPhase += o.OverheadPhase
	m.Jobs += o.Jobs
	m.MapTasks += o.MapTasks
	m.ReduceTasks += o.ReduceTasks
	m.TaskRetries += o.TaskRetries
	m.StragglerTasks += o.StragglerTasks
	m.SpeculativeTasks += o.SpeculativeTasks
	m.NodeCrashes += o.NodeCrashes
	m.RescheduledTasks += o.RescheduledTasks
	m.ReReplicationBytes += o.ReReplicationBytes
	m.TransferRetries += o.TransferRetries
	m.RetryBytes += o.RetryBytes
	m.CorruptRetries += o.CorruptRetries
	m.CorruptRetryBytes += o.CorruptRetryBytes
	m.LocalJobs += o.LocalJobs
	m.LocalRecords += o.LocalRecords
	m.InputRecords += o.InputRecords
	m.MapOutputRecords += o.MapOutputRecords
	m.MapOutputBytes += o.MapOutputBytes
	m.ShuffleRecords += o.ShuffleRecords
	m.ShuffleBytes += o.ShuffleBytes
	m.ShuffleNetworkBytes += o.ShuffleNetworkBytes
	m.ShuffleCrossRackBytes += o.ShuffleCrossRackBytes
	m.ModelBytes += o.ModelBytes
	m.ReduceInputValues += o.ReduceInputValues
	m.OutputRecords += o.OutputRecords
	m.OutputBytes += o.OutputBytes
	m.NonLocalInputBytes += o.NonLocalInputBytes
}

// Sub returns the component-wise difference m - o; with o a snapshot
// taken earlier from the same accumulator, the result is the activity
// between the two points.
func (m Metrics) Sub(o Metrics) Metrics {
	m.Duration -= o.Duration
	m.MapPhase -= o.MapPhase
	m.ShufflePhase -= o.ShufflePhase
	m.ReducePhase -= o.ReducePhase
	m.ModelPhase -= o.ModelPhase
	m.OverheadPhase -= o.OverheadPhase
	m.Jobs -= o.Jobs
	m.MapTasks -= o.MapTasks
	m.ReduceTasks -= o.ReduceTasks
	m.TaskRetries -= o.TaskRetries
	m.StragglerTasks -= o.StragglerTasks
	m.SpeculativeTasks -= o.SpeculativeTasks
	m.NodeCrashes -= o.NodeCrashes
	m.RescheduledTasks -= o.RescheduledTasks
	m.ReReplicationBytes -= o.ReReplicationBytes
	m.TransferRetries -= o.TransferRetries
	m.RetryBytes -= o.RetryBytes
	m.CorruptRetries -= o.CorruptRetries
	m.CorruptRetryBytes -= o.CorruptRetryBytes
	m.LocalJobs -= o.LocalJobs
	m.LocalRecords -= o.LocalRecords
	m.InputRecords -= o.InputRecords
	m.MapOutputRecords -= o.MapOutputRecords
	m.MapOutputBytes -= o.MapOutputBytes
	m.ShuffleRecords -= o.ShuffleRecords
	m.ShuffleBytes -= o.ShuffleBytes
	m.ShuffleNetworkBytes -= o.ShuffleNetworkBytes
	m.ShuffleCrossRackBytes -= o.ShuffleCrossRackBytes
	m.ModelBytes -= o.ModelBytes
	m.ReduceInputValues -= o.ReduceInputValues
	m.OutputRecords -= o.OutputRecords
	m.OutputBytes -= o.OutputBytes
	m.NonLocalInputBytes -= o.NonLocalInputBytes
	return m
}

// Output is the result of one job.
type Output struct {
	// Records is every reduce-output record (or map output for
	// map-only jobs), concatenated in reducer order.
	Records []Record
	// ByReducer holds each reduce task's output; ReducerNodes the node
	// each task ran on. Both are nil for map-only jobs.
	ByReducer    [][]Record
	ReducerNodes []int
}

// partitionSizes fills sizes and counts with the encoded bytes and the
// record count of each of a map task's post-combine partitions,
// computed once: the shuffle counters, the shuffle flows and the reduce
// tasks' input counts all read these tables instead of re-serializing.
func partitionSizes(parts [][]Record, sizes, counts []int64) {
	for p, part := range parts {
		sizes[p] = RecordsSize(part)
		counts[p] = int64(len(part))
	}
}

// stage acquires every split's derived form from the family, serially
// in split order so cache counters and eviction are deterministic at any
// Workers setting. homes[i] is split i's cache bucket (nil: its Home).
// Kernels fuse a whole job or none of it, so the first split build
// declines stops staging and returns ds == nil. warmBytes sums the hit
// splits' bytes.
func (e *Engine) stage(in *Input, homes []int, build func([]Record) SplitDerived) (ds []SplitDerived, warmBytes int64) {
	ds = make([]SplitDerived, len(in.Splits))
	for i, split := range in.Splits {
		node := split.Home
		if homes != nil {
			node = homes[i]
		}
		d, hit := e.Family.acquire(node, split.Records, split.Bytes, build)
		if d == nil {
			return nil, 0
		}
		ds[i] = d
		if hit {
			warmBytes += split.Bytes
		}
	}
	return ds, warmBytes
}

// fuseInto runs a map-only job with Into through an IntoMapper kernel
// over the family's cached derived forms: MapInto serially in split
// order, each split's record count and encoded bytes handed to note,
// which prices the task. handled=false means the job must run cold (a
// split declined or the kernel rejected the shape); the cold path then
// re-Sets every record, overwriting whatever a partial fused write left.
// task names a map task in errors.
func (e *Engine) fuseInto(im IntoMapper, job *Job, in *Input, homes []int, m *model.Model, task string,
	note func(i int, records, bytes int64)) (handled bool, err error) {
	ds, warmBytes := e.stage(in, homes, im.NewDerived)
	if ds == nil {
		return false, nil
	}
	for i, d := range ds {
		records, bytes, err := im.MapInto(d, m, job.Into, nil)
		if err != nil {
			if errors.Is(err, ErrFusedUnsupported) {
				return false, nil
			}
			return true, fmt.Errorf("job %q %s %d: %w", job.Name, task, i, err)
		}
		note(i, records, bytes)
	}
	e.Family.noteWarm(job.Name, m, warmBytes)
	return true, nil
}

// deliverMapOnly is a map-only job's output from its tasks' emitters,
// in split order (Job.Deliver), after which it recycles them. A nil
// emitter is a task that emitted nothing.
func deliverMapOnly(job *Job, ems []*listEmitter) *Output {
	tasks := make([][]Record, len(ems))
	for i, em := range ems {
		if em != nil {
			tasks[i] = em.records
		}
	}
	out := job.Deliver(tasks, nil)
	for _, em := range ems {
		if em != nil {
			putEmitter(em)
		}
	}
	return out
}

// Run executes one job over the input with the given read-only model
// (nil for model-free jobs) and returns its output and metrics. The job
// is placed at simulated time zero; use RunAt to align it with a
// FailurePlan's absolute clock.
func (e *Engine) Run(job *Job, in *Input, m *model.Model) (*Output, Metrics, error) {
	return e.RunAt(job, in, m, 0)
}

// RunAt executes one job like Run, with the job starting at the given
// simulated time. When the cluster view carries a FailurePlan the
// schedule honors it: tasks never run on dead nodes, in-flight tasks on
// a node that crashes mid-wave are killed and re-executed on survivors
// (counted in Metrics.RescheduledTasks), splits homed on dead nodes are
// re-read from their surviving replicas, and the job fails only when
// every replica of a needed split is gone or no live node remains.
func (e *Engine) RunAt(job *Job, in *Input, m *model.Model, start simtime.Time) (*Output, Metrics, error) {
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
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}
	numReducers := job.NumReducers
	if numReducers == 0 {
		numReducers = e.cluster.ReduceSlots()
	}
	if job.Reducer == nil {
		numReducers = 0
	}

	var metrics Metrics
	metrics.Jobs = 1
	metrics.OverheadPhase = cost.JobOverhead
	metrics.InputRecords = in.NumRecords()

	// ---- Node liveness: with a FailurePlan registered, resolve which
	// view nodes are dead at the job start and re-home splits whose
	// home node has crashed onto a surviving replica.
	plan := e.cluster.FailurePlan()
	fabric := e.cluster.Fabric()
	var dead map[int]bool
	if plan != nil {
		dead = plan.DeadAt(start)
		live := 0
		for _, n := range e.cluster.Nodes() {
			if !dead[n] {
				live++
			}
		}
		if live == 0 {
			return nil, Metrics{}, fmt.Errorf("job %q: no live nodes in view at t=%.3fs", job.Name, float64(start))
		}
	}
	// ---- Network reachability: with a NetworkPlan registered, view
	// nodes an active outage or partition severs from the model home
	// cannot receive the model or report results, so task attempts are
	// re-homed off them like off dead nodes. Reachability is probed
	// once, at the time the first wave dispatches.
	var cut map[int]bool
	if fabric.NetworkPlan() != nil {
		severed := fabric.UnreachableFrom(e.ModelHome, start+cost.JobOverhead)
		reachable := 0
		for _, n := range e.cluster.Nodes() {
			switch {
			case dead[n]:
			case severed[n]:
				if cut == nil {
					cut = map[int]bool{}
				}
				cut[n] = true
			default:
				reachable++
			}
		}
		if reachable == 0 {
			return nil, Metrics{}, &simnet.TransferError{Kind: simnet.TransferUnreachable,
				Src: e.ModelHome, Dst: -1, At: start + cost.JobOverhead}
		}
	}
	homes := make([]int, len(in.Splits))
	for i, split := range in.Splits {
		homes[i] = split.Home
		if split.Home >= 0 && dead[split.Home] {
			homes[i] = -1
			if len(split.Replicas) > 0 {
				found := false
				for _, r := range split.Replicas {
					if !dead[r] {
						homes[i] = r
						found = true
						break
					}
				}
				if !found {
					return nil, Metrics{}, fmt.Errorf("job %q: split %d: all replicas lost to node failures", job.Name, i)
				}
			}
		}
		if homes[i] >= 0 && cut[homes[i]] {
			// Prefer a replica on the reachable side. When every
			// replica is severed the home stands: the input fetch then
			// crosses the cut and the transfer layer retries or fails
			// typed.
			for _, r := range split.Replicas {
				if !dead[r] && !cut[r] {
					homes[i] = r
					break
				}
			}
		}
	}

	nSplits := len(in.Splits)
	mapParts := make([][][]Record, nSplits) // split -> partition -> records
	// split -> partition -> encoded bytes and record count, computed once
	// into one slab per job
	partTables := make([][]int64, 2*nSplits)
	partSizes, partRecs := partTables[:nSplits], partTables[nSplits:]
	slab := make([]int64, 2*nSplits*numReducers)
	for i := range partTables {
		partTables[i] = slab[i*numReducers : (i+1)*numReducers : (i+1)*numReducers]
	}
	mapOnlyOut := make([]*listEmitter, nSplits)
	mapCosts := make([]float64, nSplits)
	mapOutBytes := make([]int64, nSplits)
	mapOutRecords := make([]int64, nSplits)
	errs := make([]error, nSplits)

	// ---- Loop-aware fusion: a job with Into and an IntoMapper, with a
	// JobFamily attached, runs fused whole or not at all, before the map
	// phase, over each split's derived form staged in the family's
	// per-node cache. Staging is serial, in split order, so cache
	// counters and eviction are deterministic at any Workers setting;
	// splits re-homed off a crashed node stage cold on the surviving
	// replica (homes[i] keys the node bucket). A map-only job writes Into
	// by slot; one whose Reducer is a FloatSum or a VectorSum folds each
	// split into a partial and reduces by slot (into.go). Either is
	// identical to the record-at-a-time path by contract, and a split
	// whose derived form is unavailable or whose shape the kernel rejects
	// sends the whole job down the cold body below.
	intoDone := false
	var partials []*Partial // the map tasks' partials of a job reducing by slot
	var route *slotRoute
	var rowWidth int
	slotRed := bySlot(job.Reducer)
	if im, ok := job.Mapper.(IntoMapper); ok && e.Family != nil && job.Into != nil {
		var err error
		switch {
		case numReducers == 0:
			intoDone, err = e.fuseInto(im, job, in, homes, m, "map task", func(i int, recs, bytes int64) {
				mapOutRecords[i], mapOutBytes[i] = recs, bytes
				mapCosts[i] = cost.mapTask(in.Splits[i], bytes)
			})
		case slotRed != nil && job.Combiner != nil && job.Partition == nil:
			if partials, rowWidth, err = e.foldInto(im, slotRed, job, in, homes, m); partials != nil {
				intoDone = true
				route = e.Family.route(job.Into.Schema(), numReducers)
				valueSize := slotRed.valueSize(rowWidth)
				for i, p := range partials {
					mapOutRecords[i], mapOutBytes[i] = p.records, p.bytes
					mapCosts[i] = cost.mapTask(in.Splits[i], p.bytes)
					route.partition(p, valueSize, partSizes[i], partRecs[i])
				}
			}
		}
		if err != nil {
			return nil, Metrics{}, err
		}
	}

	// ---- Map phase: execute user code per split, partition and
	// combine the output.
	mapSplit := func(i int) {
		split := in.Splits[i]
		em := getEmitter()
		if err := em.mapAll(job.Mapper, split.Records, m); err != nil {
			errs[i] = fmt.Errorf("job %q map task %d: %w", job.Name, i, err)
			return
		}
		outBytes := RecordsSize(em.records)
		mapOutBytes[i] = outBytes
		mapOutRecords[i] = int64(len(em.records))
		mapCosts[i] = cost.mapTask(split, outBytes)

		if numReducers == 0 {
			// The emitted records are the task's output, kept until the
			// job delivers it.
			mapOnlyOut[i] = em
			return
		}
		parts, err := PartitionAndCombine(job.Combiner, em.records, m, numReducers, partition)
		putEmitter(em)
		if err != nil {
			errs[i] = fmt.Errorf("job %q combine task %d: %w", job.Name, i, err)
			return
		}
		partitionSizes(parts, partSizes[i], partRecs[i])
		mapParts[i] = parts
	}
	if !intoDone {
		e.parallelFor(nSplits, mapSplit)
	}
	for _, err := range errs {
		if err != nil {
			return nil, Metrics{}, err
		}
	}
	for i := range mapOutBytes {
		metrics.MapOutputBytes += mapOutBytes[i]
		metrics.MapOutputRecords += mapOutRecords[i]
	}

	// ---- Schedule map tasks (with failure re-execution).
	tasks := make([]simcluster.Task, nSplits)
	for i := range in.Splits {
		tasks[i] = simcluster.Task{Cost: mapCosts[i], Preferred: homes[i]}
		if e.FailEveryNthMapTask > 0 && (i+1)%e.FailEveryNthMapTask == 0 {
			// The failed attempt's work is lost and the re-execution
			// runs after it, so the task occupies a slot for twice its
			// cost — Hadoop-style recovery without result corruption.
			tasks[i].Cost *= 2
			metrics.TaskRetries++
		}
		if e.StraggleEveryNthMapTask > 0 && (i+1)%e.StraggleEveryNthMapTask == 0 {
			slowdown := e.StragglerSlowdown
			if slowdown == 0 { // validateConfig guarantees 0 or >= 1
				slowdown = 4
			}
			metrics.StragglerTasks++
			if e.SpeculativeExecution {
				// A backup copy launches once the task is observed
				// lagging; the winner finishes ≈30% late.
				tasks[i].Cost *= 1.3
				metrics.SpeculativeTasks++
			} else {
				tasks[i].Cost *= slowdown
			}
		}
	}
	var placements []simcluster.Placement
	var mapMakespan simtime.Duration
	if plan != nil || len(cut) > 0 {
		var killed int
		var err error
		placements, mapMakespan, killed, err = e.cluster.ScheduleFailureAware(tasks, e.cluster.Config().MapSlotsPerNode, start+cost.JobOverhead, cut)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q map wave: %w", job.Name, err)
		}
		metrics.RescheduledTasks += killed
	} else {
		placements, mapMakespan = e.cluster.Schedule(tasks, e.cluster.Config().MapSlotsPerNode)
	}
	metrics.MapTasks = nSplits

	// Non-local tasks pull their split from its home node.
	var inputFlows []simnet.Flow
	// splitNode records where each split's map task ran; shuffle flows
	// originate there.
	splitNode := make([]int, nSplits)
	for i, p := range placements {
		splitNode[i] = p.Node
		if !p.Local && homes[i] >= 0 {
			inputFlows = append(inputFlows, simnet.Flow{Src: homes[i], Dst: p.Node, Bytes: in.Splits[i].Bytes})
			metrics.NonLocalInputBytes += in.Splits[i].Bytes
		}
	}
	inputRes, err := e.transferAt(inputFlows, start+cost.JobOverhead)
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("job %q input fetch: %w", job.Name, err)
	}
	chargeRetries(&metrics, inputRes, &metrics.NonLocalInputBytes)
	metrics.MapPhase = max(mapMakespan, inputRes.Elapsed)

	// ---- Model distribution: every node running a task needs the
	// current model (Hadoop distributed cache: one copy per node).
	if m != nil && m.Len() > 0 {
		nodesNeeding := map[int]bool{}
		for _, p := range placements {
			nodesNeeding[p.Node] = true
		}
		// Reduce nodes are chosen below, but every node in the view is
		// a potential reduce node; distribute wherever map tasks run
		// now and charge reduce-node distribution after placement.
		metrics.ModelPhase, err = e.distributeModel(m, nodesNeeding, job.PartitionedModel, dead, cut, start+cost.JobOverhead, &metrics)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q model distribution: %w", job.Name, err)
		}
	}

	// ---- Map-only jobs stop here.
	if numReducers == 0 {
		out := deliverMapOnly(job, mapOnlyOut)
		metrics.OutputRecords = metrics.MapOutputRecords
		metrics.OutputBytes = metrics.MapOutputBytes
		metrics.Duration = metrics.OverheadPhase + metrics.ModelPhase + metrics.MapPhase
		e.observe(metrics, start)
		return out, metrics, nil
	}

	// ---- Reduce phase: group and execute. Each reduce task reads its
	// partitions where the map tasks left them; their sizes and counts
	// come from the tables filled during the map phase.
	reduceValues := make([]int64, numReducers)
	nFlows := 0 // the non-empty partitions, one shuffle flow each
	for i := 0; i < nSplits; i++ {
		for p := 0; p < numReducers; p++ {
			metrics.ShuffleBytes += partSizes[i][p]
			metrics.ShuffleRecords += partRecs[i][p]
			reduceValues[p] += partRecs[i][p]
			if partSizes[i][p] != 0 {
				nFlows++
			}
		}
	}

	reduceOut := make([][]Record, numReducers)
	reduceOutBytes := make([]int64, numReducers)
	nOut := 0
	if partials != nil {
		nOut = reduceInto(partials, rowWidth, route, slotRed, job.Into, reduceOutBytes)
		putPartials(partials)
	} else {
		rerrs := make([]error, numReducers)
		e.parallelFor(numReducers, func(p int) {
			// The task's input is one run per map task, read where the
			// map phase left it. Nothing is assumed about the runs' order
			// (a re-keying combiner, or none, leaves them unsorted): the
			// group step sorts whatever it is given.
			s := getScratch()
			defer s.release()
			for i := 0; i < nSplits; i++ {
				s.addRun(mapParts[i][p])
			}
			out, err := s.reduceRuns(job.Reducer, m)
			if err != nil {
				rerrs[p] = fmt.Errorf("job %q reduce task %d: %w", job.Name, p, err)
				return
			}
			reduceOut[p] = out
			reduceOutBytes[p] = RecordsSize(out)
		})
		for _, err := range rerrs {
			if err != nil {
				return nil, Metrics{}, err
			}
		}
		for p := range reduceOut {
			nOut += len(reduceOut[p])
		}
	}

	rTasks := make([]simcluster.Task, numReducers)
	for p := range rTasks {
		rTasks[p] = simcluster.Task{Cost: cost.reduceTask(reduceValues[p], reduceOutBytes[p]), Preferred: -1}
	}
	var rPlacements []simcluster.Placement
	var reduceMakespan simtime.Duration
	rStart := start + metrics.OverheadPhase + metrics.ModelPhase + metrics.MapPhase
	if plan != nil || len(cut) > 0 {
		// The reduce wave starts once map output and the model are in
		// place; crashes inside the wave reschedule reduce attempts.
		var killed int
		var err error
		rPlacements, reduceMakespan, killed, err = e.cluster.ScheduleFailureAware(rTasks, e.cluster.Config().ReduceSlotsPerNode, rStart, cut)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q reduce wave: %w", job.Name, err)
		}
		metrics.RescheduledTasks += killed
	} else {
		rPlacements, reduceMakespan = e.cluster.Schedule(rTasks, e.cluster.Config().ReduceSlotsPerNode)
	}
	metrics.ReduceTasks = numReducers
	metrics.ReducePhase = reduceMakespan
	for _, v := range reduceValues {
		metrics.ReduceInputValues += v
	}

	// Model distribution to reduce nodes that did not run map tasks.
	if m != nil && m.Len() > 0 {
		nodesNeeding := map[int]bool{}
		for _, p := range placements {
			nodesNeeding[p.Node] = false // already have it
		}
		extra := map[int]bool{}
		for _, p := range rPlacements {
			if _, have := nodesNeeding[p.Node]; !have {
				extra[p.Node] = true
			}
		}
		extraModel, err := e.distributeModel(m, extra, job.PartitionedModel, dead, cut, rStart, &metrics)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("job %q model distribution: %w", job.Name, err)
		}
		metrics.ModelPhase += extraModel
	}

	// ---- Shuffle: post-combine partitions travel from the node each
	// map task ran on to the node its reduce task runs on.
	shuffleFlows := make([]simnet.Flow, 0, nFlows)
	for i := 0; i < nSplits; i++ {
		for p := 0; p < numReducers; p++ {
			sz := partSizes[i][p]
			if sz == 0 {
				continue
			}
			src, dst := splitNode[i], rPlacements[p].Node
			if src != dst {
				metrics.ShuffleNetworkBytes += sz
				if fabric.Rack(src) != fabric.Rack(dst) {
					metrics.ShuffleCrossRackBytes += sz
				}
			}
			shuffleFlows = append(shuffleFlows, simnet.Flow{Src: src, Dst: dst, Bytes: sz})
		}
	}
	shuffleRes, err := e.transferAt(shuffleFlows, rStart)
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("job %q shuffle: %w", job.Name, err)
	}
	chargeRetries(&metrics, shuffleRes, &metrics.ShuffleNetworkBytes)
	metrics.ShuffleCrossRackBytes += shuffleRes.RetryCrossRack
	metrics.ShufflePhase = shuffleRes.Elapsed * simtime.Duration(1-cost.ShuffleOverlap)

	nodes := make([]int, numReducers)
	for p := range nodes {
		nodes[p] = rPlacements[p].Node
		metrics.OutputBytes += reduceOutBytes[p]
	}
	var out *Output
	if partials != nil {
		out = &Output{ReducerNodes: nodes}
	} else {
		out = job.Deliver(reduceOut, nodes)
	}
	metrics.OutputRecords = int64(nOut)
	metrics.Duration = metrics.OverheadPhase + metrics.ModelPhase + metrics.MapPhase +
		metrics.ShufflePhase + metrics.ReducePhase
	e.observe(metrics, start)
	return out, metrics, nil
}

// observe folds one framework job's metrics into the engine's registry:
// cumulative per-phase counters plus series samples stamped at the job's
// simulated end time, so phase weight can be read over the run.
func (e *Engine) observe(m Metrics, start simtime.Time) {
	if e.Obs == nil {
		return
	}
	end := start + simtime.Time(m.Duration)
	e.Obs.Counter("mapred.jobs").Add(float64(m.Jobs))
	for _, p := range []struct {
		name string
		d    simtime.Duration
	}{
		{"map", m.MapPhase},
		{"shuffle", m.ShufflePhase},
		{"reduce", m.ReducePhase},
		{"model", m.ModelPhase},
		{"overhead", m.OverheadPhase},
	} {
		e.Obs.Counter("mapred.phase_seconds", metrics.L("phase", p.name)...).Add(float64(p.d))
	}
	e.Obs.Counter("mapred.shuffle_network_bytes").Add(float64(m.ShuffleNetworkBytes))
	e.Obs.Counter("mapred.shuffle_cross_rack_bytes").Add(float64(m.ShuffleCrossRackBytes))
	e.Obs.Counter("mapred.model_bytes").Add(float64(m.ModelBytes))
	if m.TransferRetries > 0 || m.RetryBytes > 0 {
		e.Obs.Counter("retry.transfers").Add(float64(m.TransferRetries))
		e.Obs.Counter("retry.bytes").Add(float64(m.RetryBytes))
	}
	e.Obs.Series("mapred.job_seconds").Sample(end, float64(m.Duration))
	e.Obs.Series("mapred.shuffle_seconds").Sample(end, float64(m.ShufflePhase))
}

// observeLocal records an in-memory execution: local jobs have no
// absolute clock or network phases, so only counters apply.
func (e *Engine) observeLocal(m Metrics) {
	if e.Obs == nil {
		return
	}
	e.Obs.Counter("mapred.local_jobs").Add(float64(m.LocalJobs))
	e.Obs.Counter("mapred.local_records").Add(float64(m.LocalRecords))
	// Local map/reduce compute lands in the same phase counters the
	// framework path uses, so the registry's phase totals stay equal to
	// the driver's Metrics accumulator.
	e.Obs.Counter("mapred.phase_seconds", metrics.L("phase", "map")...).Add(float64(m.MapPhase))
	e.Obs.Counter("mapred.phase_seconds", metrics.L("phase", "reduce")...).Add(float64(m.ReducePhase))
}

// distributeModel charges delivery of m to the given nodes (map values
// that are false are skipped) from the model's replica nodes at
// simulated time at, and returns the transfer time. When partitioned
// is true, each node pulls only its share of the model; otherwise
// every node receives a full copy. Dead nodes and nodes cut off by a
// network fault (both nil when nothing is scripted) never serve as
// sources.
func (e *Engine) distributeModel(m *model.Model, nodes map[int]bool, partitioned bool, dead, cut map[int]bool, at simtime.Time, metrics *Metrics) (simtime.Duration, error) {
	size := m.Size()
	view := e.cluster.Nodes()
	if len(dead) > 0 || len(cut) > 0 {
		live := make([]int, 0, len(view))
		for _, n := range view {
			if !dead[n] && !cut[n] {
				live = append(live, n)
			}
		}
		view = live
	}
	nSources := e.ModelSources
	if nSources < 1 {
		nSources = 1
	}
	if nSources > len(view) {
		nSources = len(view)
	}
	// Replica nodes: the model home plus its successors in the view,
	// mirroring the DFS write pipeline's placement. A crashed home
	// falls back to the first live node.
	homeIdx := 0
	for i, n := range view {
		if n == e.ModelHome {
			homeIdx = i
			break
		}
	}
	sources := make([]int, nSources)
	isSource := map[int]bool{}
	for i := range sources {
		sources[i] = view[(homeIdx+i)%len(view)]
		isSource[sources[i]] = true
	}

	var flows []simnet.Flow
	targets := make([]int, 0, len(nodes))
	for n, need := range nodes {
		if need {
			targets = append(targets, n)
		}
	}
	sort.Ints(targets)
	perNode := size
	if partitioned && len(targets) > 0 {
		perNode = size / int64(len(targets))
	}
	for i, n := range targets {
		if isSource[n] {
			continue
		}
		flows = append(flows, simnet.Flow{Src: sources[i%nSources], Dst: n, Bytes: perNode})
		metrics.ModelBytes += perNode
	}
	res, err := e.transferAt(flows, at)
	if err != nil {
		return 0, err
	}
	chargeRetries(metrics, res, &metrics.ModelBytes)
	return res.Elapsed, nil
}

// parallelFor runs worker(i) for i in [0,n) on a bounded pool. Output
// slots are indexed, so results are deterministic regardless of
// interleaving. Work is handed out in index ranges rather than single
// indices, so tiny tasks do not pay one channel operation each. A panic
// in any worker is re-raised on the calling goroutine after the pool
// drains.
func (e *Engine) parallelFor(n int, worker func(int)) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			worker(i)
		}
		return
	}
	// ~4 chunks per worker balances scheduling slack against channel
	// traffic; a chunk is never smaller than one index.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	type span struct{ lo, hi int }
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	next := make(chan span)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				func() {
					// Recover so the feeder never blocks on a dead
					// pool; the first panic is re-raised by the caller.
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicVal = r })
						}
					}()
					for i := s.lo; i < s.hi; i++ {
						worker(i)
					}
				}()
			}
		}()
	}
	for lo := 0; lo < n; lo += chunk {
		next <- span{lo, min(lo+chunk, n)}
	}
	close(next)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// String renders the metrics as a compact multi-line report.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "duration %.3fs (map %.3fs, shuffle %.3fs, reduce %.3fs, model %.3fs, overhead %.3fs)\n",
		float64(m.Duration), float64(m.MapPhase), float64(m.ShufflePhase),
		float64(m.ReducePhase), float64(m.ModelPhase), float64(m.OverheadPhase))
	fmt.Fprintf(&sb, "jobs %d (+%d local), tasks %d map / %d reduce, retries %d, stragglers %d (%d speculated)\n",
		m.Jobs, m.LocalJobs, m.MapTasks, m.ReduceTasks, m.TaskRetries, m.StragglerTasks, m.SpeculativeTasks)
	fmt.Fprintf(&sb, "records: %d in, %d map-out, %d shuffled, %d reduced, %d out\n",
		m.InputRecords, m.MapOutputRecords, m.ShuffleRecords, m.ReduceInputValues, m.OutputRecords)
	fmt.Fprintf(&sb, "bytes: %d map-out, %d shuffled (%d network, %d cross-rack), %d model-dist, %d out\n",
		m.MapOutputBytes, m.ShuffleBytes, m.ShuffleNetworkBytes, m.ShuffleCrossRackBytes,
		m.ModelBytes, m.OutputBytes)
	if m.NodeCrashes > 0 || m.RescheduledTasks > 0 || m.ReReplicationBytes > 0 {
		fmt.Fprintf(&sb, "faults: %d node crashes, %d rescheduled tasks, %d re-replication bytes\n",
			m.NodeCrashes, m.RescheduledTasks, m.ReReplicationBytes)
	}
	if m.TransferRetries > 0 || m.RetryBytes > 0 {
		fmt.Fprintf(&sb, "network faults: %d transfer retries, %d retry bytes\n",
			m.TransferRetries, m.RetryBytes)
	}
	return sb.String()
}
