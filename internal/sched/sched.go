// Package sched is a deterministic, simulated-clock workload scheduler:
// it admits many named jobs — each a full IC or PIC run from
// internal/core, or a synthetic background load — onto ONE shared
// simcluster/simnet, so concurrent jobs genuinely contend for the
// cluster the way the PIC paper's production setting implies.
//
// Jobs run on disjoint node subsets of the shared cluster, but their
// traffic meets in the one fabric: while a job executes an iteration,
// every other resident job's measured footprint is registered as a
// co-tenant load (simnet.TenantLoad + simcluster tenant compute), so
// the iteration sees only the residual capacity. The scheduler advances
// a single global simulated clock, interleaving jobs at iteration
// boundaries via core.Stepper — which is also where preemption happens:
// a preempted job finishes its current iteration, yields its nodes, and
// resumes later on the same nodes (its DFS blocks live there).
//
// Everything is deterministic: events at equal times process in
// submission order, co-tenant aggregates are summed in sorted-tenant
// order, and no wall-clock time or map-iteration order ever reaches a
// decision. The same submission set yields byte-identical metrics and
// traces at any engine parallelism.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Policy selects how queued jobs are ordered for dispatch.
type Policy string

const (
	// FIFO dispatches in submission order (with backfill: a job that
	// does not fit is skipped, not a barrier).
	FIFO Policy = "fifo"
	// FairShare orders tenants by virtual usage — accumulated
	// node-seconds divided by the tenant's weight — so light tenants
	// get in ahead of heavy ones.
	FairShare Policy = "fair"
	// Capacity is FIFO plus a per-tenant cap on nodes in use: a job
	// that would push its tenant over the cap waits.
	Capacity Policy = "capacity"
)

// Config tunes the scheduler.
type Config struct {
	// Policy defaults to FIFO.
	Policy Policy
	// MaxRunning caps concurrently running jobs (0 = unlimited).
	MaxRunning int
	// MaxQueued caps the admission queue; a job submitted while the
	// queue is full is rejected with an AdmissionError (0 = unlimited).
	MaxQueued int
	// Preemption lets a queued job with strictly higher Priority force
	// lower-priority running jobs to yield their nodes at the next
	// iteration boundary.
	Preemption bool
	// TenantWeights are FairShare weights (default 1 per tenant).
	TenantWeights map[string]float64
	// TenantNodeCap is the Capacity policy's per-tenant node budget; a
	// missing or zero entry means unlimited.
	TenantNodeCap map[string]int
	// FS configures each job's file system (zero value: dfs defaults).
	FS dfs.Config
}

// JobSpec describes one submission. Exactly one of Start and Load must
// be set: Start builds a resumable IC/PIC run over the runtime the
// scheduler provisions on the job's nodes; Load is a synthetic
// background tenant with a fixed resource footprint.
type JobSpec struct {
	// Tenant names the submitting tenant (metrics are labeled by it).
	Tenant string
	// Name labels the job within its tenant.
	Name string
	// Priority orders preemption: higher preempts lower (default 0).
	Priority int
	// Nodes is how many cluster nodes the job needs.
	Nodes int
	// Submit is when the job enters the admission queue.
	Submit simtime.Time
	// Start builds the job's stepper over a runtime bound to its node
	// subset. The callback may configure the engine (cost model, knobs)
	// before building the stepper.
	Start func(rt *core.Runtime) (core.Stepper, error)
	// Restarts is how many times a failed step is answered by
	// re-invoking Start over the job's existing runtime (same nodes,
	// same DFS — so a PIC stepper built with ResumeFromCheckpoint picks
	// up its last "-be" checkpoint) instead of retiring the job. The
	// driver-restart half of the fault story: a run a network partition
	// killed resumes from its last merged model once the fault passes.
	Restarts int
	// Load describes a synthetic background occupancy instead.
	Load *Load
}

// Load is a fixed-footprint background tenant: for Duration of
// simulated time it consumes the given capacity fractions on the nodes
// the scheduler assigns it, slowing co-resident jobs down.
type Load struct {
	// Duration is how long the load stays resident once started.
	Duration simtime.Duration
	// Compute is the per-node compute fraction consumed on its nodes.
	Compute float64
	// NodeUp and NodeDown are per-node NIC fractions on its nodes.
	NodeUp, NodeDown float64
	// RackUp and RackDown are uplink fractions on the racks its nodes
	// occupy.
	RackUp, RackDown float64
	// Core is the core bisection fraction consumed.
	Core float64
}

// State is a job's lifecycle position.
type State string

const (
	StatePending   State = "pending"   // submitted, before its Submit time
	StateQueued    State = "queued"    // admitted, waiting for nodes
	StateRunning   State = "running"   // resident on the cluster
	StateSuspended State = "suspended" // preempted at an iteration boundary
	StateDone      State = "done"      // finished (Err records a failure)
	StateRejected  State = "rejected"  // refused at admission
)

// AdmissionError is the typed rejection the scheduler records when a
// submission cannot be admitted.
type AdmissionError struct {
	Tenant, Job, Reason string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sched: %s/%s rejected: %s", e.Tenant, e.Job, e.Reason)
}

// JobResult reports one job's outcome.
type JobResult struct {
	Tenant, Name string
	State        State
	// Err is the admission error or run error, nil on success.
	Err error
	// Submit, Start and End are global simulated times; Start is zero
	// for jobs that never dispatched.
	Submit, Start, End simtime.Time
	// Wait is time spent in the admission queue plus time suspended.
	Wait simtime.Duration
	// Busy is simulated time spent executing iterations (or resident,
	// for loads).
	Busy simtime.Duration
	// Steps counts executed iterations; Preemptions counts yields;
	// Restarts counts error-triggered driver restarts actually used.
	Steps       int
	Preemptions int
	Restarts    int
	// Nodes is the node subset the job ran on.
	Nodes []int
}

// footprint is the co-tenant occupancy one resident job imposes on the
// shared cluster while another job executes.
type footprint struct {
	net     simnet.TenantLoad
	compute map[int]float64
}

// job is the scheduler's per-submission state.
type job struct {
	spec JobSpec
	idx  int // submission order; the deterministic tie-break everywhere

	state   State
	nodes   []int
	view    *simcluster.Cluster
	rt      *core.Runtime
	stepper core.Stepper
	foot    *footprint

	// readyAt is the job's next event on the global clock: step start
	// for a running job, expiry for a load, completion when finished.
	readyAt    simtime.Time
	finished   bool
	preemptReq bool

	start, end  simtime.Time
	waitFrom    simtime.Time
	wait        simtime.Duration
	busy        simtime.Duration
	steps       int
	preemptions int
	restarts    int
	err         error
	span        int64
}

func (j *job) key() string {
	return fmt.Sprintf("%s/%s#%d", j.spec.Tenant, j.spec.Name, j.idx)
}

// maxStepsPerJob is a runaway guard: a stepper that keeps reporting
// not-done without consuming simulated time would otherwise spin the
// event loop forever.
const maxStepsPerJob = 1 << 20

// Scheduler multiplexes submitted jobs onto one shared cluster.
type Scheduler struct {
	cfg     Config
	cluster *simcluster.Cluster
	obs     *metrics.Registry
	tracer  *trace.Tracer

	jobs []*job
	free []int // sorted free global node ids
	now  simtime.Time
	// tenantUsage is FairShare's accumulator: node-seconds consumed.
	tenantUsage map[string]float64
}

// New builds a scheduler over the full-cluster view. Jobs are submitted
// with Submit and executed by Run.
func New(cluster *simcluster.Cluster, cfg Config) *Scheduler {
	if cfg.Policy == "" {
		cfg.Policy = FIFO
	}
	if cfg.FS == (dfs.Config{}) {
		cfg.FS = dfs.DefaultConfig()
	}
	return &Scheduler{
		cfg:         cfg,
		cluster:     cluster,
		free:        append([]int(nil), cluster.Nodes()...),
		tenantUsage: map[string]float64{},
	}
}

// SetObservability attaches a metrics registry for per-tenant counters
// and queue series. A nil registry records nothing.
func (s *Scheduler) SetObservability(r *metrics.Registry) { s.obs = r }

// Observability returns the attached registry.
func (s *Scheduler) Observability() *metrics.Registry { return s.obs }

// SetTracer attaches a tracer; scheduler spans and every job's internal
// timeline land on it, stamped on the global clock.
func (s *Scheduler) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the attached tracer.
func (s *Scheduler) Tracer() *trace.Tracer { return s.tracer }

// Submit registers a job for admission at spec.Submit. It panics on a
// spec that is structurally unusable (no Start and no Load, or both);
// resource-level rejections are reported through JobResult instead.
func (s *Scheduler) Submit(spec JobSpec) {
	if (spec.Start == nil) == (spec.Load == nil) {
		panic("sched: JobSpec needs exactly one of Start and Load")
	}
	if spec.Load != nil {
		if spec.Load.Duration <= 0 {
			panic("sched: Load.Duration must be positive")
		}
		for _, v := range []float64{spec.Load.Compute, spec.Load.NodeUp, spec.Load.NodeDown,
			spec.Load.RackUp, spec.Load.RackDown, spec.Load.Core} {
			if v != v || v < 0 || v > 1 {
				panic(fmt.Sprintf("sched: load fraction %g outside [0, 1]", v))
			}
		}
	}
	s.jobs = append(s.jobs, &job{spec: spec, idx: len(s.jobs), state: StatePending})
}

// tenantCounter returns the named counter labeled with the job's tenant.
func (s *Scheduler) tenantCounter(name, tenant string) metrics.Counter {
	return s.obs.Counter(name, metrics.L("tenant", tenant)...)
}

// Run executes every submitted job to completion (or rejection) and
// returns the results in submission order. It errors only when the
// workload can make no further progress — a configuration bug, since
// unsatisfiable submissions are rejected at admission.
func (s *Scheduler) Run() ([]JobResult, error) {
	for {
		t, any := s.nextEvent()
		if !any {
			break
		}
		s.now = t
		s.admitAt(t)
		s.settleAt(t)
		if err := s.stepAt(t); err != nil {
			return nil, err
		}
		s.dispatchAt(t)
		s.sample(t)
	}
	s.cluster.Fabric().ClearAllTenantLoads()
	s.cluster.ClearAllTenantCompute()
	for _, j := range s.jobs {
		if j.state != StateDone && j.state != StateRejected {
			return nil, fmt.Errorf("sched: stalled with %s in state %s", j.key(), j.state)
		}
	}
	if s.obs != nil {
		s.obs.Gauge("sched.makespan_seconds").Set(float64(s.now))
	}
	results := make([]JobResult, len(s.jobs))
	for i, j := range s.jobs {
		results[i] = JobResult{
			Tenant: j.spec.Tenant, Name: j.spec.Name, State: j.state, Err: j.err,
			Submit: j.spec.Submit, Start: j.start, End: j.end,
			Wait: j.wait, Busy: j.busy, Steps: j.steps, Preemptions: j.preemptions,
			Restarts: j.restarts, Nodes: j.nodes,
		}
	}
	return results, nil
}

// nextEvent finds the earliest pending global time: a submission, or a
// running job's readyAt.
func (s *Scheduler) nextEvent() (simtime.Time, bool) {
	var t simtime.Time
	any := false
	consider := func(c simtime.Time) {
		if !any || c < t {
			t, any = c, true
		}
	}
	for _, j := range s.jobs {
		switch j.state {
		case StatePending:
			consider(j.spec.Submit)
		case StateRunning:
			consider(j.readyAt)
		}
	}
	return t, any
}

// admitAt moves jobs whose Submit time has arrived into the queue,
// rejecting unsatisfiable or over-quota submissions.
func (s *Scheduler) admitAt(t simtime.Time) {
	for _, j := range s.jobs {
		if j.state != StatePending || j.spec.Submit > t {
			continue
		}
		if s.obs != nil {
			s.tenantCounter("sched.jobs_submitted", j.spec.Tenant).Add(1)
		}
		if reason := s.admissible(j); reason != "" {
			j.state = StateRejected
			j.err = &AdmissionError{Tenant: j.spec.Tenant, Job: j.spec.Name, Reason: reason}
			j.end = t
			if s.obs != nil {
				s.tenantCounter("sched.jobs_rejected", j.spec.Tenant).Add(1)
			}
			continue
		}
		j.state = StateQueued
		j.waitFrom = t
	}
}

// admissible screens a submission, returning a rejection reason or "".
func (s *Scheduler) admissible(j *job) string {
	if j.spec.Nodes < 1 {
		return "requests no nodes"
	}
	if j.spec.Nodes > s.cluster.Size() {
		return fmt.Sprintf("requests %d nodes, cluster has %d", j.spec.Nodes, s.cluster.Size())
	}
	if cap := s.cfg.TenantNodeCap[j.spec.Tenant]; s.cfg.Policy == Capacity && cap > 0 && j.spec.Nodes > cap {
		return fmt.Sprintf("requests %d nodes, tenant capacity is %d", j.spec.Nodes, cap)
	}
	if s.cfg.MaxQueued > 0 {
		queued := 0
		for _, o := range s.jobs {
			if o.state == StateQueued {
				queued++
			}
		}
		if queued >= s.cfg.MaxQueued {
			return fmt.Sprintf("admission queue full (%d queued)", queued)
		}
	}
	return ""
}

// settleAt processes iteration boundaries that land at t: jobs whose
// run finished complete, and jobs marked for preemption yield.
func (s *Scheduler) settleAt(t simtime.Time) {
	for _, j := range s.jobs {
		if j.state != StateRunning || j.readyAt != t {
			continue
		}
		switch {
		case j.finished:
			s.complete(j, t)
		case j.preemptReq:
			s.suspend(j, t)
		}
	}
}

// stepAt executes one iteration for every running job due at t, in
// submission order.
func (s *Scheduler) stepAt(t simtime.Time) error {
	for _, j := range s.jobs {
		if j.state != StateRunning || j.readyAt != t || j.finished || j.spec.Load != nil {
			continue
		}
		if err := s.step(j, t); err != nil {
			return err
		}
	}
	return nil
}

// step runs one iteration of j with every other resident job's
// footprint registered as co-tenant load.
func (s *Scheduler) step(j *job, t simtime.Time) error {
	if j.steps >= maxStepsPerJob {
		return fmt.Errorf("sched: %s exceeded %d steps without finishing", j.key(), maxStepsPerJob)
	}
	s.applyLoads(j)
	j.rt.SetTimeOrigin(t)

	fabric := s.cluster.Fabric()
	utilBefore := fabric.Utilization()
	usageBefore := s.cluster.Usage()
	elapsedBefore := j.rt.Elapsed()

	done, err := j.stepper.Step()
	d := j.rt.Elapsed() - elapsedBefore
	j.busy += d
	j.steps++
	// Converted so the compiler cannot fuse multiply and add: arm64
	// would, and tenant shares would depend on the host.
	s.tenantUsage[j.spec.Tenant] += float64(float64(d) * float64(len(j.nodes)))
	j.readyAt = t + simtime.Time(d)
	if err != nil {
		// Driver restart: rebuild the stepper over the same runtime —
		// same nodes, same DFS, same clock — so checkpointed state
		// survives. The rebuilt stepper re-enters the event loop at the
		// failed step's boundary time.
		if j.restarts < j.spec.Restarts {
			j.restarts++
			// The restarted driver must not trust caches warmed by the
			// failed run: release them so the rebuilt stepper re-stages
			// from the (checkpointed) source of truth.
			j.rt.ReleaseLoopCache()
			stepper, rerr := j.spec.Start(j.rt)
			if rerr == nil {
				j.stepper = stepper
				if s.obs != nil {
					s.tenantCounter("sched.restarts", j.spec.Tenant).Add(1)
				}
				s.tracer.Record(trace.Event{
					Kind: trace.KindCheckpoint, Name: j.key() + ": driver restarted",
					Start: j.readyAt, End: j.readyAt,
				})
				return nil
			}
			err = fmt.Errorf("sched: %s restart: %w", j.key(), rerr)
		}
		j.err = err
		j.finished = true
		return nil
	}
	if d > 0 {
		j.foot = measureFootprint(utilBefore, fabric.Utilization(), usageBefore, s.cluster.Usage(),
			j.nodes, s.cluster.Config(), d)
	}
	if done {
		j.finished = true
	}
	return nil
}

// applyLoads registers the footprints of every resident job except j as
// co-tenant loads on the shared fabric and cluster, replacing any
// previous registration. Jobs are applied in submission order; the
// fabric re-sums per sorted tenant key, so the aggregate is independent
// of this order anyway.
func (s *Scheduler) applyLoads(j *job) {
	fabric := s.cluster.Fabric()
	fabric.ClearAllTenantLoads()
	s.cluster.ClearAllTenantCompute()
	for _, o := range s.jobs {
		if o == j || o.state != StateRunning || o.foot == nil {
			continue
		}
		fabric.SetTenantLoad(o.key(), o.foot.net)
		s.cluster.SetTenantCompute(o.key(), o.foot.compute)
	}
}

// measureFootprint converts the utilization a job's iteration added to
// the shared accumulators into sustained capacity fractions: busy
// seconds over the iteration's duration, clamped to [0, 1]. This is the
// occupancy co-resident jobs will see while this job runs its next
// iteration.
func measureFootprint(utilBefore, utilAfter simnet.Utilization,
	usageBefore, usageAfter simcluster.Usage,
	nodes []int, cfg simcluster.Config, d simtime.Duration) *footprint {
	share := func(busyAfter, busyBefore simtime.Duration) float64 {
		v := float64(busyAfter-busyBefore) / float64(d)
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	f := &footprint{
		net: simnet.TenantLoad{
			NodeUp:   map[int]float64{},
			NodeDown: map[int]float64{},
			RackUp:   map[int]float64{},
			RackDown: map[int]float64{},
		},
		compute: map[int]float64{},
	}
	racks := map[int]bool{}
	for _, n := range nodes {
		if v := share(utilAfter.NodeUp[n], utilBefore.NodeUp[n]); v > 0 {
			f.net.NodeUp[n] = v
		}
		if v := share(utilAfter.NodeDown[n], utilBefore.NodeDown[n]); v > 0 {
			f.net.NodeDown[n] = v
		}
		// A node's slots all running for the whole iteration is full
		// occupancy; slot busy time is per-slot, so normalize by the
		// map slot count.
		slotBusy := usageAfter.SlotBusy[n] - usageBefore.SlotBusy[n]
		if v := float64(slotBusy) / (float64(d) * float64(cfg.MapSlotsPerNode)); v > 0 {
			if v > 1 {
				v = 1
			}
			f.compute[n] = v
		}
		racks[n/cfg.RackSize] = true
	}
	rackIDs := make([]int, 0, len(racks))
	for r := range racks {
		rackIDs = append(rackIDs, r)
	}
	sort.Ints(rackIDs)
	for _, r := range rackIDs {
		if v := share(utilAfter.RackUp[r], utilBefore.RackUp[r]); v > 0 {
			f.net.RackUp[r] = v
		}
		if v := share(utilAfter.RackDown[r], utilBefore.RackDown[r]); v > 0 {
			f.net.RackDown[r] = v
		}
	}
	f.net.Core = share(utilAfter.Core, utilBefore.Core)
	return f
}

// loadFootprint builds the fixed footprint of a synthetic Load on its
// assigned nodes.
func loadFootprint(l *Load, nodes []int, rackSize int) *footprint {
	f := &footprint{
		net: simnet.TenantLoad{
			NodeUp:   map[int]float64{},
			NodeDown: map[int]float64{},
			RackUp:   map[int]float64{},
			RackDown: map[int]float64{},
			Core:     l.Core,
		},
		compute: map[int]float64{},
	}
	for _, n := range nodes {
		if l.NodeUp > 0 {
			f.net.NodeUp[n] = l.NodeUp
		}
		if l.NodeDown > 0 {
			f.net.NodeDown[n] = l.NodeDown
		}
		if l.Compute > 0 {
			f.compute[n] = l.Compute
		}
		r := n / rackSize
		if l.RackUp > 0 {
			f.net.RackUp[r] = l.RackUp
		}
		if l.RackDown > 0 {
			f.net.RackDown[r] = l.RackDown
		}
	}
	return f
}

// dispatchAt starts as much queued and suspended work as fits, looping
// until nothing more can start. Queued jobs dispatch first (in policy
// order), then suspended jobs resume: a preempted job must not reclaim
// its nodes ahead of the higher-priority work that displaced it. A
// suspended job resumes only onto its original node subset — its DFS
// blocks and partition data live there.
func (s *Scheduler) dispatchAt(t simtime.Time) {
	for progress := true; progress; {
		progress = false
		for _, j := range s.queuedInPolicyOrder() {
			if !s.canRun() {
				break
			}
			if !s.capacityOK(j) {
				continue
			}
			nodes := s.allocate(j.spec.Nodes)
			if nodes == nil {
				if s.cfg.Preemption {
					s.requestPreemption(j)
				}
				continue
			}
			s.dispatch(j, nodes, t)
			progress = true
		}
		for _, j := range s.jobs {
			if j.state == StateSuspended && s.canRun() && s.capacityOK(j) && s.nodesFree(j.nodes) {
				s.take(j.nodes)
				s.resume(j, t)
				progress = true
			}
		}
	}
}

// canRun checks the MaxRunning cap.
func (s *Scheduler) canRun() bool {
	if s.cfg.MaxRunning <= 0 {
		return true
	}
	running := 0
	for _, j := range s.jobs {
		if j.state == StateRunning {
			running++
		}
	}
	return running < s.cfg.MaxRunning
}

// capacityOK checks the Capacity policy's per-tenant node budget.
func (s *Scheduler) capacityOK(j *job) bool {
	if s.cfg.Policy != Capacity {
		return true
	}
	cap := s.cfg.TenantNodeCap[j.spec.Tenant]
	if cap <= 0 {
		return true
	}
	inUse := 0
	for _, o := range s.jobs {
		if o.state == StateRunning && o.spec.Tenant == j.spec.Tenant {
			inUse += len(o.nodes)
		}
	}
	return inUse+j.spec.Nodes <= cap
}

// queuedInPolicyOrder lists queued jobs in the order the policy wants
// them considered for dispatch.
func (s *Scheduler) queuedInPolicyOrder() []*job {
	var queued []*job
	for _, j := range s.jobs {
		if j.state == StateQueued {
			queued = append(queued, j)
		}
	}
	if s.cfg.Policy == FairShare {
		sort.SliceStable(queued, func(a, b int) bool {
			ua := s.virtualUsage(queued[a].spec.Tenant)
			ub := s.virtualUsage(queued[b].spec.Tenant)
			if ua != ub {
				return ua < ub
			}
			return queued[a].idx < queued[b].idx
		})
	}
	return queued
}

// virtualUsage is a tenant's accumulated node-seconds over its weight.
func (s *Scheduler) virtualUsage(tenant string) float64 {
	w := 1.0
	if v, ok := s.cfg.TenantWeights[tenant]; ok && v > 0 {
		w = v
	}
	return s.tenantUsage[tenant] / w
}

// allocate takes the n lowest free node ids, or nil if fewer are free.
func (s *Scheduler) allocate(n int) []int {
	if len(s.free) < n {
		return nil
	}
	nodes := append([]int(nil), s.free[:n]...)
	s.free = s.free[n:]
	return nodes
}

// take removes specific node ids from the free list; the caller has
// verified they are free.
func (s *Scheduler) take(nodes []int) {
	kept := s.free[:0]
	for _, f := range s.free {
		held := false
		for _, n := range nodes {
			if f == n {
				held = true
				break
			}
		}
		if !held {
			kept = append(kept, f)
		}
	}
	s.free = kept
}

// release returns node ids to the free list.
func (s *Scheduler) release(nodes []int) {
	s.free = append(s.free, nodes...)
	sort.Ints(s.free)
}

// nodesFree reports whether every listed node is currently free.
func (s *Scheduler) nodesFree(nodes []int) bool {
	for _, n := range nodes {
		i := sort.SearchInts(s.free, n)
		if i >= len(s.free) || s.free[i] != n {
			return false
		}
	}
	return true
}

// requestPreemption marks the lowest-priority running victims so the
// queued job can fit once they yield at their next iteration boundary.
// Synthetic loads are not preemptible (they model demand outside the
// scheduler's control) and suspended jobs hold no nodes.
func (s *Scheduler) requestPreemption(j *job) {
	var victims []*job
	for _, o := range s.jobs {
		if o.state == StateRunning && !o.preemptReq && o.spec.Load == nil &&
			o.spec.Priority < j.spec.Priority && !o.finished {
			victims = append(victims, o)
		}
	}
	// Lowest priority yields first; among equals the youngest goes.
	sort.SliceStable(victims, func(a, b int) bool {
		if victims[a].spec.Priority != victims[b].spec.Priority {
			return victims[a].spec.Priority < victims[b].spec.Priority
		}
		return victims[a].idx > victims[b].idx
	})
	need := j.spec.Nodes - len(s.free)
	for _, v := range s.jobs { // count nodes already yielding
		if v.state == StateRunning && v.preemptReq {
			need -= len(v.nodes)
		}
	}
	for _, v := range victims {
		if need <= 0 {
			return
		}
		v.preemptReq = true
		need -= len(v.nodes)
	}
}

// dispatch starts a queued job on freshly allocated nodes.
func (s *Scheduler) dispatch(j *job, nodes []int, t simtime.Time) {
	j.nodes = nodes
	j.view = s.cluster.Subset(nodes)
	j.state = StateRunning
	j.start = t
	j.readyAt = t
	s.chargeWait(j, t)
	j.span = s.tracer.NextID()
	if j.spec.Load != nil {
		j.foot = loadFootprint(j.spec.Load, nodes, s.cluster.Config().RackSize)
		j.readyAt = t + simtime.Time(j.spec.Load.Duration)
		j.busy = j.spec.Load.Duration
		// Converted, as in step, so no host fuses the product.
		s.tenantUsage[j.spec.Tenant] += float64(float64(j.spec.Load.Duration) * float64(len(nodes)))
		j.finished = true
		return
	}
	rt := core.NewRuntime(j.view, s.cfg.FS)
	rt.SetTracer(s.tracer)
	rt.SetObservability(s.obs)
	rt.SetLane(j.idx + 1)
	rt.SetTimeOrigin(t)
	j.rt = rt
	stepper, err := j.spec.Start(rt)
	if err != nil {
		j.err = fmt.Errorf("sched: %s start: %w", j.key(), err)
		j.finished = true
		return
	}
	j.stepper = stepper
}

// resume returns a suspended job to the cluster on its original nodes.
func (s *Scheduler) resume(j *job, t simtime.Time) {
	j.state = StateRunning
	j.readyAt = t
	s.chargeWait(j, t)
}

// chargeWait accounts the queue or suspension wait ending at t and
// records it on the timeline.
func (s *Scheduler) chargeWait(j *job, t simtime.Time) {
	if d := t - j.waitFrom; d > 0 {
		j.wait += simtime.Duration(d)
		if s.obs != nil {
			s.tenantCounter("sched.wait_seconds", j.spec.Tenant).Add(float64(d))
		}
		s.tracer.Record(trace.Event{
			Kind: trace.KindSchedWait, Name: j.key(),
			Start: j.waitFrom, End: t,
			Attrs: []trace.Attr{{Key: "tenant", Value: j.spec.Tenant}},
		})
	}
}

// suspend parks a running job at an iteration boundary, freeing its
// nodes for the preemptor. The job's loop-aware caches are released
// with the nodes — a preemptor gets the workers' memory too — and
// re-warm on first touch after resume (resume itself reattaches the
// family without re-staging anything).
func (s *Scheduler) suspend(j *job, t simtime.Time) {
	j.state = StateSuspended
	j.preemptReq = false
	j.preemptions++
	j.waitFrom = t
	j.foot = nil
	j.rt.ReleaseLoopCache()
	s.release(j.nodes)
	if s.obs != nil {
		s.tenantCounter("sched.preemptions", j.spec.Tenant).Add(1)
	}
	s.tracer.Record(trace.Event{
		Kind: trace.KindSchedPreempt, Name: j.key(),
		Start: t, End: t,
		Attrs: []trace.Attr{{Key: "tenant", Value: j.spec.Tenant}},
	})
}

// complete retires a finished job at t.
func (s *Scheduler) complete(j *job, t simtime.Time) {
	j.state = StateDone
	j.end = t
	j.foot = nil
	s.release(j.nodes)
	if s.obs != nil {
		s.tenantCounter("sched.jobs_completed", j.spec.Tenant).Add(1)
		s.tenantCounter("sched.busy_seconds", j.spec.Tenant).Add(float64(j.busy))
	}
	s.tracer.Record(trace.Event{
		Kind: trace.KindSchedJob, Name: j.key(),
		Start: j.start, End: t, ID: j.span,
		Attrs: []trace.Attr{{Key: "tenant", Value: j.spec.Tenant}},
	})
}

// sample records the queue and residency depth at t.
func (s *Scheduler) sample(t simtime.Time) {
	if s.obs == nil {
		return
	}
	queued, running := 0, 0
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	s.obs.Series("sched.queue_depth").Sample(t, float64(queued))
	s.obs.Series("sched.running").Sample(t, float64(running))
}
