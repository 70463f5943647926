package bsp

import (
	"fmt"
	"math"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// maxRestarts bounds crash-triggered restarts of one run; a failure
// plan that keeps killing nodes faster than the program can finish
// eventually surfaces as an error instead of looping forever.
const maxRestarts = 64

// DefaultMaxSupersteps bounds a single run when RunOptions.MaxSupersteps
// is zero — a safety net against programs that never reach global halt.
const DefaultMaxSupersteps = 10000

// Metrics accumulates one BSP run, including any crash-triggered
// restart attempts (restarted work cost real simulated time and is
// counted).
type Metrics struct {
	// Supersteps executed across all attempts; Restarts the number of
	// crash-triggered re-runs from superstep 0.
	Supersteps int
	Restarts   int
	// Vertices counts vertex Compute invocations summed over
	// supersteps; HaltedVotes the subset that voted to halt.
	Vertices    int64
	HaltedVotes int64
	// Messages counts sends before sender-side combining;
	// CombinedMessages after (equal when no combiner).
	Messages         int64
	CombinedMessages int64
	// MessageBytes is the wire size of all delivered messages;
	// MessageNetworkBytes the subset that crossed a node boundary, and
	// MessageCrossRackBytes the subset of that which crossed the core
	// switch.
	MessageBytes          int64
	MessageNetworkBytes   int64
	MessageCrossRackBytes int64
	// ModelBytes is model-distribution traffic to vertex home nodes.
	ModelBytes int64
	// CorruptResends counts payload transfers that arrived with a bad
	// checksum under the registered corruption plan and were re-sent;
	// CorruptResendBytes the traffic the corrupt arrivals carried (also
	// folded into the paying phase's byte counter).
	CorruptResends     int
	CorruptResendBytes int64
	// Phase breakdown of Duration.
	ComputePhase simtime.Duration
	MessagePhase simtime.Duration
	BarrierPhase simtime.Duration
	ModelPhase   simtime.Duration
	Duration     simtime.Duration
}

// Fold maps BSP metrics onto the mapred metrics schema so both backends
// feed the same accounting downstream: compute→map phase,
// messages→shuffle phase (and shuffle byte counters), barrier→overhead
// phase, model→model. Local runs fold like mapred local jobs.
func (m Metrics) Fold(local bool) mapred.Metrics {
	out := mapred.Metrics{Duration: m.Duration}
	if local {
		out.LocalJobs = 1
		out.LocalRecords = m.Vertices
		out.MapPhase = m.ComputePhase
		return out
	}
	out.Jobs = 1
	out.MapPhase = m.ComputePhase
	out.ShufflePhase = m.MessagePhase
	out.OverheadPhase = m.BarrierPhase
	out.ModelPhase = m.ModelPhase
	out.ModelBytes = m.ModelBytes
	out.MapOutputRecords = m.Messages
	out.ShuffleRecords = m.CombinedMessages
	out.ShuffleBytes = m.MessageBytes
	out.ShuffleNetworkBytes = m.MessageNetworkBytes
	out.ShuffleCrossRackBytes = m.MessageCrossRackBytes
	out.CorruptRetries = m.CorruptResends
	out.CorruptRetryBytes = m.CorruptResendBytes
	return out
}

// RunOptions configures one Engine.Run.
type RunOptions struct {
	// Name labels errors, trace spans and loop-cache accounting.
	Name string
	// At is the simulated start time.
	At simtime.Time
	// Local switches to in-memory pricing (PIC best-effort local
	// solves): compute is scaled by LocalComputeFactor and messages,
	// barriers and model distribution are free and unpriced, exactly
	// as mapred.RunLocal skips network and overhead. Failure handling
	// is the caller's concern in local mode (the PIC driver already
	// accounts for crashes of whole best-effort groups).
	Local bool
	// Workers bounds harness parallelism for vertex compute; <=0 means
	// GOMAXPROCS. Results are byte-identical for any setting.
	Workers int
	// Model, if non-nil, is distributed from ModelHome to every vertex
	// home before superstep 0 and priced as model phase traffic.
	// PartitionedModel ships each home a 1/nodes share instead of the
	// full model (the job reads only its partition's slice).
	Model            *model.Model
	ModelHome        int
	PartitionedModel bool
	// Family, if set, records loop-aware delta accounting for the
	// distributed model (what a delta-shipping transport would have
	// moved). Pure accounting: BSP always prices the full
	// distribution, exactly as the mapred engine executes full
	// distribution and books the delta separately.
	Family *mapred.JobFamily
	// MaxSupersteps bounds one attempt; 0 means DefaultMaxSupersteps.
	MaxSupersteps int
	// Spans, if non-nil, is the sink framework runs append their
	// superstep and barrier trace events to, in time order, with Lane,
	// ID and Parent unset — the caller stamps and records them under
	// its own job span. A caller with no tracer leaves it nil, and the
	// run builds no event.
	Spans *[]trace.Event
}

// Result is one completed run.
type Result struct {
	// Program is the instance (from the final attempt) whose state
	// reflects the completed computation — callers downcast to
	// retrieve outputs or call Modeler.
	Program Program
	// Homes[i] is the node that hosted Vertices()[i] in the final
	// attempt, after any re-homing off dead nodes.
	Homes []int
	// Supersteps mirrors Metrics.Supersteps.
	Supersteps int
	Metrics    Metrics
	// End is the simulated completion time.
	End simtime.Time
}

// Engine executes BSP programs on a simulated cluster view. It keeps
// nothing between runs but the cost model; one engine may be shared
// across sequential runs on the same view. What does outlive a run is
// memory, not state: every attempt's send buffers, combine table,
// inboxes and per-vertex and per-node tables are one scratch object
// drawn from a process-wide pool (see scratch.go). An attempt sizes and
// initializes every table it reads and the scratch is emptied of message
// values before it returns to the pool, so a result cannot depend on
// which scratch a run drew or on what ran before it.
type Engine struct {
	cluster *simcluster.Cluster
	cost    CostModel

	// IntegrityChecks enables checksum verification of model and
	// message payloads against the cluster's registered corruption
	// plan: a corrupt arrival is re-sent (bounded) instead of silently
	// consumed. Barrier tokens are tiny control traffic and are not
	// checked. Off on a bare Engine; core.Runtime turns it on.
	IntegrityChecks bool
}

// NewEngine returns an engine over the cluster view with the default
// derived cost model.
func NewEngine(c *simcluster.Cluster) *Engine {
	return &Engine{cluster: c, cost: DefaultCostModel()}
}

// SetCostModel replaces the cost model. It panics on an invalid model,
// mirroring config validation elsewhere: a bad cost model is a
// programming error, not a runtime condition.
func (e *Engine) SetCostModel(c CostModel) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	e.cost = c
}

// Cluster returns the engine's cluster view.
func (e *Engine) Cluster() *simcluster.Cluster { return e.cluster }

// Cost returns the active cost model.
func (e *Engine) Cost() CostModel { return e.cost }

// chargePayload charges one payload exchange (model distribution or a
// superstep's messages) at time at through the cluster's shared
// transfer path, folding checksum re-sends into m. BSP has no transfer
// deadline, retry budget or backoff — the lockstep barrier leaves
// nothing to overlap a wait with — so the policy carries only the
// verification switch: a severed path fails the superstep at once with
// the typed *simnet.TransferError, and a corrupt arrival is re-sent
// immediately. It returns the elapsed time and the bytes the corrupt
// arrivals carried.
func (e *Engine) chargePayload(flows []simnet.Flow, at simtime.Time, m *Metrics) (simtime.Duration, int64, error) {
	res, err := e.cluster.TransferAt(flows, at, simcluster.TransferPolicy{Verify: e.IntegrityChecks})
	if err != nil {
		return 0, 0, err
	}
	m.CorruptResends += res.CorruptRetries
	m.CorruptResendBytes += res.CorruptRetryBytes
	return res.Elapsed, res.CorruptRetryBytes, nil
}

// Run executes one BSP program to global halt. build constructs a
// fresh program instance; it is re-invoked after a crash-triggered
// restart so the rebuilt program starts from the iteration's input
// state (BSP has no mid-run task rescheduling — the lockstep barrier
// means a lost node invalidates the attempt, so the engine re-runs the
// program on the surviving nodes while the clock keeps the time the
// lost attempt cost). Network faults surface as *simnet.TransferError
// (wrapped), which the core IC stepper already knows how to wait out.
func (e *Engine) Run(build func() (Program, error), opt *RunOptions) (*Result, error) {
	o := RunOptions{}
	if opt != nil {
		o = *opt
	}
	if o.Name == "" {
		o.Name = "bsp"
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = DefaultMaxSupersteps
	}
	res := &Result{}
	at := o.At
	for {
		prog, err := build()
		if err != nil {
			return nil, fmt.Errorf("bsp: %s: build program: %w", o.Name, err)
		}
		end, restart, err := e.runAttempt(prog, &o, at, res)
		if err != nil {
			return nil, err
		}
		if restart {
			res.Metrics.Restarts++
			if res.Metrics.Restarts > maxRestarts {
				return nil, fmt.Errorf("bsp: %s: gave up after %d crash restarts", o.Name, maxRestarts)
			}
			at = end
			continue
		}
		res.Program = prog
		res.End = end
		res.Supersteps = res.Metrics.Supersteps
		res.Metrics.Duration = end - o.At
		return res, nil
	}
}

// runAttempt executes one attempt from superstep 0. It returns the
// simulated end time, whether a node crash invalidated the attempt
// (restart), and any hard error.
func (e *Engine) runAttempt(prog Program, o *RunOptions, start simtime.Time, res *Result) (simtime.Time, bool, error) {
	m := &res.Metrics
	at := start
	s := getScratch()
	defer s.release()
	vs := s.vertexSet(prog)
	verts := vs.infos
	n := len(verts)
	if n > math.MaxInt32 {
		return at, false, &ProgramError{Job: o.Name, Step: -1,
			Reason: fmt.Sprintf("%d vertices, more than the engine indexes", n)}
	}
	if vs.hasDup {
		return at, false, &ProgramError{Job: o.Name, Step: -1, Vertex: vs.dup,
			Reason: fmt.Sprintf("duplicate vertex id %q", vs.dup)}
	}

	// Resolve vertex homes against the failure plan: vertices on dead
	// (or unassigned) homes are dealt round-robin over live nodes in
	// vertex order — deterministic, and the same rule mapred uses to
	// re-home orphaned splits.
	var plan *simcluster.FailurePlan
	var dead map[int]bool
	if !o.Local {
		plan = e.cluster.FailurePlan()
		if plan != nil {
			dead = plan.DeadAt(at)
		}
	}
	live := s.setLive(e.cluster.Nodes(), dead)
	if len(live) == 0 {
		return at, false, fmt.Errorf("bsp: %s: no live nodes", o.Name)
	}
	s.startAttempt(vs)
	home := make([]int, n)
	rehomed := 0
	for i, v := range verts {
		h := v.Home
		if h < 0 || h >= len(s.slotOf) || s.slotOf[h] < 0 {
			h = live[rehomed%len(live)]
			rehomed++
		}
		home[i] = h
		s.hslot[i] = s.slotOf[h]
	}
	res.Homes = home
	if n == 0 {
		return at, false, nil
	}

	fab := e.cluster.Fabric()

	// Model distribution: the full (or partitioned share of the) model
	// travels from its home to every vertex home before superstep 0.
	// Delta shipping stays pure accounting via the job family, exactly
	// as in mapred.
	if o.Model != nil && !o.Local {
		for _, h := range s.hslot {
			s.nodeUsed[h] = true
		}
		dsts := s.usedSlots()
		per := o.Model.Size()
		if o.PartitionedModel {
			per /= int64(len(dsts))
		}
		s.flows = s.flows[:0]
		var moved int64
		for _, h := range dsts {
			nd := live[h]
			if nd == o.ModelHome || per == 0 {
				continue
			}
			s.flows = append(s.flows, simnet.Flow{Src: o.ModelHome, Dst: nd, Bytes: per})
			moved += per
		}
		if len(s.flows) > 0 {
			d, resent, err := e.chargePayload(s.flows, at, m)
			if err != nil {
				return at, false, fmt.Errorf("bsp: %s: model distribution: %w", o.Name, err)
			}
			m.ModelPhase += d
			m.ModelBytes += moved + resent
			at += d
		}
		if o.Family != nil {
			delta := o.Family.ShippedModelBytes(o.Name, o.Model)
			o.Family.NoteWarmIteration(delta, 0)
		}
	}

	var comb Combiner
	if cp, ok := prog.(CombinerProgram); ok {
		comb = cp.Combiner()
	}
	coster, hasCoster := prog.(VertexCoster)

	cfg := e.cluster.Config()

	for step := 0; ; step++ {
		if !s.activate() {
			break
		}
		if step >= o.MaxSupersteps {
			return at, false, fmt.Errorf("bsp: %s: no global halt within %d supersteps", o.Name, o.MaxSupersteps)
		}
		stepStart := at

		// Compute: concurrent over contiguous chunks of the active list,
		// one send buffer per chunk, so chunk order is vertex order for
		// any worker count. The first failing vertex in that order is
		// the one reported.
		if c := s.compute(prog, step, o.Workers); c != nil {
			perr := &ProgramError{Job: o.Name, Step: step, Vertex: verts[c.failed].ID, Err: c.err}
			if c.err == nil {
				perr.Reason = fmt.Sprintf("send to unknown vertex %d", c.stray)
			}
			return at, false, perr
		}

		// Price compute: node totals pinned to their homes (BSP cannot
		// steal work from a vertex's node), scheduled on map slots.
		clear(s.nodeCost)
		for _, v := range s.active {
			i := int(v)
			var c float64
			if hasCoster {
				c = coster.VertexCost(step, i)
			} else {
				c = e.cost.vertex(s.inbox.count(i), s.sentBytes[i])
			}
			if o.Local {
				c *= e.cost.LocalComputeFactor
			}
			s.nodeUsed[s.hslot[i]] = true
			s.nodeCost[s.hslot[i]] += c
			if s.halts[i] {
				m.HaltedVotes++
			}
		}
		used := s.usedSlots()
		s.tasks = s.tasks[:0]
		for _, h := range used {
			s.tasks = append(s.tasks, simcluster.Task{Cost: s.nodeCost[h], Preferred: live[h]})
		}
		_, makespan := e.cluster.Schedule(s.tasks, cfg.MapSlotsPerNode)
		m.ComputePhase += makespan
		m.Vertices += int64(len(s.active))
		at += makespan

		// Gather sends in global vertex order, combining sender-side
		// per (source node, destination, tag) on each lane, and deliver
		// them into the next superstep's inboxes.
		totalSends := s.gather(comb)
		m.Messages += int64(totalSends)
		m.CombinedMessages += int64(len(s.wire) + len(s.fwire))
		stepBytes := s.deliver(!o.Local)
		m.MessageBytes += stepBytes

		// Price message traffic: one flow per (source node, destination
		// node) link, first-use order — same aggregation a mapred
		// shuffle uses.
		flows, stepNet := s.linkFlows()
		if len(flows) > 0 {
			before := fab.Counters()
			d, resent, err := e.chargePayload(flows, at, m)
			if err != nil {
				return at, false, fmt.Errorf("bsp: %s: superstep %d messages: %w", o.Name, step, err)
			}
			m.MessagePhase += d
			m.MessageNetworkBytes += stepNet + resent
			m.MessageCrossRackBytes += fab.Counters().CrossRack - before.CrossRack
			at += d
		}

		if !o.Local && o.Spans != nil {
			*o.Spans = append(*o.Spans, trace.Event{
				Kind:  trace.KindSuperstep,
				Name:  spanName(&superstepNames, "superstep %d", step),
				Start: stepStart,
				End:   at,
				Bytes: stepNet,
			})
		}

		// Global barrier: every participating node ships a token to the
		// coordinator (lowest live node) and receives the release, plus
		// a fixed coordination overhead. Local runs barrier in memory
		// for free, as mapred local jobs skip overhead.
		if !o.Local {
			bStart := at
			coord := live[0]
			s.up, s.down = s.up[:0], s.down[:0]
			for _, h := range used {
				nd := live[h]
				if nd == coord {
					continue
				}
				s.up = append(s.up, simnet.Flow{Src: nd, Dst: coord, Bytes: e.cost.BarrierTokenBytes})
				s.down = append(s.down, simnet.Flow{Src: coord, Dst: nd, Bytes: e.cost.BarrierTokenBytes})
			}
			if len(s.up) > 0 {
				// Tokens are tiny control traffic: the zero policy, no
				// verification.
				gather, err := e.cluster.TransferAt(s.up, at, simcluster.TransferPolicy{})
				if err != nil {
					return at, false, fmt.Errorf("bsp: %s: superstep %d barrier: %w", o.Name, step, err)
				}
				release, err := e.cluster.TransferAt(s.down, at+gather.Elapsed, simcluster.TransferPolicy{})
				if err != nil {
					return at, false, fmt.Errorf("bsp: %s: superstep %d barrier release: %w", o.Name, step, err)
				}
				at += gather.Elapsed + release.Elapsed
			}
			at += e.cost.BarrierOverhead
			m.BarrierPhase += at - bStart
			if o.Spans != nil {
				*o.Spans = append(*o.Spans, trace.Event{
					Kind:  trace.KindBarrier,
					Name:  spanName(&barrierNames, "barrier %d", step),
					Start: bStart,
					End:   at,
				})
			}
		}

		m.Supersteps++

		// Crash check at the barrier: a changed dead set invalidates
		// lockstep state held on the lost nodes, so the attempt
		// restarts on the survivors.
		if plan != nil {
			nowDead := plan.DeadAt(at)
			if deadChanged(dead, nowDead) {
				if o.Spans != nil {
					*o.Spans = append(*o.Spans, trace.Event{
						Kind:  trace.KindSuperstep,
						Name:  "restart: node crash at barrier",
						Start: at,
						End:   at,
					})
				}
				return at, true, nil
			}
		}

		s.endStep()
	}
	return at, false, nil
}

// The span names of the first supersteps, formatted once: a run takes
// a few supersteps, PageRank's two.
var superstepNames, barrierNames [8]string

func init() {
	for step := range superstepNames {
		superstepNames[step] = fmt.Sprintf("superstep %d", step)
		barrierNames[step] = fmt.Sprintf("barrier %d", step)
	}
}

// spanName returns names[step], or format's rendering of a later step.
func spanName(names *[8]string, format string, step int) string {
	if step < len(names) {
		return names[step]
	}
	return fmt.Sprintf(format, step)
}

func deadChanged(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return true
	}
	for nd := range b {
		if !a[nd] {
			return true
		}
	}
	return false
}
