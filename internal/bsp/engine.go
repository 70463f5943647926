package bsp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/writable"
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
	// Spans are superstep/barrier trace events from framework runs, in
	// time order, with Lane, ID and Parent unset — the caller stamps
	// and records them under its own job span.
	Spans []trace.Event
	// End is the simulated completion time.
	End simtime.Time
}

// Engine executes BSP programs on a simulated cluster view. It is
// stateless between runs apart from the cost model; one engine may be
// shared across sequential runs on the same view.
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

type outMsg struct {
	to  string
	tag string
	val writable.Writable
}

// sendBuf is the per-vertex Sender; each compute worker writes only its
// own vertex's buffer, so no locking is needed.
type sendBuf struct {
	msgs []outMsg
}

func (b *sendBuf) Send(to, tag string, v writable.Writable) {
	b.msgs = append(b.msgs, outMsg{to: to, tag: tag, val: v})
}

// wireMsg is a (possibly combined) message annotated with its routing.
type wireMsg struct {
	srcNode int
	dst     int // destination vertex index
	tag     string
	val     writable.Writable
	size    int64
}

// runAttempt executes one attempt from superstep 0. It returns the
// simulated end time, whether a node crash invalidated the attempt
// (restart), and any hard error.
func (e *Engine) runAttempt(prog Program, o *RunOptions, start simtime.Time, res *Result) (simtime.Time, bool, error) {
	m := &res.Metrics
	at := start
	verts := prog.Vertices()
	n := len(verts)
	idx := make(map[string]int, n)
	for i, v := range verts {
		if _, dup := idx[v.ID]; dup {
			return at, false, fmt.Errorf("bsp: %s: duplicate vertex id %q", o.Name, v.ID)
		}
		idx[v.ID] = i
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
	var live []int
	for _, nd := range e.cluster.Nodes() {
		if !dead[nd] {
			live = append(live, nd)
		}
	}
	if len(live) == 0 {
		return at, false, fmt.Errorf("bsp: %s: no live nodes", o.Name)
	}
	home := make([]int, n)
	rehomed := 0
	for i, v := range verts {
		h := v.Home
		if h < 0 || !e.cluster.Contains(h) || dead[h] {
			h = live[rehomed%len(live)]
			rehomed++
		}
		home[i] = h
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
		homeSet := make(map[int]bool, len(live))
		for _, h := range home {
			homeSet[h] = true
		}
		dsts := make([]int, 0, len(homeSet))
		for nd := range homeSet {
			dsts = append(dsts, nd)
		}
		sort.Ints(dsts)
		per := o.Model.Size()
		if o.PartitionedModel && len(dsts) > 0 {
			per /= int64(len(dsts))
		}
		var flows []simnet.Flow
		var moved int64
		for _, nd := range dsts {
			if nd == o.ModelHome || per == 0 {
				continue
			}
			flows = append(flows, simnet.Flow{Src: o.ModelHome, Dst: nd, Bytes: per})
			moved += per
		}
		if len(flows) > 0 {
			d, resent, err := e.chargePayload(flows, at, m)
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
	halted := make([]bool, n)
	outs := make([]sendBuf, n)
	halts := make([]bool, n)
	errs := make([]error, n)
	active := make([]int, 0, n)

	// Per-superstep scratch, allocated once per attempt and cleared, not
	// remade, each step. The inboxes are double-buffered: the messages a
	// step delivers fill nextInbox while Compute still reads inbox, and
	// the two swap at the barrier.
	type ckey struct {
		srcNode int
		dst     int
		tag     string
	}
	type link struct{ s, d int }
	var (
		inbox     = make([][]Message, n)
		nextInbox = make([][]Message, n)
		wire      []wireMsg
		byKey     map[ckey]int
		nodeCost  = make(map[int]float64)
		nodes     []int
		tasks     []simcluster.Task
		linkBytes = make(map[link]int64)
		links     []link
		flows     []simnet.Flow
	)
	if comb != nil {
		byKey = make(map[ckey]int)
	}

	for step := 0; ; step++ {
		active = active[:0]
		for i := range verts {
			if !halted[i] || len(inbox[i]) > 0 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		if step >= o.MaxSupersteps {
			return at, false, fmt.Errorf("bsp: %s: no global halt within %d supersteps", o.Name, o.MaxSupersteps)
		}
		stepStart := at

		// Compute: concurrent over distinct vertices; per-vertex send
		// buffers keep output independent of worker count.
		for _, i := range active {
			outs[i].msgs = outs[i].msgs[:0]
		}
		parallelFor(len(active), o.Workers, func(k int) {
			i := active[k]
			halts[i], errs[i] = prog.Compute(step, verts[i].ID, inbox[i], &outs[i])
		})
		for _, i := range active {
			if errs[i] != nil {
				return at, false, fmt.Errorf("bsp: %s: superstep %d vertex %s: %w", o.Name, step, verts[i].ID, errs[i])
			}
		}

		// Price compute: node totals pinned to their homes (BSP cannot
		// steal work from a vertex's node), scheduled on map slots.
		clear(nodeCost)
		nodes = nodes[:0]
		for _, i := range active {
			var c float64
			if hasCoster {
				c = coster.VertexCost(step, verts[i].ID)
			} else {
				var sent int64
				for _, om := range outs[i].msgs {
					sent += messageSize(om.to, om.tag, om.val)
				}
				c = e.cost.ComputePerVertex +
					e.cost.ComputePerMessage*float64(len(inbox[i])) +
					e.cost.EmitPerByte*float64(sent)
			}
			if o.Local {
				c *= e.cost.LocalComputeFactor
			}
			if _, ok := nodeCost[home[i]]; !ok {
				nodes = append(nodes, home[i])
			}
			nodeCost[home[i]] += c
			if halts[i] {
				m.HaltedVotes++
			}
		}
		sort.Ints(nodes)
		tasks = tasks[:0]
		for _, nd := range nodes {
			tasks = append(tasks, simcluster.Task{Cost: nodeCost[nd], Preferred: nd})
		}
		_, makespan := e.cluster.Schedule(tasks, cfg.MapSlotsPerNode)
		m.ComputePhase += makespan
		m.Vertices += int64(len(active))
		at += makespan

		// Gather sends in global vertex order, combining sender-side
		// per (source node, destination, tag).
		wire = wire[:0]
		clear(byKey)
		totalSends := 0
		for _, i := range active {
			for _, om := range outs[i].msgs {
				j, ok := idx[om.to]
				if !ok {
					return at, false, fmt.Errorf("bsp: %s: superstep %d vertex %s: send to unknown vertex %q", o.Name, step, verts[i].ID, om.to)
				}
				totalSends++
				if comb != nil {
					k := ckey{home[i], j, om.tag}
					if w, dup := byKey[k]; dup {
						wire[w].val = comb.Combine(wire[w].val, om.val)
						continue
					}
					byKey[k] = len(wire)
				}
				wire = append(wire, wireMsg{srcNode: home[i], dst: j, tag: om.tag, val: om.val})
			}
		}
		m.Messages += int64(totalSends)
		m.CombinedMessages += int64(len(wire))

		// Deliver into next-superstep inboxes and account wire sizes.
		for i := range nextInbox {
			nextInbox[i] = nextInbox[i][:0]
		}
		var stepBytes int64
		for w := range wire {
			wm := &wire[w]
			wm.size = messageSize(verts[wm.dst].ID, wm.tag, wm.val)
			stepBytes += wm.size
			nextInbox[wm.dst] = append(nextInbox[wm.dst], Message{Tag: wm.tag, Value: wm.val})
		}
		m.MessageBytes += stepBytes

		// Price message traffic: one flow per (source node, destination
		// node) link, first-use order — same aggregation a mapred
		// shuffle uses.
		var stepNet int64
		if !o.Local && len(wire) > 0 {
			clear(linkBytes)
			links = links[:0]
			for w := range wire {
				dn := home[wire[w].dst]
				if wire[w].srcNode == dn {
					continue
				}
				l := link{wire[w].srcNode, dn}
				if _, ok := linkBytes[l]; !ok {
					links = append(links, l)
				}
				linkBytes[l] += wire[w].size
			}
			if len(links) > 0 {
				flows = flows[:0]
				for _, l := range links {
					flows = append(flows, simnet.Flow{Src: l.s, Dst: l.d, Bytes: linkBytes[l]})
					stepNet += linkBytes[l]
				}
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
		}

		if !o.Local {
			res.Spans = append(res.Spans, trace.Event{
				Kind:  trace.KindSuperstep,
				Name:  fmt.Sprintf("superstep %d", step),
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
			var up, down []simnet.Flow
			for _, nd := range nodes {
				if nd == coord {
					continue
				}
				up = append(up, simnet.Flow{Src: nd, Dst: coord, Bytes: e.cost.BarrierTokenBytes})
				down = append(down, simnet.Flow{Src: coord, Dst: nd, Bytes: e.cost.BarrierTokenBytes})
			}
			if len(up) > 0 {
				// Tokens are tiny control traffic: the zero policy, no
				// verification.
				gather, err := e.cluster.TransferAt(up, at, simcluster.TransferPolicy{})
				if err != nil {
					return at, false, fmt.Errorf("bsp: %s: superstep %d barrier: %w", o.Name, step, err)
				}
				release, err := e.cluster.TransferAt(down, at+gather.Elapsed, simcluster.TransferPolicy{})
				if err != nil {
					return at, false, fmt.Errorf("bsp: %s: superstep %d barrier release: %w", o.Name, step, err)
				}
				at += gather.Elapsed + release.Elapsed
			}
			at += e.cost.BarrierOverhead
			m.BarrierPhase += at - bStart
			res.Spans = append(res.Spans, trace.Event{
				Kind:  trace.KindBarrier,
				Name:  fmt.Sprintf("barrier %d", step),
				Start: bStart,
				End:   at,
			})
		}

		m.Supersteps++

		// Crash check at the barrier: a changed dead set invalidates
		// lockstep state held on the lost nodes, so the attempt
		// restarts on the survivors.
		if plan != nil {
			nowDead := plan.DeadAt(at)
			if deadChanged(dead, nowDead) {
				res.Spans = append(res.Spans, trace.Event{
					Kind:  trace.KindSuperstep,
					Name:  "restart: node crash at barrier",
					Start: at,
					End:   at,
				})
				return at, true, nil
			}
		}

		for _, i := range active {
			halted[i] = halts[i]
		}
		inbox, nextInbox = nextInbox, inbox
	}
	return at, false, nil
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

// parallelFor runs fn(0..n-1) on up to workers goroutines in contiguous
// chunks. Output must not depend on execution order; determinism is the
// caller's responsibility (each index writes disjoint state).
func parallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
