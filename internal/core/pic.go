package core

import (
	"fmt"
	"strconv"

	"repro/internal/corrupt"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/writable"
)

// PICOptions configure a partitioned-iterative-convergence run (the
// paper's Figure 3 template).
type PICOptions struct {
	// Partitions is the number of sub-problems P (required, ≥ 1). When
	// P exceeds the cluster size, several sub-problems share a node
	// group and run back to back, as the paper's §III-B allows ("we
	// can create more sub-problems than the number of nodes").
	Partitions int
	// MaxBEIterations bounds the best-effort phase (default 50).
	MaxBEIterations int
	// MaxLocalIterations bounds each sub-problem's local convergence
	// loop within one best-effort iteration (default 200).
	MaxLocalIterations int
	// MaxTopOffIterations bounds the top-off phase (default 1000).
	MaxTopOffIterations int
	// Observer receives a Sample per best-effort iteration (with the
	// merged model) and per top-off iteration.
	Observer Observer
	// DistributedMerge executes each best-effort merge as a MapReduce
	// job over the partial models (§III-C) instead of gathering them
	// to the driver. Requires the application to implement KeyMerger.
	DistributedMerge bool
	// HierarchicalMerge executes each best-effort merge as a two-level
	// rack tree: partials pre-combine on a per-rack aggregator over
	// intra-rack links and only one combined model per rack crosses the
	// core switch, with the scatter deduplicated symmetrically when a
	// rack's partitions share a starting model. Requires the application
	// to implement WeightedKeyMerger; mutually exclusive with
	// DistributedMerge. The tree reduction equals the flat one up to
	// floating-point summation order (each strategy is individually
	// deterministic), so flat and hierarchical runs are compared by
	// quality and traffic, not by byte identity.
	HierarchicalMerge bool

	// MergeQuorum is the minimum number Q of fresh partial models a
	// best-effort merge may proceed with when a network fault cuts some
	// node groups off from the driver; the cut partitions merge their
	// starting model instead (same graceful degradation as a lost
	// partial, §VII). Zero requires all Partitions — today's strict
	// behavior — so faults without a quorum surface as errors. Only
	// consulted when the cluster carries a simnet.NetworkPlan.
	MergeQuorum int
	// MergeTimeout is how long the merge waits for cut groups to come
	// back before settling for a quorum. Zero merges a quorum
	// immediately; with fewer than MergeQuorum fresh partials the wait
	// continues regardless, since merging below quorum is never allowed.
	MergeTimeout simtime.Duration
	// ResumeFromCheckpoint starts the best-effort phase from the last
	// "<app>-be" model checkpoint when one exists in the DFS — the
	// driver-restart story: a run interrupted mid-phase (say, by a
	// partition it could not tolerate) resumes from its last merged
	// model instead of from scratch.
	ResumeFromCheckpoint bool
}

func (o PICOptions) withDefaults() PICOptions {
	if o.MaxBEIterations <= 0 {
		o.MaxBEIterations = 50
	}
	if o.MaxLocalIterations <= 0 {
		o.MaxLocalIterations = 200
	}
	if o.MaxTopOffIterations <= 0 {
		o.MaxTopOffIterations = 1000
	}
	return o
}

// PICResult reports a PIC run with the per-phase breakdown the paper's
// evaluation tables and figures are built from.
type PICResult struct {
	// Model is the final model after the top-off phase.
	Model *model.Model
	// BestEffortModel is the model at the end of the best-effort
	// phase, before top-off — compared against the IC solution in the
	// paper's §VI quality evaluation.
	BestEffortModel *model.Model

	// BEIterations is the number of best-effort iterations executed.
	BEIterations int
	// LocalIterations[b][i] is the local iteration count of
	// sub-problem i in best-effort iteration b (the paper's Table I).
	LocalIterations [][]int
	// TopOffIterations and TopOffConverged report the top-off phase.
	TopOffIterations int
	TopOffConverged  bool

	// DegradedMerges describes every best-effort merge that proceeded
	// on a quorum of partials because a network fault cut groups off
	// (empty for fault-free runs). ResumedFromCheckpoint reports that
	// the best-effort phase started from a restored "<app>-be"
	// checkpoint rather than the caller's initial model.
	DegradedMerges        []DegradedMergeInfo
	ResumedFromCheckpoint bool
	// Blocked is simulated time stalled on network faults: best-effort
	// dispatch/gather waits for reachable groups plus top-off
	// iterations stalled on severed transfers (see ICResult.Blocked).
	Blocked simtime.Duration

	// GroupRepairs counts sub-problem dispatches that ran on a repaired
	// node group — one shrunk around dead nodes, or a sibling standing
	// in for a fully-dead group. LostPartials counts best-effort
	// partials discarded because their group lost a node mid-iteration;
	// the merge proceeds with the partition's starting model in their
	// place, the graceful degradation of the paper's §VII (a
	// conventional IC iteration must instead re-execute).
	GroupRepairs int
	LostPartials int
	// RejectedPartials counts merge inputs (scatter or gather legs)
	// whose verified delivery failed under a corruption plan — the
	// checksum re-send budget ran out, or the path was severed
	// mid-retry. The partition's starting model stands in, through the
	// same stale machinery a cut group uses; with detection off this
	// stays zero and the damage flows into the merge silently.
	RejectedPartials int

	// Duration = BEDuration + TopOffDuration, in simulated seconds.
	Duration       simtime.Duration
	BEDuration     simtime.Duration
	TopOffDuration simtime.Duration

	// Metrics aggregate the whole run; BEMetrics and TopOffMetrics
	// split it by phase.
	Metrics       mapred.Metrics
	BEMetrics     mapred.Metrics
	TopOffMetrics mapred.Metrics

	// ModelUpdateBytes is replication traffic from persisting merged
	// and top-off models.
	ModelUpdateBytes int64
	// RepartitionBytes is the one-time traffic of distributing the
	// partitioned input data onto the node groups.
	RepartitionBytes int64
	// MergeTrafficBytes is the per-best-effort-iteration traffic of
	// scattering sub-problem models to groups and gathering partial
	// models back for the merge. Under DistributedMerge the gather
	// happens as the merge job's shuffle, so these bytes then also
	// appear in Metrics.ShuffleNetworkBytes — sum the two only for
	// centralized merges.
	MergeTrafficBytes int64
	// MergeCrossRackBytes is the subset of the scatter/gather traffic
	// that crossed the core switch — the bytes HierarchicalMerge exists
	// to reduce. Tracked for every merge strategy from the fabric's
	// cross-rack counter, so flat and hierarchical runs compare
	// like-for-like.
	MergeCrossRackBytes int64
}

// DegradedMergeInfo describes one best-effort merge that proceeded
// without a full complement of fresh partials.
type DegradedMergeInfo struct {
	// Iteration is the 1-based best-effort iteration.
	Iteration int
	// Arrived is how many fresh partial models made it to the merge.
	Arrived int
	// Stale lists the partition indices whose starting model stood in:
	// groups unreachable at dispatch (which never ran) and groups cut
	// off between dispatch and gather.
	Stale []int
	// Waited is the iteration's total network stall: the dispatch-side
	// wait for a quorum of reachable leaders plus the gather-side wait
	// hoping cut groups would come back before settling for the quorum.
	Waited simtime.Duration
}

// MaxLocalIterationsPerBE returns, for each best-effort iteration, the
// maximum local iteration count across sub-problems — the "(Max) number
// of Local Iterations" row of the paper's Table I.
func (r *PICResult) MaxLocalIterationsPerBE() []int {
	out := make([]int, len(r.LocalIterations))
	for b, iters := range r.LocalIterations {
		for _, n := range iters {
			if n > out[b] {
				out[b] = n
			}
		}
	}
	return out
}

// RunPIC executes app under partitioned iterative convergence on rt from
// the initial model m0: the best-effort phase (partition, solve
// sub-problems with in-memory local iterations on disjoint node groups,
// merge, repeat until best-effort convergence) followed by the top-off
// phase (the unmodified IC computation until true convergence). RunPIC
// is PICStepper driven to completion: a stepped run and a monolithic
// run are identical.
func RunPIC(rt *Runtime, app PICApp, in *mapred.Input, m0 *model.Model, opts PICOptions) (*PICResult, error) {
	s, err := NewPICStepper(rt, app, in, m0, opts)
	if err != nil {
		return nil, err
	}
	for {
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result(), nil
		}
	}
}

// PICStepper is the resumable form of RunPIC: each Step executes one
// best-effort iteration while that phase lasts, then one top-off
// iteration, so a scheduler can suspend the run at any iteration
// boundary. Create one with NewPICStepper, call Step until it reports
// done, then read Result.
type PICStepper struct {
	rt      *Runtime
	app     PICApp
	in      *mapred.Input
	opt     PICOptions
	cluster *simcluster.Cluster
	nGroups int
	groups  []*simcluster.Cluster

	beConverged func(prev, next *model.Model) bool

	startElapsed    simtime.Duration
	startMetrics    mapred.Metrics
	startModelBytes int64
	beSpan          int64

	m             *model.Model
	res           *PICResult
	redistributed bool
	topOff        *ICStepper // non-nil once the best-effort phase closed
	done          bool

	// Loop-aware partition-layout reuse (apps implementing
	// LoopPartitioner): the record layout from the first Partition call,
	// reused verbatim on later best-effort iterations so each
	// sub-problem keeps the same backing arrays — and therefore its warm
	// job-family cache entries — across iterations. subIns/subInViews
	// cache each partition's Input per live group view; a partition is
	// rebuilt when group repair hands it a different view.
	layout     [][]mapred.Record
	subIns     []*mapred.Input
	subInViews []*simcluster.Cluster
}

// NewPICStepper prepares a PIC run over rt without executing anything.
func NewPICStepper(rt *Runtime, app PICApp, in *mapred.Input, m0 *model.Model, opts PICOptions) (*PICStepper, error) {
	opt := opts.withDefaults()
	if opt.Partitions < 1 {
		return nil, fmt.Errorf("core: RunPIC(%s): Partitions = %d, need ≥ 1", app.Name(), opt.Partitions)
	}
	if opt.MergeQuorum < 0 || opt.MergeQuorum > opt.Partitions {
		return nil, fmt.Errorf("core: RunPIC(%s): MergeQuorum = %d, need 0 ≤ Q ≤ Partitions (%d)",
			app.Name(), opt.MergeQuorum, opt.Partitions)
	}
	if opt.MergeTimeout < 0 {
		return nil, fmt.Errorf("core: RunPIC(%s): MergeTimeout = %g, cannot be negative",
			app.Name(), float64(opt.MergeTimeout))
	}
	if opt.HierarchicalMerge {
		if opt.DistributedMerge {
			return nil, fmt.Errorf("core: RunPIC(%s): HierarchicalMerge and DistributedMerge are mutually exclusive", app.Name())
		}
		if _, ok := app.(WeightedKeyMerger); !ok {
			return nil, fmt.Errorf("core: RunPIC(%s): HierarchicalMerge requires WeightedKeyMerger", app.Name())
		}
	}
	cluster := rt.Cluster()
	nGroups := min(opt.Partitions, cluster.Size())

	beConverged := app.Converged
	if bc, ok := app.(BEConvergedApp); ok {
		beConverged = bc.BEConverged
	}

	s := &PICStepper{
		rt:              rt,
		app:             app,
		in:              in,
		opt:             opt,
		cluster:         cluster,
		nGroups:         nGroups,
		groups:          cluster.Groups(nGroups),
		beConverged:     beConverged,
		startElapsed:    rt.Elapsed(),
		startMetrics:    rt.Metrics(),
		startModelBytes: rt.ModelUpdateBytes(),
		m:               m0,
		res:             &PICResult{},
	}
	// Driver restart: resume the best-effort phase from its last merged
	// model when one was checkpointed. A missing checkpoint is a fresh
	// start, not an error — the flag can be set unconditionally.
	if opt.ResumeFromCheckpoint {
		if m, err := rt.RestoreModel(app.Name() + "-be"); err == nil {
			s.m = m
			s.res.ResumedFromCheckpoint = true
			rt.tracer.Record(trace.Event{
				Kind: trace.KindCheckpoint, Name: app.Name() + "-be: resumed from checkpoint",
				Start: rt.now(), End: rt.now(), Lane: rt.lane,
			})
			if r := rt.obs; r != nil {
				r.Counter("core.checkpoint_resumes").Add(1)
			}
		}
	}
	// The best-effort phase span encloses scatter/gather transfers,
	// merge jobs and model writes; group-local job spans parent under it
	// too, via the forks' inherited span id.
	s.beSpan = rt.tracer.NextID()
	return s, nil
}

// Step executes one iteration of whichever phase the run is in.
func (s *PICStepper) Step() (bool, error) {
	if s.done {
		return true, nil
	}
	if s.topOff == nil {
		beDone, err := s.beStep()
		if err != nil {
			return false, err
		}
		if beDone {
			s.closeBE()
		}
		return false, nil
	}
	topDone, err := s.topOff.Step()
	if err != nil {
		return false, err
	}
	if topDone {
		s.finish()
		return true, nil
	}
	return false, nil
}

// Result returns the run's result once Step has reported done, nil
// before that.
func (s *PICStepper) Result() *PICResult {
	if !s.done {
		return nil
	}
	return s.res
}

// beStep runs one best-effort iteration: partition, solve sub-problems
// on the node groups, merge. It reports whether the best-effort phase
// is over (converged or iteration cap).
func (s *PICStepper) beStep() (bool, error) {
	rt, app, opt, res := s.rt, s.app, s.opt, s.res
	cluster, nGroups, groups := s.cluster, s.nGroups, s.groups
	m := s.m
	prevSpan := rt.span
	rt.span = s.beSpan
	defer func() { rt.span = prevSpan }()
	{
		mergeBytesBefore := res.MergeTrafficBytes
		mergeCrossBefore := res.MergeCrossRackBytes
		// Partition the problem. Apps implementing LoopPartitioner deal
		// records deterministically and model-independently, so after
		// the first iteration only the per-partition models are
		// refreshed and the record layout — with its backing arrays and
		// warm caches — is reused; Partition itself re-deals into fresh
		// arrays, which would turn every cached split cold.
		var subs []SubProblem
		var err error
		if s.layout != nil {
			if lp, ok := app.(LoopPartitioner); ok {
				if models := lp.PartitionModels(m, opt.Partitions); len(models) == opt.Partitions {
					subs = make([]SubProblem, opt.Partitions)
					for i := range subs {
						subs[i] = SubProblem{Records: s.layout[i], Model: models[i]}
					}
				}
			}
		}
		if subs == nil {
			subs, err = app.Partition(s.in, m, opt.Partitions)
			if err != nil {
				return false, fmt.Errorf("core: %s partition: %w", app.Name(), err)
			}
			if len(subs) != opt.Partitions {
				return false, fmt.Errorf("core: %s partition returned %d sub-problems, want %d",
					app.Name(), len(subs), opt.Partitions)
			}
			if _, ok := app.(LoopPartitioner); ok {
				s.layout = make([][]mapred.Record, len(subs))
				for i := range subs {
					s.layout[i] = subs[i].Records
				}
				s.subIns = make([]*mapred.Input, len(subs))
				s.subInViews = make([]*simcluster.Cluster, len(subs))
			}
		}

		// One-time charge: deal the partitioned data onto the groups.
		// Later best-effort iterations reuse the partition layout, so
		// the data is already resident (§III-B: the partition function
		// is fixed; only models move between iterations).
		if !s.redistributed {
			res.RepartitionBytes += rt.ChargeFlows(repartitionFlows(cluster.Nodes(), groups, subs))
			s.redistributed = true
		}

		// Group repair: refresh each group's live membership. A group
		// that lost some nodes shrinks to the survivors; a fully-dead
		// group's sub-problems move to the next usable sibling. The
		// best-effort phase tolerates this because merged models absorb
		// imperfect partials (§VII).
		liveGroups := make([]*simcluster.Cluster, nGroups)
		usable := 0
		for g := range groups {
			liveGroups[g] = rt.liveView(groups[g])
			if liveGroups[g] != nil {
				usable++
			}
		}
		if usable == 0 {
			return false, fmt.Errorf("core: %s: no live nodes remain for the best-effort groups", app.Name())
		}
		assign := make([]int, opt.Partitions)
		leaders := make([]int, opt.Partitions)
		for i := range assign {
			g := i % nGroups
			if liveGroups[g] == nil {
				from := g
				for liveGroups[g] == nil {
					g = (g + 1) % nGroups
				}
				res.GroupRepairs++
				rt.tracer.Record(trace.Event{
					Kind:  trace.KindGroupRepair,
					Name:  fmt.Sprintf("%s: partition %d moved from dead group %d to group %d", app.Name(), i, from, g),
					Start: rt.now(), End: rt.now(), Lane: rt.lane,
				})
			} else if liveGroups[g].Size() < groups[g].Size() {
				res.GroupRepairs++
				rt.tracer.Record(trace.Event{
					Kind: trace.KindGroupRepair,
					Name: fmt.Sprintf("%s: partition %d on group %d shrunk to %d/%d nodes",
						app.Name(), i, g, liveGroups[g].Size(), groups[g].Size()),
					Start: rt.now(), End: rt.now(), Lane: rt.lane,
				})
			}
			assign[i] = g
			leaders[i] = liveGroups[g].Nodes()[0]
		}

		// Network-fault probe: a group whose leader has no fabric path
		// from the model home at dispatch time can receive neither its
		// model nor its records, so its partitions sit this iteration
		// out and merge a stale partial (their starting model) — the
		// same graceful degradation as a lost partial. The local solves
		// themselves need no cross-group traffic, which is exactly why
		// the best-effort phase tolerates network turbulence (§VII).
		// Dispatching below quorum would be pointless, so while fewer
		// than MergeQuorum leaders are reachable the driver waits out
		// fault transitions before scattering at all.
		home := rt.LiveModelHome()
		fabric := cluster.Fabric()
		plan := cluster.NetworkPlan()
		quorum := opt.MergeQuorum
		if quorum == 0 {
			quorum = opt.Partitions
		}
		var waited simtime.Duration
		stale := make([]bool, opt.Partitions)
		if plan != nil {
			for {
				reachable := 0
				for i := range stale {
					stale[i] = !fabric.ReachableAt(home, leaders[i], rt.now())
					if !stale[i] {
						reachable++
					}
				}
				if reachable >= quorum {
					break
				}
				next, ok := plan.NextTransition(rt.now())
				if !ok {
					return false, fmt.Errorf("core: %s best-effort iteration %d: only %d of %d group leaders reachable (quorum %d) and no network transition ahead",
						app.Name(), res.BEIterations+1, reachable, opt.Partitions, quorum)
				}
				d := simtime.Duration(next - rt.now())
				rt.AdvanceTime(d)
				waited += d
				home = rt.LiveModelHome()
			}
		}

		// Scatter each sub-problem's starting model to its group —
		// directly from the model home, or through the rack aggregators
		// (deduplicated on the core links) under HierarchicalMerge.
		var scatter []simnet.Flow
		var scatterPart []int // flat scatter: flow index → partition
		if opt.HierarchicalMerge {
			scatter = hierarchicalScatterFlows(home, leaders, subs, planRacks(fabric, leaders, stale))
		} else {
			for i, sub := range subs {
				if stale[i] {
					continue
				}
				scatter = append(scatter, simnet.Flow{Src: home, Dst: leaders[i], Bytes: sub.Model.Size()})
				scatterPart = append(scatterPart, i)
			}
		}
		crossBefore := fabric.Counters().CrossRack
		scatterMoved, scatterDmg := rt.chargeFlowsVerified(scatter)
		res.MergeTrafficBytes += scatterMoved
		res.MergeCrossRackBytes += fabric.Counters().CrossRack - crossBefore
		s.applyScatterDamage(scatterDmg, scatterPart, stale, subs)

		// Solve the sub-problems independently — no synchronization or
		// communication between them. Groups run in parallel in
		// simulated time; sub-problems sharing a group run back to
		// back, each on a clock that starts when its group's previous
		// one ended, so the phase takes the busiest group's total.
		deadBefore := rt.deadSnapshot()
		parts := make([]*model.Model, opt.Partitions)
		localIters := make([]int, opt.Partitions)
		groupBusy := make([]simtime.Duration, nGroups)
		for i, sub := range subs {
			if stale[i] {
				parts[i] = sub.Model
				continue
			}
			g := assign[i]
			subRT := rt.Fork(liveGroups[g], true)
			subRT.SetTimeOrigin(rt.now() + simtime.Time(groupBusy[g]))
			subRT.SetLane(g + 1)
			// Reuse the partition's Input while its live group view is
			// unchanged (liveView returns the identical view pointer when
			// nothing died); after a repair the input is rebuilt against
			// the new view, and its splits re-stage cold there.
			var subIn *mapred.Input
			if s.subIns != nil && s.subIns[i] != nil && s.subInViews[i] == liveGroups[g] {
				subIn = s.subIns[i]
			} else {
				subIn = mapred.NewInput(sub.Records, liveGroups[g], liveGroups[g].MapSlots())
				if s.subIns != nil {
					s.subIns[i] = subIn
					s.subInViews[i] = liveGroups[g]
				}
			}
			local, err := RunIC(subRT, app, subIn, sub.Model, &ICOptions{
				MaxIterations:      opt.MaxLocalIterations,
				DisableModelWrites: true,
			})
			if err != nil {
				return false, fmt.Errorf("core: %s sub-problem %d: %w", app.Name(), i, err)
			}
			parts[i] = local.Model
			localIters[i] = local.Iterations
			groupBusy[g] += subRT.Elapsed()
			rt.AddMetrics(subRT.Metrics())
		}
		var busiest simtime.Duration
		for _, b := range groupBusy {
			if b > busiest {
				busiest = b
			}
		}
		rt.AdvanceTime(busiest)
		res.LocalIterations = append(res.LocalIterations, localIters)

		// A node that crashed while the groups were solving takes its
		// group's in-memory partials with it. Merge over the survivors,
		// substituting the lost partition's starting model — no
		// progress there this iteration, but nothing else is lost.
		if crashed := newlyDead(rt, deadBefore); len(crashed) > 0 {
			for i := range parts {
				if !stale[i] && viewTouches(liveGroups[assign[i]], crashed) {
					parts[i] = subs[i].Model
					res.LostPartials++
					rt.tracer.Record(trace.Event{
						Kind:  trace.KindGroupRepair,
						Name:  fmt.Sprintf("%s: partial %d lost to mid-iteration crash, merging its starting model", app.Name(), i),
						Start: rt.now(), End: rt.now(), Lane: rt.lane,
					})
				}
			}
		}

		// Degraded gather: a group cut off between dispatch and gather
		// cannot deliver its partial. While cut groups exist, wait out
		// fault transitions — unconditionally while below the merge
		// quorum, and within MergeTimeout in the hope the cut heals —
		// then merge what arrived, stale partials standing in for the
		// rest. A cut that can never heal (no transition ahead) with
		// less than a quorum of partials is fatal.
		gatherStart := rt.now()
		if plan != nil {
			var gatherWaited simtime.Duration
			for {
				home = rt.LiveModelHome()
				arrived := 0
				for i := range leaders {
					if !stale[i] && fabric.ReachableAt(home, leaders[i], rt.now()) {
						arrived++
					}
				}
				if arrived == opt.Partitions {
					break // nothing cut: the fault-free common case
				}
				if arrived >= quorum && gatherWaited >= opt.MergeTimeout {
					break
				}
				next, ok := plan.NextTransition(rt.now())
				if !ok {
					if arrived >= quorum {
						break
					}
					return false, fmt.Errorf("core: %s best-effort iteration %d: only %d of %d partials reachable (quorum %d) and no network transition ahead",
						app.Name(), res.BEIterations+1, arrived, opt.Partitions, quorum)
				}
				d := simtime.Duration(next - rt.now())
				// With a quorum already in hand the wait is bounded by the
				// merge deadline, not the (possibly distant) transition.
				if rem := opt.MergeTimeout - gatherWaited; arrived >= quorum && d > rem {
					d = rem
				}
				rt.AdvanceTime(d)
				waited += d
				gatherWaited += d
			}
			// Groups still cut at merge time join the stale set.
			for i := range leaders {
				if !stale[i] && !fabric.ReachableAt(home, leaders[i], rt.now()) {
					stale[i] = true
					parts[i] = subs[i].Model
				}
			}
		}
		res.Blocked += waited
		var staleIdx []int
		for i, s := range stale {
			if s {
				staleIdx = append(staleIdx, i)
			}
		}
		if len(staleIdx) > 0 {
			info := DegradedMergeInfo{
				Iteration: res.BEIterations + 1,
				Arrived:   opt.Partitions - len(staleIdx),
				Stale:     staleIdx,
				Waited:    waited,
			}
			res.DegradedMerges = append(res.DegradedMerges, info)
			rt.tracer.Record(trace.Event{
				Kind: trace.KindDegradedMerge,
				Name: fmt.Sprintf("%s: merged %d/%d partials, stale %v",
					app.Name(), info.Arrived, opt.Partitions, info.Stale),
				Start: gatherStart, End: rt.now(), Lane: rt.lane,
			})
			if r := rt.obs; r != nil {
				r.Counter("core.degraded_merges").Add(1)
			}
		}

		// Merge the partial models: either as a real MapReduce job over
		// their key/value entries (§III-C), or by gathering them to the
		// driver and applying the application's merge function. Stale
		// partials already sit at the driver (they never left), so they
		// contribute no gather traffic and their merge-job splits are
		// homed on the driver, not the severed leader.
		var merged *model.Model
		if len(staleIdx) > 0 {
			leaders = append([]int(nil), leaders...)
			for _, i := range staleIdx {
				leaders[i] = rt.LiveModelHome()
			}
		}
		crossBefore = fabric.Counters().CrossRack
		if opt.DistributedMerge {
			km, ok := app.(KeyMerger)
			if !ok {
				return false, fmt.Errorf("core: %s: DistributedMerge requires KeyMerger", app.Name())
			}
			var mergeMetrics mapred.Metrics
			merged, mergeMetrics, err = distributedMerge(rt, app.Name(), km, parts, leaders)
			if err != nil {
				return false, err
			}
			res.MergeTrafficBytes += mergeMetrics.ShuffleNetworkBytes + mergeMetrics.NonLocalInputBytes
			if fin, ok := app.(MergeFinalizer); ok {
				merged, err = fin.FinalizeMerge(merged, m)
				if err != nil {
					return false, fmt.Errorf("core: %s merge finalize: %w", app.Name(), err)
				}
			}
		} else if opt.HierarchicalMerge {
			var traffic int64
			merged, traffic, err = hierarchicalMerge(rt, app.Name(), app.(WeightedKeyMerger),
				parts, leaders, stale, planRacks(fabric, leaders, stale))
			res.MergeTrafficBytes += traffic
			if err != nil {
				return false, err
			}
			if merged == nil {
				return false, fmt.Errorf("core: %s hierarchical merge returned a nil model", app.Name())
			}
			if fin, ok := app.(MergeFinalizer); ok {
				merged, err = fin.FinalizeMerge(merged, m)
				if err != nil {
					return false, fmt.Errorf("core: %s merge finalize: %w", app.Name(), err)
				}
			}
			// Like the flat centralized merge, the tree merge still runs
			// under the framework: one job overhead per iteration.
			rt.chargeMergeOverhead(app.Name())
		} else {
			var gather []simnet.Flow
			for i, part := range parts {
				gather = append(gather, simnet.Flow{Src: leaders[i], Dst: rt.LiveModelHome(), Bytes: part.Size()})
			}
			gatherMoved, gatherDmg := rt.chargeFlowsVerified(gather)
			res.MergeTrafficBytes += gatherMoved
			s.applyGatherDamage(gatherDmg, stale, parts, subs)
			merged, err = app.Merge(parts, m)
			if err != nil {
				return false, fmt.Errorf("core: %s merge: %w", app.Name(), err)
			}
			if merged == nil {
				return false, fmt.Errorf("core: %s merge returned a nil model", app.Name())
			}
			// The centralized merge still runs under the framework, so
			// each best-effort iteration pays one job overhead on top
			// of the gather/scatter flows charged above.
			rt.chargeMergeOverhead(app.Name())
		}
		res.MergeCrossRackBytes += fabric.Counters().CrossRack - crossBefore
		rt.WriteModel(app.Name()+"-be", merged)
		res.BEIterations++
		if r := rt.obs; r != nil {
			now := rt.now()
			delta := max(model.MaxVectorDelta(m, merged), model.MaxFloatDelta(m, merged))
			r.Series("core.be_delta").Sample(now, delta)
			r.Series("core.be_merge_bytes").Sample(now, float64(res.MergeTrafficBytes-mergeBytesBefore))
			r.Series("core.be_merge_core_bytes").Sample(now, float64(res.MergeCrossRackBytes-mergeCrossBefore))
			// Partition skew: the busiest group's solve time over the
			// mean across groups that did work — 1.0 is perfect balance.
			var total simtime.Duration
			used := 0
			for _, b := range groupBusy {
				if b > 0 {
					total += b
					used++
				}
			}
			skew := 1.0
			if total > 0 {
				skew = float64(busiest) * float64(used) / float64(total)
			}
			r.Series("core.be_skew").Sample(now, skew)
			// Straggler-attribution signals: every group's busy time
			// this iteration and every partition's record count under
			// its current group assignment, all stamped at the same
			// instant so the detector aligns iterations by sample time
			// even across group repairs.
			for g, b := range groupBusy {
				r.Series("core.be_group_seconds",
					metrics.L("group", strconv.Itoa(g))...).Sample(now, float64(b))
			}
			for i := range subs {
				r.Series("core.partition_records",
					metrics.L("group", strconv.Itoa(assign[i]), "partition", strconv.Itoa(i))...).Sample(now, float64(len(subs[i].Records)))
			}
		}
		if opt.Observer != nil {
			opt.Observer(Sample{
				Phase:     PhaseBestEffort,
				Iteration: res.BEIterations,
				Time:      simtime.Time(rt.Elapsed() - s.startElapsed),
				Model:     merged,
			})
		}
		converged := s.beConverged(m, merged)
		s.m = merged
		return converged || res.BEIterations >= opt.MaxBEIterations, nil
	}
}

// closeBE closes the best-effort phase — result fields, phase span,
// per-phase counters — and prepares the top-off stepper.
func (s *PICStepper) closeBE() {
	rt, res := s.rt, s.res
	res.BestEffortModel = s.m
	res.BEDuration = rt.Elapsed() - s.startElapsed
	res.BEMetrics = rt.Metrics().Sub(s.startMetrics)
	rt.tracer.Record(trace.Event{
		Kind:  trace.KindPhase,
		Name:  s.app.Name() + "/best-effort",
		Start: rt.now() - simtime.Time(res.BEDuration),
		End:   rt.now(),
		Lane:  rt.lane,
		ID:    s.beSpan,
	})
	if r := rt.obs; r != nil {
		r.Counter("core.group_repairs").Add(float64(res.GroupRepairs))
		r.Counter("core.lost_partials").Add(float64(res.LostPartials))
		r.Gauge("core.be_iterations").Set(float64(res.BEIterations))
	}

	// Top-off: the unmodified IC computation from the best-effort model.
	s.topOff = NewICStepper(rt, s.app, s.in, s.m, &ICOptions{
		MaxIterations: s.opt.MaxTopOffIterations,
		Observer:      s.opt.Observer,
		Phase:         PhaseTopOff,
		TimeOffset:    simtime.Time(res.BEDuration),
	})
}

// finish folds the finished top-off stepper into the final result.
func (s *PICStepper) finish() {
	rt, res := s.rt, s.res
	topOff := s.topOff.Result()
	res.Model = topOff.Model
	res.TopOffIterations = topOff.Iterations
	res.TopOffConverged = topOff.Converged
	res.TopOffDuration = topOff.Duration
	res.Blocked += topOff.Blocked
	res.TopOffMetrics = topOff.Metrics
	res.Duration = rt.Elapsed() - s.startElapsed
	res.Metrics = rt.Metrics().Sub(s.startMetrics)
	res.ModelUpdateBytes = rt.ModelUpdateBytes() - s.startModelBytes
	s.done = true
}

// applyScatterDamage folds scatter-leg corruption into the iteration:
// with detection on, a partition whose starting model could not be
// verified-delivered sits the iteration out and merges a stale partial
// (the same machinery a cut group uses); with detection off it solves
// from a silently perturbed model. Hierarchical scatters route through
// rack aggregators and are not attributed per partition (scatterPart
// is nil there) — verified re-sends still happened inside the charge.
func (s *PICStepper) applyScatterDamage(dmg []flowDamage, scatterPart []int, stale []bool, subs []SubProblem) {
	if len(dmg) == 0 || scatterPart == nil {
		return
	}
	rt := s.rt
	sortFlowDamage(dmg)
	for _, d := range dmg {
		i := scatterPart[d.idx]
		if rt.IntegrityChecks() {
			stale[i] = true
			s.res.RejectedPartials++
			rt.tracer.Record(trace.Event{
				Kind:  trace.KindCorruptionDetect,
				Name:  fmt.Sprintf("%s: partition %d model not verifiably deliverable, sitting this iteration out", s.app.Name(), i),
				Start: rt.now(), End: rt.now(), Lane: rt.lane, Parent: rt.span,
			})
			if rt.obs != nil {
				rt.obs.Counter("integrity.rejected_partials").Add(1)
			}
		} else {
			subs[i].Model = corrupt.PerturbModel(subs[i].Model.Clone(), d.seed)
		}
	}
}

// applyGatherDamage folds gather-leg corruption into the merge inputs:
// with detection on, a partial that failed verified delivery is
// rejected and its partition's starting model merged instead; with
// detection off the corrupt partial enters the merge silently
// perturbed. Stale partials never left the driver, so they cannot be
// damaged in flight.
func (s *PICStepper) applyGatherDamage(dmg []flowDamage, stale []bool, parts []*model.Model, subs []SubProblem) {
	if len(dmg) == 0 {
		return
	}
	rt := s.rt
	sortFlowDamage(dmg)
	for _, d := range dmg {
		i := d.idx
		if stale[i] {
			continue
		}
		if rt.IntegrityChecks() {
			parts[i] = subs[i].Model
			s.res.RejectedPartials++
			rt.tracer.Record(trace.Event{
				Kind:  trace.KindCorruptionDetect,
				Name:  fmt.Sprintf("%s: partial %d failed verified gather, merging its starting model", s.app.Name(), i),
				Start: rt.now(), End: rt.now(), Lane: rt.lane, Parent: rt.span,
			})
			if rt.obs != nil {
				rt.obs.Counter("integrity.rejected_partials").Add(1)
			}
		} else {
			parts[i] = corrupt.PerturbModel(parts[i].Clone(), d.seed)
		}
	}
}

// repartitionFlows approximates the one-time movement of sub-problem
// data from its original homes (spread across the whole cluster) onto
// the node groups: each sub-problem's bytes flow from every cluster node
// in equal shares to the group nodes, round-robin.
func repartitionFlows(allNodes []int, groups []*simcluster.Cluster, subs []SubProblem) []simnet.Flow {
	var flows []simnet.Flow
	for i, sub := range subs {
		g := groups[i%len(groups)]
		dsts := g.Nodes()
		bytes := mapred.RecordsSize(sub.Records)
		share := bytes / int64(len(allNodes))
		for si, src := range allNodes {
			dst := dsts[si%len(dsts)]
			if src == dst || share == 0 {
				continue
			}
			flows = append(flows, simnet.Flow{Src: src, Dst: dst, Bytes: share})
		}
	}
	return flows
}

// distributedMerge runs the merge as a MapReduce job: each partition's
// partial model becomes one input split homed on its (live) group
// leader, the identity mapper forwards every entry, and the reducer
// applies the application's per-key merge. The shuffle of partial-model
// entries is the merge traffic.
func distributedMerge(rt *Runtime, appName string, km KeyMerger, parts []*model.Model,
	leaders []int) (*model.Model, mapred.Metrics, error) {
	splits := make([]mapred.Split, len(parts))
	for i, part := range parts {
		var recs []mapred.Record
		part.Range(func(key string, v writable.Writable) bool {
			recs = append(recs, mapred.Record{Key: key, Value: v})
			return true
		})
		splits[i] = mapred.Split{Records: recs, Home: leaders[i]}
	}
	job := &mapred.Job{
		Name: appName + "-merge",
		Mapper: mapred.MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			emit.Emit(key, v)
			return nil
		}),
		Reducer: mapred.ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			out, err := km.MergeKey(key, values)
			if err != nil {
				return err
			}
			emit.Emit(key, out)
			return nil
		}),
	}
	startMetrics := rt.Metrics()
	out, err := rt.RunJob(job, mapred.InputFromSplits(splits), nil)
	if err != nil {
		return nil, mapred.Metrics{}, fmt.Errorf("core: %s distributed merge: %w", appName, err)
	}
	merged := model.New()
	for _, rec := range out.Records {
		merged.Set(rec.Key, rec.Value)
	}
	return merged, rt.Metrics().Sub(startMetrics), nil
}
