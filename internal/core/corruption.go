package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/corrupt"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// integrityState is the shared end-to-end integrity bookkeeping of a
// runtime and all its forks: whether detection is on, the content
// checksum of every checkpoint written (verified again on restore, so
// damage that slips past the block layer is still caught), and how
// many restores had to roll back to an earlier verified checkpoint.
type integrityState struct {
	checks    bool
	ckptSums  map[string]uint32
	rollbacks int
}

// SetIntegrityChecks turns end-to-end corruption detection on or off
// for this runtime and its forks: checksum verification on DFS reads,
// on engine transfer payloads, and on checkpoint restore. On by
// default; the detection-off ablation turns it off to show what silent
// corruption does to convergence. With no corruption plan registered
// the setting is unobservable — all paths are byte-identical.
func (rt *Runtime) SetIntegrityChecks(on bool) {
	rt.integ.checks = on
	rt.fs.SetVerifyReads(on)
	rt.engine.IntegrityChecks = on
	if rt.bspEng != nil {
		rt.bspEng.IntegrityChecks = on
	}
}

// IntegrityChecks reports whether corruption detection is on.
func (rt *Runtime) IntegrityChecks() bool { return rt.integ != nil && rt.integ.checks }

// IntegrityRollbacks reports how many checkpoint restores rolled back
// past a damaged checkpoint to an earlier verified one.
func (rt *Runtime) IntegrityRollbacks() int {
	if rt.integ == nil {
		return 0
	}
	return rt.integ.rollbacks
}

// applyCorruptEvent applies one corruption event. Injection itself is
// the adversary's move — free and instantaneous — while detection and
// repair are charged when reads or scrubs encounter the damage.
func (rt *Runtime) applyCorruptEvent(ev corrupt.Event) {
	switch ev.Kind {
	case corrupt.KindBlockReplica:
		if rt.fs.CorruptReplica(ev.File, ev.Block, ev.Node, ev.Seed) && rt.obs != nil {
			rt.obs.Counter("integrity.injected_blocks").Add(1)
		}
	case corrupt.KindCheckpoint:
		// Damage the latest stored checkpoint of the model family — every
		// replica, so replica failover cannot mask it and restore must
		// roll back. The pointer file is resolved directly (the adversary
		// pays no read traffic).
		target := rt.checkpointTarget(ev.Model)
		if target == "" {
			return
		}
		if n := rt.fs.CorruptFileAll(target, ev.Seed); n > 0 && rt.obs != nil {
			rt.obs.Counter("integrity.injected_blocks").Add(float64(n))
		}
	case corrupt.KindScrub:
		// A checksum-less system (integrity checks off) has nothing to
		// verify replicas against: scheduled scrub passes are inert, like
		// the read paths.
		if !rt.IntegrityChecks() {
			return
		}
		rep, d := rt.fs.Scrub(ev.Budget, ev.At)
		rt.tracer.Record(trace.Event{
			Kind: trace.KindScrub,
			Name: fmt.Sprintf("scrub: %d replicas scanned, %d repaired", rep.ScannedBlocks, rep.RepairedBlocks),
			// Like re-replication, the scrub runs in the background: the
			// span carries its extent but the driver clock does not block.
			Start: ev.At, End: ev.At + d, Bytes: rep.ScannedBytes, Lane: rt.lane,
		})
		if rt.obs != nil {
			rt.obs.Counter("integrity.scrub_passes").Add(1)
			rt.obs.Counter("integrity.scrubbed_bytes").Add(float64(rep.ScannedBytes))
		}
		rt.drainIntegrity(ev.At)
	case corrupt.KindTransfer:
		// Window onset: nothing to apply. Engines consult the plan on
		// every transfer attempt priced inside the window.
	}
}

// checkpointTarget resolves the file the latest-checkpoint pointer of
// a model family names, without charging any traffic (the corruption
// plan is the adversary, not a tenant). Empty when no checkpoint
// exists yet or the pointer carries no payload.
func (rt *Runtime) checkpointTarget(name string) string {
	ptr, ok := rt.fs.Open(latestPointer(name))
	if !ok {
		return ""
	}
	return string(ptr.Data())
}

// drainIntegrity folds the DFS integrity layer's detection and repair
// activity since the last drain into the trace, the metrics and the
// registry. Called after every clock advance (from syncFaults), so
// detections surface next to the read that triggered them.
func (rt *Runtime) drainIntegrity(at simtime.Time) {
	evs := rt.fs.DrainIntegrityEvents()
	if len(evs) == 0 {
		return
	}
	var detected, repaired int
	var detectedBytes, repairedBytes int64
	for _, ev := range evs {
		switch ev.Op {
		case "detect":
			detected++
			detectedBytes += ev.Bytes
			rt.tracer.Record(trace.Event{
				Kind:  trace.KindCorruptionDetect,
				Name:  fmt.Sprintf("%q block %d: checksum mismatch on node %d, replica quarantined", ev.File, ev.Block, ev.Node),
				Start: at, End: at, Bytes: ev.Bytes, Lane: rt.lane, Parent: rt.span,
			})
		case "repair":
			repaired++
			repairedBytes += ev.Bytes
			rt.tracer.Record(trace.Event{
				Kind:  trace.KindReReplication,
				Name:  fmt.Sprintf("%q block %d: re-replicated to node %d after corruption", ev.File, ev.Block, ev.Node),
				Start: at, End: at, Bytes: ev.Bytes, Lane: rt.lane, Parent: rt.span,
			})
		}
	}
	rt.metrics.ReReplicationBytes += repairedBytes
	if rt.obs != nil {
		if detected > 0 {
			rt.obs.Counter("integrity.detected_blocks").Add(float64(detected))
			rt.obs.Counter("integrity.detected_bytes").Add(float64(detectedBytes))
		}
		if repaired > 0 {
			rt.obs.Counter("integrity.repaired_blocks").Add(float64(repaired))
			rt.obs.Counter("integrity.repair_bytes").Add(float64(repairedBytes))
		}
	}
}

// flowDamage names one flow of a charged batch that a bit-error window
// hit: idx is the flow's index in the caller's slice, seed the per-hit
// perturbation seed. With detection on a damaged flow only surfaces
// after verified delivery failed for good (re-send budget exhausted or
// the path severed mid-retry); with detection off every corrupt
// arrival surfaces, silently, for the caller to model the damage.
type flowDamage struct {
	idx  int
	seed uint64
}

// ChargeFlows records the given transfers on the cluster fabric and
// advances the clock by their bottleneck transfer time, returning the
// total bytes that crossed node boundaries. The PIC driver uses it for
// partition-scatter and merge-gather traffic.
//
// Under a registered NetworkPlan the flows are priced by the overlay
// active at the charge time, and flows whose path is severed by an
// outage or partition are dropped rather than charged — bulk placement
// is best-effort, and the PIC driver routes around cut groups anyway
// (their sub-problems merge a stale partial). Dropped flows are
// visible as the shortfall in the returned byte count and on the
// net.dropped_flows counter.
//
// Under a registered corrupt.Plan with detection on, arrivals inside a
// bit-error window fail their checksum and are re-sent at the advanced
// clock until they land clean (bounded by simcluster.CorruptResendCap); the
// re-sent bytes are real traffic and appear in the returned count.
func (rt *Runtime) ChargeFlows(flows []simnet.Flow) int64 {
	moved, _ := rt.chargeFlowsVerified(flows)
	return moved
}

// chargeFlowsVerified is ChargeFlows plus the integrity outcome: the
// returned damage list is empty for fault-free runs and, with
// detection on, for every batch whose corrupt arrivals were
// successfully re-sent.
func (rt *Runtime) chargeFlowsVerified(flows []simnet.Flow) (int64, []flowDamage) {
	start := rt.now()
	fabric := rt.Cluster().Fabric()
	// kept maps the charged slice back to the caller's indices once a
	// severed flow has been filtered out; nil means nothing was dropped
	// and the indices coincide.
	var kept []int
	for i, fl := range flows {
		if fabric.ReachableAt(fl.Src, fl.Dst, start) {
			if kept != nil {
				kept = append(kept, i)
			}
			continue
		}
		if kept == nil {
			kept = make([]int, i, len(flows))
			for k := range kept {
				kept[k] = k
			}
		}
	}
	if kept != nil {
		if rt.obs != nil {
			rt.obs.Counter("net.dropped_flows").Add(float64(len(flows) - len(kept)))
		}
		deliverable := make([]simnet.Flow, len(kept))
		for k, i := range kept {
			deliverable[k] = flows[i]
		}
		flows = deliverable
	}
	before := fabric.Counters().Total
	tt, err := fabric.TransferTimeAt(flows, start)
	if err != nil {
		// Severed flows were filtered above and the overlay is constant
		// at an instant, so a typed failure here cannot happen.
		panic("core: ChargeFlows: " + err.Error())
	}
	fabric.Record(flows)
	rt.elapsed += tt
	rt.syncFaults()
	damage := rt.resolveFlowCorruption(flows, kept, start)
	moved := fabric.Counters().Total - before
	if moved > 0 {
		var attrs []trace.Attr
		if rt.tracer != nil {
			attrs = []trace.Attr{{Key: "class", Value: dominantClass(fabric, flows)}}
		}
		rt.tracer.Record(trace.Event{
			Kind: trace.KindTransfer, Name: "flows", Start: start, End: rt.now(),
			Bytes: moved, Lane: rt.lane, Parent: rt.span, Attrs: attrs,
		})
	}
	rt.observeNow()
	return moved, damage
}

// resolveFlowCorruption checks a just-recorded batch against the
// corruption plan's bit-error windows (priced at time start) and, with
// detection on, re-sends corrupt arrivals until they land clean. The
// clock advances by the re-send times; re-pricing at the advanced
// clock re-rolls the window, so a finite window is eventually escaped.
func (rt *Runtime) resolveFlowCorruption(flows []simnet.Flow, kept []int, start simtime.Time) []flowDamage {
	plan := rt.Cluster().CorruptionPlan()
	if !plan.HasTransferEvents() {
		return nil
	}
	var hit []flowDamage // indices into flows, not the caller's slice
	for i, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes == 0 {
			continue
		}
		if seed, h := plan.TransferHit(fl.Src, fl.Dst, start); h {
			hit = append(hit, flowDamage{idx: i, seed: seed})
		}
	}
	if len(hit) == 0 {
		return nil
	}
	// callerIdx rewrites a damage list from indices into flows to the
	// caller's indices (the same thing when nothing was dropped).
	callerIdx := func(dmg []flowDamage) []flowDamage {
		if kept != nil {
			for k := range dmg {
				dmg[k].idx = kept[dmg[k].idx]
			}
		}
		return dmg
	}
	if !rt.IntegrityChecks() {
		// Silent damage: report every corrupt arrival and say nothing
		// anywhere else.
		return callerIdx(hit)
	}
	fabric := rt.Cluster().Fabric()
	detects := len(hit)
	var resends int
	var resentBytes int64
	var failed []flowDamage
	pending := hit
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt >= simcluster.CorruptResendCap {
			break
		}
		now := rt.now()
		subset := make([]simnet.Flow, 0, len(pending))
		keptPending := pending[:0:0]
		for _, d := range pending {
			fl := flows[d.idx]
			if !fabric.ReachableAt(fl.Src, fl.Dst, now) {
				// The path was severed between the corrupt arrival and
				// the re-send: the flow is undeliverable verified.
				failed = append(failed, d)
				continue
			}
			subset = append(subset, fl)
			keptPending = append(keptPending, d)
		}
		if len(subset) == 0 {
			pending = nil
			break
		}
		tt, err := fabric.TransferTimeAt(subset, now)
		if err != nil {
			panic("core: ChargeFlows re-send: " + err.Error())
		}
		fabric.Record(subset)
		for _, fl := range subset {
			resentBytes += fl.Bytes
		}
		resends += len(subset)
		rt.elapsed += tt
		rt.syncFaults()
		// Re-roll each re-sent flow at the time it was priced.
		still := keptPending[:0:0]
		for _, d := range keptPending {
			fl := flows[d.idx]
			if seed, h := plan.TransferHit(fl.Src, fl.Dst, now); h {
				d.seed = seed
				still = append(still, d)
				detects++
			}
		}
		pending = still
	}
	failed = append(failed, pending...)
	rt.metrics.CorruptRetries += resends
	rt.metrics.CorruptRetryBytes += resentBytes
	rt.tracer.Record(trace.Event{
		Kind:  trace.KindCorruptionDetect,
		Name:  fmt.Sprintf("%d corrupt transfer arrivals, %d re-sent", detects, resends),
		Start: start, End: rt.now(), Bytes: resentBytes, Lane: rt.lane, Parent: rt.span,
	})
	if rt.obs != nil {
		rt.obs.Counter("integrity.transfer_detects").Add(float64(detects))
		rt.obs.Counter("integrity.retried_bytes").Add(float64(resentBytes))
	}
	return callerIdx(failed)
}

// blindModelDamage decides whether a job's model distribution at time
// start arrives damaged when detection is off: the plan's bit-error
// windows are consulted for the home→node transfer of every view node,
// exactly as the engine's checksum layer would have. Detection on
// means the engine re-sends internally, so this path never engages.
func (rt *Runtime) blindModelDamage(start simtime.Time) (uint64, bool) {
	plan := rt.Cluster().CorruptionPlan()
	if !plan.HasTransferEvents() || rt.IntegrityChecks() {
		return 0, false
	}
	home := rt.LiveModelHome()
	for _, n := range rt.Cluster().Nodes() {
		if n == home {
			continue
		}
		if seed, hit := plan.TransferHit(home, n, start); hit {
			return seed, true
		}
	}
	return 0, false
}

// ckptSeq parses the sequence number out of a checkpoint file name
// ("models/<name>/<seq>[.delta]"), -1 when the name has another shape.
func ckptSeq(file string) int64 {
	base := strings.TrimSuffix(file, deltaSuffix)
	i := strings.LastIndexByte(base, '/')
	if i < 0 {
		return -1
	}
	seq, err := strconv.ParseInt(base[i+1:], 10, 64)
	if err != nil {
		return -1
	}
	return seq
}

// sortFlowDamage orders a damage list by caller index, so downstream
// handling is independent of re-send scheduling order.
func sortFlowDamage(dmg []flowDamage) {
	sort.Slice(dmg, func(i, j int) bool { return dmg[i].idx < dmg[j].idx })
}
