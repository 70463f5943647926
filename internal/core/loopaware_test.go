package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/writable"
)

// Loop-aware chaos regression tests.
//
// The meanSeeker chaos workload gains a fused-capable twin here so the
// invariant-input cache is actually exercised under failure plans: a
// crash must evict exactly the dead node's cache (re-homed splits
// re-stage cold on survivors), a network partition must retry the model
// delta with the same accounting as a cold run, and in every case the
// warm run's simulated observables must match the cold run's exactly.

// fusedMeanMapper is meanSeeker's mapper with the loop-aware fused
// capabilities bolted on, for the job that reduces by
// mapred.VectorSum{Then: then} into a model holding "mean". Every
// arithmetic step reproduces the cold pipeline's floating-point order
// exactly: VectorSum copies the first emitted value and adds the rest
// in arrival order, so the fused kernels copy the first point and add
// the rest in record order.
type fusedMeanMapper struct {
	then func(sum []float64) writable.Vector
}

func (fusedMeanMapper) Map(_ string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
	p := v.(writable.Vector)
	withCount := append(p.Clone(), 1)
	emit.Emit("mean", withCount)
	return nil
}

// packedMeanPoints is the cached derived form: points flattened into
// one contiguous array.
type packedMeanPoints struct {
	flat    []float64
	n, dims int
}

func (p *packedMeanPoints) SizeBytes() int64 { return int64(8 * len(p.flat)) }

func (fusedMeanMapper) NewDerived(recs []mapred.Record) mapred.SplitDerived {
	if len(recs) == 0 {
		return nil
	}
	first, ok := recs[0].Value.(writable.Vector)
	if !ok || len(first) == 0 {
		return nil
	}
	dims := len(first)
	pp := &packedMeanPoints{flat: make([]float64, 0, len(recs)*dims), n: len(recs), dims: dims}
	for _, r := range recs {
		p, ok := r.Value.(writable.Vector)
		if !ok || len(p) != dims {
			return nil
		}
		pp.flat = append(pp.flat, p...)
	}
	return pp
}

// add folds pp's points, each with a count of 1, into acc in record
// order: a nil acc starts as a copy of the first.
func (pp *packedMeanPoints) add(acc writable.Vector) writable.Vector {
	for i := 0; i < pp.n; i++ {
		row := pp.flat[i*pp.dims : (i+1)*pp.dims]
		if acc == nil {
			acc = make(writable.Vector, pp.dims+1)
			copy(acc, row)
			acc[pp.dims] = 1
		} else {
			for j, x := range row {
				acc[j] += x
			}
			acc[pp.dims] += 1
		}
	}
	return acc
}

func (fusedMeanMapper) MapInto(d mapred.SplitDerived, _, into *model.Model, part *mapred.Partial) (int64, int64, error) {
	slot, ok := into.Schema().Slot("mean")
	if part == nil || !ok {
		return 0, 0, mapred.ErrFusedUnsupported
	}
	pp := d.(*packedMeanPoints)
	part.AddRow(slot, pp.add(nil))
	rec := mapred.Record{Key: "mean", Value: make(writable.Vector, pp.dims+1)}
	return int64(pp.n), int64(pp.n) * rec.Size(), nil
}

func (mp fusedMeanMapper) FuseLocal(ds []mapred.SplitDerived, _, _ *model.Model, _ func(int, func(int)), emit mapred.Emitter) (int64, int64, error) {
	var acc writable.Vector
	var total int64
	dims := -1
	for _, d := range ds {
		pp := d.(*packedMeanPoints)
		if dims < 0 {
			dims = pp.dims
		} else if pp.dims != dims {
			return 0, 0, mapred.ErrFusedUnsupported
		}
		acc = pp.add(acc)
		total += int64(pp.n)
	}
	if acc != nil {
		emit.Emit("mean", mp.then(acc))
	}
	return total, 0, nil
}

// fusedSeeker is meanSeeker with the fused mapper and loop-aware
// partition layout reuse: its job reduces by slot into the next model.
type fusedSeeker struct{ meanSeeker }

func (a *fusedSeeker) Iteration(rt *Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	cur, _ := m.Vector("mean")
	move := func(acc []float64) writable.Vector {
		n := acc[len(acc)-1]
		moved := make(writable.Vector, len(acc)-1)
		for i := range moved {
			moved[i] = cur[i] + 0.5*(acc[i]/n-cur[i])
		}
		return moved
	}
	next := m.NewLike()
	job := &mapred.Job{
		Name:     "mean",
		Mapper:   fusedMeanMapper{then: move},
		Combiner: mapred.VectorSum{},
		Reducer:  mapred.VectorSum{Then: move},
		Into:     next,
	}
	if _, err := rt.RunJob(job, in, m); err != nil {
		return nil, err
	}
	return next, nil
}

// PartitionModels implements LoopPartitioner: meanSeeker's Partition
// deals records deterministically and copies the model, so the stepper
// may pin the record layout and rebuild only the models.
func (a *fusedSeeker) PartitionModels(m *model.Model, p int) []*model.Model {
	return CopyModels(m, p)
}

// runLoopChaosPIC runs the fused chaos workload under optional failure
// and network plans, warm or cold.
func runLoopChaosPIC(t *testing.T, failplan *simcluster.FailurePlan, netplan *simnet.NetworkPlan, warm bool) (*PICResult, *Runtime, *trace.Tracer) {
	t.Helper()
	cluster := simcluster.New(simcluster.Config{
		Nodes:              4,
		RackSize:           2,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		ComputeRate:        1e6,
		NodeBandwidth:      1e6,
		RackBandwidth:      4e6,
		CoreBandwidth:      4e6,
	})
	cluster.SetFailurePlan(failplan)
	cluster.SetNetworkPlan(netplan)
	rt := NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 10})
	if !warm {
		rt.SetLoopCache(false)
	}
	tr := trace.New()
	rt.SetTracer(tr)
	if netplan != nil {
		rt.Engine().TransferTimeout = 1
		rt.Engine().TransferRetries = 2
	}
	rt.FS().CreateWithData("input/points", make([]byte, 200<<10), 0)
	in, _ := pointsInput(rt, 40)
	opts := chaosPICOpts
	if netplan != nil {
		opts.MergeQuorum = 3
		opts.MergeTimeout = 0.5
	}
	res, err := RunPIC(rt, &fusedSeeker{meanSeeker{eps: 1e-9}}, in, startModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rt, tr
}

// renderSansCache renders a timeline without the cache's point
// annotations — the only events permitted to differ cold vs warm.
func renderSansCache(tr *trace.Tracer) string {
	var sb strings.Builder
	for _, e := range tr.Events() {
		if e.Kind == trace.KindCacheWarm || e.Kind == trace.KindCacheEvict {
			continue
		}
		fmt.Fprintf(&sb, "%s|%s|%v|%v|%d|%d|%d|%d\n",
			e.Kind, e.Name, e.Start, e.End, e.Bytes, e.Lane, e.ID, e.Parent)
	}
	return sb.String()
}

// TestLoopAwareChaosWarmMatchesCold is the cache-coherence-under-faults
// conformance check: with a node crash scripted mid-run, a warm run's
// metrics, final model and timeline (cache annotations aside) must be
// byte-identical to a cold run under the same plan.
func TestLoopAwareChaosWarmMatchesCold(t *testing.T) {
	healthy, _, _ := runLoopChaosPIC(t, nil, nil, true)
	if !healthy.TopOffConverged {
		t.Fatal("healthy warm run did not converge")
	}
	plan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 0, Time: simtime.Time(healthy.BEDuration) / 3},
	}}
	cold, _, coldTr := runLoopChaosPIC(t, plan, nil, false)
	warmRes, _, warmTr := runLoopChaosPIC(t, plan, nil, true)
	if cold.Metrics != warmRes.Metrics {
		t.Fatalf("metrics differ cold vs warm under a crash:\n%+v\n%+v", cold.Metrics, warmRes.Metrics)
	}
	if cold.Duration != warmRes.Duration {
		t.Fatalf("durations differ cold vs warm: %v vs %v", cold.Duration, warmRes.Duration)
	}
	if string(cold.Model.Encode(nil)) != string(warmRes.Model.Encode(nil)) {
		t.Fatal("final models differ cold vs warm under a crash")
	}
	if renderSansCache(coldTr) != renderSansCache(warmTr) {
		t.Fatalf("timelines differ cold vs warm (cache events excluded):\n--- cold ---\n%s--- warm ---\n%s",
			renderSansCache(coldTr), renderSansCache(warmTr))
	}
}

// TestLoopAwareChaosCrashEvictsOnlyDeadNode crashes one node mid-family:
// exactly that node's cache is evicted, the survivors keep theirs, and
// the splits re-homed off the dead node re-stage cold (extra misses
// relative to a healthy run).
func TestLoopAwareChaosCrashEvictsOnlyDeadNode(t *testing.T) {
	healthy, healthyRt, _ := runLoopChaosPIC(t, nil, nil, true)
	healthyStats := healthyRt.LoopCacheStats()
	if healthyStats.Hits == 0 || healthyStats.Misses == 0 {
		t.Fatalf("healthy warm run exercised no cache: %+v", healthyStats)
	}
	if healthyStats.Evictions != 0 {
		t.Fatalf("healthy run evicted %d entries with nothing failing", healthyStats.Evictions)
	}

	plan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 0, Time: simtime.Time(healthy.BEDuration) / 3},
	}}
	res, rt, tr := runLoopChaosPIC(t, plan, nil, true)
	if !res.TopOffConverged {
		t.Fatal("crash run did not converge")
	}
	stats := rt.LoopCacheStats()
	if stats.Evictions == 0 {
		t.Fatal("crash evicted nothing from the dead node's cache")
	}
	if countKind(tr, trace.KindCacheEvict) == 0 {
		t.Fatal("trace has no cache-evict events for the crash")
	}
	if countKind(tr, trace.KindCacheWarm) == 0 {
		t.Fatal("trace has no cache-warm events")
	}
	// The dead node's cache is empty; at least one survivor's is not.
	if entries, bytes := rt.LoopFamily().NodeResident(0); entries != 0 || bytes != 0 {
		t.Fatalf("crashed node still holds %d cached entries (%d bytes)", entries, bytes)
	}
	surviving := 0
	for n := 1; n < 4; n++ {
		if entries, _ := rt.LoopFamily().NodeResident(n); entries > 0 {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatal("crash emptied the survivors' caches too")
	}
	// Re-homed splits re-stage cold on their new homes.
	if stats.Misses <= healthyStats.Misses {
		t.Fatalf("crash run staged %d splits, healthy run %d — re-homed splits did not re-stage",
			stats.Misses, healthyStats.Misses)
	}
}

// TestLoopAwareNetChaosRetryAccounting drops a deep core brownout onto
// the middle of a warm IC run: the per-iteration delta shipments blow
// the transfer deadline and retry through the window with exactly the
// cold run's retry accounting — RetryBytes present once, not
// double-counted, and every other metric identical.
func TestLoopAwareNetChaosRetryAccounting(t *testing.T) {
	run := func(warm bool, plan *simnet.NetworkPlan) (*ICResult, mapred.FamilyStats) {
		cluster := simcluster.New(simcluster.Config{
			Nodes:              4,
			RackSize:           2,
			MapSlotsPerNode:    2,
			ReduceSlotsPerNode: 1,
			ComputeRate:        1e6,
			NodeBandwidth:      1e6,
			RackBandwidth:      4e6,
			CoreBandwidth:      4e6,
		})
		cluster.SetNetworkPlan(plan)
		rt := NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 64 << 10})
		if !warm {
			rt.SetLoopCache(false)
		}
		rt.Engine().TransferTimeout = 0.05
		rt.Engine().TransferRetries = 3
		in, _ := pointsInput(rt, 40)
		res, err := RunIC(rt, &fusedSeeker{meanSeeker{eps: 1e-9}}, in, startModel(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, rt.LoopCacheStats()
	}
	healthy, _ := run(true, nil)
	if !healthy.Converged {
		t.Fatal("healthy run did not converge")
	}
	// Core capacity at one millionth for a one-second window in the
	// middle of the run: transfer attempts inside it blow the 0.05 s
	// deadline and bridge the window on a later retry.
	mid := simtime.Time(healthy.Duration) / 3
	plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
		{Kind: simnet.FaultCore, Start: mid, End: mid + 1, Factor: 1e-6},
	}}
	cold, coldStats := run(false, plan)
	warmRes, warmStats := run(true, plan)
	if coldStats.Hits != 0 || coldStats.Misses != 0 {
		t.Fatalf("cold run touched the cache: %+v", coldStats)
	}
	if warmStats.Hits == 0 {
		t.Fatal("warm run under the brownout hit nothing — cache not exercised")
	}
	if cold.Metrics.TransferRetries == 0 || cold.Metrics.RetryBytes == 0 {
		t.Fatalf("brownout caused no retries in the cold run: %+v", cold.Metrics)
	}
	if warmRes.Metrics.TransferRetries != cold.Metrics.TransferRetries {
		t.Fatalf("TransferRetries differ warm vs cold: %d vs %d",
			warmRes.Metrics.TransferRetries, cold.Metrics.TransferRetries)
	}
	if warmRes.Metrics.RetryBytes != cold.Metrics.RetryBytes {
		t.Fatalf("RetryBytes differ warm vs cold: %d vs %d — delta shipment double-counted",
			warmRes.Metrics.RetryBytes, cold.Metrics.RetryBytes)
	}
	if cold.Metrics != warmRes.Metrics {
		t.Fatalf("metrics differ warm vs cold under the brownout:\n%+v\n%+v", cold.Metrics, warmRes.Metrics)
	}
	if string(cold.Model.Encode(nil)) != string(warmRes.Model.Encode(nil)) {
		t.Fatal("final models differ warm vs cold under the brownout")
	}
}
