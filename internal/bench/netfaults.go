package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// NetFaultRow is one link-outage intensity level of the network-fault
// ablation: the same K-means problem run conventionally and under PIC
// while the cluster's core bisection periodically drops dead.
type NetFaultRow struct {
	// OutageFrac is the fraction of each period the core spends down.
	OutageFrac float64
	// Schedule describes this level's fault windows.
	Schedule string
	// ICTime and PICTime are run durations under that schedule;
	// ICIters and PICIters the iteration counts (PIC = BE + top-off).
	ICTime, PICTime   simtime.Duration
	ICIters, PICIters int
	// ICBlocked and PICBlocked are simulated time each driver spent
	// stalled waiting out fault windows; ICRetries and PICRetries the
	// transfer retries the engine burned bridging them.
	ICBlocked, PICBlocked simtime.Duration
	ICRetries, PICRetries int
	// DegradedMerges counts PIC best-effort merges that proceeded on a
	// quorum of partials.
	DegradedMerges int
	// Converged reports that both schemes still reached their
	// convergence criterion under this schedule — without it the times
	// compare unfinished work.
	Converged bool
	// Speedup is ICTime / PICTime.
	Speedup float64
}

// NetFaultSweepResult is the network-fault ablation: the paper's §VII
// argues PIC's best-effort phase needs no cross-partition traffic, so
// network turbulence that stalls every conventional iteration leaves
// the local solves untouched — the PIC-over-IC speedup must grow (or
// at worst hold) as the outages lengthen.
type NetFaultSweepResult struct {
	// Period is the outage cadence; Horizon is how far the schedule
	// extends (past the longest run).
	Period, Horizon float64
	Rows            []NetFaultRow
}

// netFaultPlan scripts periodic rack-uplink outages: every period
// seconds one rack's uplink goes dark for frac of the period, rotating
// through racks 1–3 (never rack 0, where the driver's model home
// lives), out to horizon. A rack cut severs at most two of PIC's six
// group leaders — few enough that a quorum of four fresh partials
// stays reachable and merges proceed degraded — while IC, which must
// touch every node every iteration, stalls on each window.
func netFaultPlan(frac, period, horizon float64) *simnet.NetworkPlan {
	if frac <= 0 {
		return nil
	}
	p := &simnet.NetworkPlan{}
	for i := 0; ; i++ {
		start := period * float64(i)
		if start+period*frac > horizon {
			break
		}
		p.Faults = append(p.Faults, simnet.NetFault{
			Kind:   simnet.FaultRackUplink,
			Rack:   1 + i%3,
			Start:  simtime.Time(start),
			End:    simtime.Time(start + period*frac),
			Factor: 0,
		})
	}
	return p
}

// netFaultKnobs sets the engine's degraded-transfer knobs relative to
// the fault cadence, so the sweep behaves identically at any -scale:
// attempts get a deadline well under a window, and three retries with
// a short backoff bridge brief dips while long outages exhaust them and
// force the driver to block.
func netFaultKnobs(period float64) func(*core.Runtime) {
	return func(rt *core.Runtime) {
		rt.Engine().TransferTimeout = simtime.Duration(period / 3)
		rt.Engine().TransferRetries = 3
		rt.Engine().RetryBackoff = simtime.Duration(period / 24)
	}
}

// AblationNetworkFault sweeps the duty fraction of periodic core
// outages and compares IC against PIC under each level. IC needs the
// bisection every iteration (model distribution, input fetch, shuffle)
// and stalls — retrying through short windows, blocking through long
// ones — while PIC's in-memory local solves run straight through and
// only its merges wait, on a quorum.
func AblationNetworkFault() (*NetFaultSweepResult, error) {
	points := scaled(300_000, 40_000)
	const dims = 3
	w, _ := KMeansWorkload("kmeans-netfaults", tenancyCluster(), points, 25, dims, 6, 3)
	// The input dataset lives in the DFS, so a partition always has
	// replicated state to repair around.
	w.inputBytes = 64 << 20

	// The healthy IC run calibrates the schedule: outages repeat every
	// quarter of its span, out to a horizon no degraded run outlives.
	// (The period is irrelevant under a nil plan — the engine takes its
	// legacy transfer path — so any value calibrates.)
	w.configure = netFaultKnobs(1)
	icHealthy, err := w.RunIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: netfaults IC healthy: %w", err)
	}
	period := float64(icHealthy.Duration) / 4
	horizon := float64(icHealthy.Duration) * 8

	// Merge on 4 of 6 fresh partials after a short gather wait — a rack
	// cut severs at most two leaders, so a quorum always stays in reach.
	// The fault-free rows never consult these (no plan registered).
	w.PICOpts.MergeQuorum = 4
	w.PICOpts.MergeTimeout = simtime.Duration(period / 24)
	w.configure = netFaultKnobs(period)

	fracs := []float64{0, 0.15, 0.3, 0.45}
	res := &NetFaultSweepResult{Period: period, Horizon: horizon,
		Rows: make([]NetFaultRow, len(fracs))}
	if err := runCells(len(fracs), func(i int) error {
		frac := fracs[i]
		cell := *w
		cell.network = netFaultPlan(frac, period, horizon)
		ic, err := cell.RunIC(nil)
		if err != nil {
			return fmt.Errorf("bench: netfaults IC at %.2f: %w", frac, err)
		}
		pic, err := cell.RunPIC(nil)
		if err != nil {
			return fmt.Errorf("bench: netfaults PIC at %.2f: %w", frac, err)
		}
		schedule := "none"
		if cell.network != nil {
			schedule = fmt.Sprintf("rack uplink down %.1f s every %.1f s × %d (racks 1-3 rotating)",
				period*frac, period, len(cell.network.Faults))
		}
		res.Rows[i] = NetFaultRow{
			OutageFrac: frac,
			Schedule:   schedule,
			ICTime:     ic.Duration, PICTime: pic.Duration,
			ICIters: ic.Iterations, PICIters: pic.BEIterations + pic.TopOffIterations,
			ICBlocked: ic.Blocked, PICBlocked: pic.Blocked,
			ICRetries: ic.Metrics.TransferRetries, PICRetries: pic.Metrics.TransferRetries,
			DegradedMerges: len(pic.DegradedMerges),
			Converged:      ic.Converged && pic.TopOffConverged,
			Speedup:        float64(ic.Duration) / float64(pic.Duration),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Monotone reports whether the speedup column is non-decreasing in the
// outage intensity — the ablation's acceptance criterion.
func (r *NetFaultSweepResult) Monotone() bool {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Speedup < r.Rows[i-1].Speedup-1e-9 {
			return false
		}
	}
	return true
}

// Render formats the sweep, fault schedule included.
func (r *NetFaultSweepResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Ablation — network faults (K-means IC vs PIC; periodic rack-uplink outages, period %.1f s)", r.Period))
	t.row("Outage schedule", "IC time", "IC iters", "IC blocked", "IC retries",
		"PIC time", "PIC iters", "PIC blocked", "Degraded merges", "Converged", "Speedup")
	for _, row := range r.Rows {
		conv := "yes"
		if !row.Converged {
			conv = "NO"
		}
		t.row(row.Schedule,
			FormatDuration(row.ICTime), fmt.Sprint(row.ICIters),
			FormatDuration(row.ICBlocked), fmt.Sprint(row.ICRetries),
			FormatDuration(row.PICTime), fmt.Sprint(row.PICIters),
			FormatDuration(row.PICBlocked), fmt.Sprint(row.DegradedMerges),
			conv, fmt.Sprintf("%.2fx", row.Speedup))
	}
	if !r.Monotone() {
		t.row("WARNING", "speedup not monotone in outage intensity")
	}
	return t.String()
}
