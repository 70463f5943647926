package bench

import (
	"fmt"

	"repro/internal/simcluster"
	"repro/internal/simtime"
)

// FaultRow is one scheme × condition cell of the node-failure ablation.
type FaultRow struct {
	Scheme            string
	Condition         string
	Time              float64
	Slowdown          float64 // vs the same scheme's healthy run
	RescheduledTasks  int
	ReReplicationB    int64
	GroupRepairs      int
	LostPartials      int
	ConvergedLikeSame bool // final model matches the healthy run's quality gate
}

// FaultSweepResult exercises §VII's fault-tolerance claim end to end: a
// whole node crashes mid-run (disk and all), HDFS re-replicates its
// blocks, the framework reschedules its tasks, and — under PIC — the
// best-effort groups repair around the hole. Both schemes must still
// converge; the interesting question is what the crash costs each.
type FaultSweepResult struct {
	CrashNode   int
	CrashTime   float64
	RecoverTime float64
	// Schedule lists the injected fault events, one line each, so the
	// run report records exactly what the numbers were measured under.
	Schedule     []string
	Rows         []FaultRow
	SpeedupFault float64 // PIC-vs-IC speedup with the crash injected
}

// AblationNodeFailure runs K-means under both schemes on a healthy
// cluster and then again with one node crashing partway through (and
// recovering, empty, near the end of the healthy PIC run's span).
func AblationNodeFailure() (*FaultSweepResult, error) {
	points := scaled(300_000, 40_000)
	const dims = 3
	w, _ := KMeansWorkload("kmeans-faults", simcluster.Small(), points, 25, dims, 6, 3)
	// The input dataset lives in the DFS (as it would on a real cluster),
	// so a crash always has replicated state to restore — even before the
	// first model checkpoint is written.
	w.inputBytes = int64(points) * dims * 8

	// Healthy baselines — they also calibrate the crash time: the node
	// dies a quarter of the way into the healthy PIC run, early enough
	// to land inside every phase of both schemes.
	icHealthy, err := w.RunIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: faults IC healthy: %w", err)
	}
	picHealthy, err := w.RunPIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: faults PIC healthy: %w", err)
	}

	crashAt := simtime.Time(picHealthy.Duration) / 4
	recoverAt := simtime.Time(picHealthy.Duration) * 9 / 10
	const crashNode = 1
	plan := &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: crashNode, Time: crashAt},
		{Node: crashNode, Time: recoverAt, Recover: true},
	}}

	crashed := *w
	crashed.failures = plan
	icFault, err := crashed.RunIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: faults IC crash: %w", err)
	}
	picFault, err := crashed.RunPIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: faults PIC crash: %w", err)
	}

	res := &FaultSweepResult{
		CrashNode:    crashNode,
		CrashTime:    float64(crashAt),
		RecoverTime:  float64(recoverAt),
		SpeedupFault: float64(icFault.Duration) / float64(picFault.Duration),
	}
	for _, ev := range plan.Events {
		what := "crashes"
		if ev.Recover {
			what = "recovers (empty)"
		}
		res.Schedule = append(res.Schedule, fmt.Sprintf("t=%.1f s: node %d %s", float64(ev.Time), ev.Node, what))
	}
	res.Rows = append(res.Rows,
		FaultRow{Scheme: "IC", Condition: "healthy", Time: float64(icHealthy.Duration), Slowdown: 1,
			ConvergedLikeSame: icHealthy.Converged},
		FaultRow{Scheme: "IC", Condition: "node crash", Time: float64(icFault.Duration),
			Slowdown:         float64(icFault.Duration) / float64(icHealthy.Duration),
			RescheduledTasks: icFault.Metrics.RescheduledTasks, ReReplicationB: icFault.Metrics.ReReplicationBytes,
			ConvergedLikeSame: icFault.Converged},
		FaultRow{Scheme: "PIC", Condition: "healthy", Time: float64(picHealthy.Duration), Slowdown: 1,
			ConvergedLikeSame: picHealthy.TopOffConverged},
		FaultRow{Scheme: "PIC", Condition: "node crash", Time: float64(picFault.Duration),
			Slowdown:         float64(picFault.Duration) / float64(picHealthy.Duration),
			RescheduledTasks: picFault.Metrics.RescheduledTasks, ReReplicationB: picFault.Metrics.ReReplicationBytes,
			GroupRepairs: picFault.GroupRepairs, LostPartials: picFault.LostPartials,
			ConvergedLikeSame: picFault.TopOffConverged},
	)
	return res, nil
}

// Render formats the ablation.
func (r *FaultSweepResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Ablation — node failure (K-means, small cluster; node %d crashes at %.1f s, returns empty at %.1f s)",
		r.CrashNode, r.CrashTime, r.RecoverTime))
	t.row("Scheme / condition", "Time", "Slowdown", "Resched tasks", "Re-repl", "Group repairs", "Converged")
	for _, row := range r.Rows {
		conv := "yes"
		if !row.ConvergedLikeSame {
			conv = "NO"
		}
		t.row(row.Scheme+" "+row.Condition, fmt.Sprintf("%.1f s", row.Time),
			fmt.Sprintf("%.2fx", row.Slowdown), fmt.Sprint(row.RescheduledTasks),
			FormatBytes(row.ReReplicationB),
			fmt.Sprintf("%d (+%d lost)", row.GroupRepairs, row.LostPartials), conv)
	}
	t.row("PIC speedup under failure", fmt.Sprintf("%.2fx", r.SpeedupFault))
	for _, line := range r.Schedule {
		t.row("fault schedule", line)
	}
	return t.String()
}
