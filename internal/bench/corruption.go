package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/model"
	"repro/internal/simtime"
)

// CorruptionRow is one cell of the silent-corruption ablation: a
// bit-error rate and a detection arm, with the same K-means problem run
// conventionally and under PIC.
type CorruptionRow struct {
	// Rate is the per-attempt corruption probability inside the
	// scripted bit-error windows; zero means no plan (the healthy
	// reference arm).
	Rate float64
	// Detection reports whether checksums were verified (integrity
	// checks on) or corruption passed silently.
	Detection bool
	// Schedule describes the cell's corruption script.
	Schedule string
	// ICTime and PICTime are run durations; ICIters and PICIters the
	// iteration counts (PIC = BE + top-off).
	ICTime, PICTime   simtime.Duration
	ICIters, PICIters int
	// ICResends and PICResends count transfer attempts that arrived
	// with a bad checksum and were re-sent; ResendBytes the traffic
	// those re-sends carried (both runs).
	ICResends, PICResends int
	ResendBytes           int64
	// DetectedBlocks, RepairBytes and ScrubbedBytes sum the DFS
	// integrity layer's activity across both runs: replicas caught by a
	// checksum mismatch, re-replication traffic, and scrubber scan
	// volume.
	DetectedBlocks int
	RepairBytes    int64
	ScrubbedBytes  int64
	// RejectedPartials counts PIC merge inputs whose verified delivery
	// failed (the merge proceeded with the partition's starting model);
	// Rollbacks counts checkpoint restores that fell back to an older
	// verified sequence.
	RejectedPartials int
	Rollbacks        int
	// ICQuality and PICQuality measure final-model damage: the largest
	// per-key delta against the healthy run's converged model
	// (non-finite deltas — a corrupted float blown up to Inf/NaN — are
	// clamped to 1e300 so results stay JSON-encodable).
	ICQuality, PICQuality float64
	// ICConverged and PICConverged report each driver reaching its
	// convergence criterion (rather than its iteration cap).
	ICConverged, PICConverged bool
	// Speedup is ICTime / PICTime.
	Speedup float64
}

// CorruptionSweepResult is the silent-corruption ablation: with
// detection on, checksummed transfers re-send damaged payloads, the
// verify-on-read DFS quarantines poisoned replicas and the scrubber
// repairs them in the background, so both schemes converge to the
// healthy model at every bit-error rate — for bounded re-send and
// repair traffic. With detection off the same script corrupts models
// in flight undetected, and convergence degrades or fails as the rate
// climbs.
type CorruptionSweepResult struct {
	// Period is the window cadence; Horizon how far the script extends.
	Period, Horizon float64
	// Tolerance is the final-model delta below which a run counts as
	// undamaged (a small multiple of the workload's convergence
	// threshold).
	Tolerance float64
	Rows      []CorruptionRow
}

// corruptionPlan scripts the sweep cell's corruption: back-to-back
// bit-error windows rotating over the non-home nodes (full duty, so
// every model distribution and gather rolls against the rate), one
// poisoned input-block replica per period, and a background scrubber
// pass per period to catch it.
func corruptionPlan(rate, period, horizon float64, input string, nodes int) *corrupt.Plan {
	if rate <= 0 {
		return nil
	}
	p := &corrupt.Plan{}
	for i := 0; ; i++ {
		start := period * float64(i)
		if start+period > horizon {
			break
		}
		p.Events = append(p.Events,
			corrupt.Event{
				Kind:  corrupt.KindTransfer,
				Node:  1 + i%(nodes-1), // never node 0, the model home's rack anchor
				Start: simtime.Duration(start),
				End:   simtime.Duration(start + period),
				Rate:  rate,
				Seed:  0xB17E44 + uint64(i),
			},
			corrupt.Event{
				Kind: corrupt.KindBlockReplica, File: input, Block: 0,
				Node: corrupt.PrimaryReplica,
				At:   simtime.Duration(start + period*0.25),
				Seed: 0x5EED + uint64(i),
			},
			corrupt.Event{
				Kind: corrupt.KindScrub, Budget: 1 << 30,
				At:   simtime.Duration(start + period*0.75),
				Seed: uint64(i),
			},
		)
	}
	return p
}

// modelDamage is the quality metric: the largest per-key delta between
// the healthy reference model and the run's final model, clamped to a
// finite sentinel when corruption blew a value up to Inf/NaN.
func modelDamage(ref, got *model.Model) float64 {
	if got == nil {
		return 1e300
	}
	q := math.Max(model.MaxVectorDelta(ref, got), model.MaxFloatDelta(ref, got))
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return 1e300
	}
	return q
}

// AblationCorruption sweeps the bit-error rate of scripted transfer
// corruption (plus periodic replica poisoning and scrubber passes) and
// runs IC and PIC under each rate twice: once with end-to-end
// integrity checks on, once off. Detection on, corrupt arrivals are
// caught by payload checksums and re-sent, poisoned replicas are
// quarantined on read and repaired by the scrubber, and PIC merges
// reject partials whose verified delivery failed — both schemes reach
// the healthy model. Detection off, the same script damages models in
// flight silently and convergence degrades or fails outright.
func AblationCorruption() (*CorruptionSweepResult, error) {
	points := scaled(300_000, 40_000)
	const dims = 3
	w, _ := KMeansWorkload("kmeans-corruption", tenancyCluster(), points, 25, dims, 6, 3)
	nodes := w.Cluster.Nodes
	// The input dataset lives in the DFS so the block-replica events have
	// state to poison and the scrubber has a namespace to walk.
	w.inputBytes = 64 << 20

	// The healthy runs calibrate the schedule and serve as the quality
	// reference: windows repeat every quarter of the healthy IC span,
	// out to a horizon the detection-on runs cannot outlive, and each
	// corrupted run's final model is compared against its own healthy
	// counterpart.
	icHealthy, err := w.RunIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: corruption IC healthy: %w", err)
	}
	picHealthy, err := w.RunPIC(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: corruption PIC healthy: %w", err)
	}
	period := float64(icHealthy.Duration) / 4
	horizon := float64(icHealthy.Duration) * 8
	// A silently-corrupted run keeps iterating without settling; cap it
	// at a few multiples of the healthy iteration count so "fails to
	// converge" is a bounded observation, not a runaway loop.
	iterCap := max(icHealthy.Iterations*4, 40)

	// The workload's convergence threshold (see KMeansWorkload: σ/16
	// with σ = 20% of the component spacing in the ±100 box): a run
	// whose final centroids sit within a few thresholds of the healthy
	// model is undamaged, one knocked further off was corrupted.
	threshold := 0.2 * (200.0 / math.Cbrt(25)) / 16
	tolerance := 4 * threshold

	rates := []float64{0, 0.1, 0.25, 0.5}
	arms := []bool{true, false}
	res := &CorruptionSweepResult{
		Period: period, Horizon: horizon, Tolerance: tolerance,
		Rows: make([]CorruptionRow, len(rates)*len(arms)),
	}
	if err := runCells(len(res.Rows), func(cell int) error {
		rate, detect := rates[cell/len(arms)], arms[cell%len(arms)]
		arm := "detect"
		if !detect {
			arm = "silent"
		}
		cw := *w
		cw.corruption = corruptionPlan(rate, period, horizon, "input/"+w.Name, nodes)
		cw.configure = func(rt *core.Runtime) { rt.SetIntegrityChecks(detect) }
		cw.ICOpts.MaxIterations = iterCap
		cw.PICOpts.MaxTopOffIterations = iterCap
		ic, icRT, err := cw.runIC(nil)
		if err != nil {
			return fmt.Errorf("bench: corruption IC at rate %.2f (%s): %w", rate, arm, err)
		}
		pic, picRT, err := cw.runPIC(nil)
		if err != nil {
			return fmt.Errorf("bench: corruption PIC at rate %.2f (%s): %w", rate, arm, err)
		}
		schedule := "none"
		if cw.corruption != nil {
			schedule = fmt.Sprintf("bit errors rate %.2f, %.1f s windows rotating nodes 1-%d; block poison + scrub each window",
				rate, period, nodes-1)
		}
		icInt, picInt := icRT.FS().Integrity(), picRT.FS().Integrity()
		res.Rows[cell] = CorruptionRow{
			Rate: rate, Detection: detect, Schedule: schedule,
			ICTime: ic.Duration, PICTime: pic.Duration,
			ICIters: ic.Iterations, PICIters: pic.BEIterations + pic.TopOffIterations,
			ICResends: ic.Metrics.CorruptRetries, PICResends: pic.Metrics.CorruptRetries,
			ResendBytes:      ic.Metrics.CorruptRetryBytes + pic.Metrics.CorruptRetryBytes,
			DetectedBlocks:   icInt.DetectedBlocks + picInt.DetectedBlocks,
			RepairBytes:      icInt.RepairedBytes + picInt.RepairedBytes,
			ScrubbedBytes:    icInt.ScrubbedBytes + picInt.ScrubbedBytes,
			RejectedPartials: pic.RejectedPartials,
			Rollbacks:        icRT.IntegrityRollbacks() + picRT.IntegrityRollbacks(),
			ICQuality:        modelDamage(icHealthy.Model, ic.Model),
			PICQuality:       modelDamage(picHealthy.Model, pic.Model),
			ICConverged:      ic.Converged, PICConverged: pic.TopOffConverged,
			Speedup: float64(ic.Duration) / float64(pic.Duration),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// DetectionShields reports the ablation's first acceptance criterion:
// every detection-on cell converged with a final model within
// tolerance of its healthy counterpart, at every bit-error rate.
func (r *CorruptionSweepResult) DetectionShields() bool {
	for _, row := range r.Rows {
		if !row.Detection {
			continue
		}
		if !row.ICConverged || !row.PICConverged ||
			row.ICQuality > r.Tolerance || row.PICQuality > r.Tolerance {
			return false
		}
	}
	return true
}

// SilentDamage reports the second criterion: at the highest scripted
// rate, the detection-off arm visibly suffers — at least one driver
// fails to converge or lands outside tolerance of the healthy model.
func (r *CorruptionSweepResult) SilentDamage() bool {
	var worst *CorruptionRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Detection || row.Rate == 0 {
			continue
		}
		if worst == nil || row.Rate > worst.Rate {
			worst = row
		}
	}
	if worst == nil {
		return false
	}
	return !worst.ICConverged || !worst.PICConverged ||
		worst.ICQuality > r.Tolerance || worst.PICQuality > r.Tolerance
}

// fmtQuality renders a model-damage figure compactly, flagging the
// clamped divergence sentinel.
func fmtQuality(q float64) string {
	if q >= 1e300 {
		return "diverged"
	}
	return fmt.Sprintf("%.3g", q)
}

// Render formats the sweep.
func (r *CorruptionSweepResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Ablation — silent corruption (K-means IC vs PIC; bit-error windows every %.1f s, detection on/off; model-damage tolerance %.3g)", r.Period, r.Tolerance))
	t.row("Rate", "Arm", "IC time", "IC iters", "PIC time", "PIC iters",
		"Re-sends", "Detected", "Repair bytes", "Rejected", "IC damage", "PIC damage", "Converged", "Speedup")
	for _, row := range r.Rows {
		arm := "detect"
		if !row.Detection {
			arm = "silent"
		}
		conv := "yes"
		if !row.ICConverged || !row.PICConverged {
			conv = "NO"
		}
		t.row(fmt.Sprintf("%.2f", row.Rate), arm,
			FormatDuration(row.ICTime), fmt.Sprint(row.ICIters),
			FormatDuration(row.PICTime), fmt.Sprint(row.PICIters),
			fmt.Sprint(row.ICResends+row.PICResends), fmt.Sprint(row.DetectedBlocks),
			FormatBytes(row.RepairBytes), fmt.Sprint(row.RejectedPartials),
			fmtQuality(row.ICQuality), fmtQuality(row.PICQuality),
			conv, fmt.Sprintf("%.2fx", row.Speedup))
	}
	if !r.DetectionShields() {
		t.row("WARNING", "a detection-on cell failed to converge to the healthy model")
	}
	if !r.SilentDamage() {
		t.row("WARNING", "the detection-off arm shows no damage at the highest rate — the script is too gentle to demonstrate anything")
	}
	return t.String()
}
