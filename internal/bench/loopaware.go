package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/simtime"
)

// Loop-aware runtime ablation.
//
// The loop-aware runtime pins persistent per-node workers for a run's
// lifetime and caches each split's loop-invariant bytes and derived
// structures, so an iteration ships only the model delta. The honest
// way to evaluate it: simulated results must not move a single byte
// (the cache is a real-wall-clock optimization, not a cost-model
// change), while the real per-iteration wall time collapses toward the
// fixed bookkeeping floor. This ablation runs the same K-means problem
// cold (cache disabled) and warm (default) under both schemes and
// reports both sides of that bargain.

// LoopAwareCell is one (scheme, cache-mode) run of the ablation.
type LoopAwareCell struct {
	// Scheme is "ic" or "pic"; Warm reports whether the loop cache was
	// enabled.
	Scheme string
	Warm   bool
	// Iterations counts framework iterations (IC iterations, or PIC
	// best-effort plus top-off rounds); Duration is the simulated time.
	Iterations int
	Duration   simtime.Duration
	// Wall is the real wall-clock time of the run — the quantity the
	// loop cache actually buys down. WallPerIter is Wall / Iterations.
	Wall        time.Duration
	WallPerIter time.Duration
	// Stats is the family's cache accounting (all zero when cold).
	Stats mapred.FamilyStats
	// model and metrics capture the run's outputs for the
	// byte-identity check against the other cache mode.
	model   []byte
	metrics string
}

// LoopAwareResult holds the 2×2 (scheme × cache mode) sweep.
type LoopAwareResult struct {
	Cells []LoopAwareCell
	// ICIdentical and PICIdentical report that the warm run's final
	// model bytes and metrics matched the cold run's exactly — the
	// ablation's correctness criterion.
	ICIdentical, PICIdentical bool
}

// runLoopAwareCell executes one cell serially (cells time real wall
// clock, so they must not contend with each other for cores).
func runLoopAwareCell(w *Workload, scheme string, warm bool) (LoopAwareCell, error) {
	cw := *w
	if !warm {
		cw.configure = func(rt *core.Runtime) { rt.SetLoopCache(false) }
	}
	start := time.Now()
	run, err := cw.runScheme(scheme)
	if err != nil {
		return LoopAwareCell{}, fmt.Errorf("bench: loop-aware %s cold=%v: %w", scheme, !warm, err)
	}
	cell := LoopAwareCell{Scheme: scheme, Warm: warm,
		Iterations: run.iterations, Duration: run.duration, Wall: time.Since(start),
		Stats: run.rt.LoopCacheStats(), model: run.model.Encode(nil), metrics: fmt.Sprintf("%+v", run.metrics)}
	if cell.Iterations > 0 {
		cell.WallPerIter = cell.Wall / time.Duration(cell.Iterations)
	}
	return cell, nil
}

// AblationLoopAware runs K-means cold and warm under both schemes.
func AblationLoopAware() (*LoopAwareResult, error) {
	w, _ := KMeansWorkload("kmeans-loopaware", tenancyCluster(),
		scaled(50_000, 5_000), 25, 3, 6, 3)
	w.PICOpts.MaxBEIterations = 5
	w.PICOpts.MaxLocalIterations = 50
	res := &LoopAwareResult{}
	// Serial on purpose: each cell is a wall-clock measurement.
	for _, scheme := range []string{"ic", "pic"} {
		var pair [2]LoopAwareCell
		for j, warm := range []bool{false, true} {
			cell, err := runLoopAwareCell(w, scheme, warm)
			if err != nil {
				return nil, err
			}
			pair[j] = cell
			res.Cells = append(res.Cells, cell)
		}
		identical := bytes.Equal(pair[0].model, pair[1].model) &&
			pair[0].metrics == pair[1].metrics
		if scheme == "ic" {
			res.ICIdentical = identical
		} else {
			res.PICIdentical = identical
		}
	}
	return res, nil
}

// Identical reports that both schemes produced byte-identical models
// and metrics cold versus warm.
func (r *LoopAwareResult) Identical() bool { return r.ICIdentical && r.PICIdentical }

// Render formats the sweep. Wall-clock columns vary run to run (they
// are real time, not simulated); the simulated columns and the
// identity verdict do not.
func (r *LoopAwareResult) Render() string {
	var t table
	t.title("Ablation — loop-aware runtime (K-means, cold vs warm invariant-input cache)")
	t.row("Scheme / cache", "iters", "sim time", "wall/iter", "hits", "misses", "delta/full")
	for _, c := range r.Cells {
		mode := "cold"
		if c.Warm {
			mode = "warm"
		}
		ratio := "-"
		if c.Stats.FullBytes > 0 {
			ratio = fmt.Sprintf("%.4f", float64(c.Stats.DeltaBytes)/float64(c.Stats.FullBytes))
		}
		t.row(fmt.Sprintf("%s %s", c.Scheme, mode),
			fmt.Sprint(c.Iterations),
			FormatDuration(c.Duration),
			c.WallPerIter.Round(time.Microsecond).String(),
			fmt.Sprint(c.Stats.Hits),
			fmt.Sprint(c.Stats.Misses),
			ratio)
	}
	verdict := "yes"
	if !r.Identical() {
		verdict = "NO — cache changed simulated results"
	}
	t.row("Cold/warm outputs byte-identical", verdict)
	return t.String()
}
