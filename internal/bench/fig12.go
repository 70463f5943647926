package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps/linsolve"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simtime"
)

// TrajectoryPoint is one sample of an error-vs-time curve.
type TrajectoryPoint struct {
	Time  simtime.Time
	Value float64
}

// Trajectory is one scheme's error-vs-time curve.
type Trajectory struct {
	Scheme string
	Points []TrajectoryPoint
}

// Fig12Result is one panel of Figure 12: the quality trajectory of the
// conventional implementation against PIC's (best-effort samples, then
// top-off samples continuing on the same clock).
type Fig12Result struct {
	Title  string
	Metric string
	IC     Trajectory
	PIC    Trajectory
}

// Render draws the panel as an ASCII chart followed by the sampled
// series.
func (r *Fig12Result) Render() string {
	var sb strings.Builder
	sb.WriteString(r.Chart(72, 16))
	sb.WriteByte('\n')
	var t table
	t.row("scheme", "time", r.Metric)
	for _, p := range r.IC.Points {
		t.row("IC", fmt.Sprintf("%.1f s", float64(p.Time)), fmt.Sprintf("%.6g", p.Value))
	}
	for _, p := range r.PIC.Points {
		t.row("PIC", fmt.Sprintf("%.1f s", float64(p.Time)), fmt.Sprintf("%.6g", p.Value))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// FinalValues returns the last error value of each curve.
func (r *Fig12Result) FinalValues() (ic, pic float64) {
	return r.IC.Points[len(r.IC.Points)-1].Value, r.PIC.Points[len(r.PIC.Points)-1].Value
}

// TimeToReach returns the first time each curve reaches the given error
// level (simtime.Time(-1) when a curve never does) — how the paper reads
// Figure 12: PIC reaches the baseline's final quality in a fraction of
// the time.
func (r *Fig12Result) TimeToReach(level float64) (ic, pic simtime.Time) {
	find := func(tr Trajectory) simtime.Time {
		for _, p := range tr.Points {
			if p.Value <= level {
				return p.Time
			}
		}
		return simtime.Time(-1)
	}
	return find(r.IC), find(r.PIC)
}

// Fig12a reproduces Figure 12(a): neural-network validation error
// (misclassification rate) versus time for both schemes.
func Fig12a() (*Fig12Result, error) {
	nn, err := neuralNet()
	if err != nil {
		return nil, err
	}
	return nn.panel("Figure 12(a) — neural network training: model error vs time", "validation error"), nil
}

// Fig12b reproduces Figure 12(b): K-means centroid displacement from
// iteration to iteration versus time.
func Fig12b() (*Fig12Result, error) {
	km, err := mediumKMeans()
	if err != nil {
		return nil, err
	}
	return km.panel("Figure 12(b) — K-means: centroid displacement vs time", "max centroid displacement"), nil
}

// Fig12c reproduces Figure 12(c): linear-solver distance to the unique
// golden solution versus time.
func Fig12c() (*Fig12Result, error) {
	w, app := LinSolveWorkload("linsolve-fig12c", simcluster.Small(), 100, 6, 5)
	golden, err := app.Golden()
	if err != nil {
		return nil, err
	}
	n := len(golden)
	t, err := runTraced(w, func() func(*model.Model) float64 {
		return func(m *model.Model) float64 { return linsolve.Solution(m, n).Sub(golden).Norm2() }
	})
	if err != nil {
		return nil, err
	}
	return t.panel("Figure 12(c) — linear equation solver: error vs time", "distance to exact solution"), nil
}
