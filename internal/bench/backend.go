package bench

import (
	"bytes"
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Backend ablation.
//
// The BSP backend runs the same applications as superstep programs:
// PageRank and smoothing have native vertex programs, so one framework
// iteration becomes one two-superstep Pregel computation instead of a
// job (pair). Both backends are priced on the same simulated fabric and
// cost model, so the ablation isolates the execution-model difference:
// mapred pays per-job overhead and overlapped shuffles; BSP pays
// per-superstep barriers and un-overlapped message exchanges, with
// sender-node-level combining. The ablation runs IC and PIC under both
// backends, reports the per-link traffic shape (total / cross-rack /
// intra-rack / node-local bytes) of each cell, checks byte-identity of
// every cell across engine worker counts plus a repeated run, and
// sweeps the problem size to locate the pace crossover — the size where
// the winning backend flips (barrier-dominated small problems favor
// BSP; overlap-dominated large exchanges favor mapred).

// BackendCell is one (application, scheme, backend) run.
type BackendCell struct {
	App     string // "pagerank" or "smoothing"
	Scheme  string // "ic" or "pic"
	Backend string // "mapred" or "bsp"
	// Iterations counts framework iterations (IC) or best-effort plus
	// top-off rounds (PIC); Supersteps counts BSP supersteps (zero on
	// the mapred backend).
	Iterations int
	Supersteps int
	// Duration is simulated time.
	Duration simtime.Duration
	// ExchangeSeconds is time moving intermediate data (shuffle on
	// mapred, message exchange on BSP); OverheadSeconds is coordination
	// time (job start/finish on mapred, barriers on BSP).
	ExchangeSeconds simtime.Duration
	OverheadSeconds simtime.Duration
	// Traffic is the per-link-class shape of every byte the cell's
	// fabric carried: cross-rack vs intra-rack vs node-local.
	Traffic simnet.Counters
	// Identical reports that the workers-1, workers-8 and repeated
	// workers-8 runs produced byte-identical models, metrics and
	// durations.
	Identical bool
}

// BackendCrossover is one application's pace-crossover sweep: IC runs
// of both backends across problem sizes.
type BackendCrossover struct {
	App   string
	Sizes []int // vertices (pagerank) or image rows (smoothing)
	// Mapred and BSP are the simulated durations per size; Ratio is
	// Mapred/BSP (values above 1 mean BSP is faster).
	Mapred []simtime.Duration
	BSP    []simtime.Duration
	// CrossoverSize is the interpolated size where the ratio crosses
	// 1.0, or 0 when one backend wins across the whole range.
	CrossoverSize int
}

// Ratio returns Mapred[i]/BSP[i].
func (x *BackendCrossover) Ratio(i int) float64 {
	return float64(x.Mapred[i]) / float64(x.BSP[i])
}

// BackendResult holds the scheme × backend grid and the crossover
// sweeps.
type BackendResult struct {
	Cells      []BackendCell
	Crossovers []BackendCrossover
}

// backendWorkload builds the ablation's workload for one app at one
// problem size, capped to a handful of rounds so the 2×2×2 grid and the
// size sweep stay fast at any scale.
func backendWorkload(app string, size int) (*Workload, error) {
	var w *Workload
	switch app {
	case "pagerank":
		w, _ = PageRankWorkload(fmt.Sprintf("%s-backend-%d", app, size),
			simcluster.Small(), size, 5, 0.05, 4)
	case "smoothing":
		w, _ = SmoothingWorkload(fmt.Sprintf("%s-backend-%d", app, size),
			simcluster.Small(), 64, size, 4, 1)
	default:
		return nil, fmt.Errorf("bench: abl-backend: unknown app %q", app)
	}
	w.ICOpts.MaxIterations = 6
	w.PICOpts.MaxBEIterations = 3
	w.PICOpts.MaxLocalIterations = 5
	w.PICOpts.MaxTopOffIterations = 3
	return w, nil
}

// backendCellSize is the default grid size per app.
func backendCellSize(app string) int {
	if app == "pagerank" {
		return scaled(2_000, 400) // vertices
	}
	return scaled(128, 32) // image rows
}

// runBackendOnce executes one (app, scheme, backend) run at the given
// engine worker count and returns the cell measurements plus a
// byte-identity fingerprint (encoded model, metrics and duration).
func runBackendOnce(app, scheme string, backend core.Backend, size, workers int) (*BackendCell, []byte, error) {
	w, err := backendWorkload(app, size)
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.New()
	var backendErr error
	w.configure = func(rt *core.Runtime) {
		rt.Engine().Workers = workers
		backendErr = rt.SetBackend(backend)
		rt.SetObservability(reg)
	}

	run, err := w.runScheme(scheme)
	if err = cmp.Or(err, backendErr); err != nil {
		return nil, nil, err
	}
	cell := &BackendCell{App: app, Scheme: scheme, Backend: string(backend),
		Iterations: run.iterations, Duration: run.duration,
		ExchangeSeconds: run.metrics.ShufflePhase, OverheadSeconds: run.metrics.OverheadPhase}
	var fp bytes.Buffer
	fp.Write(run.model.Encode(nil))
	fmt.Fprintf(&fp, "|%+v|%v", run.metrics, run.duration)
	cell.Traffic = run.rt.Cluster().Fabric().Counters()
	snap := reg.Snapshot()
	if m, ok := snap.Get("bsp.supersteps"); ok {
		cell.Supersteps = int(m.Value)
	}
	fmt.Fprintf(&fp, "|%+v", cell.Traffic)
	return cell, fp.Bytes(), nil
}

// crossoverSizes returns each app's size ladder for the pace sweep.
func crossoverSizes(app string) []int {
	if app == "pagerank" {
		return []int{500, 2_000, 8_000}
	}
	return []int{48, 192, 768}
}

// interpolateCrossover locates the size where the mapred/BSP duration
// ratio crosses 1.0, linearly interpolating between the two bracketing
// sweep points; zero means no crossover in range.
func interpolateCrossover(x *BackendCrossover) int {
	for i := 1; i < len(x.Sizes); i++ {
		a, b := x.Ratio(i-1)-1, x.Ratio(i)-1
		if a == 0 {
			return x.Sizes[i-1]
		}
		if a*b < 0 {
			t := a / (a - b)
			return x.Sizes[i-1] + int(t*float64(x.Sizes[i]-x.Sizes[i-1]))
		}
	}
	if last := len(x.Sizes) - 1; last >= 0 && x.Ratio(last) == 1 {
		return x.Sizes[last]
	}
	return 0
}

// AblationBackend runs the 2 apps × {IC, PIC} × {mapred, BSP} grid with
// per-cell worker-count and repeat byte-identity checks, then sweeps
// problem size per app to locate the pace crossover between backends.
func AblationBackend() (*BackendResult, error) {
	res := &BackendResult{}
	apps := []string{"pagerank", "smoothing"}

	type gridCell struct{ app, scheme, backend string }
	var grid []gridCell
	for _, app := range apps {
		for _, scheme := range []string{"ic", "pic"} {
			for _, backend := range []string{"mapred", "bsp"} {
				grid = append(grid, gridCell{app, scheme, backend})
			}
		}
	}
	cells := make([]BackendCell, len(grid))
	err := runCells(len(grid), func(i int) error {
		g := grid[i]
		size := backendCellSize(g.app)
		// Serial leg, measured leg, and a repeat of the measured leg:
		// the simulation must not notice real parallelism or reruns.
		_, fpSerial, err := runBackendOnce(g.app, g.scheme, core.Backend(g.backend), size, 1)
		if err != nil {
			return fmt.Errorf("bench: abl-backend %s/%s/%s workers=1: %w", g.app, g.scheme, g.backend, err)
		}
		meas, fpMeas, err := runBackendOnce(g.app, g.scheme, core.Backend(g.backend), size, 8)
		if err != nil {
			return fmt.Errorf("bench: abl-backend %s/%s/%s workers=8: %w", g.app, g.scheme, g.backend, err)
		}
		_, fpRepeat, err := runBackendOnce(g.app, g.scheme, core.Backend(g.backend), size, 8)
		if err != nil {
			return fmt.Errorf("bench: abl-backend %s/%s/%s repeat: %w", g.app, g.scheme, g.backend, err)
		}
		meas.Identical = bytes.Equal(fpSerial, fpMeas) && bytes.Equal(fpMeas, fpRepeat)
		cells[i] = *meas
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells

	crossovers := make([]BackendCrossover, len(apps))
	err = runCells(len(apps), func(i int) error {
		app := apps[i]
		x := BackendCrossover{App: app, Sizes: crossoverSizes(app)}
		for _, size := range x.Sizes {
			for _, backend := range []core.Backend{core.BackendMapred, core.BackendBSP} {
				cell, _, err := runBackendOnce(app, "ic", backend, size, 8)
				if err != nil {
					return fmt.Errorf("bench: abl-backend crossover %s/%s n=%d: %w", app, backend, size, err)
				}
				if backend == core.BackendMapred {
					x.Mapred = append(x.Mapred, cell.Duration)
				} else {
					x.BSP = append(x.BSP, cell.Duration)
				}
			}
		}
		x.CrossoverSize = interpolateCrossover(&x)
		crossovers[i] = x
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Crossovers = crossovers
	return res, nil
}

// Identical reports that every grid cell passed its worker-count and
// repeat byte-identity check.
func (r *BackendResult) Identical() bool {
	for _, c := range r.Cells {
		if !c.Identical {
			return false
		}
	}
	return true
}

// Render formats the grid and the crossover sweeps.
func (r *BackendResult) Render() string {
	var t table
	t.title("Ablation — execution backend (mapred jobs vs BSP supersteps)")
	t.row("App / scheme / backend", "iters", "supersteps", "duration", "exchange", "overhead", "total", "cross-rack", "intra-rack", "local")
	for _, c := range r.Cells {
		steps := "-"
		if c.Supersteps > 0 {
			steps = fmt.Sprint(c.Supersteps)
		}
		t.row(fmt.Sprintf("%s %s %s", c.App, c.Scheme, c.Backend),
			fmt.Sprint(c.Iterations),
			steps,
			FormatDuration(c.Duration),
			FormatDuration(c.ExchangeSeconds),
			FormatDuration(c.OverheadSeconds),
			FormatBytes(c.Traffic.Total),
			FormatBytes(c.Traffic.CrossRack),
			FormatBytes(c.Traffic.IntraRack),
			FormatBytes(c.Traffic.Local))
	}
	for _, x := range r.Crossovers {
		for i, size := range x.Sizes {
			t.row(fmt.Sprintf("%s pace n=%d", x.App, size),
				fmt.Sprintf("mapred %s", FormatDuration(x.Mapred[i])),
				fmt.Sprintf("bsp %s", FormatDuration(x.BSP[i])),
				fmt.Sprintf("ratio %.2fx", x.Ratio(i)))
		}
		if x.CrossoverSize > 0 {
			t.row(fmt.Sprintf("%s pace crossover", x.App), fmt.Sprintf("≈ n=%d", x.CrossoverSize))
		} else {
			last := len(x.Sizes) - 1
			winner := "bsp"
			if x.Ratio(last) < 1 {
				winner = "mapred"
			}
			t.row(fmt.Sprintf("%s pace crossover", x.App), fmt.Sprintf("none in range (%s wins)", winner))
		}
	}
	verdict := "yes"
	if !r.Identical() {
		verdict = "NO — parallelism or repetition changed simulated results"
	}
	t.row("Workers 1 vs 8 vs repeat identical", verdict)
	return t.String()
}
