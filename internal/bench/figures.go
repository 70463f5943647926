package bench

import (
	"fmt"

	"repro/internal/simcluster"
	"repro/internal/simtime"
)

// Fig2Result reproduces Figure 2: run time and interconnect traffic for
// K-means on the 64-node cluster, with PIC's time split into its two
// phases (paper: 100M points into 100 clusters; scaled to 100k points).
type Fig2Result struct {
	ICTime         simtime.Duration
	PICBestEffort  simtime.Duration
	PICTopOff      simtime.Duration
	ICTrafficBytes int64 // intermediate data + model updates
	PICTraffic     int64
	Speedup        float64
	ICIterations   int
	BEIterations   int
	TopOffIters    int
}

// Fig2 runs the Figure 2 experiment. The six sub-problems are
// rack-sized node groups (§III-B: "a group of tightly-coupled nodes
// (e.g., a rack) can execute the sub-problem"), keeping per-partition
// clusters statistically meaningful at the scaled-down data size.
func Fig2() (*Fig2Result, error) {
	km, err := mediumKMeans()
	if err != nil {
		return nil, err
	}
	c := km.Comparison
	// The traffic panel uses the paper's counters: intermediate data
	// (map output bytes, the Hadoop counter) plus model updates for
	// the baseline; for PIC, the data the best-effort phase moves over
	// the network plus its model updates and the top-off iterations'
	// intermediate data.
	icTraffic := c.IC.Metrics.MapOutputBytes + c.IC.ModelUpdateBytes
	picTraffic := c.PIC.BEMetrics.ShuffleNetworkBytes + c.PIC.MergeTrafficBytes +
		c.PIC.ModelUpdateBytes + c.PIC.TopOffMetrics.MapOutputBytes
	return &Fig2Result{
		ICTime:         c.IC.Duration,
		PICBestEffort:  c.PIC.BEDuration,
		PICTopOff:      c.PIC.TopOffDuration,
		ICTrafficBytes: icTraffic,
		PICTraffic:     picTraffic,
		Speedup:        c.Speedup(),
		ICIterations:   c.IC.Iterations,
		BEIterations:   c.PIC.BEIterations,
		TopOffIters:    c.PIC.TopOffIterations,
	}, nil
}

// Render formats the result as the two panels of Figure 2.
func (r *Fig2Result) Render() string {
	var t table
	t.title("Figure 2 — K-means on the 64-node cluster (scaled: 600k points, 25 clusters)")
	t.row("", "Baseline (IC)", "PIC")
	t.row("Run time", FormatDuration(r.ICTime), FormatDuration(r.PICBestEffort+r.PICTopOff))
	t.row("  best-effort phase", "-", FormatDuration(r.PICBestEffort))
	t.row("  top-off phase", "-", FormatDuration(r.PICTopOff))
	t.row("Iterations", fmt.Sprint(r.ICIterations),
		fmt.Sprintf("%d BE + %d TO", r.BEIterations, r.TopOffIters))
	t.row("Intermediate data + model updates", FormatBytes(r.ICTrafficBytes), FormatBytes(r.PICTraffic))
	t.row("Speedup", "1.00x", fmt.Sprintf("%.2fx", r.Speedup))
	return t.String()
}

// SpeedupRow is one bar of a Figure 9/10 speedup chart.
type SpeedupRow struct {
	App          string
	ICTime       simtime.Duration
	PICBestEff   simtime.Duration
	PICTopOff    simtime.Duration
	Speedup      float64
	ICIterations int
	BEIterations int
	TopOffIters  int
}

// SpeedupFigure holds a full speedup chart.
type SpeedupFigure struct {
	Title string
	Rows  []SpeedupRow
}

// Render formats the chart as a bar chart followed by the table.
func (f *SpeedupFigure) Render() string {
	var t table
	t.sb.WriteString(f.Bars(48))
	t.sb.WriteByte('\n')
	t.title(f.Title)
	t.row("Application", "IC time", "PIC best-eff", "PIC top-off", "Speedup", "iters IC/BE/TO")
	for _, r := range f.Rows {
		t.row(r.App, FormatDuration(r.ICTime), FormatDuration(r.PICBestEff),
			FormatDuration(r.PICTopOff), fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d/%d/%d", r.ICIterations, r.BEIterations, r.TopOffIters))
	}
	return t.String()
}

// comparisonRow runs w under both schemes as one bar of a speedup chart.
func comparisonRow(app string, w *Workload) (SpeedupRow, error) {
	c, err := RunComparison(w)
	if err != nil {
		return SpeedupRow{}, err
	}
	return SpeedupRow{
		App:          app,
		ICTime:       c.IC.Duration,
		PICBestEff:   c.PIC.BEDuration,
		PICTopOff:    c.PIC.TopOffDuration,
		Speedup:      c.Speedup(),
		ICIterations: c.IC.Iterations,
		BEIterations: c.PIC.BEIterations,
		TopOffIters:  c.PIC.TopOffIterations,
	}, nil
}

// speedupFigure runs one cell per bar and assembles the chart by index.
func speedupFigure(title string, cells ...func() (SpeedupRow, error)) (*SpeedupFigure, error) {
	fig := &SpeedupFigure{Title: title, Rows: make([]SpeedupRow, len(cells))}
	if err := runCells(len(cells), func(i int) error {
		var err error
		fig.Rows[i], err = cells[i]()
		return err
	}); err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig9 reproduces Figure 9: K-means (5M→50k points, 100 clusters),
// PageRank (1.8M→20k pages, 18 partitions) and the linear equation
// solver (100 variables) on the small 6-node cluster.
func Fig9() (*SpeedupFigure, error) {
	return speedupFigure("Figure 9 — speedups on the small (6-node) cluster",
		func() (SpeedupRow, error) {
			nKM := scaled(600_000, 30_000)
			km, _ := KMeansWorkload("kmeans-fig9", simcluster.Small(), nKM, 25, 3, 6, 3)
			return comparisonRow(fmt.Sprintf("K-means (%dk pts, 25 clusters)", nKM/1000), km)
		},
		func() (SpeedupRow, error) {
			nPR := scaled(20_000, 2_000)
			pr, _ := PageRankWorkload("pagerank-fig9", simcluster.Small(), nPR, 18, 0.05, 4)
			return comparisonRow(fmt.Sprintf("PageRank (%dk pages, 18 parts)", nPR/1000), pr)
		},
		func() (SpeedupRow, error) {
			ls, _ := LinSolveWorkload("linsolve-fig9", simcluster.Small(), 100, 6, 5)
			return comparisonRow("Linear solver (100 vars)", ls)
		},
	)
}

// Fig10 reproduces Figure 10: K-means (10M→100k 3-D points), neural
// network training (210k→8k OCR vectors) and image smoothing
// (40 Mpixel→0.5 Mpixel) on the medium 64-node cluster.
func Fig10() (*SpeedupFigure, error) {
	return speedupFigure("Figure 10 — speedups on the medium (64-node) cluster",
		func() (SpeedupRow, error) {
			nKM := scaled(600_000, 30_000)
			km, _ := KMeansWorkload("kmeans-fig10", simcluster.Medium(), nKM, 25, 3, 6, 6)
			return comparisonRow(fmt.Sprintf("K-means (%dk pts, 3-D)", nKM/1000), km)
		},
		func() (SpeedupRow, error) {
			nn, err := neuralNet()
			if err != nil {
				return SpeedupRow{}, err
			}
			return neuralNetQualityRow(nn.panel("", ""), nn.icFinalErr, nn.Comparison), nil
		},
		func() (SpeedupRow, error) {
			sm, _ := SmoothingWorkload("smoothing-fig10", simcluster.Medium(), 1024, scaled(512, 64), 16, 8)
			return comparisonRow("Image smoothing (1024x512)", sm)
		},
	)
}

// neuralNetQualityRow compares the schemes the way the paper's Figure
// 12(a) reads: training has no natural fixed point within the epoch
// budget, so each scheme's time is the moment its model first matches
// the baseline's final validation error icErr (the paper: "virtually
// identical ... in less than a quarter of the time"), or its whole run
// when it never does.
func neuralNetQualityRow(fig *Fig12Result, icErr float64, c *Comparison) SpeedupRow {
	icReached, picReached := fig.TimeToReach(icErr)
	icTime, picTime := c.IC.Duration, c.PIC.Duration
	if icReached >= 0 {
		icTime = simtime.Duration(icReached)
	}
	if picReached >= 0 {
		picTime = simtime.Duration(picReached)
	}
	return SpeedupRow{
		App:          "Neural net (8k OCR, equal quality)",
		ICTime:       icTime,
		PICBestEff:   min(c.PIC.BEDuration, picTime),
		PICTopOff:    max(0, picTime-c.PIC.BEDuration),
		Speedup:      float64(icTime) / float64(picTime),
		ICIterations: c.IC.Iterations,
		BEIterations: c.PIC.BEIterations,
		TopOffIters:  c.PIC.TopOffIterations,
	}
}

// Fig11Point is one cluster size of the strong-scaling experiment.
type Fig11Point struct {
	Nodes   int
	ICTime  simtime.Duration
	PICTime simtime.Duration
	Speedup float64
}

// Fig11Result reproduces Figure 11: PIC-versus-IC speedup for image
// smoothing with a fixed dataset as the cluster grows from 64 to 256
// nodes.
type Fig11Result struct {
	Points []Fig11Point
}

// Fig11 runs the strong-scaling experiment.
func Fig11() (*Fig11Result, error) {
	sizes := []int{64, 128, 192, 256}
	res := &Fig11Result{Points: make([]Fig11Point, len(sizes))}
	if err := runCells(len(sizes), func(i int) error {
		nodes := sizes[i]
		w, _ := SmoothingWorkload(fmt.Sprintf("smoothing-%dn", nodes),
			simcluster.Large(nodes), 1024, scaled(512, 64), 16, 8)
		c, err := RunComparison(w)
		if err != nil {
			return err
		}
		res.Points[i] = Fig11Point{
			Nodes:   nodes,
			ICTime:  c.IC.Duration,
			PICTime: c.PIC.Duration,
			Speedup: c.Speedup(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the scaling series.
func (r *Fig11Result) Render() string {
	var t table
	t.title("Figure 11 — strong scaling of the PIC speedup (image smoothing, fixed input)")
	t.row("Nodes", "IC time", "PIC time", "Speedup")
	for _, p := range r.Points {
		t.row(fmt.Sprint(p.Nodes), FormatDuration(p.ICTime), FormatDuration(p.PICTime),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t.String()
}
