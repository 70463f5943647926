package bench

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps/kmeans"
	"repro/internal/apps/linsolve"
	"repro/internal/apps/pagerank"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// PartitionSweepRow is one partition count of the P ablation.
type PartitionSweepRow struct {
	Partitions   int
	BEIterations int
	FirstBELocal int
	TopOffIters  int
	Speedup      float64
	NetworkBytes int64
}

// PartitionSweepResult exercises §III-B's trade-off: "more sub-problems
// of smaller size can increase the number of best-effort iterations"
// while reducing per-partition traffic and adding parallelism.
type PartitionSweepResult struct {
	Rows []PartitionSweepRow
}

// AblationPartitionCount sweeps the number of K-means sub-problems on
// the small cluster.
func AblationPartitionCount() (*PartitionSweepResult, error) {
	counts := []int{1, 2, 6, 12, 24}
	res := &PartitionSweepResult{Rows: make([]PartitionSweepRow, len(counts))}
	if err := runCells(len(counts), func(i int) error {
		p := counts[i]
		var c *Comparison
		var err error
		if p == 6 {
			c, err = smallKMeans()
		} else {
			w, _ := KMeansWorkload(fmt.Sprintf("kmeans-p%d", p), simcluster.Small(), scaled(300_000, 40_000), 25, 3, p, 3)
			c, err = RunComparison(w)
		}
		if err != nil {
			return err
		}
		firstLocal := 0
		if locals := c.PIC.MaxLocalIterationsPerBE(); len(locals) > 0 {
			firstLocal = locals[0]
		}
		res.Rows[i] = PartitionSweepRow{
			Partitions:   p,
			BEIterations: c.PIC.BEIterations,
			FirstBELocal: firstLocal,
			TopOffIters:  c.PIC.TopOffIterations,
			Speedup:      c.Speedup(),
			NetworkBytes: c.PICNetworkBytes(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *PartitionSweepResult) Render() string {
	var t table
	t.title("Ablation — K-means partition count (small cluster, 300k points)")
	t.row("Partitions", "BE iters", "1st-BE locals", "Top-off iters", "Speedup", "PIC net bytes")
	for _, row := range r.Rows {
		t.row(fmt.Sprint(row.Partitions), fmt.Sprint(row.BEIterations),
			fmt.Sprint(row.FirstBELocal), fmt.Sprint(row.TopOffIters),
			fmt.Sprintf("%.2fx", row.Speedup), FormatBytes(row.NetworkBytes))
	}
	return t.String()
}

// CouplingRow is one cross-edge fraction of the coupling ablation.
type CouplingRow struct {
	CrossFraction float64
	CutFraction   float64
	BEIterations  int
	TopOffIters   int
	Speedup       float64
	RankErrorL1   float64
}

// CouplingSweepResult exercises §VI-B: PIC is effective when the
// problem is nearly uncoupled; as cross-partition coupling grows, the
// best-effort phase helps less and the top-off phase works more.
type CouplingSweepResult struct {
	Rows []CouplingRow
}

// AblationGraphCoupling sweeps the web graph's cross-community edge
// fraction for PageRank.
func AblationGraphCoupling() (*CouplingSweepResult, error) {
	fracs := []float64{0.01, 0.05, 0.2, 0.5}
	res := &CouplingSweepResult{Rows: make([]CouplingRow, len(fracs))}
	if err := runCells(len(fracs), func(i int) error {
		cross := fracs[i]
		w, g := PageRankWorkload(fmt.Sprintf("pagerank-x%.2f", cross),
			simcluster.Small(), scaled(10_000, 2_000), 10, cross, 4)
		c, err := RunComparison(w)
		if err != nil {
			return err
		}
		icRanks := pagerank.Ranks(c.IC.Model, g.N)
		picRanks := pagerank.Ranks(c.PIC.Model, g.N)
		var l1, norm float64
		for v := range icRanks {
			d := icRanks[v] - picRanks[v]
			if d < 0 {
				d = -d
			}
			l1 += d
			norm += icRanks[v]
		}
		// The workload partitions by locality (the paper's METIS
		// option), so measure the cut of that assignment.
		assign := webgraph.LocalityPartition(g.N, 10)
		res.Rows[i] = CouplingRow{
			CrossFraction: cross,
			CutFraction:   float64(webgraph.CutEdges(g, assign)) / float64(g.NumEdges()),
			BEIterations:  c.PIC.BEIterations,
			TopOffIters:   c.PIC.TopOffIterations,
			Speedup:       c.Speedup(),
			RankErrorL1:   l1 / norm,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *CouplingSweepResult) Render() string {
	var t table
	t.title("Ablation — PageRank cross-partition coupling (small cluster, 10k pages)")
	t.row("Cross frac", "Cut frac", "BE iters", "Top-off iters", "Speedup", "L1 rank err")
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%.2f", row.CrossFraction), fmt.Sprintf("%.2f", row.CutFraction),
			fmt.Sprint(row.BEIterations), fmt.Sprint(row.TopOffIters),
			fmt.Sprintf("%.2fx", row.Speedup), fmt.Sprintf("%.4f", row.RankErrorL1))
	}
	return t.String()
}

// PartitionerRow is one strategy of the graph-partitioner ablation.
type PartitionerRow struct {
	Strategy     string
	CutFraction  float64
	BEIterations int
	TopOffIters  int
	Speedup      float64
}

// PartitionerSweepResult compares the paper's default random vertex
// partitioning against locality and METIS-style multilevel min-cut
// partitioning (§VI-B: "by properly partitioning it (for example using
// the METIS package), the connectivity matrix of the graph becomes
// nearly uncoupled").
type PartitionerSweepResult struct {
	Rows []PartitionerRow
}

// AblationPartitioner runs PageRank PIC under each partitioning
// strategy on the same graph.
func AblationPartitioner() (*PartitionerSweepResult, error) {
	const (
		vertices   = 10_000
		partitions = 10
		seed       = 4
	)
	g := webgraph.NearlyUncoupled(seed, vertices, partitions, 0.05, 4)
	strategies := []struct {
		name     string
		strategy pagerank.PartitionStrategy
		assign   []int
	}{
		{"random", pagerank.PartitionRandom, webgraph.RandomPartition(seed, vertices, partitions)},
		{"locality", pagerank.PartitionLocality, webgraph.LocalityPartition(vertices, partitions)},
		{"multilevel", pagerank.PartitionMultilevel, webgraph.MultilevelPartition(g, partitions)},
	}
	res := &PartitionerSweepResult{Rows: make([]PartitionerRow, len(strategies))}
	if err := runCells(len(strategies), func(i int) error {
		s := strategies[i]
		w, _ := PageRankWorkload("pagerank-"+s.name, simcluster.Small(), vertices, partitions, 0.05, seed)
		locality := w.MakeApp
		w.MakeApp = func() core.PICApp {
			a := locality().(*pagerank.App)
			a.Strategy = s.strategy
			return a
		}
		c, err := RunComparison(w)
		if err != nil {
			return err
		}
		res.Rows[i] = PartitionerRow{
			Strategy:     s.name,
			CutFraction:  float64(webgraph.CutEdges(g, s.assign)) / float64(g.NumEdges()),
			BEIterations: c.PIC.BEIterations,
			TopOffIters:  c.PIC.TopOffIterations,
			Speedup:      c.Speedup(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *PartitionerSweepResult) Render() string {
	var t table
	t.title("Ablation — PageRank graph partitioner (small cluster, 10k pages)")
	t.row("Partitioner", "Cut frac", "BE iters", "Top-off iters", "Speedup")
	for _, row := range r.Rows {
		t.row(row.Strategy, fmt.Sprintf("%.2f", row.CutFraction),
			fmt.Sprint(row.BEIterations), fmt.Sprint(row.TopOffIters),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	return t.String()
}

// LocalFactorRow is one setting of the in-memory-speed ablation.
type LocalFactorRow struct {
	Factor  float64
	Speedup float64
}

// LocalFactorSweepResult sweeps the calibrated in-memory/framework
// compute ratio, the one assumed constant in the reproduction's cost
// model (see HadoopCost).
type LocalFactorSweepResult struct {
	Rows []LocalFactorRow
}

// AblationLocalFactor sweeps LocalComputeFactor for K-means.
func AblationLocalFactor() (*LocalFactorSweepResult, error) {
	factors := []float64{1, 1.0 / 3, 1.0 / 7, 1.0 / 15}
	res := &LocalFactorSweepResult{Rows: make([]LocalFactorRow, len(factors))}
	if err := runCells(len(factors), func(i int) error {
		f := factors[i]
		cost := HadoopCost()
		cost.LocalComputeFactor = f
		var c *Comparison
		var err error
		if cost == HadoopCost() {
			c, err = smallKMeans()
		} else {
			w, _ := KMeansWorkload(fmt.Sprintf("kmeans-lf%.3f", f), simcluster.Small(), scaled(300_000, 40_000), 25, 3, 6, 3)
			w.Cost = cost
			c, err = RunComparison(w)
		}
		if err != nil {
			return err
		}
		res.Rows[i] = LocalFactorRow{Factor: f, Speedup: c.Speedup()}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *LocalFactorSweepResult) Render() string {
	var t table
	t.title("Ablation — in-memory/framework compute ratio (K-means, small cluster)")
	t.row("LocalComputeFactor", "Speedup")
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%.3f", row.Factor), fmt.Sprintf("%.2fx", row.Speedup))
	}
	return t.String()
}

// DegenerateResult checks the §III-B special case: with one partition
// and a one-iteration best-effort criterion, PIC produces the IC
// solution.
type DegenerateResult struct {
	MaxCentroidDelta float64
	// ConvergenceThreshold is the displacement bound both schemes
	// converged under; the delta must fall below it.
	ConvergenceThreshold float64
}

// looseBEApp wraps a PICApp with an always-true best-effort criterion.
type looseBEApp struct {
	core.PICApp
}

func (looseBEApp) BEConverged(_, _ *model.Model) bool { return true }

// AblationDegenerate runs the degenerate-case check for K-means.
func AblationDegenerate() (*DegenerateResult, error) {
	w, _ := KMeansWorkload("kmeans-degenerate", simcluster.Small(), scaled(60_000, 10_000), 10, 3, 1, 3)
	ic, err := w.RunIC(nil)
	if err != nil {
		return nil, err
	}
	loose := *w
	loose.MakeApp = func() core.PICApp { return looseBEApp{w.MakeApp()} }
	loose.PICOpts.Partitions = 1
	pic, err := loose.RunPIC(nil)
	if err != nil {
		return nil, err
	}
	app := w.MakeApp().(*kmeans.App)
	return &DegenerateResult{
		MaxCentroidDelta:     model.MaxVectorDelta(ic.Model, pic.Model),
		ConvergenceThreshold: app.Threshold,
	}, nil
}

// Render formats the check.
func (r *DegenerateResult) Render() string {
	var t table
	t.title("Ablation — degenerate PIC (1 partition) vs IC")
	t.row("Max centroid delta", fmt.Sprintf("%.3g", r.MaxCentroidDelta))
	t.row("Convergence threshold", fmt.Sprintf("%.3g", r.ConvergenceThreshold))
	within := "YES"
	if r.MaxCentroidDelta >= r.ConvergenceThreshold {
		within = "NO"
	}
	t.row("Delta within threshold", within)
	return t.String()
}

// NetworkModelRow is one network model of the robustness ablation.
type NetworkModelRow struct {
	Model   string
	ICTime  float64
	PICTime float64
	Speedup float64
}

// NetworkModelSweepResult checks that the headline speedup does not
// hinge on the simulator's default optimally-scheduled (bottleneck)
// transfer model: the same workload is run under progressive max-min
// fair sharing (the skeptical TCP-like fluid model).
type NetworkModelSweepResult struct {
	Rows []NetworkModelRow
}

// AblationNetworkModel runs K-means under both network models.
func AblationNetworkModel() (*NetworkModelSweepResult, error) {
	modes := []bool{false, true}
	res := &NetworkModelSweepResult{Rows: make([]NetworkModelRow, len(modes))}
	if err := runCells(len(modes), func(i int) error {
		fair := modes[i]
		name := "bottleneck"
		var c *Comparison
		var err error
		if fair {
			name = "max-min fair"
			w, _ := KMeansWorkload("kmeans-net-"+name, simcluster.Small(), scaled(300_000, 40_000), 25, 3, 6, 3)
			w.configure = func(rt *core.Runtime) { rt.Engine().FairSharingNetwork = true }
			c, err = RunComparison(w)
		} else {
			c, err = smallKMeans()
		}
		if err != nil {
			return err
		}
		res.Rows[i] = NetworkModelRow{
			Model:   name,
			ICTime:  float64(c.IC.Duration),
			PICTime: float64(c.PIC.Duration),
			Speedup: c.Speedup(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *NetworkModelSweepResult) Render() string {
	var t table
	t.title("Ablation — network transfer model (K-means, small cluster)")
	t.row("Model", "IC time", "PIC time", "Speedup")
	for _, row := range r.Rows {
		t.row(row.Model, fmt.Sprintf("%.1f s", row.ICTime), fmt.Sprintf("%.1f s", row.PICTime),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	return t.String()
}

// AsyncRow is one execution mode of the synchrony ablation.
type AsyncRow struct {
	Mode        string
	BETime      float64
	TopOffIters int
	TotalTime   float64
	Speedup     float64 // vs the conventional IC baseline
}

// AsyncSweepResult compares PIC's synchronous best-effort phase with the
// asynchronous variant (chaotic-relaxation style, §VIII's contrast):
// groups publish partial models on their own clocks instead of
// barriering at each merge.
type AsyncSweepResult struct {
	Rows []AsyncRow
}

// AblationAsync runs K-means conventionally, under synchronous PIC, and
// under asynchronous PIC — first on a healthy cluster, then with
// stragglers, where the barrier-free variant shines.
func AblationAsync() (*AsyncSweepResult, error) {
	modes := []bool{false, true}
	res := &AsyncSweepResult{Rows: make([]AsyncRow, 2*len(modes))}
	if err := runCells(len(modes), func(i int) error {
		straggle := modes[i]
		suffix := ""
		if straggle {
			suffix = " + stragglers"
		}
		w, _ := KMeansWorkload("kmeans-async"+suffix, simcluster.Small(), scaled(300_000, 40_000), 25, 3, 6, 3)
		var c *Comparison
		var err error
		if straggle {
			w.configure = func(rt *core.Runtime) {
				rt.Engine().StraggleEveryNthMapTask = 4
				rt.Engine().StragglerSlowdown = 6
			}
			c, err = RunComparison(w)
		} else {
			c, err = smallKMeans()
		}
		if err != nil {
			return err
		}
		rt := w.NewRuntime()
		async, err := core.RunPICAsync(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(),
			core.AsyncOptions{Partitions: w.PICOpts.Partitions})
		if err != nil {
			return err
		}
		ic, sync := c.IC, c.PIC
		res.Rows[2*i] = AsyncRow{Mode: "sync PIC" + suffix, BETime: float64(sync.BEDuration),
			TopOffIters: sync.TopOffIterations, TotalTime: float64(sync.Duration),
			Speedup: c.Speedup()}
		res.Rows[2*i+1] = AsyncRow{Mode: "async PIC" + suffix, BETime: float64(async.BEDuration),
			TopOffIters: async.TopOffIterations, TotalTime: float64(async.Duration),
			Speedup: float64(ic.Duration) / float64(async.Duration)}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the sweep.
func (r *AsyncSweepResult) Render() string {
	var t table
	t.title("Ablation — synchronous vs asynchronous best-effort phase (K-means)")
	t.row("Mode", "BE time", "Top-off iters", "Total", "Speedup vs IC")
	for _, row := range r.Rows {
		t.row(row.Mode, fmt.Sprintf("%.1f s", row.BETime), fmt.Sprint(row.TopOffIters),
			fmt.Sprintf("%.1f s", row.TotalTime), fmt.Sprintf("%.2fx", row.Speedup))
	}
	return t.String()
}

// SeedingRow is one initialization strategy of the seeding ablation.
type SeedingRow struct {
	Seeding      string
	ICIterations int
	ICTime       float64
	PICTime      float64
	Speedup      float64
}

// SeedingSweepResult exercises the observation PIC is built on (§I:
// "the time to convergence depends on the specific choice of the
// initial model"): a better seeding (k-means++) shortens the
// conventional run, and PIC's best-effort phase is itself an
// initial-model generator, so the two compose.
type SeedingSweepResult struct {
	Rows []SeedingRow
}

// AblationSeeding compares clumped, random (first-k of a shuffled
// dataset) and k-means++ initialization under both schemes.
func AblationSeeding() (*SeedingSweepResult, error) {
	seedings := []string{"clumped", "random", "k-means++"}
	res := &SeedingSweepResult{Rows: make([]SeedingRow, len(seedings))}
	if err := runCells(len(seedings), func(i int) error {
		seeding := seedings[i]
		var c *Comparison
		var err error
		if seeding == "random" {
			c, err = smallKMeans()
		} else {
			w, ps := KMeansWorkload("kmeans-seed-"+seeding, simcluster.Small(), scaled(300_000, 40_000), 25, 3, 6, 3)
			w.MakeModel = func() *model.Model { return clumpedModel(ps.Points, 25) }
			if seeding == "k-means++" {
				w.MakeModel = func() *model.Model { return kmeans.InitialModelPlusPlus(ps.Points, 25, 99) }
			}
			c, err = RunComparison(w)
		}
		if err != nil {
			return err
		}
		res.Rows[i] = SeedingRow{
			Seeding:      seeding,
			ICIterations: c.IC.Iterations,
			ICTime:       float64(c.IC.Duration),
			PICTime:      float64(c.PIC.Duration),
			Speedup:      c.Speedup(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// clumpedModel is the adversarial start: the k seeds nearest to one
// point — the "bad initial model" end of §I's observation.
func clumpedModel(points []linalg.Vector, k int) *model.Model {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(points))
	for i, p := range points {
		var d float64
		for j := range p {
			diff := p[j] - points[0][j]
			d += diff * diff
		}
		cands[i] = cand{i, d}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	m := model.New()
	for j := 0; j < k; j++ {
		m.Set(kmeans.CentroidKey(j), writableVector(points[cands[j].idx]))
	}
	return m
}

// writableVector deep-copies a point into a writable vector.
func writableVector(p []float64) writable.Vector {
	out := make(writable.Vector, len(p))
	copy(out, p)
	return out
}

// Render formats the sweep.
func (r *SeedingSweepResult) Render() string {
	var t table
	t.title("Ablation — initial-model seeding (K-means, small cluster)")
	t.row("Seeding", "IC iters", "IC time", "PIC time", "Speedup")
	for _, row := range r.Rows {
		t.row(row.Seeding, fmt.Sprint(row.ICIterations), fmt.Sprintf("%.1f s", row.ICTime),
			fmt.Sprintf("%.1f s", row.PICTime), fmt.Sprintf("%.2fx", row.Speedup))
	}
	return t.String()
}

// RateRow is one partition count of the convergence-rate analysis.
type RateRow struct {
	Partitions  int
	BERate      float64 // geometric mean error contraction per BE iteration
	ICRate      float64 // contraction per conventional iteration
	BEIteration int     // iterations observed
}

// RateSweepResult measures §VI-B's analytical claim directly: the
// best-effort phase of a linear solver contracts the error
// geometrically, and "more partitions translate to a slower convergence
// rate in the best-effort phase" — the (ω·β/α)^((k−1)/k) scaling of the
// paper's companion analysis.
type RateSweepResult struct {
	Rows []RateRow
}

// AblationConvergenceRate sweeps block counts for the linear solver and
// fits per-iteration contraction rates from the error-versus-iteration
// trajectories.
func AblationConvergenceRate() (*RateSweepResult, error) {
	const n = 120
	parts := []int{2, 6, 12, 24, 40}
	res := &RateSweepResult{Rows: make([]RateRow, len(parts))}

	contraction := func(errs []float64) float64 {
		// Geometric mean of successive ratios over the clean tail
		// (skip the first point; stop when error hits float noise).
		var logSum float64
		var count int
		for i := 1; i < len(errs); i++ {
			if errs[i] <= 1e-13 || errs[i-1] <= 1e-13 {
				break
			}
			logSum += math.Log(errs[i] / errs[i-1])
			count++
		}
		if count == 0 {
			return 0
		}
		return math.Exp(logSum / float64(count))
	}

	if err := runCells(len(parts), func(i int) error {
		p := parts[i]
		w, app := LinSolveWorkload(fmt.Sprintf("linsolve-rate-p%d", p), simcluster.Small(), n, p, 5)
		golden, err := app.Golden()
		if err != nil {
			return err
		}
		metric := func(s core.Sample) float64 {
			return linsolve.Solution(s.Model, n).Sub(golden).Norm2()
		}

		var icErrs []float64
		if _, err := w.RunIC(func(s core.Sample) { icErrs = append(icErrs, metric(s)) }); err != nil {
			return err
		}
		var beErrs []float64
		if _, err := w.RunPIC(func(s core.Sample) {
			if s.Phase == core.PhaseBestEffort {
				beErrs = append(beErrs, metric(s))
			}
		}); err != nil {
			return err
		}
		res.Rows[i] = RateRow{
			Partitions:  p,
			BERate:      contraction(beErrs),
			ICRate:      contraction(icErrs),
			BEIteration: len(beErrs),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the analysis.
func (r *RateSweepResult) Render() string {
	var t table
	t.title("Ablation — best-effort convergence rate vs partitions (linear solver, §VI-B)")
	t.row("Partitions", "BE rate/iter", "IC rate/iter", "BE iters")
	for _, row := range r.Rows {
		t.row(fmt.Sprint(row.Partitions), fmt.Sprintf("%.3f", row.BERate),
			fmt.Sprintf("%.3f", row.ICRate), fmt.Sprint(row.BEIteration))
	}
	return t.String()
}
