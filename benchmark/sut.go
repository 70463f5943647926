package main

// sut.go is the only file of the benchmark that imports the program
// under test. Every symbol it uses is listed in README.md under "API
// surface this benchmark pins".

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/apps/kmeans"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/smoothing"
	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/integrity"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

// hadoopCost is the Hadoop-0.20-era cost model every picbench figure
// uses (copied from internal/bench, which a later issue restructures).
func hadoopCost() mapred.CostModel {
	return mapred.CostModel{
		MapCostPerRecord:   400e3,
		MapCostPerByte:     10,
		EmitCostPerByte:    30,
		ReduceCostPerValue: 100e3,
		ShuffleOverlap:     0.5,
		JobOverhead:        0.05,
		LocalComputeFactor: 1.0 / 7.0,
	}
}

// clusterConfig resolves a workload's cluster name. "tenancy" is the
// 12-node, 4-rack testbed of the abl-tenancy, abl-netfaults and
// abl-corruption experiments: a core thin enough that a co-tenant or an
// outage makes it the bottleneck.
func clusterConfig(name string) simcluster.Config {
	switch name {
	case "medium":
		return simcluster.Medium()
	case "tenancy":
	default:
		panic("benchmark: workload table names unknown cluster " + name)
	}
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

const (
	inputFile      = "input/bench" // the chaos workload's input in the DFS
	inputFileBytes = 64 << 20
	// Tenancy: the workload is a 10-node tenant beside a 2-node
	// co-tenant that holds half of the core for the whole run.
	tenantNodes     = 10
	coTenantNodes   = 2
	coTenantCore    = 0.5
	coTenantSeconds = 1e6
	// qualitySample is how many points the K-means quality check reads;
	// the points are in random order, so a prefix is a fair sample.
	qualitySample = 60_000
)

// dataset is one workload's generated input with everything an op
// needs to build fresh runtimes over it. Only the seed and the sizes in
// the workload table shape it.
type dataset struct {
	sp      *spec
	cluster simcluster.Config

	makeApp   func() core.PICApp
	records   func() []mapred.Record
	makeModel func() *model.Model
	icOpts    core.ICOptions
	picOpts   core.PICOptions
	// gap measures how far PIC's final model is from IC's, in the unit
	// of spec.tol.
	gap func(ic, pic *model.Model) float64

	script *faults
	plans  faultPlans
}

type faultPlans struct {
	fail *simcluster.FailurePlan
	net  *simnet.NetworkPlan
	corr *corrupt.Plan
}

// newDataset generates the workload's input and fault plans from the
// seed: the benchmark's set-up.
func newDataset(sp *spec, seed int64, quick bool) *dataset {
	sz := sp.size(quick)
	d := &dataset{sp: sp, cluster: clusterConfig(sp.cluster)}
	switch sp.app {
	case "kmeans":
		// Geometry as in picbench's Figure 2 cell: component spacing in
		// the ±100 box is ≈200/k^(1/3), a spread of 20 % of it gives
		// the moderate overlap that makes Lloyd's algorithm take a
		// realistic number of iterations, and the displacement
		// threshold stays above the per-partition sampling noise.
		spacing := 200.0 / math.Cbrt(float64(sz.k))
		sigma := 0.2 * spacing
		threshold := sigma / 16
		ps := data.GaussianMixture(seed, sz.points, sz.k, sz.dims, 100, sigma)
		d.makeApp = func() core.PICApp {
			a := kmeans.New(sz.k, threshold)
			a.BEThreshold = 2 * threshold
			return a
		}
		d.records = func() []mapred.Record { return kmeans.Records(ps.Points) }
		d.makeModel = func() *model.Model { return kmeans.InitialModel(ps.Points, sz.k) }
		d.icOpts = core.ICOptions{MaxIterations: 200}
		d.picOpts = core.PICOptions{Partitions: sz.partitions, MaxBEIterations: 20, MaxLocalIterations: 200}
		sample := ps.Points[:min(len(ps.Points), qualitySample)]
		d.gap = func(ic, pic *model.Model) float64 {
			return quality.PercentDifference(
				quality.JagotaIndex(sample, kmeans.Centroids(pic)),
				quality.JagotaIndex(sample, kmeans.Centroids(ic)))
		}
	case "smoothing":
		img := data.NoisyImage(seed, sz.width, sz.height, 15)
		d.makeApp = func() core.PICApp {
			a := smoothing.New(sz.width, sz.height, 2.0, 0.05)
			a.BEThreshold = 0.2
			return a
		}
		d.records = func() []mapred.Record { return smoothing.Records(img) }
		d.makeModel = func() *model.Model { return smoothing.InitialModel(img) }
		d.icOpts = core.ICOptions{MaxIterations: 500}
		d.picOpts = core.PICOptions{Partitions: sz.partitions, MaxBEIterations: 100, MaxLocalIterations: 500}
		d.gap = maxKeyDelta
	case "pagerank":
		g := webgraph.NearlyUncoupled(seed, sz.vertices, sz.blocks, sz.crossFrac, 4)
		d.makeApp = func() core.PICApp {
			a := pagerank.New(g, 0.85, 0.01, seed)
			a.Strategy = pagerank.PartitionLocality
			return a
		}
		d.records = func() []mapred.Record { return pagerank.Records(g) }
		d.makeModel = func() *model.Model { return pagerank.InitialModel(g) }
		d.icOpts = core.ICOptions{MaxIterations: 60}
		d.picOpts = core.PICOptions{Partitions: sz.partitions, MaxBEIterations: 60,
			MaxLocalIterations: 10, MaxTopOffIterations: 60}
		d.gap = maxKeyDelta
	default:
		panic("benchmark: workload table names unknown app " + sp.app)
	}
	d.picOpts.HierarchicalMerge = sp.hierMerge
	if f := sp.script(quick); f != nil {
		d.script = f
		d.plans = buildPlans(f, d.cluster, seed)
		// Merge on 4 of 6 fresh partials after a short wait: a rack cut
		// severs at most two group leaders.
		d.picOpts.MergeQuorum = 4
		d.picOpts.MergeTimeout = simtime.Duration(f.period / 2)
	}
	return d
}

func maxKeyDelta(a, b *model.Model) float64 {
	return math.Max(model.MaxVectorDelta(a, b), model.MaxFloatDelta(a, b))
}

// buildPlans scripts the three fault dimensions on one timeline: one
// node crash; every period a rack uplink (rotating over racks 1 to 3,
// never rack 0 where the model lives) down for duty of the period, a
// bit-error window on one non-home node, one poisoned input replica and
// one scrubber pass.
func buildPlans(f *faults, cfg simcluster.Config, seed int64) faultPlans {
	p := faultPlans{
		fail: &simcluster.FailurePlan{Events: []simcluster.NodeEvent{
			{Node: f.crashNode, Time: simtime.Time(f.offset + f.crashAt)}}},
		net:  &simnet.NetworkPlan{},
		corr: &corrupt.Plan{},
	}
	racks := min(3, cfg.NetConfig().Racks()-1)
	for i := 0; ; i++ {
		start := f.offset + f.period*float64(i)
		if start+f.period > f.offset+f.horizon {
			break
		}
		p.net.Faults = append(p.net.Faults, simnet.NetFault{
			Kind:  simnet.FaultRackUplink,
			Rack:  1 + i%racks,
			Start: simtime.Time(start),
			End:   simtime.Time(start + f.period*f.duty),
		})
		p.corr.Events = append(p.corr.Events,
			corrupt.Event{
				Kind:  corrupt.KindTransfer,
				Node:  1 + i%(cfg.Nodes-1),
				Start: simtime.Duration(start),
				End:   simtime.Duration(start + f.period),
				Rate:  f.rate,
				Seed:  corrupt.Mix(uint64(seed), 1, uint64(i)),
			},
			corrupt.Event{
				Kind: corrupt.KindBlockReplica, File: inputFile, Block: 0,
				Node: corrupt.PrimaryReplica,
				At:   simtime.Duration(start + f.period*0.25),
				Seed: corrupt.Mix(uint64(seed), 2, uint64(i)),
			},
			corrupt.Event{
				Kind: corrupt.KindScrub, Budget: 1 << 30,
				At:   simtime.Duration(start + f.period*0.75),
				Seed: corrupt.Mix(uint64(seed), 3, uint64(i)),
			},
		)
	}
	return p
}

// tuneEngine applies the knobs every runtime of the workload shares.
func (d *dataset) tuneEngine(rt *core.Runtime, workers int) {
	e := rt.Engine()
	e.SetCostModel(hadoopCost())
	e.Workers = workers
	if f := d.script; f != nil {
		// Attempts get a deadline well under an outage window; three
		// retries with a short backoff bridge brief dips, long outages
		// exhaust them and the driver blocks.
		e.TransferTimeout = simtime.Duration(f.period / 3)
		e.TransferRetries = 3
		e.RetryBackoff = simtime.Duration(f.period / 24)
	}
}

// newRuntime builds a fresh runtime over a fresh cluster, as one scheme
// of one op does. pic selects the PIC-only options.
func (d *dataset) newRuntime(workers int, tel telemetry, pic bool) (*core.Runtime, error) {
	cl := simcluster.New(d.cluster)
	if d.script != nil {
		cl.SetFailurePlan(d.plans.fail)
		cl.SetNetworkPlan(d.plans.net)
		cl.SetCorruptionPlan(d.plans.corr)
	}
	rt := core.NewRuntime(cl, dfs.DefaultConfig())
	d.tuneEngine(rt, workers)
	if d.sp.bsp {
		if err := rt.SetBackend(core.BackendBSP); err != nil {
			return nil, err
		}
	}
	if pic && d.sp.deltaCkpt {
		rt.SetDeltaCheckpoints(true)
	}
	if d.script != nil {
		// The input lives in the DFS, so the poison events have a
		// replica to damage and the scrubber a namespace to walk.
		rt.FS().Create(inputFile, inputFileBytes, 0)
		rt.SetIntegrityChecks(true)
	}
	rt.SetTracer(tel.tr)
	rt.SetObservability(tel.reg)
	return rt, nil
}

func (d *dataset) newInput(cl *simcluster.Cluster) *mapred.Input {
	return mapred.NewInput(d.records(), cl, cl.MapSlots())
}

// telemetry is the tracer and registry of one op; both nil when off.
type telemetry struct {
	tr  *trace.Tracer
	reg *metrics.Registry
}

func newTelemetry(on bool) telemetry {
	if !on {
		return telemetry{}
	}
	return telemetry{tr: trace.New(), reg: metrics.New()}
}

// export derives and serialises the op's telemetry the way a user who
// turned it on would: the obs product, its two log formats and the
// Chrome trace.
func (t telemetry) export(rec *recorder) error {
	id := rec.begin("telemetry.collect")
	p := obs.Collect("benchmark", t.tr, t.reg, obs.Options{})
	rec.end(id)
	id = rec.begin("telemetry.export")
	defer rec.end(id)
	return errors.Join(p.WriteJSONL(io.Discard), p.WriteOpenMetrics(io.Discard), t.tr.ChromeTrace(io.Discard))
}

// Phases of one op's host time.
const (
	phasePrepare = iota // runtimes, inputs, initial models
	phaseIC             // the conventional driver
	phasePIC            // the PIC driver, then telemetry collection and export when on
	nPhases
)

// phaseMeter attributes host time and allocation to the phase that is
// current; one client runs an op, so exactly one phase is.
type phaseMeter struct {
	host    [nPhases]time.Duration
	mallocs [nPhases]uint64
	bytes   [nPhases]uint64
	cur     int
	t0      time.Time
	m0      runtime.MemStats
	first   runtime.MemStats
}

func startMeter(phase int) *phaseMeter {
	pm := &phaseMeter{cur: phase}
	runtime.ReadMemStats(&pm.m0)
	pm.first = pm.m0
	pm.t0 = time.Now()
	return pm
}

// enter closes the current phase and opens another, returning the one
// it closed.
func (pm *phaseMeter) enter(phase int) int {
	now := time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pm.host[pm.cur] += now.Sub(pm.t0)
	pm.mallocs[pm.cur] += m.Mallocs - pm.m0.Mallocs
	pm.bytes[pm.cur] += m.TotalAlloc - pm.m0.TotalAlloc
	prev := pm.cur
	pm.cur, pm.m0 = phase, m
	pm.t0 = time.Now()
	return prev
}

// stop closes the current phase.
func (pm *phaseMeter) stop() { pm.enter(pm.cur) }

// opConfig selects how one op runs. The zero value is a timed op: the
// program's default worker pool, telemetry as the workload says, the
// monolithic drivers, nothing recorded.
type opConfig struct {
	workers       int       // Engine.Workers; 0 is the program default
	flipTelemetry bool      // run with telemetry the other way round
	rec           *recorder // non-nil: drive through the steppers, one span per step
}

// opOutcome is everything the benchmark reads from one op, as plain
// values.
type opOutcome struct {
	fail   string // why the op failed its checks, "" if it passed
	digest string

	host       [nPhases]time.Duration
	mallocs    [nPhases]uint64
	allocBytes [nPhases]uint64
	gcCycles   uint32
	gcPauseNS  uint64
	heapInuse  uint64

	icSteps        int     // IC iterations plus attempts abandoned to a severed network
	beIters        int     // PIC's first beIters steps are best-effort, the rest top-off
	icInputRecords float64 // records the IC run's map tasks read
	picPasses      float64 // top-off iterations + local iterations / partitions
	simIC, simPIC  float64 // simulated seconds
	netIC, netPIC  int64   // fabric bytes
	gap            float64 // PIC's final model against IC's, in the unit of spec.tol
	counts         map[string]float64

	kept *keptState
}

// keptState is what the traced run needs from a finished op beyond
// plain values: its telemetry and, from a stepped op, the last two
// iterates of the conventional run and the span of every step.
type keptState struct {
	final, prev       *model.Model
	tel               telemetry
	icSpans, picSpans []int
}

// schemeResult is one scheme's end state, however it was driven.
type schemeResult struct {
	rt  *core.Runtime
	ic  *core.ICResult  // set on the conventional side
	pic *core.PICResult // set on the PIC side
	job sched.JobResult // set under the scheduler
}

// runOp executes one op: on fresh runtimes over the dataset, the
// conventional scheme to convergence, then PIC.
func (d *dataset) runOp(cfg opConfig) (*opOutcome, error) {
	tel := newTelemetry(d.sp.observed != cfg.flipTelemetry)
	rec := cfg.rec
	kept := &keptState{tel: tel}
	out := &opOutcome{kept: kept}
	opSpan := rec.begin("op")
	pm := startMeter(phasePrepare)

	var ic, pic schemeResult
	var err error
	if d.sp.tenancy {
		ic, pic, err = d.runTenants(cfg, tel, pm, kept)
	} else {
		ic, pic, err = d.runPlain(cfg, tel, pm, kept)
	}
	if err != nil {
		return nil, err // the run is abandoned, open spans with it
	}
	if tel.tr != nil {
		if err := tel.export(rec); err != nil {
			return nil, fmt.Errorf("telemetry export: %w", err)
		}
	}
	pm.stop()
	rec.end(opSpan)

	out.host, out.mallocs, out.allocBytes = pm.host, pm.mallocs, pm.bytes
	out.gcCycles = pm.m0.NumGC - pm.first.NumGC
	out.gcPauseNS = pm.m0.PauseTotalNs - pm.first.PauseTotalNs
	out.heapInuse = pm.m0.HeapInuse
	d.readOutcome(out, ic, pic, tel)
	return out, nil
}

// prepared is what one scheme of an op builds before its first
// iteration: a runtime over a fresh cluster, the program, the input
// dealt onto the cluster, the initial model.
type prepared struct {
	rt  *core.Runtime
	app core.PICApp
	in  *mapred.Input
	m0  *model.Model
}

func (d *dataset) prepare(workers int, tel telemetry, pic bool) (prepared, error) {
	rt, err := d.newRuntime(workers, tel, pic)
	if err != nil {
		return prepared{}, err
	}
	return prepared{rt: rt, app: d.makeApp(), in: d.newInput(rt.Cluster()), m0: d.makeModel()}, nil
}

// setUp is the benchmark's set-up: generate the inputs from the seed,
// then build once what every op builds before its first iteration, so
// that work moved out of the iterations into construction shows here.
func setUp(sp *spec, seed int64, quick bool) (*dataset, error) {
	d := newDataset(sp, seed, quick)
	for _, pic := range []bool{false, true} {
		if _, err := d.prepare(0, telemetry{}, pic); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// runPlain drives both schemes directly on their own runtimes.
func (d *dataset) runPlain(cfg opConfig, tel telemetry, pm *phaseMeter, kept *keptState) (ic, pic schemeResult, err error) {
	rec := cfg.rec
	prep := rec.begin("prepare")
	icSide, err := d.prepare(cfg.workers, tel, false)
	if err != nil {
		return
	}
	picSide, err := d.prepare(cfg.workers, tel, true)
	if err != nil {
		return
	}
	ic.rt, pic.rt = icSide.rt, picSide.rt
	icOpts := d.icOpts
	var icStep *core.ICStepper
	var picStep *core.PICStepper
	if rec != nil {
		icOpts.Observer = kept.observe
		icStep = core.NewICStepper(ic.rt, icSide.app, icSide.in, icSide.m0, &icOpts)
		if picStep, err = core.NewPICStepper(pic.rt, picSide.app, picSide.in, picSide.m0, d.picOpts); err != nil {
			return
		}
	}
	rec.end(prep)

	pm.enter(phaseIC)
	if rec == nil {
		ic.ic, err = core.RunIC(ic.rt, icSide.app, icSide.in, icSide.m0, &icOpts)
	} else {
		id := rec.begin("ic")
		err = drive(&spanStepper{inner: icStep, rec: rec, name: "ic.step", spans: &kept.icSpans})
		rec.end(id)
		ic.ic = icStep.Result()
	}
	if err != nil {
		return
	}
	pm.enter(phasePIC)
	if rec == nil {
		pic.pic, err = core.RunPIC(pic.rt, picSide.app, picSide.in, picSide.m0, d.picOpts)
	} else {
		id := rec.begin("pic")
		err = drive(&spanStepper{inner: picStep, rec: rec, name: "pic.step", spans: &kept.picSpans})
		rec.end(id)
		pic.pic = picStep.Result()
	}
	return
}

// observe keeps the last two iterates of the conventional run.
func (k *keptState) observe(s core.Sample) {
	k.prev, k.final = k.final, s.Model
}

// drive steps a run to completion, as RunIC and RunPIC do.
func drive(s core.Stepper) error {
	for {
		if done, err := s.Step(); err != nil || done {
			return err
		}
	}
}

// spanStepper is the benchmark's own stepper wrapper: one span per
// step, whether the benchmark or the scheduler calls Step.
type spanStepper struct {
	inner core.Stepper
	rec   *recorder
	name  string
	spans *[]int // receives the id of every step's span, in order
}

func (s *spanStepper) Step() (bool, error) {
	id := s.rec.begin(fmt.Sprintf("%s[%d]", s.name, len(*s.spans)))
	*s.spans = append(*s.spans, id)
	done, err := s.inner.Step()
	s.rec.end(id)
	return done, err
}

// runTenants runs each scheme as a tenant of its own scheduler over a
// fresh shared cluster, beside the co-tenant. The scheduler owns the
// runtime, so preparation happens inside its Start callback.
func (d *dataset) runTenants(cfg opConfig, tel telemetry, pm *phaseMeter, kept *keptState) (ic, pic schemeResult, err error) {
	rec := cfg.rec
	run := func(scheme string, phase int, res *schemeResult, spans *[]int) error {
		pm.enter(phase)
		outer := rec.begin(scheme)
		defer rec.end(outer)
		var icStep *core.ICStepper
		var picStep *core.PICStepper
		s := sched.New(simcluster.New(d.cluster), sched.Config{})
		s.SetObservability(tel.reg)
		s.SetTracer(tel.tr)
		s.Submit(sched.JobSpec{Tenant: "background", Name: "noise", Nodes: coTenantNodes,
			Load: &sched.Load{Duration: coTenantSeconds, Core: coTenantCore}})
		s.Submit(sched.JobSpec{Tenant: "analytics", Name: scheme, Nodes: tenantNodes,
			Start: func(rt *core.Runtime) (core.Stepper, error) {
				back := pm.enter(phasePrepare)
				prep := rec.begin("prepare")
				defer func() {
					rec.end(prep)
					pm.enter(back)
				}()
				res.rt = rt
				d.tuneEngine(rt, cfg.workers)
				app, in, m := d.makeApp(), d.newInput(rt.Cluster()), d.makeModel()
				var st core.Stepper
				if phase == phaseIC {
					opts := d.icOpts
					if rec != nil {
						opts.Observer = kept.observe
					}
					icStep = core.NewICStepper(rt, app, in, m, &opts)
					st = icStep
				} else {
					var err error
					if picStep, err = core.NewPICStepper(rt, app, in, m, d.picOpts); err != nil {
						return nil, err
					}
					st = picStep
				}
				if rec != nil {
					st = &spanStepper{inner: st, rec: rec, name: scheme + ".step", spans: spans}
				}
				return st, nil
			}})
		id := rec.begin("sched.run")
		results, err := s.Run()
		rec.end(id)
		if err != nil {
			return err
		}
		res.job = results[1]
		if res.job.State != sched.StateDone || res.job.Err != nil {
			return fmt.Errorf("tenant %s: state %s: %v", scheme, res.job.State, res.job.Err)
		}
		if phase == phaseIC {
			res.ic = icStep.Result()
		} else {
			res.pic = picStep.Result()
		}
		return nil
	}
	if err = run("ic", phaseIC, &ic, &kept.icSpans); err != nil {
		return
	}
	err = run("pic", phasePIC, &pic, &kept.picSpans)
	return
}

// readOutcome turns the two schemes' results into the op's digest,
// counts and verdict.
func (d *dataset) readOutcome(out *opOutcome, ic, pic schemeResult, tel telemetry) {
	icR, picR := ic.ic, pic.pic
	out.beIters = picR.BEIterations
	out.icSteps = icR.Iterations + icR.BlockedIterations
	out.icInputRecords = float64(icR.Metrics.InputRecords)
	local := 0
	for _, groups := range picR.LocalIterations {
		for _, n := range groups {
			local += n
		}
	}
	out.picPasses = float64(picR.TopOffIterations) + float64(local)/float64(d.picOpts.Partitions)
	// Simulated time: the drivers' durations; under the scheduler the
	// tenants' executing time, which the co-tenant dilates.
	out.simIC, out.simPIC = float64(icR.Duration), float64(picR.Duration)
	if d.sp.tenancy {
		out.simIC, out.simPIC = float64(ic.job.Busy), float64(pic.job.Busy)
	}
	icNet, picNet := ic.rt.Cluster().Fabric().Counters(), pic.rt.Cluster().Fabric().Counters()
	out.netIC, out.netPIC = icNet.Total, picNet.Total

	h := sha256.New()
	h.Write(icR.Model.Encode(nil))
	h.Write(picR.Model.Encode(nil))
	fmt.Fprintf(h, "|%+v|%v|%+v", icR.Metrics, icR.Duration, icNet)
	fmt.Fprintf(h, "|%+v|%v|%+v", picR.Metrics, picR.Duration, picNet)
	out.digest = hex.EncodeToString(h.Sum(nil))

	m := icR.Metrics
	m.Add(picR.Metrics)
	net := icNet
	net.Add(picNet)
	icFS, picFS := ic.rt.FS(), pic.rt.FS()
	fsC, fsI := icFS.Counters(), icFS.Integrity()
	fsC2, fsI2 := picFS.Counters(), picFS.Integrity()
	cache, cache2 := ic.rt.LoopCacheStats(), pic.rt.LoopCacheStats()
	hits, lookups := cache.Hits+cache2.Hits, cache.Hits+cache2.Hits+cache.Misses+cache2.Misses
	const mb = 1e6
	out.counts = map[string]float64{
		"core.ic_iters":         float64(icR.Iterations),
		"core.be_iters":         float64(picR.BEIterations),
		"core.topoff_iters":     float64(picR.TopOffIterations),
		"core.model_update_mb":  float64(icR.ModelUpdateBytes+picR.ModelUpdateBytes) / mb,
		"core.merge_traffic_mb": float64(picR.MergeTrafficBytes) / mb,
		"core.repartition_mb":   float64(picR.RepartitionBytes) / mb,
		"core.rollbacks":        float64(ic.rt.IntegrityRollbacks() + pic.rt.IntegrityRollbacks()),
		"core.dead_nodes":       float64(len(ic.rt.DeadNodes()) + len(pic.rt.DeadNodes())),

		"mapred.jobs":             float64(m.Jobs),
		"mapred.local_jobs":       float64(m.LocalJobs),
		"mapred.map_tasks":        float64(m.MapTasks),
		"mapred.reduce_tasks":     float64(m.ReduceTasks),
		"mapred.input_records":    float64(m.InputRecords),
		"mapred.local_records":    float64(m.LocalRecords),
		"mapred.shuffle_mb":       float64(m.ShuffleBytes) / mb,
		"mapred.shuffle_net_mb":   float64(m.ShuffleNetworkBytes) / mb,
		"mapred.model_mb":         float64(m.ModelBytes) / mb,
		"mapred.task_retries":     float64(m.TaskRetries),
		"mapred.transfer_retries": float64(m.TransferRetries),
		"mapred.corrupt_retries":  float64(m.CorruptRetries),
		"mapred.retry_mb":         float64(m.RetryBytes+m.CorruptRetryBytes) / mb,
		"mapred.cache_hit_ratio":  ratio(float64(hits), float64(lookups)),

		"dfs.write_pipeline_mb": float64(fsC.WritePipeline+fsC2.WritePipeline) / mb,
		"dfs.remote_read_mb":    float64(fsC.RemoteRead+fsC2.RemoteRead) / mb,
		"dfs.rereplication_mb":  float64(fsC.ReReplication+fsC2.ReReplication) / mb,
		"dfs.detected_blocks":   float64(fsI.DetectedBlocks + fsI2.DetectedBlocks),
		"dfs.repaired_blocks":   float64(fsI.RepairedBlocks + fsI2.RepairedBlocks),
		"dfs.scrubbed_blocks":   float64(fsI.ScrubbedBlocks + fsI2.ScrubbedBlocks),
		"dfs.unrepaired_blocks": float64(fsI.UnrepairedBlocks + fsI2.UnrepairedBlocks),

		"simnet.total_mb":      float64(net.Total) / mb,
		"simnet.cross_rack_mb": float64(net.CrossRack) / mb,
		"simnet.transfers":     float64(net.Transfers),

		"sched.steps":       float64(ic.job.Steps + pic.job.Steps),
		"sched.preemptions": float64(ic.job.Preemptions + pic.job.Preemptions),
		"sched.wait_sim_s":  float64(ic.job.Wait + pic.job.Wait),

		"telemetry.events": float64(tel.tr.Len()),
	}
	if reg := tel.reg; reg != nil {
		snap := reg.Snapshot()
		for _, name := range []string{"bsp.supersteps", "bsp.messages"} {
			if c, ok := snap.Get(name); ok {
				out.counts[name] = c.Value
			}
		}
	}

	out.gap = d.gap(icR.Model, picR.Model)
	switch {
	case !icR.Converged:
		out.fail = "conventional run hit its iteration cap"
	case !picR.TopOffConverged:
		out.fail = "PIC top-off hit its iteration cap"
	case !(out.gap <= d.sp.tol):
		out.fail = fmt.Sprintf("PIC's model is %.4g from the conventional one, tolerance %.4g", out.gap, d.sp.tol)
	case d.script != nil:
		// The faults must bite and must heal.
		switch {
		case icR.Metrics.NodeCrashes != 1 || picR.Metrics.NodeCrashes != 1:
			out.fail = fmt.Sprintf("node crashes seen: %d and %d, scripted 1 per run",
				icR.Metrics.NodeCrashes, picR.Metrics.NodeCrashes)
		case m.TransferRetries+m.CorruptRetries == 0:
			out.fail = "no transfer was retried: outages and bit errors missed the run"
		case fsI.DetectedBlocks+fsI2.DetectedBlocks == 0:
			out.fail = "no poisoned replica was detected"
		case fsI.UnrepairedBlocks+fsI2.UnrepairedBlocks > 0:
			out.fail = "a detected replica was left unrepaired"
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- Probes: direct, timed calls into one layer's public functions on
// inputs captured from the workload. ----

// probeInputs is what a workload's traced run hands the probes.
type probeInputs struct {
	final, prev *model.Model // last two iterates of the conventional run
	tel         telemetry    // tracer and registry of an op that had them on
}

// healthyRuntime is a probe's runtime: the workload's cluster and cost
// model on the mapred backend, no fault plans.
func (d *dataset) healthyRuntime() *core.Runtime {
	rt := core.NewRuntime(simcluster.New(d.cluster), dfs.DefaultConfig())
	rt.Engine().SetCostModel(hadoopCost())
	return rt
}

// runProbes measures every probe metric, each probe in its own span.
// Probes run on every workload, also where the workload itself never
// enters the probed layer: the per-layer counts say which layers a
// workload loads, the probes what a call costs on its inputs.
func (d *dataset) runProbes(in probeInputs, p *prober) (map[string]float64, error) {
	out := map[string]float64{}
	ms := func(name string, f func()) { out[name] = p.run(name, f) * 1e3 }
	us := func(name string, f func()) { out[name] = p.run(name, f) * 1e6 }
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	final, prev := in.final, in.prev
	encoded := final.Encode(nil)
	recs := d.records()
	parts := d.picOpts.Partitions

	// model and writable: codec, copy, walk and delta on the workload's
	// own key count and value size.
	out["model.keys"] = float64(final.Len())
	out["model.encoded_kb"] = float64(final.Size()) / 1e3
	out["model.delta_ratio"] = ratio(float64(model.DeltaSize(prev, final)), float64(final.Size()))
	var buf, delta []byte
	ms("model.encode_ms", func() { buf = final.Encode(buf[:0]) })
	ms("model.decode_ms", func() { _, err := model.Decode(encoded); check(err) })
	ms("model.clone_ms", func() { final.Clone() })
	ms("model.range_ms", func() { final.Range(func(string, writable.Writable) bool { return true }) })
	ms("model.delta_encode_ms", func() { delta = model.EncodeDelta(prev, final, delta[:0]) })
	ms("model.delta_apply_ms", func() { _, err := model.ApplyDeltaBytes(prev, delta); check(err) })

	// integrity: seal and open the encoded model, as a verified transfer
	// does; reported as payload throughput.
	sealOpen := p.run("integrity.seal_open_mb_s", func() {
		_, err := integrity.Open(integrity.Seal(encoded))
		check(err)
	})
	out["integrity.seal_open_mb_s"] = ratio(float64(len(encoded))/1e6, sealOpen)

	// apps: convergence test, partition and merge on captured models.
	// Apps carry partitioning state, so Merge gets the instance that
	// partitioned.
	app := d.makeApp()
	cl := simcluster.New(d.cluster)
	fullIn := mapred.NewInput(recs, cl, cl.MapSlots())
	ms("apps.converged_ms", func() { app.Converged(prev, final) })
	ms("apps.partition_ms", func() { _, err := d.makeApp().Partition(fullIn, final, parts); check(err) })
	subs, err := app.Partition(fullIn, final, parts)
	if err != nil {
		return nil, err
	}
	partials := make([]*model.Model, len(subs))
	for i, s := range subs {
		partials[i] = s.Model
	}
	ms("apps.merge_ms", func() { _, err := app.Merge(partials, final); check(err) })

	// mapred: input construction; the first (cold) and second (warm)
	// framework iteration on a fresh runtime; one in-memory local
	// iteration of a sub-problem on its node group.
	ms("mapred.new_input_ms", func() { mapred.NewInput(recs, cl, cl.MapSlots()) })
	var cold, warm []float64
	id := p.rec.begin("probe:mapred.iter_cold_warm")
	for start := time.Now(); len(cold) < p.calls && (len(cold) == 0 || time.Since(start) < p.budget); {
		rt, a := d.healthyRuntime(), d.makeApp()
		input := mapred.NewInput(recs, rt.Cluster(), rt.Cluster().MapSlots())
		t0 := time.Now()
		m1, err := a.Iteration(rt, input, prev)
		t1 := time.Now()
		if err == nil {
			_, err = a.Iteration(rt, input, m1)
		}
		t2 := time.Now()
		if err != nil {
			p.rec.end(id)
			return nil, err
		}
		cold, warm = append(cold, t1.Sub(t0).Seconds()), append(warm, t2.Sub(t1).Seconds())
	}
	p.rec.end(id)
	out["mapred.iter_cold_ms"], out["mapred.iter_warm_ms"] = median(cold)*1e3, median(warm)*1e3
	{
		rt := d.healthyRuntime()
		group := rt.Cluster().Groups(min(parts, rt.Cluster().Size()))[0]
		fork := rt.Fork(group, true)
		subIn := mapred.NewInput(subs[0].Records, group, group.MapSlots())
		ms("mapred.local_iter_ms", func() { _, err := app.Iteration(fork, subIn, subs[0].Model); check(err) })
	}

	// bsp: one driver step on a BSP-backend runtime with model writes
	// off, so the step is the superstep program alone: native for apps
	// with a vertex program, through the job adapter otherwise.
	{
		rt := d.healthyRuntime()
		if err := rt.SetBackend(core.BackendBSP); err != nil {
			return nil, err
		}
		input := mapred.NewInput(recs, rt.Cluster(), rt.Cluster().MapSlots())
		step := func() {
			_, err := core.NewICStepper(rt, d.makeApp(), input, prev,
				&core.ICOptions{MaxIterations: 1, DisableModelWrites: true}).Step()
			check(err)
		}
		reg := metrics.New()
		rt.SetObservability(reg) // count one step's messages, untimed
		step()
		rt.SetObservability(nil)
		iter := p.run("bsp.iter_ms", step)
		out["bsp.iter_ms"] = iter * 1e3
		msgs, _ := reg.Snapshot().Get("bsp.messages")
		out["bsp.ns_per_message"] = ratio(iter*1e9, msgs.Value)
	}

	// core: checkpoint write and restore of the final model.
	{
		rt := d.healthyRuntime()
		rt.SetDeltaCheckpoints(d.sp.deltaCkpt)
		ms("core.write_model_ms", func() { rt.WriteModel("probe", final) })
		ms("core.restore_model_ms", func() { _, err := rt.RestoreModel("probe"); check(err) })
	}

	// dfs: create and verified read of the encoded model; a scrub pass
	// over files with one poisoned replica each; repair after the loss
	// of a node that held replicas.
	const dfsFiles = 8
	name := func(i int) string { return "probe/" + strconv.Itoa(i) }
	newFS := func() (*dfs.FS, []*dfs.File) {
		fs := dfs.New(simcluster.New(d.cluster), dfs.DefaultConfig())
		files := make([]*dfs.File, dfsFiles)
		for i := range files {
			files[i], _ = fs.CreateWithData(name(i), encoded, i%d.cluster.Nodes)
		}
		return fs, files
	}
	{
		fs, files := newFS()
		n := dfsFiles
		ms("dfs.create_ms", func() {
			fs.CreateWithData(name(n), encoded, n%d.cluster.Nodes)
			n++
		})
		ms("dfs.read_checked_ms", func() {
			_, _, err := fs.ReadDataChecked(files[n%dfsFiles], d.cluster.Nodes-1)
			check(err)
			n++
		})
	}
	{
		fs, _ := newFS()
		pass := uint64(0)
		out["dfs.scrub_ms"] = 1e3 * p.sample("dfs.scrub_ms", func() time.Duration {
			pass++
			for i := 0; i < dfsFiles; i++ {
				fs.CorruptReplica(name(i), 0, corrupt.PrimaryReplica, pass)
			}
			t0 := time.Now()
			fs.Scrub(1<<40, 0)
			return time.Since(t0)
		})
		out["dfs.repair_ms"] = 1e3 * p.sample("dfs.repair_ms", func() time.Duration {
			fs, files := newFS()
			fs.MarkDead(files[0].BlockHomes()[0])
			t0 := time.Now()
			fs.Repair()
			return time.Since(t0)
		})
	}

	// The fault-path probes of simnet and simcluster need a script: the
	// workload's own, or the chaos workload's on this cluster.
	script := d.script
	if script == nil {
		script = &chaosScript
	}
	plans := buildPlans(script, d.cluster, 1)

	// simnet: price an all-pairs flow set healthy, max-min, and inside an
	// outage window between the nodes the outage leaves connected.
	{
		faulted := simcluster.New(d.cluster)
		faulted.SetNetworkPlan(plans.net)
		fabric := faulted.Fabric()
		outage := plans.net.Faults[0]
		at := outage.Start + (outage.End-outage.Start)/2
		var all, connected []simnet.Flow
		for src := 0; src < d.cluster.Nodes; src++ {
			for dst := 0; dst < d.cluster.Nodes; dst++ {
				if src == dst {
					continue
				}
				fl := simnet.Flow{Src: src, Dst: dst, Bytes: 1 << 20}
				all = append(all, fl)
				if fabric.Rack(src) != outage.Rack && fabric.Rack(dst) != outage.Rack {
					connected = append(connected, fl)
				}
			}
		}
		healthy := cl.Fabric()
		us("simnet.price_us", func() { healthy.TransferTime(all) })
		us("simnet.maxmin_us", func() { healthy.MaxMinTransferTime(all) })
		us("simnet.price_faulted_us", func() { _, err := fabric.TransferTimeAt(connected, at); check(err) })
	}

	// simcluster: place one map task per input split, healthy and with
	// the script's crash landing in the middle of the wave.
	{
		cost := hadoopCost()
		tasks := make([]simcluster.Task, len(fullIn.Splits))
		var total float64
		for i, sp := range fullIn.Splits {
			tasks[i] = simcluster.Task{
				Cost:      float64(len(sp.Records))*cost.MapCostPerRecord + float64(sp.Bytes)*cost.MapCostPerByte,
				Preferred: sp.Home,
			}
			total += tasks[i].Cost
		}
		slots := d.cluster.MapSlotsPerNode
		us("simcluster.schedule_us", func() { cl.Schedule(tasks, slots) })
		wave := total / d.cluster.ComputeRate / float64(cl.MapSlots())
		faulty := simcluster.New(d.cluster)
		faulty.SetFailurePlan(plans.fail)
		start := max(0, plans.fail.Events[0].Time-simtime.Time(wave/2))
		us("simcluster.failure_aware_us", func() {
			_, _, _, err := faulty.ScheduleFailureAware(tasks, slots, start, nil)
			check(err)
		})
	}

	// simtime: a bare event loop. The multiplicative stride makes
	// timestamps arrive out of order, as task completions do.
	const events = 100_000
	out["simtime.ns_per_event"] = 1e9 / events * p.run("simtime.ns_per_event", func() {
		e := simtime.NewEngine()
		for i := 0; i < events; i++ {
			e.At(simtime.Time((i*7919)%events), func() {})
		}
		e.Run()
	})

	// telemetry: derive the obs product from an op's tracer and
	// registry, and write its three export formats.
	var product *obs.Product
	collect := p.run("telemetry.collect_ms", func() {
		product = obs.Collect("benchmark", in.tel.tr, in.tel.reg, obs.Options{})
	})
	export := p.run("telemetry.export_ms", func() {
		check(errors.Join(product.WriteJSONL(io.Discard), product.WriteOpenMetrics(io.Discard),
			in.tel.tr.ChromeTrace(io.Discard)))
	})
	out["telemetry.collect_ms"], out["telemetry.export_ms"] = collect*1e3, export*1e3
	out["telemetry.ns_per_event"] = ratio((collect+export)*1e9, float64(in.tel.tr.Len()))

	return out, firstErr
}
