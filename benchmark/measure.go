package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envInfo is the fingerprint stamped on every output: two numbers are
// comparable only if their fingerprints agree.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // the engines' worker pools default to this
	GOGC       string `json:"gogc"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
}

// applyGC mirrors cmd/picbench: the program allocates every map output,
// so trade heap headroom for fewer GC cycles unless GOGC says otherwise.
func applyGC() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	debug.SetGCPercent(400)
	return "400"
}

func fingerprint(gogc string, seed int64, quick bool) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Seed:       seed,
		Quick:      quick,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident high-water mark. Each workload
// runs in a process of its own, so this is the workload's.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// prober times direct calls into a layer: the median of calls samples,
// or of as many as fit in budget, each probe in a span of its own.
type prober struct {
	rec    *recorder
	calls  int
	budget time.Duration
}

func newProber(rec *recorder, quick bool) *prober {
	if quick {
		return &prober{rec: rec, calls: 1}
	}
	return &prober{rec: rec, calls: 20, budget: 200 * time.Millisecond}
}

// minSample is the shortest interval a sample may time: shorter calls
// are batched so the clock's own cost stays out of the number.
const minSample = 50 * time.Microsecond

// run returns the median seconds per call of f.
func (p *prober) run(name string, f func()) float64 {
	batch := 1
	return p.sample(name, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		d := time.Since(t0)
		if d < minSample && p.calls > 1 {
			batch = min(batch*int(minSample/max(d, time.Nanosecond)+1), 1<<20)
		}
		return d / time.Duration(batch)
	})
}

// sample returns the median of the durations f reports; f does its own
// untimed preparation.
func (p *prober) sample(name string, f func() time.Duration) float64 {
	id := p.rec.begin("probe:" + name)
	defer p.rec.end(id)
	var samples []float64
	for start := time.Now(); len(samples) < p.calls && (len(samples) == 0 || time.Since(start) < p.budget); {
		samples = append(samples, f().Seconds())
	}
	return median(samples)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the full result of one run of one workload.
type runRecord struct {
	Env      envInfo `json:"env"`
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`

	// Correct is false when any op failed a check or the run could not
	// measure what it reports.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Digest is the sha256 over final models, Metrics, durations and
	// fabric counters of one op; equal across every op of the run
	// unless one is listed in Failures. Informational: a semantics fix
	// changes it.
	Digest string `json:"sim_digest"`
	// Gap is how far PIC's final model is from the conventional one, in
	// the unit of Tolerance (see the workload table).
	Gap       float64 `json:"pic_ic_gap"`
	Tolerance float64 `json:"pic_ic_tolerance"`

	// OpSeconds is the whole-op host time of the timed ops: how many,
	// fastest, median, slowest.
	Ops       int        `json:"ops"`
	OpSeconds [3]float64 `json:"op_seconds_min_median_max"`

	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

type runConfig struct {
	sp      *spec
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	gogc    string
}

const (
	setupRepeats = 9 // set-ups per run; setup_s is their median
	minOps       = 3 // timed ops per run, however long they take
)

func opTotal(o *opOutcome) time.Duration {
	var t time.Duration
	for _, h := range o.host {
		t += h
	}
	return t
}

// check counts an op that does not pass: its driver failed, it failed
// its own checks, or its digest is not the single-worker warm-up's. It
// reports whether the op passed.
func (r *runRecord) check(what string, o *opOutcome, err error, warm *opOutcome) bool {
	why := ""
	switch {
	case err != nil:
		why = err.Error()
	case o.fail != "":
		why = o.fail
	case o.digest != warm.digest:
		why = fmt.Sprintf("digest %s differs from the single-worker warm-up's %s", o.digest, warm.digest)
	default:
		return true
	}
	r.Failed++
	r.Failures = append(r.Failures, what+": "+why)
	return false
}

// measure is the untraced run: set-up, one warm-up op on a single
// worker, then timed ops back to back from one client until the time
// budget is spent. End-to-end metrics come from here and only here.
func measure(cfg runConfig) (*runRecord, error) {
	rec := &runRecord{Env: fingerprint(cfg.gogc, cfg.seed, cfg.quick), Workload: cfg.sp.name,
		Metrics: map[string]metricValue{}}
	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	var d *dataset
	var setups []float64
	for i := 0; i < repeats; i++ {
		d = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = setUp(cfg.sp, cfg.seed, cfg.quick); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The warm-up fills caches and pools, and its digest is the
	// reference for repeat- and worker-count determinism.
	warm, err := d.runOp(opConfig{workers: 1})
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", cfg.sp.name, err)
	}
	rec.Digest, rec.Gap, rec.Tolerance = warm.digest, warm.gap, cfg.sp.tol

	var ops []*opOutcome
	var totals []float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for start := time.Now(); ; {
		rec.Attempted++
		// Every op starts from a collected heap, as a user's run does;
		// otherwise collections beat against the op cycle and land in a
		// different phase from run to run.
		runtime.GC()
		o, err := d.runOp(opConfig{})
		if rec.check(fmt.Sprintf("op %d", rec.Attempted), o, err, warm) {
			ops = append(ops, o)
			totals = append(totals, opTotal(o).Seconds())
		}
		if cfg.quick {
			break
		}
		if rec.Attempted < minOps {
			continue
		}
		// Stop when nothing passes, or when the next op would overrun
		// the budget.
		if len(ops) == 0 || time.Since(start)+time.Duration(median(totals)*float64(time.Second)) > budget {
			break
		}
	}
	rec.Correct = rec.Failed == 0
	if len(ops) == 0 {
		return rec, fmt.Errorf("%s: no op passed its checks: %s", cfg.sp.name, strings.Join(rec.Failures, "; "))
	}
	rec.Ops = len(ops)
	rec.OpSeconds = [3]float64{quantile(totals, 0), median(totals), quantile(totals, 1)}

	per := func(f func(o *opOutcome) float64) float64 {
		v := make([]float64, len(ops))
		for i, o := range ops {
			v[i] = f(o)
		}
		return median(v)
	}
	values := map[string]float64{
		"setup_s":         median(setups),
		"ic_ms_per_iter":  per(func(o *opOutcome) float64 { return o.host[phaseIC].Seconds() * 1e3 / float64(o.icSteps) }),
		"pic_ms_per_pass": per(func(o *opOutcome) float64 { return o.host[phasePIC].Seconds() * 1e3 / o.picPasses }),
		"ic_allocs_k_per_iter": per(func(o *opOutcome) float64 {
			return float64(o.mallocs[phaseIC]) / 1e3 / float64(o.icSteps)
		}),
		"sim_ic_s_per_iter":      per(func(o *opOutcome) float64 { return o.simIC / float64(o.icSteps) }),
		"sim_ic_net_mb_per_iter": per(func(o *opOutcome) float64 { return float64(o.netIC) / 1e6 / float64(o.icSteps) }),
	}
	if err := rec.fill(endToEnd, values); err != nil {
		return nil, err
	}
	return rec, nil
}

// fill copies the values of the given metrics into the record; every
// one must be present and finite.
func (r *runRecord) fill(defs []metricDef, values map[string]float64) error {
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", r.Workload, def.name, v)
		}
		r.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return nil
}

// measureTraced is the separate traced run that produces the per-layer
// numbers: a plain op, the same op stepped with a span per step, the
// same op with telemetry the other way round, then the probes.
func measureTraced(cfg runConfig) (*runRecord, error) {
	rec := &runRecord{Env: fingerprint(cfg.gogc, cfg.seed, cfg.quick), Workload: cfg.sp.name, Traced: true,
		Metrics: map[string]metricValue{}}
	tr := newRecorder()
	gen := tr.begin("data.gen")
	d := newDataset(cfg.sp, cfg.seed, cfg.quick)
	tr.end(gen)
	genSeconds := tr.spans[gen].seconds()

	// The same single-worker warm-up as the untraced run, then three
	// ops whose digests must all equal its digest: a stepped run
	// performs exactly the operations of the monolithic drivers, and
	// telemetry never changes results.
	warm, err := d.runOp(opConfig{workers: 1})
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", cfg.sp.name, err)
	}
	rec.Digest, rec.Gap, rec.Tolerance = warm.digest, warm.gap, cfg.sp.tol
	var outcomes [3]*opOutcome
	for i, op := range []struct {
		name string
		cfg  opConfig
	}{{"plain", opConfig{}}, {"stepped", opConfig{rec: tr}}, {"telemetry-flipped", opConfig{flipTelemetry: true}}} {
		tr.nextOp()
		rec.Attempted++
		runtime.GC()
		o, err := d.runOp(op.cfg)
		if err != nil { // the later steps need every outcome
			return nil, fmt.Errorf("%s: %s op: %w", cfg.sp.name, op.name, err)
		}
		rec.check(op.name+" op", o, nil, warm)
		outcomes[i] = o
	}
	plain, stepped, flipped := outcomes[0], outcomes[1], outcomes[2]

	// Spans of the stepped op. PIC's first BEIterations steps are
	// best-effort, the rest top-off.
	self := selfSeconds(tr.spans)
	var prepare, schedRun, schedSelf, icHost float64
	for i, s := range tr.spans {
		switch s.Name {
		case "prepare":
			prepare += s.seconds()
		case "sched.run":
			schedRun += s.seconds()
			schedSelf += self[i]
		}
	}
	var icSteps, beSteps, topSteps []float64
	for _, id := range stepped.kept.icSpans {
		icSteps = append(icSteps, tr.spans[id].seconds()*1e3)
		icHost += tr.spans[id].seconds()
	}
	for n, id := range stepped.kept.picSpans {
		if n < stepped.beIters {
			tr.rename(id, fmt.Sprintf("be.step[%d]", n))
			beSteps = append(beSteps, tr.spans[id].seconds()*1e3)
		} else {
			tr.rename(id, fmt.Sprintf("topoff.step[%d]", n-stepped.beIters))
			topSteps = append(topSteps, tr.spans[id].seconds()*1e3)
		}
	}

	withTel, without := flipped, plain
	if cfg.sp.observed {
		withTel, without = plain, flipped
	}
	tr.nextOp()
	probes, err := d.runProbes(probeInputs{final: stepped.kept.final, prev: stepped.kept.prev, tel: withTel.kept.tel},
		newProber(tr, cfg.quick))
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", cfg.sp.name, err)
	}

	// Counts are the plain op's. The bsp counters exist only in a
	// registry, so they come from whichever op had one attached.
	values := map[string]float64{}
	for k, v := range plain.counts {
		values[k] = v
	}
	for _, k := range []string{"bsp.supersteps", "bsp.messages"} {
		values[k] = withTel.counts[k]
	}
	for k, v := range probes {
		values[k] = v
	}
	plainSeconds := opTotal(plain).Seconds()
	for k, v := range map[string]float64{
		"core.op_prepare_ms":      prepare * 1e3,
		"core.ic_step_ms_p50":     median(icSteps),
		"core.ic_step_ms_p90":     quantile(icSteps, 0.9),
		"core.be_step_ms_p50":     median(beSteps),
		"core.topoff_step_ms_p50": median(topSteps),
		"mapred.ns_per_record":    ratio(icHost*1e9, stepped.icInputRecords),
		"sched.self_ratio":        ratio(schedSelf, schedRun),
		"telemetry.tax_ratio":     opTotal(withTel).Seconds() / opTotal(without).Seconds(),
		"data.gen_ms":             genSeconds * 1e3,

		"go.gc_cycles_per_op":   float64(plain.gcCycles),
		"go.gc_pause_ms_per_op": float64(plain.gcPauseNS) / 1e6,
		"go.heap_inuse_mb":      float64(plain.heapInuse) / 1e6,
		"go.peak_rss_mb":        peakRSSMB(),
		"go.alloc_mb_per_op":    float64(sum(plain.allocBytes[:])) / 1e6,
		"go.allocs_k_per_op":    float64(sum(plain.mallocs[:])) / 1e3,

		"sim.ic_s":        plain.simIC,
		"sim.pic_s":       plain.simPIC,
		"sim.net_mb":      float64(plain.netIC+plain.netPIC) / 1e6,
		"sim.pic_speedup": plain.simIC / plain.simPIC,
		"sim.rate":        (plain.simIC + plain.simPIC) / plainSeconds,

		"bench.wall_s_per_op":        plainSeconds,
		"bench.trace_overhead_ratio": opTotal(stepped).Seconds() / plainSeconds,
	} {
		values[k] = v
	}
	if err := rec.fill(perLayer, values); err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	rec.Ops = rec.Attempted - rec.Failed
	rec.OpSeconds = [3]float64{plainSeconds, plainSeconds, plainSeconds}

	if cfg.outDir != "" {
		rec.TraceFile, err = writeTrace(cfg.outDir, &traceFile{
			Env: rec.Env, Workload: cfg.sp.name, Quick: cfg.quick, Digest: rec.Digest,
			Samples: sampleNs{ICSteps: len(icSteps), BESteps: len(beSteps), TopOffSteps: len(topSteps)},
			Spans:   tr.spans,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", cfg.sp.name, err)
		}
	}
	return rec, nil
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}
