package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
)

// Cache-conformance layer.
//
// The loop-aware runtime's contract is that caching is invisible to
// every simulated observable: final model bytes, driver metrics, the
// metrics registry and the execution timeline must match a cold run
// exactly, at any worker count, under either harness mode. The only
// permitted differences are the cache's own annotations — cache.*
// registry metrics and cache-warm/cache-evict trace events — which
// these tests strip before comparing. Everything else must be
// byte-identical, or the cache has leaked into simulated results.

// confArtifacts captures every observable of one run, with the cache's
// own annotations stripped so cold and warm runs are comparable.
type confArtifacts struct {
	model   string
	metrics string
	reg     string
	trace   string
	// hits and misses count the loop cache's split acquisitions, which
	// confCompare ignores: the proof that a warm run's fused kernels
	// engaged at all. mapTasks counts the run's framework map tasks.
	hits, misses, mapTasks int64
}

// stripCacheMetrics drops the cache.* lines from a registry dump.
func stripCacheMetrics(text string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "cache.") {
			continue
		}
		sb.WriteString(line)
	}
	return sb.String()
}

// renderEventsSansCache renders a timeline with the cache's point
// annotations removed. Cache events never consume tracer IDs, so the
// remaining events must be identical — IDs included — cold vs warm.
func renderEventsSansCache(events []trace.Event) string {
	var sb strings.Builder
	for _, e := range events {
		if e.Kind == trace.KindCacheWarm || e.Kind == trace.KindCacheEvict {
			continue
		}
		fmt.Fprintf(&sb, "%s|%s|%v|%v|%d|%d|%d|%d\n",
			e.Kind, e.Name, e.Start, e.End, e.Bytes, e.Lane, e.ID, e.Parent)
	}
	return sb.String()
}

// confRun executes one fully-instrumented run of a report workload
// under one scheme, cache mode and worker count.
func confRun(name, scheme string, warm bool, workers int) (confArtifacts, error) {
	w, err := reportWorkload(name)
	if err != nil {
		return confArtifacts{}, err
	}
	tr := trace.New()
	reg := metrics.New()
	rt := w.NewRuntime()
	rt.Engine().Workers = workers
	rt.SetTracer(tr)
	rt.SetObservability(reg)
	if !warm {
		rt.SetLoopCache(false)
	}
	var m *model.Model
	var met mapred.Metrics
	if scheme == "ic" {
		opts := w.ICOpts
		res, err := core.RunIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), &opts)
		if err != nil {
			return confArtifacts{}, err
		}
		m, met = res.Model, res.Metrics
	} else {
		res, err := core.RunPIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts)
		if err != nil {
			return confArtifacts{}, err
		}
		m, met = res.Model, res.Metrics
	}
	return confArtifacts{
		model:    string(m.Encode(nil)),
		metrics:  fmt.Sprintf("%+v", met),
		reg:      stripCacheMetrics(reg.Snapshot().Text()),
		trace:    renderEventsSansCache(tr.Events()),
		hits:     rt.LoopCacheStats().Hits,
		misses:   rt.LoopCacheStats().Misses,
		mapTasks: int64(met.MapTasks),
	}, nil
}

// confCompare reports the first artifact that differs, or "".
func confCompare(base, got confArtifacts) string {
	switch {
	case base.model != got.model:
		return "final model bytes"
	case base.metrics != got.metrics:
		return "driver metrics"
	case base.reg != got.reg:
		return "metrics registry (cache.* lines excluded)"
	case base.trace != got.trace:
		return "trace events (cache events excluded)"
	}
	return ""
}

// fusedWorkloads are the report workloads whose apps have fused kernels:
// their warm runs must hit the loop cache, or the matrix compares the
// cold path with itself.
var fusedWorkloads = map[string]bool{"kmeans": true, "pagerank": true}

// TestCacheConformance is the conformance matrix: for every report
// workload and both schemes, a cold single-worker run is the reference,
// and cold×8-workers, warm×1 and warm×8 must all reproduce it exactly.
func TestCacheConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("cache conformance matrix skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	for _, name := range ReportWorkloads() {
		for _, scheme := range []string{"ic", "pic"} {
			t.Run(name+"/"+scheme, func(t *testing.T) {
				base, err := confRun(name, scheme, false, 1)
				if err != nil {
					t.Fatal(err)
				}
				cases := []struct {
					label   string
					warm    bool
					workers int
				}{
					{"cold workers=8", false, 8},
					{"warm workers=1", true, 1},
					{"warm workers=8", true, 8},
				}
				for _, tc := range cases {
					got, err := confRun(name, scheme, tc.warm, tc.workers)
					if err != nil {
						t.Fatalf("%s: %v", tc.label, err)
					}
					if diff := confCompare(base, got); diff != "" {
						t.Errorf("%s: %s differ from cold workers=1 reference", tc.label, diff)
					}
					if tc.warm && fusedWorkloads[name] && got.hits == 0 {
						t.Errorf("%s: no loop-cache hits, so no job ran fused", tc.label)
					}
					// Both of pagerank's jobs fuse, the map-only
					// propagation too: under IC every map task of every
					// job acquires its split from the cache, where the
					// aggregation alone would acquire half.
					if tc.warm && name == "pagerank" && scheme == "ic" && got.hits+got.misses != got.mapTasks {
						t.Errorf("%s: %d cache acquisitions for %d map tasks: not every job ran fused",
							tc.label, got.hits+got.misses, got.mapTasks)
					}
				}
			})
		}
	}
}

// TestCacheConformanceParallelHarness runs the warm cells serially and
// under the parallel cell harness and requires identical artifacts —
// warm runs own their job family per runtime, so concurrent cells must
// not perturb each other's caches.
func TestCacheConformanceParallelHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel-harness conformance skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	type cell struct {
		name   string
		scheme string
	}
	var cells []cell
	for _, name := range ReportWorkloads() {
		for _, scheme := range []string{"ic", "pic"} {
			cells = append(cells, cell{name, scheme})
		}
	}
	gather := func() []confArtifacts {
		arts := make([]confArtifacts, len(cells))
		if err := runCells(len(cells), func(i int) error {
			a, err := confRun(cells[i].name, cells[i].scheme, true, 0)
			arts[i] = a
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return arts
	}
	serial := gather()
	SetParallelism(4)
	defer SetParallelism(1)
	parallel := gather()
	for i := range cells {
		if diff := confCompare(serial[i], parallel[i]); diff != "" {
			t.Errorf("%s/%s: %s differ between serial and parallel harness",
				cells[i].name, cells[i].scheme, diff)
		}
	}
}
