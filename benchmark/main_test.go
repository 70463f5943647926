package main

import (
	"math"
	"regexp"
	"testing"
)

func readContract(t *testing.T) contract {
	t.Helper()
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables holds BENCHMARK.json to the tables the
// program emits from: same workloads, metrics, units and directions.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the table %s [%s] %s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.higher))
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at quick size, untraced and traced, and
// checks that each emits exactly the contract's metrics, finite, with
// one digest across the warm-up, the timed op and the three traced ops,
// and that the per-layer counts separate the workloads.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, sp := range workloads {
		cfg := runConfig{sp: sp, seed: 11, quick: true, gogc: "test"}
		untraced, err := measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		traced, err := measureTraced(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		for _, run := range []struct {
			rec  *runRecord
			want []contractMetric
		}{{untraced, c.EndToEnd}, {traced, c.PerLayer}} {
			rec := run.rec
			if !rec.Env.Quick {
				t.Errorf("%s: quick output is not labelled", sp.name)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (traced=%v): %d of %d ops failed: %v", sp.name, rec.Traced, rec.Failed, rec.Attempted, rec.Failures)
			}
			if len(rec.Metrics) != len(run.want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, the contract lists %d",
					sp.name, rec.Traced, len(rec.Metrics), len(run.want))
			}
			for _, m := range run.want {
				got, ok := rec.Metrics[m.Name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", sp.name, m.Name, got, ok, m.Unit)
				}
			}
		}
		if untraced.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %s, traced %s", sp.name, untraced.Digest, traced.Digest)
		}
		for _, m := range c.EndToEnd {
			if untraced.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", sp.name, m.Name, untraced.Metrics[m.Name].Value)
			}
		}

		// Layer separation: the counts tell the workloads apart the way
		// the workload table says they differ.
		v := func(name string) float64 { return traced.Metrics[name].Value }
		for _, sep := range []struct {
			what     string
			got, say bool
		}{
			{"transfers retried", v("mapred.transfer_retries")+v("mapred.corrupt_retries") > 0, sp.chaos != nil},
			{"poisoned replicas detected", v("dfs.detected_blocks") > 0, sp.chaos != nil},
			{"telemetry events recorded", v("telemetry.events") > 0, sp.observed},
			{"supersteps run", v("bsp.supersteps") > 0, sp.bsp},
			{"scheduler steps taken", v("sched.steps") > 0, sp.tenancy},
		} {
			if sep.got != sep.say {
				t.Errorf("%s: %s: %v, the workload table says %v", sp.name, sep.what, sep.got, sep.say)
			}
		}
	}
}

// TestBrokenOpCounts runs the chaos workload with a fault script whose
// windows miss the run: the faults never bite, so every op must be
// counted as failed.
func TestBrokenOpCounts(t *testing.T) {
	var sp spec
	for _, w := range workloads {
		if w.chaos != nil {
			sp = *w
		}
	}
	missed := *sp.chaosFast
	missed.offset = 1e6
	sp.chaosFast = &missed
	rec, err := measure(runConfig{sp: &sp, seed: 11, quick: true, gogc: "test"})
	if err == nil {
		t.Fatal("a run whose every op fails must not report a result")
	}
	if rec == nil || rec.Correct || rec.Failed != rec.Attempted || rec.Failed < 1 {
		t.Fatalf("broken ops were not counted: %+v", rec)
	}
}
