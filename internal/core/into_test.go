package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// TestRunJobRejectsIntoJobModel: RunJob refuses a job whose Into is the
// model it reads on either backend, with and without a blind-damage
// plan — the check runs on the caller's model, before damage swaps in a
// perturbed copy the engines could not tell from a distinct model.
func TestRunJobRejectsIntoJobModel(t *testing.T) {
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1e6, Rate: 1, Seed: 21},
	}}
	for _, damaged := range []bool{false, true} {
		for _, backend := range []Backend{BackendMapred, BackendBSP} {
			rt := testRuntime()
			if damaged {
				rt = corruptChaosRuntime(plan, nil, nil)
				rt.SetIntegrityChecks(false)
			}
			if err := rt.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			if _, hit := rt.blindModelDamage(rt.now()); hit != damaged {
				t.Fatalf("damaged=%v: blind damage hit = %v", damaged, hit)
			}
			m := model.New()
			m.Set("x", writable.Float64(1))
			job := &mapred.Job{
				Name: "alias",
				Mapper: mapred.MapperFunc(func(key string, _ writable.Writable, _ *model.Model, emit mapred.Emitter) error {
					emit.Emit("x", writable.Float64(2))
					return nil
				}),
				Into: m,
			}
			in := mapred.NewInput([]mapred.Record{{Key: "r", Value: writable.Int64(1)}}, rt.Cluster(), 1)
			before := rt.Now()
			_, err := rt.RunJob(job, in, m)
			if err == nil || !strings.Contains(err.Error(), "writes Into the model it reads") {
				t.Errorf("damaged=%v backend=%v: err = %v, want the aliasing rejection", damaged, backend, err)
			}
			if v, _ := m.Float("x"); v != 1 || rt.Now() != before {
				t.Errorf("damaged=%v backend=%v: a rejected job ran (x = %g)", damaged, backend, v)
			}
		}
	}
}

// TestRunJobReducesInto: on either backend, RunJob delivers a job with
// a Reducer and Into as the engines do — the reduce output Set into
// Into, no records listed — and advances the clock and the metrics as
// the same job without Into does.
func TestRunJobReducesInto(t *testing.T) {
	schema := model.NewSchema([]string{"even", "odd"})
	job := func(into *model.Model) *mapred.Job {
		return &mapred.Job{
			Name: "parity-sum",
			Mapper: mapred.MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
				n := int64(v.(writable.Int64))
				emit.Emit([]string{"even", "odd"}[n%2], writable.Float64(float64(n)/4))
				return nil
			}),
			Combiner: mapred.FloatSum{},
			Reducer:  mapred.FloatSum{Then: func(sum float64) float64 { return sum + 1 }},
			Into:     into,
		}
	}
	for _, backend := range []Backend{BackendMapred, BackendBSP} {
		run := func(into *model.Model) (*mapred.Output, *Runtime) {
			rt := testRuntime()
			if err := rt.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			recs := make([]mapred.Record, 12)
			for i := range recs {
				recs[i] = mapred.Record{Key: fmt.Sprintf("r%02d", i), Value: writable.Int64(3*i + 1)}
			}
			out, err := rt.RunJob(job(into), mapred.NewInput(recs, rt.Cluster(), 4), model.New())
			if err != nil {
				t.Fatalf("backend=%v: %v", backend, err)
			}
			return out, rt
		}
		ref, refRT := run(nil)
		want := model.NewFloatsOn(schema)
		for _, r := range ref.Records {
			want.Set(r.Key, r.Value)
		}
		into := model.NewFloatsOn(schema)
		out, rt := run(into)
		if out.Records != nil || out.ByReducer != nil {
			t.Errorf("backend=%v: RunJob listed %d records beside Into", backend, len(out.Records))
		}
		if want.Len() != 2 || string(into.Encode(nil)) != string(want.Encode(nil)) {
			t.Errorf("backend=%v: Into differs from the applied records", backend)
		}
		if rt.Metrics() != refRT.Metrics() || rt.Now() != refRT.Now() {
			t.Errorf("backend=%v: metrics or clock moved with Into:\n%+v\n%+v", backend, rt.Metrics(), refRT.Metrics())
		}
	}
}
