package core

import (
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
