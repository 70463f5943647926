package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
)

func TestSetBackendRejectsUnsupportedKnobs(t *testing.T) {
	cases := []struct {
		name string
		set  func(e *mapred.Engine)
	}{
		{"FailEveryNthMapTask", func(e *mapred.Engine) { e.FailEveryNthMapTask = 3 }},
		{"StraggleEveryNthMapTask", func(e *mapred.Engine) { e.StraggleEveryNthMapTask = 5 }},
		{"SpeculativeExecution", func(e *mapred.Engine) { e.SpeculativeExecution = true }},
		{"FairSharingNetwork", func(e *mapred.Engine) { e.FairSharingNetwork = true }},
		{"TransferTimeout", func(e *mapred.Engine) { e.TransferTimeout = 10; e.TransferRetries = 2 }},
	}
	for _, tc := range cases {
		rt := testRuntime()
		tc.set(rt.Engine())
		err := rt.SetBackend(BackendBSP)
		var be *BackendError
		if !errors.As(err, &be) {
			t.Fatalf("%s: SetBackend(bsp) = %v, want *BackendError", tc.name, err)
		}
		if be.Backend != BackendBSP {
			t.Fatalf("%s: error names backend %q", tc.name, be.Backend)
		}
		// The failed switch must not leave the runtime half-configured.
		if rt.Backend() != BackendMapred {
			t.Fatalf("%s: backend changed to %q after rejected switch", tc.name, rt.Backend())
		}
	}
}

func TestSetBackendUnknownRejected(t *testing.T) {
	rt := testRuntime()
	var be *BackendError
	if err := rt.SetBackend("ppml"); !errors.As(err, &be) {
		t.Fatalf("SetBackend(ppml) = %v, want *BackendError", err)
	}
	if rt.Backend() != BackendMapred {
		t.Fatalf("backend = %q after rejected switch", rt.Backend())
	}
}

func TestSetBackendEmptyAndMapredReset(t *testing.T) {
	rt := testRuntime()
	if err := rt.SetBackend(BackendBSP); err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendBSP {
		t.Fatalf("backend = %q, want bsp", rt.Backend())
	}
	if err := rt.SetBackend(""); err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendMapred {
		t.Fatalf("backend = %q after reset, want mapred", rt.Backend())
	}
}

// runMeanIC runs the meanSeeker IC loop on the given backend with a
// fresh runtime and returns the result plus the final encoded model.
func runMeanIC(t *testing.T, b Backend, workers int) (*ICResult, string) {
	t.Helper()
	rt := testRuntime()
	rt.Engine().Workers = workers
	if err := rt.SetBackend(b); err != nil {
		t.Fatal(err)
	}
	in, _ := pointsInput(rt, 40)
	res, err := RunIC(rt, &meanSeeker{eps: 1e-9}, in, startModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(res.Model.Encode(nil))
}

func TestICOnBSPAdapterMatchesMapredModel(t *testing.T) {
	_, mrModel := runMeanIC(t, BackendMapred, 1)
	bspRes, bspModel := runMeanIC(t, BackendBSP, 1)
	// The partition-level adapter re-executes the very same mapper,
	// combiner and reducer in the same deterministic order, so the
	// converged model is byte-identical across backends.
	if bspModel != mrModel {
		t.Fatal("IC model on BSP adapter diverges from mapred backend")
	}
	got, _ := bspRes.Model.Vector("mean")
	want := 0.0
	for i := 0; i < 40; i++ {
		want += float64(i%7) - 3
	}
	want /= 40
	if diff := got[0] - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("converged mean[0] = %g, want %g", got[0], want)
	}
}

func TestICOnBSPDeterministicAcrossWorkersAndRepeats(t *testing.T) {
	base, baseModel := runMeanIC(t, BackendBSP, 1)
	for name, workers := range map[string]int{"workers=8": 8, "repeat": 1} {
		got, gotModel := runMeanIC(t, BackendBSP, workers)
		if gotModel != baseModel {
			t.Errorf("%s: model bytes diverge", name)
		}
		if !reflect.DeepEqual(got.Metrics, base.Metrics) {
			t.Errorf("%s: metrics diverge:\n got %+v\nwant %+v", name, got.Metrics, base.Metrics)
		}
		if got.Iterations != base.Iterations {
			t.Errorf("%s: iterations %d != %d", name, got.Iterations, base.Iterations)
		}
	}
}

func TestPICOnBSPAdapterConverges(t *testing.T) {
	run := func() (*PICResult, string) {
		rt := testRuntime()
		if err := rt.SetBackend(BackendBSP); err != nil {
			t.Fatal(err)
		}
		in, _ := pointsInput(rt, 40)
		res, err := RunPIC(rt, &meanSeeker{eps: 1e-6}, in, startModel(), PICOptions{Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res, string(res.Model.Encode(nil))
	}
	a, am := run()
	b, bm := run()
	if am != bm {
		t.Fatal("PIC on BSP backend not deterministic across repeats")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("PIC metrics diverge:\n got %+v\nwant %+v", a.Metrics, b.Metrics)
	}
	mean, ok := a.Model.Vector("mean")
	if !ok {
		t.Fatal("no mean in PIC model")
	}
	if mean[0] < -3 || mean[0] > 3 {
		t.Fatalf("PIC mean[0] = %g, implausibly far from data", mean[0])
	}
}

func TestBSPBackendInheritedByForks(t *testing.T) {
	rt := testRuntime()
	if err := rt.SetBackend(BackendBSP); err != nil {
		t.Fatal(err)
	}
	sub := rt.Fork(rt.Cluster(), true)
	if sub.Backend() != BackendBSP {
		t.Fatalf("fork backend = %q, want bsp", sub.Backend())
	}
}

// modelessApp is a VertexApp whose program does not implement
// bsp.Modeler — the runtime must fail with a typed *BackendError, not
// silently fall back to the mapred iteration.
type modelessApp struct{ meanSeeker }

type modelessProgram struct{}

func (p *modelessProgram) Vertices() []bsp.VertexInfo {
	return []bsp.VertexInfo{{ID: "v", Home: 0}}
}

func (p *modelessProgram) Compute(step, v int, in bsp.Inbox, s bsp.Sender) (bool, error) {
	return true, nil
}

func (a *modelessApp) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	return &modelessProgram{}, nil
}

func TestVertexProgramWithoutModelerFailsTyped(t *testing.T) {
	rt := testRuntime()
	if err := rt.SetBackend(BackendBSP); err != nil {
		t.Fatal(err)
	}
	in, _ := pointsInput(rt, 8)
	_, err := RunIC(rt, &modelessApp{meanSeeker{eps: 1e-9}}, in, startModel(), nil)
	var be *BackendError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BackendError for Modeler-less vertex program", err)
	}
}

func TestBSPRunRecordsRegistryAndSpans(t *testing.T) {
	rt := testRuntime()
	if err := rt.SetBackend(BackendBSP); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	rt.SetObservability(reg)
	tr := trace.New()
	rt.SetTracer(tr)
	in, _ := pointsInput(rt, 40)
	if _, err := RunIC(rt, &meanSeeker{eps: 1e-6}, in, startModel(), nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"bsp.jobs", "bsp.supersteps", "bsp.messages", "bsp.message_bytes"} {
		m, ok := snap.Get(name)
		if !ok || m.Value <= 0 {
			t.Errorf("registry missing %s after BSP run (got %+v, ok=%v)", name, m, ok)
		}
	}
	checkBSPSpans(t, "adapter", tr)

	// A native vertex program records its spans through the same sink.
	native := testRuntime()
	if err := native.SetBackend(BackendBSP); err != nil {
		t.Fatal(err)
	}
	tr = trace.New()
	native.SetTracer(tr)
	in, _ = pointsInput(native, 40)
	if _, err := RunIC(native, &derivingApp{}, in, startModel(), &ICOptions{MaxIterations: 2}); err != nil {
		t.Fatal(err)
	}
	checkBSPSpans(t, "vertex program", tr)
}

// checkBSPSpans checks that a traced BSP run recorded superstep and
// barrier spans, each a child of the job span whose name prefixes its
// own.
func checkBSPSpans(t *testing.T, path string, tr *trace.Tracer) {
	t.Helper()
	jobs := map[int64]string{}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindJob {
			jobs[e.ID] = e.Name
		}
	}
	var steps, barriers int
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindSuperstep:
			steps++
		case trace.KindBarrier:
			barriers++
		default:
			continue
		}
		if job, ok := jobs[e.Parent]; !ok || !strings.HasPrefix(e.Name, job+"/") {
			t.Fatalf("%s: span %q is not the child of its job span", path, e.Name)
		}
	}
	if steps == 0 || barriers == 0 {
		t.Fatalf("%s: traced run recorded %d superstep and %d barrier spans", path, steps, barriers)
	}
}

// derivingApp is a VertexDeriver that counts its derivations: one vertex
// per input record, each halting at once, and a Model that carries the
// model over. It never converges, so a loop runs its full budget.
type derivingApp struct {
	meanSeeker
	derives int
	fail    error // returned by DeriveVertices when set
}

func (a *derivingApp) Converged(prev, next *model.Model) bool { return false }

func (a *derivingApp) DeriveVertices(in *mapred.Input) (DerivedVertices, error) {
	a.derives++
	if a.fail != nil {
		return nil, a.fail
	}
	var infos []bsp.VertexInfo
	for _, sp := range in.Splits {
		for _, r := range sp.Records {
			infos = append(infos, bsp.VertexInfo{ID: r.Key, Home: sp.Home})
		}
	}
	return &derivedRecords{bsp.NewVertexSet(infos)}, nil
}

func (a *derivingApp) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	d, err := a.DeriveVertices(in)
	if err != nil {
		return nil, err
	}
	return d.Bind(m)
}

type derivedRecords struct{ set *bsp.VertexSet }

func (d *derivedRecords) Bind(*model.Model) (bsp.Program, error) { return &recordsProgram{d.set}, nil }

type recordsProgram struct{ set *bsp.VertexSet }

func (p *recordsProgram) Vertices() []bsp.VertexInfo { return p.set.Infos() }
func (p *recordsProgram) VertexSet() *bsp.VertexSet  { return p.set }
func (p *recordsProgram) Compute(step, v int, in bsp.Inbox, s bsp.Sender) (bool, error) {
	return true, nil
}
func (p *recordsProgram) Model(prev *model.Model) (*model.Model, error) { return prev.Clone(), nil }

// TestVertexDeriverDerivesOncePerInput: with the loop cache attached the
// runtime derives a vertex program's input-only half once per input and
// binds it every iteration, charging nothing to the cache; detached, it
// derives every attempt. Release, EvictNode and Invalidate drop the
// derived state, and an input whose splits moved is derived again.
func TestVertexDeriverDerivesOncePerInput(t *testing.T) {
	loop := func(warm bool, between func(rt *Runtime, in *mapred.Input)) (derives int, stats mapred.FamilyStats) {
		rt := testRuntime()
		if err := rt.SetBackend(BackendBSP); err != nil {
			t.Fatal(err)
		}
		rt.SetLoopCache(warm)
		app := &derivingApp{}
		in, _ := pointsInput(rt, 24)
		s := NewICStepper(rt, app, in, startModel(), &ICOptions{MaxIterations: 5})
		for step := 0; ; step++ {
			done, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return app.derives, rt.LoopCacheStats()
			}
			if step == 1 && between != nil {
				between(rt, in)
			}
		}
	}
	// The model's delta accounting (DeltaBytes) is the family's as ever;
	// the derived state stages, hits and holds nothing.
	if n, st := loop(true, nil); n != 1 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.ResidentBytes != 0 {
		t.Errorf("warm loop of 5 iterations derived %d times and moved the cache counters to %+v, want once and none", n, st)
	}
	if n, _ := loop(false, nil); n != 5 {
		t.Errorf("cold loop of 5 iterations derived %d times, want 5", n)
	}
	for name, drop := range map[string]func(rt *Runtime, in *mapred.Input){
		"Release":    func(rt *Runtime, _ *mapred.Input) { rt.ReleaseLoopCache() },
		"EvictNode":  func(rt *Runtime, _ *mapred.Input) { rt.LoopFamily().EvictNode(0) },
		"Invalidate": func(rt *Runtime, _ *mapred.Input) { rt.LoopFamily().Invalidate() },
		"moved home": func(rt *Runtime, in *mapred.Input) { in.Splits[2].Home = (in.Splits[2].Home + 1) % 4 },
		"new records": func(rt *Runtime, in *mapred.Input) {
			in.Splits[0].Records = append([]mapred.Record(nil), in.Splits[0].Records...)
		},
	} {
		if n, _ := loop(true, drop); n != 2 {
			t.Errorf("%s mid-loop: derived %d times, want 2", name, n)
		}
	}
}

// TestVertexDeriverErrorIsTheProgramError: a derivation that fails
// fails the iteration with the error VertexProgram's build would give,
// warm or cold.
func TestVertexDeriverErrorIsTheProgramError(t *testing.T) {
	errBad := errors.New("bad record")
	msgs := map[bool]string{}
	for _, warm := range []bool{false, true} {
		rt := testRuntime()
		if err := rt.SetBackend(BackendBSP); err != nil {
			t.Fatal(err)
		}
		rt.SetLoopCache(warm)
		in, _ := pointsInput(rt, 8)
		_, err := RunIC(rt, &derivingApp{fail: errBad}, in, startModel(), nil)
		if !errors.Is(err, errBad) {
			t.Fatalf("warm=%v: err = %v, want the derivation's error", warm, err)
		}
		msgs[warm] = err.Error()
	}
	if msgs[true] != msgs[false] {
		t.Fatalf("warm error %q, cold error %q", msgs[true], msgs[false])
	}
}
