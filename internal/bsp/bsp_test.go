package bsp

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/trace"
	"repro/internal/writable"
)

func testCluster() *simcluster.Cluster {
	return simcluster.New(simcluster.Config{
		Nodes:              4,
		RackSize:           2,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		ComputeRate:        1e6,
		NodeBandwidth:      1e6,
		RackBandwidth:      4e6,
		CoreBandwidth:      4e6,
	})
}

// ringProgram passes accumulating float tokens around a ring of n
// vertices for laps supersteps, then every vertex halts. recv[i] is the
// deterministic sum of everything vertex i consumed — the program's
// observable output for identity checks across workers, repeats and
// crash restarts.
type ringProgram struct {
	n, laps int
	homes   []int
	recv    []float64
}

func newRing(n, laps int, homes []int) *ringProgram {
	return &ringProgram{n: n, laps: laps, homes: homes, recv: make([]float64, n)}
}

func ringID(i int) string { return "v" + strconv.Itoa(i) }

func (p *ringProgram) Vertices() []VertexInfo {
	infos := make([]VertexInfo, p.n)
	for i := range infos {
		h := -1
		if p.homes != nil {
			h = p.homes[i]
		}
		infos[i] = VertexInfo{ID: ringID(i), Home: h}
	}
	return infos
}

func (p *ringProgram) Compute(step, i int, in Inbox, s Sender) (bool, error) {
	sum := 0.0
	for _, f := range in.Floats {
		sum += f
	}
	p.recv[i] += sum
	if step < p.laps {
		s.SendFloat((i+1)%p.n, sum+float64(i)+1)
		return false, nil
	}
	return true, nil
}

// haltProgram: every vertex halts immediately without sending.
type haltProgram struct{ n int }

func (p *haltProgram) Vertices() []VertexInfo {
	infos := make([]VertexInfo, p.n)
	for i := range infos {
		infos[i] = VertexInfo{ID: ringID(i), Home: -1}
	}
	return infos
}

func (p *haltProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	return true, nil
}

func TestRunTerminatesWhenAllHalt(t *testing.T) {
	e := NewEngine(testCluster())
	res, err := e.Run(func() (Program, error) { return &haltProgram{n: 6}, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Fatalf("Supersteps = %d, want 1", res.Supersteps)
	}
	if res.Metrics.Vertices != 6 || res.Metrics.HaltedVotes != 6 {
		t.Fatalf("Vertices/HaltedVotes = %d/%d, want 6/6", res.Metrics.Vertices, res.Metrics.HaltedVotes)
	}
	if res.Metrics.Messages != 0 || res.Metrics.Restarts != 0 {
		t.Fatalf("unexpected messages (%d) or restarts (%d)", res.Metrics.Messages, res.Metrics.Restarts)
	}
}

// reactivateProgram: "a" messages the already-halted "b" in superstep 0;
// the message must reactivate "b" for superstep 1.
type reactivateProgram struct {
	bGot float64
}

func (p *reactivateProgram) Vertices() []VertexInfo {
	return []VertexInfo{{ID: "a", Home: 0}, {ID: "b", Home: 1}}
}

func (p *reactivateProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	if step == 0 && v == 0 {
		s.Send(1, "", writable.Float64(42))
	}
	for _, m := range in.Msgs {
		p.bGot += float64(m.Value.(writable.Float64))
	}
	return true, nil // everyone votes to halt every superstep
}

func TestMessageReactivatesHaltedVertex(t *testing.T) {
	e := NewEngine(testCluster())
	prog := &reactivateProgram{}
	res, err := e.Run(func() (Program, error) { return prog, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2 (halted vertex must wake on message)", res.Supersteps)
	}
	if prog.bGot != 42 {
		t.Fatalf("b received %g, want 42", prog.bGot)
	}
	// Superstep 1 computes only the reactivated vertex.
	if res.Metrics.Vertices != 3 {
		t.Fatalf("Vertices = %d, want 3 (2 in step 0, 1 in step 1)", res.Metrics.Vertices)
	}
}

// fanProgram: nSend sender vertices each send Float64(1) to a single
// sink in superstep 0.
type fanProgram struct {
	nSend   int
	combine bool
	sinkSum float64
	sinkN   int
}

func (p *fanProgram) Vertices() []VertexInfo {
	infos := []VertexInfo{{ID: "sink", Home: 0}}
	for i := 0; i < p.nSend; i++ {
		infos = append(infos, VertexInfo{ID: "s" + strconv.Itoa(i), Home: i % 4})
	}
	return infos
}

func (p *fanProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	if step == 0 && v != 0 { // vertex 0 is the sink
		s.Send(0, "acc", writable.Float64(1))
	}
	for _, m := range in.Msgs {
		p.sinkSum += float64(m.Value.(writable.Float64))
		p.sinkN++
	}
	return true, nil
}

// combinedFan adds a Combiner to fanProgram.
type combinedFan struct{ fanProgram }

func (p *combinedFan) Combiner() Combiner { return FloatSum{} }

func TestCombinerMergesPerSourceNode(t *testing.T) {
	// 8 senders over 4 nodes, without and with a sum combiner. The
	// combiner must collapse each node's sends into one wire message and
	// preserve the sum.
	plainProg := &fanProgram{nSend: 8}
	plain, err := NewEngine(testCluster()).Run(func() (Program, error) { return plainProg, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	combProg := &combinedFan{fanProgram{nSend: 8}}
	comb, err := NewEngine(testCluster()).Run(func() (Program, error) { return combProg, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.Messages != 8 || plain.Metrics.CombinedMessages != 8 {
		t.Fatalf("plain Messages/Combined = %d/%d, want 8/8",
			plain.Metrics.Messages, plain.Metrics.CombinedMessages)
	}
	if comb.Metrics.Messages != 8 || comb.Metrics.CombinedMessages != 4 {
		t.Fatalf("combined Messages/Combined = %d/%d, want 8/4 (one per source node)",
			comb.Metrics.Messages, comb.Metrics.CombinedMessages)
	}
	if plainProg.sinkSum != 8 || combProg.sinkSum != 8 {
		t.Fatalf("sink sums %g (plain) / %g (combined), want 8 for both",
			plainProg.sinkSum, combProg.sinkSum)
	}
	if combProg.sinkN != 4 {
		t.Fatalf("combined sink received %d messages, want 4", combProg.sinkN)
	}
	if comb.Metrics.MessageBytes >= plain.Metrics.MessageBytes {
		t.Fatalf("combining did not cut wire bytes: %d >= %d",
			comb.Metrics.MessageBytes, plain.Metrics.MessageBytes)
	}
}

// runRing executes a fresh ring run on a fresh cluster and returns the
// result, its trace spans and the observable output.
func runRing(t *testing.T, workers int) (*Result, []trace.Event, []float64) {
	t.Helper()
	e := NewEngine(testCluster())
	var prog *ringProgram
	var spans []trace.Event
	res, err := e.Run(func() (Program, error) {
		prog = newRing(9, 5, []int{0, 1, 2, 3, 0, 1, 2, 3, 0})
		return prog, nil
	}, &RunOptions{Workers: workers, Spans: &spans})
	if err != nil {
		t.Fatal(err)
	}
	return res, spans, prog.recv
}

func TestDeterminismAcrossWorkersAndRepeats(t *testing.T) {
	base, baseSpans, baseRecv := runRing(t, 1)
	if base.Supersteps != 6 {
		t.Fatalf("Supersteps = %d, want 6 (laps+1)", base.Supersteps)
	}
	for name, workers := range map[string]int{"workers=8": 8, "repeat": 1, "workers=3": 3} {
		got, gotSpans, gotRecv := runRing(t, workers)
		if !reflect.DeepEqual(got.Metrics, base.Metrics) {
			t.Errorf("%s: metrics diverge:\n got %+v\nwant %+v", name, got.Metrics, base.Metrics)
		}
		if got.End != base.End {
			t.Errorf("%s: end time %v != %v", name, got.End, base.End)
		}
		if !reflect.DeepEqual(gotSpans, baseSpans) {
			t.Errorf("%s: trace spans diverge", name)
		}
		if !reflect.DeepEqual(got.Homes, base.Homes) {
			t.Errorf("%s: vertex homes diverge", name)
		}
		if !reflect.DeepEqual(gotRecv, baseRecv) {
			t.Errorf("%s: program output diverges: %v vs %v", name, gotRecv, baseRecv)
		}
	}
}

func TestCrashRestartsAttemptAtBarrier(t *testing.T) {
	clean, _, cleanRecv := runRing(t, 1)

	c := testCluster()
	// Node 3 dies just after the run starts: the first barrier observes
	// the changed dead set and restarts the attempt on the survivors.
	c.SetFailurePlan(&simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 3, Time: 1e-12},
	}})
	e := NewEngine(c)
	var prog *ringProgram
	var spans []trace.Event
	res, err := e.Run(func() (Program, error) {
		prog = newRing(9, 5, []int{0, 1, 2, 3, 0, 1, 2, 3, 0})
		return prog, nil
	}, &RunOptions{Workers: 4, Spans: &spans})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Metrics.Restarts)
	}
	for i, h := range res.Homes {
		if h == 3 {
			t.Fatalf("vertex %d still homed on dead node 3", i)
		}
	}
	if !reflect.DeepEqual(prog.recv, cleanRecv) {
		t.Fatalf("post-restart output diverges from clean run:\n got %v\nwant %v", prog.recv, cleanRecv)
	}
	if res.End <= clean.End {
		t.Fatalf("restarted run end %v not later than clean %v (lost attempt must cost time)", res.End, clean.End)
	}
	var restartSpan bool
	for _, ev := range spans {
		if strings.Contains(ev.Name, "restart") {
			restartSpan = true
		}
	}
	if !restartSpan {
		t.Fatal("no restart trace span recorded")
	}
}

func TestDeadHomesRehomeDeterministically(t *testing.T) {
	c := testCluster()
	c.SetFailurePlan(&simcluster.FailurePlan{Events: []simcluster.NodeEvent{
		{Node: 2, Time: 0},
	}})
	e := NewEngine(c)
	var prog *ringProgram
	res, err := e.Run(func() (Program, error) {
		prog = newRing(4, 2, []int{2, 2, 1, -1})
		return prog, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dead (node 2) and unassigned (-1) homes deal round-robin over the
	// live nodes {0, 1, 3} in vertex order.
	want := []int{0, 1, 1, 3}
	if !reflect.DeepEqual(res.Homes, want) {
		t.Fatalf("Homes = %v, want %v", res.Homes, want)
	}
	if prog.recv == nil {
		t.Fatal("program did not run")
	}
}

func TestDuplicateVertexIDRejected(t *testing.T) {
	e := NewEngine(testCluster())
	_, err := e.Run(func() (Program, error) {
		p := newRing(2, 1, nil)
		return &dupProgram{p}, nil
	}, nil)
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProgramError", err)
	}
	if pe.Job != "bsp" || pe.Step != -1 || pe.Vertex != ringID(0) || pe.Err != nil {
		t.Fatalf("ProgramError = %+v, want job bsp, no step, vertex %s", *pe, ringID(0))
	}
	if want := `bsp: bsp: duplicate vertex id "v0"`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

type dupProgram struct{ *ringProgram }

// setProgram hands the engine p's vertex set, derived ahead of the run.
type setProgram struct {
	Program
	set *VertexSet
}

func (p *setProgram) VertexSet() *VertexSet { return p.set }

// TestSetProgramMatchesDerivingPerAttempt: a program run with a vertex
// set derived ahead — once, and bound to every attempt, across a crash
// restart — is the same run as the program deriving its set per attempt,
// and a derived set with a duplicate id fails the run alike.
func TestSetProgramMatchesDerivingPerAttempt(t *testing.T) {
	run := func(derived bool) (*Result, []float64, error) {
		c := testCluster()
		c.SetFailurePlan(&simcluster.FailurePlan{Events: []simcluster.NodeEvent{{Node: 1, Time: 1e-3}}})
		var prog *ringProgram
		var set *VertexSet
		res, err := NewEngine(c).Run(func() (Program, error) {
			prog = newRing(6, 4, []int{0, 1, 2, 3, 1, 2})
			if !derived {
				return prog, nil
			}
			if set == nil {
				set = NewVertexSet(prog.Vertices())
			}
			return &setProgram{prog, set}, nil
		}, &RunOptions{Workers: 2})
		if err != nil {
			return nil, nil, err
		}
		res.Program = nil
		return res, prog.recv, nil
	}
	plain, plainRecv, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.Restarts == 0 {
		t.Fatal("the crash restarted no attempt: the test does not rebind the set")
	}
	set, setRecv, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, plain) || !reflect.DeepEqual(setRecv, plainRecv) {
		t.Fatalf("derived-set run\n%+v\nper-attempt run\n%+v", *set, *plain)
	}

	dup := &dupProgram{newRing(2, 1, nil)}
	_, plainErr := NewEngine(testCluster()).Run(func() (Program, error) { return dup, nil }, nil)
	_, setErr := NewEngine(testCluster()).Run(func() (Program, error) {
		return &setProgram{dup, NewVertexSet(dup.Vertices())}, nil
	}, nil)
	if plainErr == nil || setErr == nil || plainErr.Error() != setErr.Error() {
		t.Fatalf("duplicate id: derived set fails with %v, per-attempt set with %v", setErr, plainErr)
	}
}

func (p *dupProgram) Vertices() []VertexInfo {
	infos := p.ringProgram.Vertices()
	infos[1].ID = infos[0].ID
	return infos
}

// strayProgram sends to an index outside its one-vertex set.
type strayProgram struct{ to int }

func (p *strayProgram) Vertices() []VertexInfo {
	return []VertexInfo{{ID: "only", Home: 0}}
}

func (p *strayProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	s.Send(p.to, "", writable.Float64(1))
	return true, nil
}

func TestSendToUnknownVertexRejected(t *testing.T) {
	// One past the end, negative, and far outside: each is reported as
	// the sender's error, never an index out of range.
	for _, to := range []int{1, -1, 1 << 40} {
		e := NewEngine(testCluster())
		_, err := e.Run(func() (Program, error) { return &strayProgram{to: to}, nil }, &RunOptions{Name: "stray"})
		var pe *ProgramError
		if !errors.As(err, &pe) {
			t.Fatalf("to=%d: err = %v, want *ProgramError", to, err)
		}
		if pe.Job != "stray" || pe.Step != 0 || pe.Vertex != "only" || pe.Err != nil {
			t.Fatalf("to=%d: ProgramError = %+v, want job stray, step 0, vertex only", to, *pe)
		}
		if want := fmt.Sprintf("bsp: stray: superstep 0 vertex only: send to unknown vertex %d", to); err.Error() != want {
			t.Fatalf("err = %q, want %q", err, want)
		}
	}
}

func TestComputeErrorNamesVertex(t *testing.T) {
	e := NewEngine(testCluster())
	_, err := e.Run(func() (Program, error) { return &failProgram{}, nil }, nil)
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProgramError", err)
	}
	if pe.Job != "bsp" || pe.Step != 0 || pe.Vertex != "bad" || !errors.Is(err, errBoom) {
		t.Fatalf("ProgramError = %+v, want job bsp, step 0, vertex bad, wrapping errBoom", *pe)
	}
	if want := "bsp: bsp: superstep 0 vertex bad: boom"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

type failProgram struct{}

func (p *failProgram) Vertices() []VertexInfo {
	return []VertexInfo{{ID: "ok", Home: 0}, {ID: "bad", Home: 1}}
}

var errBoom = errors.New("boom")

func (p *failProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	if v == 1 {
		return false, errBoom
	}
	return true, nil
}

func TestLocalModeSkipsNetworkBarrierAndSpans(t *testing.T) {
	c := testCluster()
	e := NewEngine(c)
	var prog *ringProgram
	var spans []trace.Event
	res, err := e.Run(func() (Program, error) {
		prog = newRing(6, 3, []int{0, 1, 2, 3, 0, 1})
		return prog, nil
	}, &RunOptions{Local: true, Spans: &spans})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MessagePhase != 0 || m.BarrierPhase != 0 || m.ModelPhase != 0 {
		t.Fatalf("local run priced network phases: %+v", m)
	}
	if m.MessageNetworkBytes != 0 || m.ModelBytes != 0 {
		t.Fatalf("local run moved network bytes: %+v", m)
	}
	if len(spans) != 0 {
		t.Fatalf("local run recorded %d framework spans, want 0", len(spans))
	}
	if got := c.Fabric().Counters(); got.Transfers != 0 {
		t.Fatalf("local run recorded %d fabric transfers, want 0", got.Transfers)
	}
	if m.ComputePhase <= 0 {
		t.Fatal("local run priced no compute")
	}
	folded := m.Fold(true)
	if folded.LocalJobs != 1 || folded.Jobs != 0 {
		t.Fatalf("local fold = %+v, want LocalJobs=1 Jobs=0", folded)
	}
	_ = prog
}

func TestLocalComputeFactorScalesCompute(t *testing.T) {
	run := func(factor float64) Metrics {
		e := NewEngine(testCluster())
		cost := DefaultCostModel()
		cost.LocalComputeFactor = factor
		e.SetCostModel(cost)
		res, err := e.Run(func() (Program, error) {
			return newRing(6, 3, []int{0, 1, 2, 3, 0, 1}), nil
		}, &RunOptions{Local: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	full := run(1.0)
	half := run(0.5)
	if half.ComputePhase <= 0 || full.ComputePhase <= 0 {
		t.Fatal("no compute priced")
	}
	ratio := float64(half.ComputePhase) / float64(full.ComputePhase)
	if ratio < 0.49 || ratio > 0.51 {
		t.Fatalf("LocalComputeFactor 0.5 scaled compute by %g, want 0.5", ratio)
	}
}

func TestBarrierSpansPairSupersteps(t *testing.T) {
	res, spans, _ := runRing(t, 1)
	var steps, barriers int
	for _, ev := range spans {
		switch ev.Kind {
		case trace.KindSuperstep:
			steps++
		case trace.KindBarrier:
			barriers++
		default:
			t.Fatalf("unexpected span kind %v", ev.Kind)
		}
		if ev.Lane != 0 || ev.ID != 0 || ev.Parent != 0 {
			t.Fatalf("engine span %q already stamped: %+v", ev.Name, ev)
		}
	}
	if steps != res.Supersteps || barriers != res.Supersteps {
		t.Fatalf("spans = %d supersteps + %d barriers, want %d of each", steps, barriers, res.Supersteps)
	}
}

// sumJob is a grouped sum job identical in shape to the apps' jobs: the
// mapper buckets each point under one of a few keys, the combiner and
// reducer both sum vectors.
func sumJob(combine bool) *mapred.Job {
	sum := mapred.ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
		acc := values[0].(writable.Vector).Clone()
		for _, v := range values[1:] {
			vec := v.(writable.Vector)
			for i := range acc {
				acc[i] += vec[i]
			}
		}
		emit.Emit(key, acc)
		return nil
	})
	job := &mapred.Job{
		Name: "sum",
		Mapper: mapred.MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			if len(key)%2 == 0 {
				emit.Emit("even", v)
			} else {
				emit.Emit("odd", v)
			}
			return nil
		}),
		Reducer: sum,
	}
	if combine {
		job.Combiner = sum
	}
	return job
}

func sumInput(c *simcluster.Cluster) *mapred.Input {
	recs := make([]mapred.Record, 24)
	for i := range recs {
		recs[i] = mapred.Record{
			Key:   fmt.Sprintf("p%d", i),
			Value: writable.Vector{float64(i%7) - 3, float64(i%5) * 2},
		}
	}
	return mapred.NewInput(recs, c, 8)
}

// sortedRecords is the tests' own reference order, independent of the
// mapred group step the adapter runs on.
func sortedRecords(recs []mapred.Record) []mapred.Record {
	out := append([]mapred.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestAdapterMatchesMapredOutput runs the same grouped job through the
// mapred engine and through the partition-level BSP adapter and demands
// identical reduce output — the adapter must be a faithful re-execution
// of the job, not an approximation.
func TestAdapterMatchesMapredOutput(t *testing.T) {
	msgs := map[bool]int64{}
	for _, combine := range []bool{false, true} {
		mc := testCluster()
		mrOut, _, err := mapred.NewEngine(mc).Run(sumJob(combine), sumInput(mc), nil)
		if err != nil {
			t.Fatal(err)
		}
		bc := testCluster()
		bspOut, res, err := RunJob(NewEngine(bc), sumJob(combine), sumInput(bc), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRecords(bspOut.Records), sortedRecords(mrOut.Records)) {
			t.Fatalf("combine=%v: adapter output diverges:\n got %v\nwant %v",
				combine, sortedRecords(bspOut.Records), sortedRecords(mrOut.Records))
		}
		if len(bspOut.ByReducer) != len(mrOut.ByReducer) {
			t.Fatalf("combine=%v: %d reducers via adapter, %d via mapred",
				combine, len(bspOut.ByReducer), len(mrOut.ByReducer))
		}
		// Grouped adapter jobs are exactly two supersteps: map vertices
		// then reduce vertices.
		if res.Supersteps != 2 {
			t.Fatalf("combine=%v: Supersteps = %d, want 2", combine, res.Supersteps)
		}
		msgs[combine] = res.Metrics.Messages
	}
	// The job's combiner runs inside the map vertex (as in the mapred
	// map pipeline), so the combined variant sends fewer messages.
	if msgs[true] >= msgs[false] {
		t.Fatalf("combiner did not cut adapter messages: %d >= %d", msgs[true], msgs[false])
	}
}

// TestAdapterMapOnlyInto: the adapter delivers a map-only job with
// Job.Into as the mapred engine does — the records Set into Into in
// split order, later ones winning — and rejects an Into that is the
// job's model.
func TestAdapterMapOnlyInto(t *testing.T) {
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%d", i)
	}
	schema := model.NewSchema(keys)
	job := func(into *model.Model) *mapred.Job {
		return &mapred.Job{
			Name: "last-digit",
			Mapper: mapred.MapperFunc(func(key string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
				scale, _ := m.Float("scale")
				vec := v.(writable.Vector)
				emit.Emit("s"+key[len(key)-1:], writable.Float64(scale*(vec[0]+vec[1])))
				return nil
			}),
			Into: into,
		}
	}
	m := model.New()
	m.Set("scale", writable.Float64(1.5))
	mc := testCluster()
	want := model.NewFloatsOn(schema)
	if _, _, err := mapred.NewEngine(mc).Run(job(want), sumInput(mc), m); err != nil {
		t.Fatal(err)
	}
	if want.Len() != len(keys) {
		t.Fatalf("the mapred run wrote %d of %d slots", want.Len(), len(keys))
	}
	bc := testCluster()
	got := model.NewFloatsOn(schema)
	out, _, err := RunJob(NewEngine(bc), job(got), sumInput(bc), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records != nil {
		t.Fatalf("adapter kept %d records beside Into", len(out.Records))
	}
	if string(got.Encode(nil)) != string(want.Encode(nil)) {
		t.Fatal("adapter's Into diverges from mapred's")
	}
	if _, _, err := RunJob(NewEngine(bc), job(m), sumInput(bc), m, nil); err == nil ||
		!strings.Contains(err.Error(), "writes Into the model it reads") {
		t.Fatalf("Into == model: err = %v, want the aliasing rejection", err)
	}
}

// TestAdapterReduceInto: the adapter delivers a job with a Reducer and
// Job.Into as the mapred engine does — the reduce output Set into Into,
// no records listed, the reducers' nodes kept — at the metrics of the
// same job without Into.
func TestAdapterReduceInto(t *testing.T) {
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%d", i)
	}
	schema := model.NewSchema(keys)
	job := func(into *model.Model) *mapred.Job {
		return &mapred.Job{
			Name: "sum-by-last-digit",
			Mapper: mapred.MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
				vec := v.(writable.Vector)
				emit.Emit("s"+key[len(key)-1:], writable.Float64(vec[0]+0.25*vec[1]))
				return nil
			}),
			Combiner: mapred.FloatSum{},
			Reducer:  mapred.FloatSum{Then: func(sum float64) float64 { return sum / 3 }},
			Into:     into,
		}
	}
	mc := testCluster()
	want := model.NewFloatsOn(schema)
	if _, _, err := mapred.NewEngine(mc).Run(job(want), sumInput(mc), nil); err != nil {
		t.Fatal(err)
	}
	if want.Len() != len(keys) {
		t.Fatalf("the mapred run wrote %d of %d slots", want.Len(), len(keys))
	}
	bc := testCluster()
	ref, refRes, err := RunJob(NewEngine(bc), job(nil), sumInput(bc), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc = testCluster()
	got := model.NewFloatsOn(schema)
	out, res, err := RunJob(NewEngine(bc), job(got), sumInput(bc), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records != nil || out.ByReducer != nil {
		t.Fatalf("adapter kept %d records, %d reducers' records beside Into", len(out.Records), len(out.ByReducer))
	}
	if !reflect.DeepEqual(out.ReducerNodes, ref.ReducerNodes) {
		t.Fatalf("ReducerNodes %v, want %v", out.ReducerNodes, ref.ReducerNodes)
	}
	if string(got.Encode(nil)) != string(want.Encode(nil)) {
		t.Fatal("adapter's Into diverges from mapred's")
	}
	if res.Metrics != refRes.Metrics {
		t.Fatalf("metrics with Into %+v, without %+v", res.Metrics, refRes.Metrics)
	}
}

// TestAdapterMapOnlyJob: a job with no reducer finishes in one
// superstep with no messages, and its output matches the mapper run
// directly.
func TestAdapterMapOnlyJob(t *testing.T) {
	job := &mapred.Job{
		Name: "scale",
		Mapper: mapred.MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			vec := v.(writable.Vector).Clone()
			for i := range vec {
				vec[i] *= 2
			}
			emit.Emit(key, vec)
			return nil
		}),
	}
	mc := testCluster()
	mrOut, _, err := mapred.NewEngine(mc).Run(job, sumInput(mc), nil)
	if err != nil {
		t.Fatal(err)
	}
	bc := testCluster()
	bspOut, res, err := RunJob(NewEngine(bc), job, sumInput(bc), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 || res.Metrics.Messages != 0 {
		t.Fatalf("map-only job: %d supersteps, %d messages, want 1 and 0",
			res.Supersteps, res.Metrics.Messages)
	}
	if !reflect.DeepEqual(bspOut.Records, mrOut.Records) {
		t.Fatal("map-only adapter output diverges from mapred")
	}
}
