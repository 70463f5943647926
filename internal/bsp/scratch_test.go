package bsp

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/writable"
)

func warmAllocs(t *testing.T, e *Engine, prog Program, opt *RunOptions) float64 {
	t.Helper()
	build := func() (Program, error) { return prog, nil }
	return testing.AllocsPerRun(20, func() {
		if _, err := e.Run(build, opt); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunWarmAllocations pins the pooled scratch and the float lane: once
// the pool is warm a run of PageRank's message shape — float sends, a
// FloatSum combiner — allocates nothing per vertex or per message. What
// remains is the Result and the per-superstep pricing calls into
// simcluster and simnet.
func TestRunWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// On one node, in local mode, the pricing is two Schedule calls of
	// three small slices each: the whole run stays under the bound.
	one := benchCluster().Subset([]int{0})
	solo := warmAllocs(t, NewEngine(one), newScatter(2000, 5, 1, 1), &RunOptions{Workers: 1, Local: true})
	if solo > 16 {
		t.Errorf("warm local run of 2000 vertices allocates %.1f objects, want at most 16", solo)
	}
	// On the full cluster, priced, the count is whatever the pricing of
	// two supersteps costs — the same for 12 vertices and for 2000. A
	// collection between runs may empty the pool once, which the
	// average and the slack absorb.
	for _, workers := range []int{1, 2} {
		opt := &RunOptions{Workers: workers}
		small := warmAllocs(t, NewEngine(benchCluster()), newScatter(12, 5, 12, 1), opt)
		large := warmAllocs(t, NewEngine(benchCluster()), newScatter(2000, 5, 12, 1), opt)
		if large > small+2 {
			t.Errorf("workers=%d: warm run allocates %.1f objects at 2000 vertices, %.1f at 12: want no growth", workers, large, small)
		}
	}
}

// holdsNothing fails the test for every string, interface, pointer, map,
// func or channel reachable from v that is not zero, looking at slices
// up to their capacity — the memory a pooled buffer keeps alive.
func holdsNothing(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Slice:
		v = v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < v.Len(); i++ {
			holdsNothing(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			holdsNothing(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.String, reflect.Interface, reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan:
		if !v.IsZero() {
			t.Errorf("%s still holds %v", path, v)
		}
	}
}

// pooledScratch returns a scratch that run's call left in the pool. The
// pool may drop a Put (always possible, frequent under the race
// detector), so the run is repeated until a used one comes back.
func pooledScratch(t *testing.T, run func()) *scratch {
	t.Helper()
	for try := 0; try < 50; try++ {
		run()
		if s := getScratch(); cap(s.table) > 0 { // every attempt starts at the table
			return s
		}
	}
	t.Fatal("no used scratch came back from the pool in 50 runs")
	return nil
}

// TestScratchReleaseDropsReferences: after a run returns — normally, on
// a Compute error, or on a stray send — nothing in the pooled scratch,
// within capacity, references a message value, a tag or an error.
func TestScratchReleaseDropsReferences(t *testing.T) {
	good := func() (Program, error) { return genScript(7, true), nil }
	failing := func() (Program, error) {
		p := genScript(7, false)
		mid := len(p.infos) / 2
		p.halts[0][mid] = false // so it runs in superstep 1
		p.sends[1][mid] = append(p.sends[1][mid], scriptSend{to: -1})
		return p, nil
	}
	for name, build := range map[string]func() (Program, error){
		"good run":        good,
		"stray send":      failing,
		"compute error":   func() (Program, error) { return &failProgram{}, nil },
		"duplicate id":    func() (Program, error) { return &dupProgram{newRing(2, 1, nil)}, nil },
		"workers 3, good": good,
	} {
		workers := 1
		if name == "workers 3, good" {
			workers = 3
		}
		s := pooledScratch(t, func() {
			_, err := NewEngine(testCluster()).Run(build, &RunOptions{Workers: workers})
			if wantErr := name != "good run" && name != "workers 3, good"; (err != nil) != wantErr {
				t.Fatalf("%s: err = %v", name, err)
			}
		})
		holdsNothing(t, name+": scratch", reflect.ValueOf(s).Elem())
		s.release()
	}
}

// TestRunAfterFailedRunIsClean: a run that fails with its buffers full —
// superstep 1, inboxes delivered, sends half made — leaves nothing a
// later run on the same engine can see.
func TestRunAfterFailedRunIsClean(t *testing.T) {
	type outcome struct {
		res   Result
		ran   [scriptSteps + 1][]bool
		inbox [scriptSteps + 1][]Inbox
	}
	goodRun := func(e *Engine) outcome {
		prog := genScript(3, true)
		res, err := e.Run(func() (Program, error) { return prog, nil }, &RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res.Program = nil
		return outcome{*res, prog.ran, prog.inbox}
	}
	solo := goodRun(NewEngine(testCluster()))

	e := NewEngine(testCluster())
	bad := genScript(99, true)
	last := len(bad.infos) - 1
	bad.halts[0][last] = false // so the last vertex runs in superstep 1
	bad.sends[1][last] = append(bad.sends[1][last], scriptSend{to: len(bad.infos), tag: "a", val: "stray"})
	_, err := e.Run(func() (Program, error) { return bad, nil }, &RunOptions{Workers: 2})
	var pe *ProgramError
	if !errors.As(err, &pe) || pe.Step != 1 || pe.Vertex != bad.infos[last].ID {
		t.Fatalf("failing run: err = %v, want a superstep-1 ProgramError of the last vertex", err)
	}
	if after := goodRun(e); !reflect.DeepEqual(after, solo) {
		t.Fatalf("run after a failed run differs from the same run alone:\n got %+v\nwant %+v", after.res, solo.res)
	}
}

// stepThrough runs p on s superstep by superstep, as an attempt does
// with every vertex at home, and calls after once each gather returns.
func stepThrough(t *testing.T, s *scratch, p Program, after func()) {
	t.Helper()
	vs := s.vertexSet(p)
	s.setLive(testCluster().Nodes(), nil)
	s.startAttempt(vs)
	for i, v := range vs.infos {
		s.hslot[i] = s.slotOf[v.Home]
	}
	for step := 0; s.activate(); step++ {
		if c := s.compute(p, step, 2); c != nil {
			t.Fatalf("superstep %d: vertex %d failed: %v", step, c.failed, c.err)
		}
		var comb Combiner
		if cp, ok := p.(CombinerProgram); ok {
			comb = cp.Combiner()
		}
		s.gather(comb)
		after()
		s.deliver(true)
		s.endStep()
	}
}

// TestFloatIndexZeroAfterEveryGather: gather clears every entry of the
// dense float index it set, so the index is all zero, to its capacity,
// after every gather — also when one scratch serves a program of 40
// vertices, then one of 5, then one of 70, as a pooled one does.
func TestFloatIndexZeroAfterEveryGather(t *testing.T) {
	s := new(scratch)
	rng := rand.New(rand.NewSource(5))
	folds := 0
	for _, n := range []int{40, 5, 70} {
		p := drawScript(rng, n, true)
		stepThrough(t, s, p, func() {
			for i, e := range s.findex[:cap(s.findex)] {
				if e != 0 {
					t.Fatalf("%d vertices: findex[%d] = %d after gather", n, i, e)
				}
			}
			folds += len(s.fwire)
		})
		if cap(s.findex) < len(s.live)*n {
			t.Fatalf("%d vertices: findex has capacity %d, want at least %d", n, cap(s.findex), len(s.live)*n)
		}
	}
	if folds == 0 {
		t.Fatal("no float message crossed the wire: the test exercises nothing")
	}
}

// panicCombiner folds the float lane until its third combine, then
// panics.
type panicCombiner struct{ calls *int }

func (panicCombiner) Combine(a, b writable.Writable) writable.Writable { return a }

func (c panicCombiner) CombineFloat(a, b float64) float64 {
	if *c.calls++; *c.calls == 3 {
		panic("combine")
	}
	return a + b
}

type panicProgram struct {
	*scatterProgram
	calls int
}

func (p *panicProgram) Combiner() Combiner { return panicCombiner{&p.calls} }

// TestReleaseClearsIndexAfterPanic: a combiner that panics mid-gather
// leaves entries in the float index; releasing the scratch clears them.
func TestReleaseClearsIndexAfterPanic(t *testing.T) {
	s := new(scratch)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the combiner did not panic")
			}
		}()
		stepThrough(t, s, &panicProgram{scatterProgram: newScatter(200, 5, 4, 1)}, func() {})
	}()
	if !slices.ContainsFunc(s.findex, func(e int32) bool { return e != 0 }) {
		t.Fatal("the panic left no entry in the index: the test exercises nothing")
	}
	s.release()
	if slices.ContainsFunc(s.findex[:cap(s.findex)], func(e int32) bool { return e != 0 }) {
		t.Fatal("release left entries in the float index")
	}
}
