package smoothing

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapred"
	"repro/internal/writable"
)

func bspRuntime(workers int) *core.Runtime {
	rt := testRuntime()
	rt.Engine().Workers = workers
	if err := rt.SetBackend(core.BackendBSP); err != nil {
		panic(err)
	}
	return rt
}

// TestBSPSweepByteIdenticalToMapred: the vertex program replays the
// Jacobi arithmetic without reordering any summation, so the two
// backends must agree byte for byte, not just to rounding.
func TestBSPSweepByteIdenticalToMapred(t *testing.T) {
	img := data.NoisyImage(11, 16, 12, 10)
	run := func(backend core.Backend) []byte {
		app := New(16, 12, 0.5, 1e-9)
		rt := testRuntime()
		if err := rt.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		in := mapred.NewInput(Records(img), rt.Cluster(), 6)
		res, err := core.RunIC(rt, app, in, InitialModel(img), &core.ICOptions{MaxIterations: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model.Encode(nil)
	}
	if !bytes.Equal(run(core.BackendMapred), run(core.BackendBSP)) {
		t.Fatal("smoothing model diverges across backends")
	}
}

func TestBSPDeterministicAcrossWorkersAndRepeats(t *testing.T) {
	img := data.NoisyImage(12, 20, 20, 15)
	run := func(workers int) ([]byte, *core.ICResult) {
		app := New(20, 20, 0.5, 1e-9)
		rt := bspRuntime(workers)
		in := mapred.NewInput(Records(img), rt.Cluster(), rt.Cluster().MapSlots())
		res, err := core.RunIC(rt, app, in, InitialModel(img), &core.ICOptions{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model.Encode(nil), res
	}
	base, baseRes := run(1)
	for name, workers := range map[string]int{"workers=8": 8, "repeat": 1} {
		got, gotRes := run(workers)
		if !bytes.Equal(got, base) {
			t.Errorf("%s: BSP model bytes diverge", name)
		}
		if !reflect.DeepEqual(gotRes.Metrics, baseRes.Metrics) {
			t.Errorf("%s: metrics diverge:\n got %+v\nwant %+v", name, gotRes.Metrics, baseRes.Metrics)
		}
	}
}

// TestPICOnBSPHierarchicalMatchesFlat: band keys are disjoint and halo
// rows are dropped by FinalizeMerge, so the rack-tree merge must equal
// the flat gather byte for byte on the BSP backend too.
func TestPICOnBSPHierarchicalMatchesFlat(t *testing.T) {
	img := data.NoisyImage(13, 16, 18, 15)
	run := func(hier bool) []byte {
		app := New(16, 18, 0.5, 1e-6)
		rt := bspRuntime(4)
		in := mapred.NewInput(Records(img), rt.Cluster(), rt.Cluster().MapSlots())
		res, err := core.RunPIC(rt, app, in, InitialModel(img), core.PICOptions{
			Partitions:          6,
			MaxBEIterations:     3,
			MaxLocalIterations:  10,
			MaxTopOffIterations: 5,
			HierarchicalMerge:   hier,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model.Encode(nil)
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("hierarchical merge diverges from flat merge on BSP backend")
	}
}

func TestMergeKeyHaloAndRowValidation(t *testing.T) {
	app := New(8, 8, 0.5, 1e-6)
	row := writable.Vector{1, 2, 3}
	// Frozen halo rows may legitimately appear in two adjacent one-row
	// bands; the copies are identical and either is accepted.
	got, err := app.MergeKey("halo000003", []writable.Writable{row, row})
	if err != nil {
		t.Fatalf("MergeKey(halo) = %v", err)
	}
	if !reflect.DeepEqual(got, writable.Writable(row)) {
		t.Fatalf("MergeKey(halo) = %v, want %v", got, row)
	}
	// Image rows are disjoint: duplicates are a partitioning bug.
	if _, err := app.MergeKey(RowKey(3), []writable.Writable{row, row}); err == nil {
		t.Fatal("MergeKey accepted a duplicated image row")
	}
	if _, err := app.MergeKeyWeighted(RowKey(3), []writable.Writable{row}, []int{1, 1}); err == nil {
		t.Fatal("MergeKeyWeighted accepted mismatched weights")
	}
	if _, err := app.MergeKeyWeighted(RowKey(3), []writable.Writable{row}, []int{0}); err == nil {
		t.Fatal("MergeKeyWeighted accepted weight 0")
	}
}

// TestVertexProgramRejectsBadRows: vertices are found by image row, so
// a row outside the image or held twice is refused when the program is
// built.
func TestVertexProgramRejectsBadRows(t *testing.T) {
	img := data.NoisyImage(5, 8, 6, 10)
	app := New(8, 6, 0.5, 1e-9)
	rt := bspRuntime(1)
	for name, damage := range map[string]func(recs []mapred.Record){
		"twice":   func(recs []mapred.Record) { recs[2].Value = recs[1].Value },
		"outside": func(recs []mapred.Record) { recs[2].Value = append(writable.Vector{6}, img.Rows[2]...) },
	} {
		recs := Records(img)
		damage(recs)
		in := mapred.NewInput(recs, rt.Cluster(), 3)
		if _, err := app.VertexProgram(in, InitialModel(img)); err == nil || !strings.Contains(err.Error(), `record "row000002"`) {
			t.Errorf("%s: err = %v, want record row000002 refused", name, err)
		}
	}
}
