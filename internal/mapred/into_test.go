package mapred

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/writable"
)

// intoKeys is the schema of the toy job's Into: slots k00..k15.
const intoKeys = 16

func intoKey(i int) string { return fmt.Sprintf("k%02d", i) }

func intoSchema() *model.Schema {
	keys := make([]string, intoKeys)
	for i := range keys {
		keys[i] = intoKey(i)
	}
	return model.NewSchema(keys)
}

// intoInput is 24 Int64 records over four splits.
func intoInput() *Input {
	recs := make([]Record, 24)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("rec%02d", i), Value: writable.Int64(3*i + 1)}
	}
	return NewInput(recs, testCluster(), 4)
}

// intoModel is the job model the toy mapper reads: its "scale".
func intoModel() *model.Model {
	m := model.New()
	m.Set("scale", writable.Float64(0.5))
	return m
}

// intoBase is what Into holds before the job: every other slot set.
func intoBase() *model.Model {
	m := model.NewFloatsOn(intoSchema())
	for i := 0; i < intoKeys; i += 2 {
		m.SetFloatAt(i, -float64(i))
	}
	return m
}

// toyInto is a map-only mapper that, for a record holding n, writes
// n·scale to slot n mod 16 and n·scale+1 to slot 3n mod 16 — so later
// records overwrite earlier ones, and order matters. It implements
// IntoMapper; NewDerived declines a split starting at declineAt, and
// MapInto rejects one starting at rejectAt, after writing it.
type toyInto struct {
	declineAt, rejectAt string
	mapped, fused       atomic.Int64
}

// target is the j-th (slot, value) a record holding n writes.
func target(n int64, scale float64, j int) (int, float64) {
	if j == 0 {
		return int(n % intoKeys), float64(n) * scale
	}
	return int(3 * n % intoKeys), float64(n)*scale + 1
}

func (mp *toyInto) Map(_ string, v writable.Writable, m *model.Model, emit Emitter) error {
	mp.mapped.Add(1)
	scale, _ := m.Float("scale")
	for j := 0; j < 2; j++ {
		slot, val := target(int64(v.(writable.Int64)), scale, j)
		emit.Emit(intoKey(slot), writable.Float64(val))
	}
	return nil
}

// toySplit is a split's derived form: its records' values.
type toySplit struct {
	first string
	ns    []int64
}

func (d *toySplit) SizeBytes() int64 { return 8 * int64(len(d.ns)) }

func (mp *toyInto) NewDerived(recs []Record) SplitDerived {
	if recs[0].Key == mp.declineAt {
		return nil
	}
	d := &toySplit{first: recs[0].Key}
	for _, r := range recs {
		d.ns = append(d.ns, int64(r.Value.(writable.Int64)))
	}
	return d
}

func (mp *toyInto) MapInto(d SplitDerived, m, into *model.Model) (int64, int64, error) {
	mp.fused.Add(1)
	sd := d.(*toySplit)
	scale, _ := m.Float("scale")
	var records, bytes int64
	for _, n := range sd.ns {
		for j := 0; j < 2; j++ {
			slot, val := target(n, scale, j)
			into.SetFloatAt(slot, val)
			records++
			bytes += Record{Key: intoKey(slot), Value: writable.Float64(val)}.Size()
		}
	}
	if sd.first == mp.rejectAt {
		return 0, 0, ErrFusedUnsupported
	}
	return records, bytes, nil
}

// runner is one of the engine's two ways to run a job.
type runner struct {
	name string
	run  func(e *Engine, job *Job, in *Input, m *model.Model) (*Output, Metrics, error)
}

var intoRunners = []runner{
	{"Run", func(e *Engine, job *Job, in *Input, m *model.Model) (*Output, Metrics, error) {
		return e.Run(job, in, m)
	}},
	{"RunLocal", (*Engine).RunLocal},
}

// applied returns base with recs Set into it in order.
func applied(base *model.Model, recs []Record) *model.Model {
	m := base.Clone()
	for _, r := range recs {
		m.Set(r.Key, r.Value)
	}
	return m
}

// TestIntoMatchesAppliedRecords holds Job.Into to its definition: for
// cold Run and RunLocal, and through the IntoMapper kernel with and
// without a decline or rejection on the second split, Into ends up as
// Setting the same job's Output.Records (run without Into) leaves it,
// Output.Records is nil, and every Metrics field is unchanged.
func TestIntoMatchesAppliedRecords(t *testing.T) {
	in := intoInput()
	second := in.Splits[1].Records[0].Key
	cases := []struct {
		name                string
		declineAt, rejectAt string
		family, wantFused   bool
	}{
		{"cold", "", "", false, false},
		{"fused", "", "", true, true},
		{"decline-second", second, "", true, false},
		{"reject-second", "", second, true, false},
	}
	for _, r := range intoRunners {
		for _, c := range cases {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/workers=%d", r.name, c.name, workers)
				m := intoModel()
				ref := NewEngine(testCluster())
				ref.Workers = workers
				refOut, refMet, err := r.run(ref, &Job{Name: "toy", Mapper: &toyInto{}}, in, m)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				want := applied(intoBase(), refOut.Records)

				e := NewEngine(testCluster())
				e.Workers = workers
				if c.family {
					e.Family = NewJobFamily("toy", 0)
				}
				mp := &toyInto{declineAt: c.declineAt, rejectAt: c.rejectAt}
				into := intoBase()
				out, met, err := r.run(e, &Job{Name: "toy", Mapper: mp, Into: into}, in, m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if out.Records != nil {
					t.Errorf("%s: Output.Records = %d records, want nil", label, len(out.Records))
				}
				if !into.Equal(want) || string(into.Encode(nil)) != string(want.Encode(nil)) {
					t.Errorf("%s: Into differs from the applied records", label)
				}
				if met != refMet {
					t.Errorf("%s: metrics %+v, want %+v", label, met, refMet)
				}
				if fused := mp.mapped.Load() == 0; fused != c.wantFused {
					t.Errorf("%s: Map ran %d times, MapInto %d: fused = %v, want %v",
						label, mp.mapped.Load(), mp.fused.Load(), fused, c.wantFused)
				}
			}
		}
	}
}

// TestIntoWarmIterationBooksDelta pins the fused path's cache
// accounting: the second run over the same splits hits every split and
// books the shipped model against them, as FusedMapper jobs do.
func TestIntoWarmIterationBooksDelta(t *testing.T) {
	in := intoInput()
	for _, r := range intoRunners {
		e := NewEngine(testCluster())
		e.Family = NewJobFamily("toy", 0)
		for i := 0; i < 2; i++ {
			if _, _, err := r.run(e, &Job{Name: "toy", Mapper: &toyInto{}, Into: intoBase()}, in, intoModel()); err != nil {
				t.Fatal(err)
			}
		}
		s := e.Family.Stats()
		if s.Misses != int64(len(in.Splits)) || s.Hits != int64(len(in.Splits)) {
			t.Errorf("%s: %d misses, %d hits; want %d each", r.name, s.Misses, s.Hits, len(in.Splits))
		}
		if s.DeltaBytes == 0 || s.FullBytes == 0 {
			t.Errorf("%s: warm run booked delta %d / full %d bytes", r.name, s.DeltaBytes, s.FullBytes)
		}
	}
}

// TestIntoRejectsReducer: Into is for map-only jobs.
func TestIntoRejectsReducer(t *testing.T) {
	job := &Job{Name: "toy", Mapper: &toyInto{}, Into: intoBase(),
		Reducer: ReducerFunc(func(string, []writable.Writable, *model.Model, Emitter) error { return nil })}
	for _, r := range intoRunners {
		_, _, err := r.run(NewEngine(testCluster()), job, intoInput(), intoModel())
		if err == nil || !strings.Contains(err.Error(), "both Into and a Reducer") {
			t.Errorf("%s: err = %v, want the Into-with-Reducer rejection", r.name, err)
		}
	}
}

// TestIntoRejectsJobModel: a job never writes into the model it reads,
// cold or with a family attached.
func TestIntoRejectsJobModel(t *testing.T) {
	for _, r := range intoRunners {
		for _, family := range []bool{false, true} {
			e := NewEngine(testCluster())
			if family {
				e.Family = NewJobFamily("toy", 0)
			}
			m := intoBase()
			before := string(m.Encode(nil))
			_, _, err := r.run(e, &Job{Name: "toy", Mapper: &toyInto{}, Into: m}, intoInput(), m)
			if err == nil || !strings.Contains(err.Error(), "writes Into the model it reads") {
				t.Errorf("%s family=%v: err = %v, want the aliasing rejection", r.name, family, err)
			}
			if string(m.Encode(nil)) != before {
				t.Errorf("%s family=%v: a rejected job changed its model", r.name, family)
			}
		}
	}
	if err := (&Job{Name: "toy", Into: intoBase()}).CheckInto(intoModel()); err != nil {
		t.Errorf("CheckInto rejected a distinct Into: %v", err)
	}
}
