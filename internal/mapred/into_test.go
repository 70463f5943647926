package mapred

import (
	"fmt"
	"math"
	"slices"
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

// toyInto is a mapper that, for a record holding n, emits n·scale
// under slot n mod 16's key and n·scale+1 under slot 3n mod 16's — so
// in a map-only job later records overwrite earlier ones and order
// matters, and in a job that sums by key the values add up in arrival
// order. With vector set each value is the Vector (v, -0) instead of
// the Float64 v, whose second component stays -0 only when its sum
// starts from the first value. It implements IntoMapper in both forms
// and LocalFuser; NewDerived declines a split starting at declineAt,
// and MapInto and FuseLocal reject one starting at rejectAt, after
// writing it.
type toyInto struct {
	declineAt, rejectAt string
	vector              bool
	mapped, fused       atomic.Int64
}

var negZero = math.Copysign(0, -1)

// toyValue is the value the toy emits for v.
func (mp *toyInto) toyValue(v float64) writable.Writable {
	if mp.vector {
		return writable.Vector{v, negZero}
	}
	return writable.Float64(v)
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
		emit.Emit(intoKey(slot), mp.toyValue(val))
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

// fold adds the split's emissions into sums by slot, in emission order,
// marking the slots it touched, and returns Map's record count and
// bytes: FloatSum's fold, from +0, or with vector VectorSum's, from a
// copy of the first value.
func (d *toySplit) fold(mp *toyInto, scale float64, sums *[intoKeys][2]float64, touched *[intoKeys]bool) (records, bytes int64) {
	for _, n := range d.ns {
		for j := 0; j < 2; j++ {
			slot, val := target(n, scale, j)
			switch {
			case !mp.vector:
				sums[slot][0] += val
			case !touched[slot]:
				sums[slot] = [2]float64{val, negZero}
			default:
				sums[slot][0] += val
				sums[slot][1] += negZero
			}
			touched[slot] = true
			records++
			bytes += Record{Key: intoKey(slot), Value: mp.toyValue(val)}.Size()
		}
	}
	return records, bytes
}

func (mp *toyInto) MapInto(d SplitDerived, m, into *model.Model, part *Partial) (int64, int64, error) {
	mp.fused.Add(1)
	sd := d.(*toySplit)
	scale, _ := m.Float("scale")
	var records, bytes int64
	if part != nil {
		// The split's combined records: each touched key's sum, in key
		// order — which is slot order.
		var sums [intoKeys][2]float64
		var touched [intoKeys]bool
		records, bytes = sd.fold(mp, scale, &sums, &touched)
		for slot, t := range touched {
			switch {
			case !t:
			case mp.vector:
				part.AddRow(slot, sums[slot][:])
			default:
				part.Add(slot, sums[slot][0])
			}
		}
	} else {
		for _, n := range sd.ns {
			for j := 0; j < 2; j++ {
				slot, val := target(n, scale, j)
				into.SetFloatAt(slot, val)
				records++
				bytes += Record{Key: intoKey(slot), Value: writable.Float64(val)}.Size()
			}
		}
	}
	if sd.first == mp.rejectAt {
		return 0, 0, ErrFusedUnsupported
	}
	return records, bytes, nil
}

func (mp *toyInto) FuseLocal(ds []SplitDerived, m, into *model.Model, _ func(int, func(int)), _ Emitter) (int64, int64, error) {
	mp.fused.Add(1)
	scale, _ := m.Float("scale")
	var sums [intoKeys][2]float64
	var touched [intoKeys]bool
	var mapEmits, written int64
	for _, d := range ds {
		records, _ := d.(*toySplit).fold(mp, scale, &sums, &touched)
		mapEmits += records
	}
	for slot, t := range touched {
		switch {
		case !t:
			continue
		case mp.vector:
			into.SetAt(slot, toyThenVector(sums[slot][:]))
		default:
			into.SetFloatAt(slot, toyThen(sums[slot][0]))
		}
		written++
	}
	for _, d := range ds {
		if d.(*toySplit).first == mp.rejectAt {
			return 0, 0, ErrFusedUnsupported
		}
	}
	return mapEmits, written, nil
}

// toyThen is the toy reduce job's FloatSum.Then.
func toyThen(sum float64) float64 { return 2*sum - 1 }

// toyThenVector is the toy vector job's VectorSum.Then: toyThen of the
// first component, the second kept, and the first again — one longer
// than the rows, so output sizes come from what Then returns.
func toyThenVector(sum []float64) writable.Vector {
	return writable.Vector{toyThen(sum[0]), sum[1], sum[0]}
}

// toyJobs are the toy job's shapes: map-only, summed by key into
// toyThen of each sum, and its vector form summed by VectorSum.
var toyJobs = []struct {
	name string
	job  func(mp *toyInto, into *model.Model) *Job
}{
	{"map-only", func(mp *toyInto, into *model.Model) *Job {
		return &Job{Name: "toy", Mapper: mp, Into: into}
	}},
	{"reduce", func(mp *toyInto, into *model.Model) *Job {
		return &Job{Name: "toy", Mapper: mp, Combiner: FloatSum{}, Reducer: FloatSum{Then: toyThen}, Into: into}
	}},
	{"reduce-vector", func(mp *toyInto, into *model.Model) *Job {
		mp.vector = true
		return &Job{Name: "toy", Mapper: mp, Combiner: VectorSum{}, Reducer: VectorSum{Then: toyThenVector}, Into: into}
	}},
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

// TestIntoMatchesAppliedRecords holds Job.Into to its definition, for a
// map-only job and for one that reduces: for cold Run and RunLocal, and
// through the fused kernels with and without a decline or rejection on
// the second split, Into ends up as Setting the same job's
// Output.Records (run without Into) leaves it, Output.Records is nil,
// and every Metrics field is unchanged.
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
	for _, shape := range toyJobs {
		for _, r := range intoRunners {
			for _, c := range cases {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/%s/workers=%d", shape.name, r.name, c.name, workers)
					m := intoModel()
					ref := NewEngine(testCluster())
					ref.Workers = workers
					refOut, refMet, err := r.run(ref, shape.job(&toyInto{}, nil), in, m)
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
					out, met, err := r.run(e, shape.job(mp, into), in, m)
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
						t.Errorf("%s: Map ran %d times, the kernel %d: fused = %v, want %v",
							label, mp.mapped.Load(), mp.fused.Load(), fused, c.wantFused)
					}
				}
			}
		}
	}
}

// TestIntoWarmIterationBooksDelta pins the fused path's cache
// accounting: the second run over the same splits hits every split and
// books the shipped model against them, as every fused job does.
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

// TestIntoAcceptsReducer: a job with a Reducer delivers into Into too.
// Its Output lists no records, by reducer or in all, and Run still
// reports the nodes the reduce tasks ran on, as without Into.
func TestIntoAcceptsReducer(t *testing.T) {
	reduce := toyJobs[1].job
	for _, r := range intoRunners {
		for _, family := range []bool{false, true} {
			label := fmt.Sprintf("%s family=%v", r.name, family)
			ref, _, err := r.run(NewEngine(testCluster()), reduce(&toyInto{}, nil), intoInput(), intoModel())
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			e := NewEngine(testCluster())
			if family {
				e.Family = NewJobFamily("toy", 0)
			}
			out, _, err := r.run(e, reduce(&toyInto{}, intoBase()), intoInput(), intoModel())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if out.Records != nil || out.ByReducer != nil {
				t.Errorf("%s: Output lists %d records, %d reducers' records; want none", label, len(out.Records), len(out.ByReducer))
			}
			if !slices.Equal(out.ReducerNodes, ref.ReducerNodes) {
				t.Errorf("%s: ReducerNodes %v, want %v", label, out.ReducerNodes, ref.ReducerNodes)
			}
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

// TestFloatSum pins the reducer the by-slot reduce reproduces: a key's
// values summed from +0 in arrival order — so a lone -0 sums to +0 —
// then Then applied, and a value that is not a Float64 reported as an
// error.
func TestFloatSum(t *testing.T) {
	double := FloatSum{Then: func(sum float64) float64 { return 2 * sum }}
	x, y, z := 0.1, 0.2, 0.3 // variables, so the sums round at run time
	for _, c := range []struct {
		r    FloatSum
		vals []float64
		want float64
	}{
		{FloatSum{}, []float64{x, y, z}, (x + y) + z},
		{FloatSum{}, []float64{math.Copysign(0, -1)}, 0},
		{double, []float64{1.5, -0.25}, 2.5},
	} {
		recs := make([]Record, len(c.vals))
		for i, v := range c.vals {
			recs[i] = Record{Key: "k", Value: writable.Float64(v)}
		}
		out, err := RunGrouped(c.r, recs, nil)
		if err != nil || len(out) != 1 {
			t.Fatalf("%v: out %v, err %v", c.vals, out, err)
		}
		if got := float64(out[0].Value.(writable.Float64)); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%v: got %v, want %v", c.vals, got, c.want)
		}
	}
	if _, err := RunGrouped(FloatSum{}, []Record{{Key: "k", Value: writable.Text("x")}}, nil); err == nil ||
		!strings.Contains(err.Error(), "not a Float64") {
		t.Errorf("a Text value: err = %v, want the kind error", err)
	}
}

// TestVectorSum pins the other reducer the by-slot reduce reproduces: a
// key's values summed component-wise in arrival order starting from a
// copy of the first — so a component that is -0 in every value stays
// -0 — then Then applied, and values of two lengths or a value that is
// not a Vector reported as errors.
func TestVectorSum(t *testing.T) {
	first := VectorSum{Then: func(sum []float64) writable.Vector { return writable.Vector{sum[0]} }}
	x, y, z := 0.1, 0.2, 0.3 // variables, so the sums round at run time
	for _, c := range []struct {
		r    VectorSum
		vals [][]float64
		want []float64
	}{
		{VectorSum{}, [][]float64{{x, z}, {y, y}, {z, x}}, []float64{(x + y) + z, (z + y) + x}},
		{VectorSum{}, [][]float64{{negZero, 1}, {negZero, 2}}, []float64{negZero, 3}},
		{VectorSum{}, [][]float64{{negZero}}, []float64{negZero}},
		{first, [][]float64{{1.5, 7}, {-0.25, 8}}, []float64{1.25}},
	} {
		recs := make([]Record, len(c.vals))
		for i, v := range c.vals {
			recs[i] = Record{Key: "k", Value: writable.Vector(v)}
		}
		out, err := RunGrouped(c.r, recs, nil)
		if err != nil || len(out) != 1 {
			t.Fatalf("%v: out %v, err %v", c.vals, out, err)
		}
		got := writable.Encode(nil, out[0].Value)
		if want := writable.Encode(nil, writable.Vector(c.want)); string(got) != string(want) {
			t.Errorf("%v: got %v, want %v", c.vals, out[0].Value, c.want)
		}
	}
	// The first value is copied, not kept: the caller's vector is intact.
	v := writable.Vector{1, 2}
	if _, err := RunGrouped(VectorSum{}, []Record{{Key: "k", Value: v}, {Key: "k", Value: v}}, nil); err != nil || v[0] != 1 || v[1] != 2 {
		t.Errorf("summing changed the first value to %v (err %v)", v, err)
	}
	for _, c := range []struct {
		vals []writable.Writable
		want string
	}{
		{[]writable.Writable{writable.Vector{1, 2}, writable.Vector{3}}, "2 and 1 components"},
		{[]writable.Writable{writable.Float64(1)}, "not a Vector"},
		{[]writable.Writable{writable.Vector{1}, writable.Text("x")}, "not a Vector"},
	} {
		recs := make([]Record, len(c.vals))
		for i, v := range c.vals {
			recs[i] = Record{Key: "k", Value: v}
		}
		if _, err := RunGrouped(VectorSum{}, recs, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one naming %q", c.vals, err, c.want)
		}
	}
}

// rowsMapper is a kernel whose MapInto hands the engine rows of the
// widths its splits name, while Map emits what the rows stand for: a
// width the job cannot take sends the whole job cold.
type rowsMapper struct {
	widths        []int // per split, by its first record's value
	mapped, fused atomic.Int64
}

func (mp *rowsMapper) Map(_ string, v writable.Writable, _ *model.Model, emit Emitter) error {
	mp.mapped.Add(1)
	emit.Emit(intoKey(0), make(writable.Vector, mp.widths[int(v.(writable.Int64))/6]))
	return nil
}

type rowsSplit struct{ first, n int }

func (d rowsSplit) SizeBytes() int64 { return 8 }

func (mp *rowsMapper) NewDerived(recs []Record) SplitDerived {
	return rowsSplit{first: int(recs[0].Value.(writable.Int64)), n: len(recs)}
}

func (mp *rowsMapper) MapInto(d SplitDerived, _, _ *model.Model, part *Partial) (int64, int64, error) {
	mp.fused.Add(1)
	sd := d.(rowsSplit)
	w := mp.widths[sd.first/6]
	part.AddRow(0, make([]float64, w))
	return int64(sd.n), int64(sd.n) * Record{Key: intoKey(0), Value: make(writable.Vector, w)}.Size(), nil
}

// TestIntoRowsOfOneWidth: a VectorSum job whose partials agree on a
// width reduces by slot; one whose splits' rows differ in width runs
// cold and reports the cold reducer's error, as without a family.
func TestIntoRowsOfOneWidth(t *testing.T) {
	recs := make([]Record, 24)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("rec%02d", i), Value: writable.Int64(i)}
	}
	in := NewInput(recs, testCluster(), 4)
	for _, c := range []struct {
		widths []int
		fused  bool
	}{
		{[]int{3, 3, 3, 3}, true},
		{[]int{3, 3, 2, 3}, false},
	} {
		run := func(family bool) (*model.Model, Metrics, error, *rowsMapper) {
			e := NewEngine(testCluster())
			if family {
				e.Family = NewJobFamily("rows", 0)
			}
			mp := &rowsMapper{widths: c.widths}
			into := intoBase()
			_, met, err := e.Run(&Job{Name: "rows", Mapper: mp, Combiner: VectorSum{}, Reducer: VectorSum{}, Into: into}, in, nil)
			return into, met, err, mp
		}
		wantInto, wantMet, wantErr, _ := run(false)
		into, met, err, mp := run(true)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || met != wantMet || !into.Equal(wantInto) {
			t.Errorf("widths %v: err %v, metrics %+v; cold err %v, metrics %+v", c.widths, err, met, wantErr, wantMet)
		}
		if c.fused != (err == nil) || c.fused != (mp.mapped.Load() == 0) || mp.fused.Load() != 4 {
			t.Errorf("widths %v: err %v after %d MapInto and %d Map calls", c.widths, err, mp.fused.Load(), mp.mapped.Load())
		}
	}
}
