package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/writable"
)

// ref is the trivial reference the columnar store is checked against: a
// plain map, sorted on every read.
type ref map[string]writable.Writable

func (r ref) keys() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r ref) clone() ref {
	c := make(ref, len(r))
	for k, v := range r {
		c[k] = writable.Clone(v)
	}
	return c
}

func (r ref) encode() []byte {
	var dst []byte
	for _, k := range r.keys() {
		dst = writable.Encode(appendKey(dst, k), r[k])
	}
	return dst
}

func (r ref) equal(o ref) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if ov, ok := o[k]; !ok || !writable.Equal(v, ov) {
			return false
		}
	}
	return true
}

// delta is the sparse encoding of r → next, written from the format's
// definition.
func (r ref) delta(next ref) []byte {
	union := ref{}
	for k := range r {
		union[k] = nil
	}
	for k := range next {
		union[k] = nil
	}
	var dst []byte
	for _, k := range union.keys() {
		pv, inPrev := r[k]
		nv, inNext := next[k]
		switch {
		case !inNext:
			dst = append(appendKey(dst, k), deltaOpDelete)
		case !inPrev || !writable.Equal(pv, nv):
			dst = writable.Encode(append(appendKey(dst, k), deltaOpSet), nv)
		}
	}
	return dst
}

func (r ref) maxFloatDelta(o ref) float64 {
	var worst float64
	for k, v := range r {
		a, ok := v.(writable.Float64)
		b, ok2 := o[k].(writable.Float64)
		if ok && ok2 {
			worst = math.Max(worst, math.Abs(float64(a)-float64(b)))
		}
	}
	return worst
}

func (r ref) maxVectorDelta(o ref) float64 {
	var worst float64
	for k, v := range r {
		a, ok := v.(writable.Vector)
		b, ok2 := o[k].(writable.Vector)
		if !ok || !ok2 || len(a) != len(b) {
			continue
		}
		var d2 float64
		for i := range a {
			d2 += (a[i] - b[i]) * (a[i] - b[i])
		}
		worst = math.Max(worst, d2)
	}
	return math.Sqrt(worst)
}

// opKeys is the key universe of the differential programs: small, so
// programs revisit keys, and not in sorted order of first use.
var opKeys = func() []string {
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", (i*7)%24)
	}
	return keys
}()

func opValue(a, b byte) writable.Writable {
	switch a % 5 {
	case 0:
		return writable.Float64(float64(b) / 4)
	case 1:
		return writable.Float64(-float64(b))
	case 2:
		v := make(writable.Vector, 1+b%3)
		for i := range v {
			v[i] = float64(b) + float64(i)/2
		}
		return v
	case 3:
		return writable.Int64(b)
	default:
		return nil // encodes as Null
	}
}

// runOps runs the program data describes twice: over a pool of boxed
// models, and over a pool that starts half float-column (on the whole
// key universe) and half boxed, so the second run drives float models,
// their promotion to boxed and every mixed-kind pair.
func runOps(t *testing.T, data []byte) {
	t.Helper()
	runProgram(t, data, false)
	runProgram(t, data, true)
}

// runProgram interprets data as a program over four model/reference
// pairs — Set, Delete, SetAt, SetFloatAt, CopyAt, Clone, NewLike and
// NewOn/NewFloatsOn in any order, so models end up partially filled, off
// their schema, and on schemas shared with others — and checks every
// observable of every model and every pair of models against the
// reference after each step. It also tracks which models must still be
// float columns: a float model stays one until it is given a value that
// is not a Float64 or a key outside its schema.
func runProgram(t *testing.T, data []byte, floats bool) {
	t.Helper()
	const pool = 4
	var models [pool]*Model
	var refs [pool]ref
	var float [pool]bool // the model must be a float column
	universe := NewSchema(opKeys)
	for i := range models {
		models[i], refs[i] = New(), ref{}
		if floats && i%2 == 0 {
			models[i], float[i] = NewFloatsOn(universe), true
		}
	}
	// keep records a write of v under key into model i: a float model
	// stays one only for a Float64 in its schema.
	keep := func(i int, key string, v writable.Writable) {
		_, isFloat := v.(writable.Float64)
		_, inSchema := models[i].t.Load().schema.Slot(key)
		float[i] = float[i] && isFloat && inSchema
	}
	check := func(step int) {
		t.Helper()
		for i, m := range models {
			r := refs[i]
			if got := m.t.Load().float; got != float[i] {
				t.Fatalf("step %d model %d: float column = %v, want %v", step, i, got, float[i])
			}
			if got, want := m.Keys(), r.keys(); !slices.Equal(got, want) {
				t.Fatalf("step %d model %d: Keys = %v, want %v", step, i, got, want)
			}
			enc := r.encode()
			if got := m.Encode(nil); !bytes.Equal(got, enc) {
				t.Fatalf("step %d model %d: Encode differs from the reference", step, i)
			}
			if m.Size() != int64(len(enc)) || m.Len() != len(r) {
				t.Fatalf("step %d model %d: Size/Len = %d/%d, want %d/%d", step, i, m.Size(), m.Len(), len(enc), len(r))
			}
			var ranged []string
			m.Range(func(k string, v writable.Writable) bool {
				if !writable.Equal(v, r[k]) {
					t.Fatalf("step %d model %d: Range value of %q differs", step, i, k)
				}
				ranged = append(ranged, k)
				return true
			})
			if !slices.Equal(ranged, r.keys()) {
				t.Fatalf("step %d model %d: Range visited %v", step, i, ranged)
			}
			for _, k := range opKeys {
				v, ok := m.Get(k)
				if rv, want := r[k]; ok != want || (ok && !writable.Equal(v, rv)) {
					t.Fatalf("step %d model %d: Get(%q) = %v, %v", step, i, k, v, ok)
				}
				f, ok := m.Float(k)
				if rf, want := r[k].(writable.Float64); ok != want || f != float64(rf) {
					t.Fatalf("step %d model %d: Float(%q) = %g, %v", step, i, k, f, ok)
				}
				vec, ok := m.Vector(k)
				if rvec, want := r[k].(writable.Vector); ok != want || !slices.Equal(vec, rvec) {
					t.Fatalf("step %d model %d: Vector(%q) = %v, %v", step, i, k, vec, ok)
				}
			}
			for slot, k := range m.Schema().Keys() {
				rv, want := r[k]
				rf, isFloat := rv.(writable.Float64)
				if m.HasAt(slot) != want {
					t.Fatalf("step %d model %d: HasAt(%d) = %v, want %v", step, i, slot, !want, want)
				}
				if f, ok := m.FloatAt(slot); ok != isFloat || math.Float64bits(f) != math.Float64bits(float64(rf)) {
					t.Fatalf("step %d model %d: FloatAt(%d) = %g, %v", step, i, slot, f, ok)
				}
				if v, ok := m.At(slot); ok != want || (ok && !writable.Equal(v, rv)) {
					t.Fatalf("step %d model %d: At(%d) = %v, %v", step, i, slot, v, ok)
				}
			}
			if dec, err := Decode(enc); err != nil || !dec.Equal(m) || !m.Equal(dec) {
				t.Fatalf("step %d model %d: decode round trip (%v)", step, i, err)
			}
			for j, o := range models {
				ro := refs[j]
				if got, want := m.Equal(o), r.equal(ro); got != want {
					t.Fatalf("step %d: Equal(%d,%d) = %v, want %v", step, i, j, got, want)
				}
				delta := r.delta(ro)
				if got := EncodeDelta(m, o, nil); !bytes.Equal(got, delta) {
					t.Fatalf("step %d: EncodeDelta(%d,%d) differs from the reference", step, i, j)
				}
				if got := DeltaSize(m, o); got != int64(len(delta)) {
					t.Fatalf("step %d: DeltaSize(%d,%d) = %d, want %d", step, i, j, got, len(delta))
				}
				patched, err := ApplyDeltaBytes(m, delta)
				if err != nil || !patched.Equal(o) || !bytes.Equal(patched.Encode(nil), ro.encode()) {
					t.Fatalf("step %d: ApplyDeltaBytes(%d → %d) (%v)", step, i, j, err)
				}
				if got, want := MaxFloatDelta(m, o), r.maxFloatDelta(ro); got != want {
					t.Fatalf("step %d: MaxFloatDelta(%d,%d) = %g, want %g", step, i, j, got, want)
				}
				if got, want := MaxVectorDelta(m, o), r.maxVectorDelta(ro); got != want {
					t.Fatalf("step %d: MaxVectorDelta(%d,%d) = %g, want %g", step, i, j, got, want)
				}
			}
		}
	}
	for step := 0; len(data) >= 4; step++ {
		op, i, a, b := data[0], int(data[1])%pool, data[2], data[3]
		data = data[4:]
		m, r := models[i], refs[i]
		key := opKeys[int(a)%len(opKeys)]
		switch op % 10 {
		case 0, 1, 2: // Set, in or out of the schema
			v := opValue(a/24, b)
			keep(i, key, v)
			m.Set(key, v)
			r[key] = v
		case 3:
			m.Delete(key)
			delete(r, key)
		case 4, 8: // SetAt or SetFloatAt through a slot resolved against the current schema
			s := m.Schema()
			if len(s.Keys()) == 0 {
				continue
			}
			slot := int(a) % len(s.Keys())
			if got, ok := s.Slot(s.Key(slot)); !ok || got != slot {
				t.Fatalf("step %d: Slot(Key(%d)) = %d, %v", step, slot, got, ok)
			}
			v := opValue(b, a)
			if op%10 == 8 {
				v = writable.Float64(float64(b) - 128)
				m.SetFloatAt(slot, float64(b)-128)
			} else {
				keep(i, s.Key(slot), v)
				m.SetAt(slot, v)
			}
			r[s.Key(slot)] = v
		case 5:
			j := int(b) % pool
			models[j], refs[j], float[j] = m.Clone(), r.clone(), float[i]
			if models[j].Schema() != m.Schema() {
				t.Fatalf("step %d: Clone left the schema", step)
			}
		case 6:
			j := int(b) % pool
			models[j], refs[j], float[j] = m.NewLike(), ref{}, float[i]
		case 7:
			j := int(b) % pool
			n := int(a) % len(opKeys)
			s := NewSchema(append(opKeys[:n:n], opKeys[:n/2]...))
			if floats && b&1 == 1 {
				models[j], refs[j], float[j] = NewFloatsOn(s), ref{}, true
			} else {
				models[j], refs[j], float[j] = NewOn(s), ref{}, false
			}
		case 9: // CopyAt from another model's slot
			src := models[int(b)%pool]
			ds, ss := m.Schema(), src.Schema()
			if len(ds.Keys()) == 0 || len(ss.Keys()) == 0 {
				continue
			}
			di, si := int(a)%len(ds.Keys()), int(b/4)%len(ss.Keys())
			sv, held := refs[int(b)%pool][ss.Key(si)]
			if got := m.CopyAt(di, src, si); got != held {
				t.Fatalf("step %d: CopyAt = %v, want %v", step, got, held)
			}
			if held {
				keep(i, ds.Key(di), sv)
				r[ds.Key(di)] = writable.Clone(sv)
			}
		}
		check(step)
	}
}

// randomProgram returns n random ops for runOps.
func randomProgram(rng *rand.Rand, n int) []byte {
	data := make([]byte, 4*n)
	rng.Read(data)
	return data
}

// FuzzModelOps is the differential fuzz target: any op sequence leaves
// the columnar store indistinguishable from a map that sorts on read.
func FuzzModelOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(randomProgram(rng, 8+8*i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*96 {
			data = data[:4*96] // every step checks all pairs: keep programs short
		}
		runOps(t, data)
	})
}

func TestModelOpsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	programs := 200
	if testing.Short() {
		programs = 40
	}
	for i := 0; i < programs; i++ {
		runOps(t, randomProgram(rng, 48))
	}
}

func TestCloneKeepsLargeValuesApartAndSetKeepsThemShared(t *testing.T) {
	row := make(writable.Vector, 1024)
	m := New()
	m.Set("row", row)
	next := m.NewLike()
	next.Set("row", row)
	got, _ := next.Vector("row")
	if &got[0] != &row[0] {
		t.Fatal("Set copied a large value")
	}
	var ranged writable.Vector
	next.Range(func(_ string, v writable.Writable) bool { ranged = v.(writable.Vector); return true })
	if at, _ := next.At(0); &ranged[0] != &row[0] || &at.(writable.Vector)[0] != &row[0] {
		t.Fatal("Range or At copied a large value")
	}
	if c, _ := m.Clone().Vector("row"); &c[0] == &row[0] {
		t.Fatal("Clone shares a value with the original")
	}
}

// floatModel returns a model of n Float64 keys built in shuffled order,
// and the boxed values a warm iteration writes back.
func floatModel(n int) (*Model, []writable.Writable) {
	m := New()
	vals := make([]writable.Writable, n)
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		m.Set(fmt.Sprintf("e%08d:%08d", i/5, i), writable.Float64(float64(i)))
	}
	for i := range vals {
		vals[i] = writable.Float64(float64(i) + 0.5)
	}
	return m, vals
}

// warmCycle is one iteration's worth of model work over an unchanged key
// set: a new version, every key filled, encoded into a reused buffer,
// compared with and diffed against the previous version.
func warmCycle(prev *Model, vals []writable.Writable, buf []byte) (*Model, []byte) {
	next := prev.NewLike()
	for i, k := range prev.Keys() {
		next.Set(k, vals[i])
	}
	buf = next.Encode(buf[:0])
	if MaxFloatDelta(prev, next) < 0 || DeltaSize(prev, next) < 0 {
		panic("unreachable")
	}
	return next, buf
}

// A warm same-schema cycle sorts nothing and allocates the new version's
// three objects (model, table, column), whatever the key count.
func TestWarmCycleAllocations(t *testing.T) {
	for _, n := range []int{1_000, 50_000} {
		prev, vals := floatModel(n)
		next, buf := warmCycle(prev, vals, nil) // folds prev, indexes its schema, sizes buf
		if next.Schema() != prev.Schema() {
			t.Fatalf("n=%d: the next version left the schema", n)
		}
		allocs := testing.AllocsPerRun(5, func() {
			next, buf = warmCycle(prev, vals, buf)
		})
		if next.Schema() != prev.Schema() || next.Len() != n {
			t.Fatalf("n=%d: the next version left the schema", n)
		}
		if allocs > 4 {
			t.Errorf("n=%d: %.0f allocations per warm cycle, want the new version's 3", n, allocs)
		}
	}
}

// Parallel map tasks read one shared model — here one that still has its
// tail, so the first ordered read folds it under the readers. Run with
// -race.
func TestConcurrentReaders(t *testing.T) {
	m, _ := floatModel(2_000)
	keys := make([]string, 0, 2_000)
	for i := 0; i < 2_000; i++ {
		keys = append(keys, fmt.Sprintf("e%08d:%08d", i/5, i))
	}
	want := func() []byte { c, _ := floatModel(2_000); return c.Encode(nil) }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := g; i < len(keys); i += 8 {
					if f, ok := m.Float(keys[i]); !ok || f != float64(i) {
						t.Errorf("Float(%q) = %g, %v", keys[i], f, ok)
						return
					}
					if _, ok := m.Get(keys[i]); !ok {
						t.Errorf("Get(%q) missing", keys[i])
						return
					}
				}
				switch (g + round) % 4 {
				case 0:
					n := 0
					m.Range(func(string, writable.Writable) bool { n++; return true })
					if n != len(keys) {
						t.Errorf("Range visited %d entries", n)
					}
				case 1:
					if !slices.IsSorted(m.Keys()) || len(m.Keys()) != len(keys) {
						t.Error("Keys not the sorted key set")
					}
				case 2:
					if next := m.NewLike(); next.Len() != 0 || next.Schema() != m.Schema() {
						t.Error("NewLike not an empty model on the shared schema")
					}
				case 3:
					if !bytes.Equal(m.Encode(nil), want) || m.Size() != int64(len(want)) {
						t.Error("Encode/Size changed under concurrent readers")
					}
				}
				slot, _ := m.Schema().Slot(keys[g])
				if f, ok := m.FloatAt(slot); !ok || f != float64(g) {
					t.Errorf("FloatAt(%d) = %g, %v", slot, f, ok)
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkModelIterate(b *testing.B) {
	prev, vals := floatModel(50_000)
	next, buf := warmCycle(prev, vals, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, buf = warmCycle(prev, vals, buf)
	}
	_ = next
}

// floatPair returns two versions of an n-key all-Float64 model on one
// schema, in the given column kinds, with every tenth value changed
// between them.
func floatPair(n int, prevFloat, nextFloat bool) (prev, next *Model) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("e%08d:%08d", i/5, i)
	}
	s := NewSchema(keys)
	build := func(float bool, shift float64) *Model {
		m := NewOn(s)
		if float {
			m = NewFloatsOn(s)
		}
		for i := range keys {
			f := float64(i) / 7
			if i%10 == 0 {
				f += shift
			}
			m.SetFloatAt(i, f)
		}
		return m
	}
	return build(prevFloat, 0), build(nextFloat, 0.5)
}

// The float column's walks never box: encoding, sizing, comparing (with
// an equal model, so the walk runs to the end) and diffing a 50 k-key
// float model allocates nothing, against a float or a boxed model on the
// same schema; a clone allocates the same few objects at any size.
func TestFloatColumnAllocations(t *testing.T) {
	for _, kinds := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		prev, next := floatPair(50_000, kinds[0], kinds[1])
		twin := next.NewLike() // prev's values in next's kind, on the one schema
		for i := range prev.Schema().Keys() {
			twin.CopyAt(i, prev, i)
		}
		if !prev.Equal(twin) {
			t.Fatal("a model differs from its twin in the other column kind")
		}
		buf := next.Encode(nil)
		delta := EncodeDelta(prev, next, nil)
		ops := map[string]func(){
			"Encode":        func() { buf = next.Encode(buf[:0]) },
			"Size":          func() { _ = next.Size() },
			"Equal":         func() { _ = prev.Equal(twin) },
			"DeltaSize":     func() { _ = DeltaSize(prev, next) },
			"EncodeDelta":   func() { delta = EncodeDelta(prev, next, delta[:0]) },
			"MaxFloatDelta": func() { _ = MaxFloatDelta(prev, next) },
		}
		for name, op := range ops {
			if allocs := testing.AllocsPerRun(3, op); allocs != 0 {
				t.Errorf("float column %v/%v: %s allocates %.0f objects, want 0", kinds[0], kinds[1], name, allocs)
			}
		}
	}
	clones := map[int]float64{}
	for _, n := range []int{1_000, 50_000} {
		_, m := floatPair(n, true, true)
		clones[n] = testing.AllocsPerRun(3, func() { _ = m.Clone() })
	}
	if clones[50_000] != clones[1_000] || clones[1_000] > 4 {
		t.Errorf("Clone allocations by size %v: want the same few at any size", clones)
	}
}

// CopyAt moves a Float64 without a box whenever either side is a float
// column, and between boxed models shares the scalar box it copies.
func TestCopyAtBoxesOnlyIntoABoxedModel(t *testing.T) {
	boxedSrc, floatSrc := floatPair(1_000, false, true)
	for _, c := range []struct {
		name     string
		dst, src *Model
		want     float64
	}{
		{"float→float", floatSrc.NewLike(), floatSrc, 0},
		{"boxed→float", floatSrc.NewLike(), boxedSrc, 0},
		{"boxed→boxed", boxedSrc.NewLike(), boxedSrc, 0},
		{"float→boxed", boxedSrc.NewLike(), floatSrc, 1},
	} {
		allocs := testing.AllocsPerRun(3, func() { c.dst.CopyAt(7, c.src, 7) })
		if allocs != c.want {
			t.Errorf("%s: CopyAt allocates %.0f objects, want %.0f", c.name, allocs, c.want)
		}
		if f, ok := c.dst.FloatAt(7); !ok || f != 1 {
			t.Errorf("%s: CopyAt copied %g, want 1", c.name, f)
		}
	}
}

// Float entries encode and compare by their bits: +0 and -0 differ and a
// NaN equals itself, in either column kind and across kinds.
func TestFloatColumnComparesBits(t *testing.T) {
	s := NewSchema([]string{"nan", "zero"})
	build := func(float bool, zero float64) *Model {
		m := NewOn(s)
		if float {
			m = NewFloatsOn(s)
		}
		m.SetFloatAt(0, math.NaN())
		m.SetFloatAt(1, zero)
		return m
	}
	negZero := math.Copysign(0, -1)
	float, boxed := build(true, negZero), build(false, negZero)
	if !bytes.Equal(float.Encode(nil), boxed.Encode(nil)) ||
		!bytes.Equal(EncodeDelta(NewOn(s), float, nil), EncodeDelta(NewOn(s), boxed, nil)) {
		t.Error("a float column encodes NaN or -0 differently from a boxed one")
	}
	for _, kinds := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		pos, neg := build(kinds[0], 0), build(kinds[1], negZero)
		same := build(kinds[1], 0)
		if !pos.Equal(same) || DeltaSize(pos, same) != 0 || len(EncodeDelta(pos, same, nil)) != 0 {
			t.Errorf("kinds %v: a NaN differs from itself", kinds)
		}
		if pos.Equal(neg) || DeltaSize(pos, neg) == 0 || len(EncodeDelta(pos, neg, nil)) == 0 {
			t.Errorf("kinds %v: +0 and -0 compare equal", kinds)
		}
	}
}
