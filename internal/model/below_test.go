package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/writable"
)

// belowSpecials are the values the convergence-predicate tests draw
// from: the signed zeros, the infinities, NaN and finite values far
// apart in magnitude.
var belowSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3.25, -2, 1e-300, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// byteSource hands out the bytes of a fuzz input, then zeros.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *byteSource) special() float64 {
	return belowSpecials[int(s.next())%len(belowSpecials)]
}

// belowModel builds a model over schema s in the given column kind,
// each slot absent or holding a Float64, a Vector of one to three
// components, or an Int64, plus possibly a tail key outside the schema
// (which makes a float model boxed).
func belowModel(src *byteSource, s *Schema, float bool) *Model {
	m := NewOn(s)
	if float {
		m = NewFloatsOn(s)
	}
	for i := range s.Keys() {
		switch c := src.next(); c % 6 {
		case 1, 2:
			m.SetFloatAt(i, src.special())
		case 3, 4:
			v := make(writable.Vector, 1+int(c/6)%3)
			for k := range v {
				v[k] = src.special()
			}
			m.SetAt(i, v)
		case 5:
			m.SetAt(i, writable.Int64(c))
		}
	}
	if c := src.next(); c%4 == 0 {
		key := fmt.Sprintf("t%02d", c/4%8)
		if c&4 != 0 {
			m.Set(key, writable.Vector{src.special(), src.special()})
		} else {
			m.Set(key, writable.Float64(src.special()))
		}
	}
	return m
}

// belowPair builds two models from data: on one schema or two, each
// float or boxed, the second either independent of the first or a copy
// of it with a few slots moved.
func belowPair(data []byte) (a, b *Model) {
	src := byteSource(data)
	flags := src.next()
	n := 1 + int(src.next())%70 // up to two presence words
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	s := NewSchema(keys)
	a = belowModel(&src, s, flags&1 != 0)
	switch {
	case flags&0x40 != 0: // a near copy: most slots equal, so a walk runs far
		b = a.Clone()
		slots := len(b.Schema().Keys()) // a folded tail reshapes the schema
		for range 1 + int(src.next())%3 {
			if slots == 0 {
				break
			}
			i := int(src.next()) % slots
			if v, ok := b.At(i); ok {
				if vec, isVec := v.(writable.Vector); isVec {
					vec[int(src.next())%len(vec)] = src.special()
					continue
				}
			}
			b.SetFloatAt(i, src.special())
		}
	case flags&4 != 0: // another schema: a suffix of the key set
		b = belowModel(&src, NewSchema(keys[int(flags>>3)%n:]), flags&2 != 0)
	default:
		b = belowModel(&src, s, flags&2 != 0)
	}
	return a, b
}

// checkBelow checks both convergence predicates against the maxima they
// stand for, in both argument orders, at thresholds around each maximum
// and at every edge value of tol.
func checkBelow(t *testing.T, a, b *Model) {
	t.Helper()
	for _, p := range [][2]*Model{{a, b}, {b, a}} {
		mv, mf := MaxVectorDelta(p[0], p[1]), MaxFloatDelta(p[0], p[1])
		tols := []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 0.25, 1, 1e300, math.Inf(1)}
		for _, m := range []float64{mv, mf} {
			tols = append(tols, m, math.Nextafter(m, math.Inf(1)), math.Nextafter(m, math.Inf(-1)))
		}
		for _, tol := range tols {
			if got, want := VectorDeltaBelow(p[0], p[1], tol), mv < tol; got != want {
				t.Fatalf("VectorDeltaBelow(tol %g) = %v, MaxVectorDelta = %g", tol, got, mv)
			}
			if got, want := FloatDeltaBelow(p[0], p[1], tol), mf < tol; got != want {
				t.Fatalf("FloatDeltaBelow(tol %g) = %v, MaxFloatDelta = %g", tol, got, mf)
			}
		}
	}
}

// TestDeltaBelowMatchesMaxDelta pins the convergence predicates to the
// maxima over generated model pairs: NaN, ±Inf and −0 values, absent
// slots, tail keys, vectors of mismatched lengths, different schemas
// and every pairing of float and boxed tables.
func TestDeltaBelowMatchesMaxDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := 3000
	if testing.Short() {
		pairs = 500
	}
	data := make([]byte, 512)
	for range pairs {
		rng.Read(data)
		a, b := belowPair(data)
		checkBelow(t, a, b)
	}
}

// TestDeltaBelowTable spells out the cases the exactness argument
// rests on.
func TestDeltaBelowTable(t *testing.T) {
	vec := func(kv ...any) *Model {
		m := New()
		for i := 0; i < len(kv); i += 2 {
			m.Set(kv[i].(string), kv[i+1].(writable.Writable))
		}
		return m
	}
	nan := math.NaN()
	cases := []struct {
		name string
		a, b *Model
	}{
		{"NaN distance is skipped", vec("a", writable.Vector{nan}, "b", writable.Vector{1}), vec("a", writable.Vector{0}, "b", writable.Vector{1.5})},
		{"NaN float is skipped", vec("a", writable.Float64(nan), "b", writable.Float64(1)), vec("a", writable.Float64(0), "b", writable.Float64(1.5))},
		{"infinite distance", vec("a", writable.Vector{math.Inf(1)}), vec("a", writable.Vector{0})},
		{"Inf minus Inf is NaN", vec("a", writable.Float64(math.Inf(1))), vec("a", writable.Float64(math.Inf(1)))},
		{"signed zeros", vec("a", writable.Vector{math.Copysign(0, -1)}, "f", writable.Float64(0)), vec("a", writable.Vector{0}, "f", writable.Float64(math.Copysign(0, -1)))},
		{"keys in one model only", vec("a", writable.Vector{5}), vec("b", writable.Vector{1})},
		{"length mismatch", vec("a", writable.Vector{1, 2}), vec("a", writable.Vector{1})},
		{"empty", New(), New()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBelow(t, c.a, c.b) })
	}
	// A witness past the first slot: the walk must not stop early on a
	// slot that is below tol.
	s := NewSchema([]string{"a", "b", "c"})
	a, b := NewFloatsOn(s), NewFloatsOn(s)
	for i := range 3 {
		a.SetFloatAt(i, 0)
		b.SetFloatAt(i, float64(i))
	}
	if !FloatDeltaBelow(a, b, 2.5) || FloatDeltaBelow(a, b, 2) {
		t.Fatal("FloatDeltaBelow misjudges a witness in the last slot")
	}
}

// FuzzDeltaBelow checks VectorDeltaBelow and FloatDeltaBelow against
// MaxVectorDelta and MaxFloatDelta over fuzzed model pairs.
func FuzzDeltaBelow(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for range 8 {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{0x41, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := belowPair(data)
		checkBelow(t, a, b)
	})
}

// TestFloatDeltaWalksEveryPresenceBit drives the presence-word walk of
// the float-pair delta through a presence flip at every bit position of
// three words (the last one partial), in both directions, beside a
// value change elsewhere (a sign flip, so +0 → −0 counts): the delta
// must equal the slot loop's over the same pair boxed and the
// definition's, and DeltaSize its length.
func TestFloatDeltaWalksEveryPresenceBit(t *testing.T) {
	const n = 150
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("r%04d", i)
	}
	s := NewSchema(keys)
	base := func() *Model {
		m := NewFloatsOn(s)
		for i := range keys {
			if i%3 != 0 {
				m.SetFloatAt(i, float64(i%5))
			}
		}
		return m
	}
	boxed := func(m *Model) *Model {
		out := NewOn(s)
		for i := range keys {
			if f, ok := m.FloatAt(i); ok {
				out.SetAt(i, writable.Float64(f))
			}
		}
		return out
	}
	toRef := func(m *Model) ref {
		r := ref{}
		m.Range(func(k string, v writable.Writable) bool { r[k] = v; return true })
		return r
	}
	for p := range n {
		prev, next := base(), base()
		if next.HasAt(p) {
			next.Delete(keys[p])
		} else {
			next.SetFloatAt(p, -1)
		}
		q := (p + 67) % n
		if f, ok := next.FloatAt(q); ok {
			next.SetFloatAt(q, -f)
		}
		for _, pair := range [][2]*Model{{prev, next}, {next, prev}} {
			got := EncodeDelta(pair[0], pair[1], nil)
			if want := EncodeDelta(boxed(pair[0]), boxed(pair[1]), nil); !bytes.Equal(got, want) {
				t.Fatalf("bit %d: float delta differs from the slot loop's", p)
			}
			if want := toRef(pair[0]).delta(toRef(pair[1])); !bytes.Equal(got, want) {
				t.Fatalf("bit %d: float delta differs from the reference", p)
			}
			if size := DeltaSize(pair[0], pair[1]); size != int64(len(got)) {
				t.Fatalf("bit %d: DeltaSize = %d, encoding is %d bytes", p, size, len(got))
			}
		}
	}
}
