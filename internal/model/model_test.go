package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/writable"
)

func TestSetGet(t *testing.T) {
	m := New()
	m.Set("a", writable.Int64(1))
	v, ok := m.Get("a")
	if !ok || v.(writable.Int64) != 1 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("missing key found")
	}
}

func TestSetOverwrites(t *testing.T) {
	m := New()
	m.Set("a", writable.Int64(1))
	m.Set("a", writable.Int64(2))
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	v, _ := m.Get("a")
	if v.(writable.Int64) != 2 {
		t.Fatalf("value = %v", v)
	}
}

func TestVectorHelper(t *testing.T) {
	m := New()
	m.Set("v", writable.Vector{1, 2})
	m.Set("i", writable.Int64(1))
	if v, ok := m.Vector("v"); !ok || len(v) != 2 {
		t.Fatalf("Vector = %v, %v", v, ok)
	}
	if _, ok := m.Vector("i"); ok {
		t.Fatal("Int64 returned as Vector")
	}
	if _, ok := m.Vector("missing"); ok {
		t.Fatal("missing key returned as Vector")
	}
}

func TestFloatHelper(t *testing.T) {
	m := New()
	m.Set("f", writable.Float64(2.5))
	m.Set("v", writable.Vector{1})
	if f, ok := m.Float("f"); !ok || f != 2.5 {
		t.Fatalf("Float = %v, %v", f, ok)
	}
	if _, ok := m.Float("v"); ok {
		t.Fatal("Vector returned as Float")
	}
}

func TestDelete(t *testing.T) {
	m := New()
	m.Set("a", writable.Int64(1))
	m.Delete("a")
	if m.Len() != 0 {
		t.Fatal("Delete did not remove entry")
	}
	m.Delete("a") // no-op
}

func TestKeysSorted(t *testing.T) {
	m := New()
	for _, k := range []string{"z", "a", "m"} {
		m.Set(k, writable.Null{})
	}
	keys := m.Keys()
	want := []string{"a", "m", "z"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v", keys)
		}
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	m := New()
	for i := 0; i < 5; i++ {
		m.Set(fmt.Sprintf("k%d", i), writable.Int64(i))
	}
	var seen []string
	m.Range(func(k string, _ writable.Writable) bool {
		seen = append(seen, k)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != "k0" || seen[2] != "k2" {
		t.Fatalf("Range visited %v", seen)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Set("v", writable.Vector{1, 2})
	c := m.Clone()
	vec, _ := c.Vector("v")
	vec[0] = 99
	orig, _ := m.Vector("v")
	if orig[0] != 1 {
		t.Fatal("Clone shares vector storage")
	}
	c.Set("new", writable.Int64(1))
	if _, ok := m.Get("new"); ok {
		t.Fatal("Clone shares map")
	}
}

func TestEqual(t *testing.T) {
	a := New()
	a.Set("x", writable.Vector{1, 2})
	b := New()
	b.Set("x", writable.Vector{1, 2})
	if !a.Equal(b) {
		t.Fatal("equal models reported unequal")
	}
	b.Set("x", writable.Vector{1, 3})
	if a.Equal(b) {
		t.Fatal("unequal values reported equal")
	}
	b.Set("x", writable.Vector{1, 2})
	b.Set("y", writable.Null{})
	if a.Equal(b) {
		t.Fatal("different key sets reported equal")
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	m := New()
	m.Set("centroid-0", writable.Vector{1, 2, 3})
	m.Set("count", writable.Int64(7))
	if got, want := int64(len(m.Encode(nil))), m.Size(); got != want {
		t.Fatalf("encoded %d bytes, Size reports %d", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := New()
	m.Set("a", writable.Vector{1, 2})
	m.Set("b", writable.Float64(3))
	m.Set("c", writable.Text("hi"))
	out, err := Decode(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(out) {
		t.Fatal("round trip lost data")
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := New()
	m.Set("key", writable.Vector{1, 2, 3})
	buf := m.Encode(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	m, err := Decode(nil)
	if err != nil || m.Len() != 0 {
		t.Fatalf("Decode(nil) = %v, %v", m, err)
	}
}

func TestMaxVectorDelta(t *testing.T) {
	a := New()
	a.Set("c0", writable.Vector{0, 0})
	a.Set("c1", writable.Vector{1, 1})
	b := New()
	b.Set("c0", writable.Vector{3, 4}) // distance 5
	b.Set("c1", writable.Vector{1, 2}) // distance 1
	if got := MaxVectorDelta(a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MaxVectorDelta = %v, want 5", got)
	}
}

func TestMaxVectorDeltaIgnoresMismatches(t *testing.T) {
	a := New()
	a.Set("v", writable.Vector{1})
	a.Set("f", writable.Float64(0))
	a.Set("only-a", writable.Vector{9})
	b := New()
	b.Set("v", writable.Vector{1})
	b.Set("f", writable.Float64(100))
	b.Set("len-mismatch", writable.Vector{1, 2})
	a.Set("len-mismatch", writable.Vector{5})
	if got := MaxVectorDelta(a, b); got != 0 {
		t.Fatalf("MaxVectorDelta = %v, want 0", got)
	}
}

func TestMaxFloatDelta(t *testing.T) {
	a := New()
	a.Set("r0", writable.Float64(1))
	a.Set("r1", writable.Float64(-2))
	b := New()
	b.Set("r0", writable.Float64(1.5))
	b.Set("r1", writable.Float64(-5))
	if got := MaxFloatDelta(a, b); got != 3 {
		t.Fatalf("MaxFloatDelta = %v, want 3", got)
	}
}

func TestZeroDeltaOnIdenticalModels(t *testing.T) {
	m := New()
	m.Set("v", writable.Vector{1, 2})
	m.Set("f", writable.Float64(7))
	if MaxVectorDelta(m, m) != 0 || MaxFloatDelta(m, m) != 0 {
		t.Fatal("self-delta not zero")
	}
}

func randomModel(rng *rand.Rand) *Model {
	m := New()
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(20))
		switch rng.Intn(3) {
		case 0:
			v := make(writable.Vector, rng.Intn(5)+1)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			m.Set(key, v)
		case 1:
			m.Set(key, writable.Float64(rng.NormFloat64()))
		default:
			m.Set(key, writable.Int64(rng.Int63n(1000)))
		}
	}
	return m
}

// Property: Encode/Decode round-trips any model, and Size always equals
// the encoded length.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		buf := m.Encode(nil)
		if int64(len(buf)) != m.Size() {
			return false
		}
		out, err := Decode(buf)
		return err == nil && m.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone produces an Equal model whose mutation does not affect
// the original.
func TestQuickCloneEquality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		c := m.Clone()
		if !m.Equal(c) || !c.Equal(m) {
			return false
		}
		c.Set("mutant", writable.Int64(1))
		_, leaked := m.Get("mutant")
		return !leaked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsNonCanonicalKeyLength(t *testing.T) {
	// Key length 1 encoded in two varint bytes.
	if _, err := Decode([]byte{0x81, 0x00, 'k', 0x00}); err == nil {
		t.Fatal("non-minimal key length accepted")
	}
}

// TestNewFloatsWithMatchesSetFloatAt: a model built from presence words
// and a filled column equals the same model built slot by slot, and its
// column is a float model's own; a boxed model has no column, and words
// that do not fit the schema are refused.
func TestNewFloatsWithMatchesSetFloatAt(t *testing.T) {
	keys := make([]string, 130)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	s := NewSchema(keys)
	has := make([]uint64, 3)
	want := NewFloatsOn(s)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		has[i>>6] |= 1 << (i & 63)
		want.SetFloatAt(i, float64(i)/7)
	}
	got, vals := NewFloatsWith(s, has)
	for i := range vals {
		if has[i>>6]&(1<<(i&63)) != 0 {
			vals[i] = float64(i) / 7
		}
	}
	if !got.Equal(want) || got.Len() != want.Len() || string(got.Encode(nil)) != string(want.Encode(nil)) {
		t.Fatalf("NewFloatsWith model %v, slot by slot %v", got.Keys(), want.Keys())
	}
	floats, words, ok := got.FloatColumn()
	if !ok || &floats[0] != &vals[0] || words[1] != has[1] {
		t.Fatal("FloatColumn does not return the model's own column and words")
	}
	if _, _, ok := NewOn(s).FloatColumn(); ok {
		t.Fatal("a boxed model reports a float column")
	}
	for _, bad := range [][]uint64{make([]uint64, 2), {0, 0, 1 << 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFloatsWith accepted %d words %x for 130 slots", len(bad), bad)
				}
			}()
			NewFloatsWith(s, bad)
		}()
	}
}
