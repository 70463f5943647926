// Package model implements the model store of the PIC framework. The
// paper requires only that "the model be expressed in the form of
// key/value pairs" (§III-C): keys make model elements uniquely
// identifiable so partition functions can split a model and merge
// functions can establish correspondence between elements of partial
// models.
//
// A Model is a mutable set of string keys bound to writable values with
// a deterministic encoded size; the size is what the runtime charges
// when a model is updated in the DFS or distributed to tasks.
//
// # Layout
//
// In every application the key set is fixed for a whole run and only
// the values change, so the store is columnar: a Schema is an immutable,
// sorted key set (with a key→slot index built on first use) and a model
// is one value column parallel to it. Successive versions of a model —
// NewLike, NewLikeOn, Clone, ApplyDeltaBytes — share one schema, and
// between schema-sharing models Range, Encode, Size, Equal, the delta
// codec and the convergence metrics are linear walks: no sort, no map
// growth, no per-key hash. Callers that touch the same keys every
// iteration resolve them to slots once per schema (Schema.Slot) and use
// At, HasAt, FloatAt, SetAt and SetFloatAt.
//
// The column comes in two kinds, and the model's producer chooses one
// at construction:
//
//   - Boxed (New, NewWithCapacity, NewOn, Decode): one writable.Writable
//     per slot, any kind of value.
//   - Float (NewFloatsOn, NewFloatsWith): a []float64 by slot plus a
//     presence bitmap, for models whose every value is a Float64 —
//     PageRank's ranks and edge scores. Encode, Size, Clone, Keys,
//     Equal, the delta codec and the convergence metrics read it as flat
//     memory and never box a value, whatever the kind of the model on
//     the other side of a pair.
//     Only the Writable edge — Get, At and Range — boxes what it hands
//     out; Float, FloatAt and HasAt read a float slot in place.
//
// Clone, NewLike and NewLikeOn keep the source's kind. A float model
// that is given a value other than a Float64, or a Set of a key outside
// its schema, converts itself to boxed once and stays boxed: that
// promotion is the one fallback, so a float model accepts everything a
// boxed one does.
//
// A key Set outside the schema goes to the model's tail (insertion
// order, with its own index). The next ordered read folds the tail into
// a fresh schema — the only place a sort happens — so a model built
// from nothing with New pays one sort in its life and its descendants
// none. A slot that has not been Set, or was Deleted, is absent: a
// model may fill its schema partially.
//
// # Sharing
//
// A schema is never modified once a model has published it, so any
// number of models and goroutines may hold it. A model's values are its
// own: Clone and CopyAt deep-copy them, every other path (Set, SetAt,
// Range, At, Decode's results) stores and hands out references. Any
// number of goroutines may read one model concurrently (Get, Float,
// Vector, At, HasAt, FloatAt, Range, Keys, Schema, NewLike, Encode,
// Size, ...), including the first ordered read that folds a tail; writes
// (Set, SetAt, SetFloatAt, CopyAt, Delete) need exclusive access, as
// with a map.
//
// The encoding is independent of all this: entries in ascending key
// order, exactly as before the store was columnar.
package model

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/writable"
)

// Schema is an immutable sorted key set. Slot i of a schema-sharing
// model holds the value of Key(i). Schemas are compared by identity: two
// models share a layout exactly when their Schema() pointers are equal.
type Schema struct {
	keys []string

	once  sync.Once
	index map[string]int32 // key → slot, built by the first Slot call
}

var emptySchema = &Schema{}

// NewSchema returns the schema of the given key set (any order,
// duplicates ignored). The slice is not retained.
func NewSchema(keys []string) *Schema {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	return &Schema{keys: slices.Compact(sorted)}
}

// Key returns the key of slot i.
func (s *Schema) Key(i int) string { return s.keys[i] }

// Keys returns the keys in ascending order, indexed by slot. The slice
// is shared: treat it as read-only.
func (s *Schema) Keys() []string { return s.keys }

// Slot returns the slot of key.
func (s *Schema) Slot(key string) (int, bool) {
	s.once.Do(func() {
		s.index = make(map[string]int32, len(s.keys))
		for i, k := range s.keys {
			s.index[k] = int32(i)
		}
	})
	i, ok := s.index[key]
	return int(i), ok
}

// Model is a set of key/value pairs representing an iterative
// algorithm's state (centroids, ranks and edge scores, weights, the
// solution vector, image rows, ...).
type Model struct {
	// t is replaced, never modified, when a read folds the tail into a
	// new schema, so concurrent readers keep a consistent table; mu
	// makes concurrent readers fold once.
	t  atomic.Pointer[table]
	mu sync.Mutex
}

// table is one model's value column, in one of two kinds. A boxed table
// holds vals[:len(schema.keys)] by slot, then one value per tail key; a
// nil value marks an absent entry. A float table holds floats by slot,
// slot i present when bit i of has is set, and never has a tail.
type table struct {
	schema *Schema
	vals   []writable.Writable

	float  bool
	floats []float64
	has    []uint64

	n int // present entries

	// tail holds the keys outside the schema in insertion order. It has
	// an index only once a key has arrived out of ascending order.
	tail     []string
	tailSlot map[string]int32 // tail key → index into vals

	// present caches Keys() while some schema slots are absent.
	present atomic.Pointer[[]string]
}

func newModel(t *table) *Model {
	m := &Model{}
	m.t.Store(t)
	return m
}

// New returns an empty model.
func New() *Model { return newModel(&table{schema: emptySchema}) }

// NewWithCapacity returns an empty model pre-sized for n keys that are
// not known in advance. A builder that knows the key set — the previous
// version's, say — should use NewLike or NewOn instead.
func NewWithCapacity(n int) *Model {
	return newModel(&table{
		schema: emptySchema,
		vals:   make([]writable.Writable, 0, n),
		tail:   make([]string, 0, n),
	})
}

// NewOn returns a boxed model over schema s with every slot absent.
func NewOn(s *Schema) *Model {
	return newModel(&table{schema: s, vals: make([]writable.Writable, len(s.keys))})
}

// NewFloatsOn returns a float-column model over schema s with every
// slot absent: the column for a model whose values are all Float64.
func NewFloatsOn(s *Schema) *Model {
	return newModel(&table{schema: s, float: true,
		floats: make([]float64, len(s.keys)), has: make([]uint64, (len(s.keys)+63)/64)})
}

// NewFloatsWith returns a float-column model over schema s whose present
// slots are the set bits of has (copied; bits past the schema must be
// clear), each holding 0, and the model's value column for the caller to
// fill by slot: a producer that knows which slots the next version holds
// sets them in one copy instead of one write per slot. The column is the
// model's own until the model is next written through its methods; a
// write of anything but a Float64 makes the model boxed and leaves the
// column behind, so a producer fills the column first.
func NewFloatsWith(s *Schema, has []uint64) (*Model, []float64) {
	if len(has) != (len(s.keys)+63)/64 || len(s.keys)%64 != 0 && has[len(has)-1]>>(len(s.keys)%64) != 0 {
		panic("model: NewFloatsWith: presence words do not fit the schema")
	}
	n := 0
	for _, w := range has {
		n += bits.OnesCount64(w)
	}
	floats := make([]float64, len(s.keys))
	return newModel(&table{schema: s, float: true, floats: floats, has: slices.Clone(has), n: n}), floats
}

// FloatColumn returns a float model's value column and presence words —
// slot i present when bit i of has is set — for a reader that walks many
// slots: both are the model's own and read-only. ok is false for a boxed
// model, which has neither.
func (m *Model) FloatColumn() (floats []float64, has []uint64, ok bool) {
	t := m.t.Load()
	if !t.float {
		return nil, nil, false
	}
	return t.floats, t.has, true
}

// NewLike returns an empty model over m's schema: the next version of
// the same key set, filled without sorting or indexing anything. It
// keeps m's column kind.
func (m *Model) NewLike() *Model { return m.NewLikeOn(m.Schema()) }

// NewLikeOn returns an empty model over schema s with m's column kind.
func (m *Model) NewLikeOn(s *Schema) *Model {
	if m.t.Load().float {
		return NewFloatsOn(s)
	}
	return NewOn(s)
}

// Schema returns the model's schema. It stays the model's schema until
// a Set of a key outside it is followed by an ordered read; slots
// resolved against it index At, FloatAt and SetAt for as long.
func (m *Model) Schema() *Schema { return m.sealed().schema }

// sealed returns the model's table with the tail folded into the
// schema.
func (m *Model) sealed() *table {
	t := m.t.Load()
	if len(t.tail) == 0 {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t = m.t.Load(); len(t.tail) > 0 {
		t = t.fold()
		m.t.Store(t)
	}
	return t
}

// fold returns a table over a fresh schema holding t's present entries,
// schema and tail alike, in ascending key order. Only a boxed table has
// a tail to fold.
func (t *table) fold() *table {
	base := len(t.schema.keys)
	order := make([]int32, 0, len(t.tail))
	for i := range t.tail {
		if t.vals[base+i] != nil {
			order = append(order, int32(i))
		}
	}
	if t.tailSlot == nil && len(order) == len(t.tail) && t.n == len(order) {
		// Built in key order with nothing absent: the tail is the schema.
		return &table{schema: &Schema{keys: t.tail}, vals: t.vals[base:], n: t.n}
	}
	if t.tailSlot != nil {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(t.tail[a], t.tail[b]) })
	}
	keys := make([]string, 0, t.n)
	vals := make([]writable.Writable, 0, t.n)
	slot := 0
	for _, i := range order {
		k := t.tail[i]
		for ; slot < base && t.schema.keys[slot] < k; slot++ {
			if v := t.vals[slot]; v != nil {
				keys, vals = append(keys, t.schema.keys[slot]), append(vals, v)
			}
		}
		keys, vals = append(keys, k), append(vals, t.vals[base+int(i)])
	}
	for ; slot < base; slot++ {
		if v := t.vals[slot]; v != nil {
			keys, vals = append(keys, t.schema.keys[slot]), append(vals, v)
		}
	}
	return &table{schema: &Schema{keys: keys}, vals: vals, n: len(vals)}
}

// slot returns key's index into the column.
func (t *table) slot(key string) (int, bool) {
	base := len(t.schema.keys)
	if base > 0 {
		if i, ok := t.schema.Slot(key); ok {
			return i, true
		}
	}
	if t.tailSlot != nil {
		i, ok := t.tailSlot[key]
		return int(i), ok
	}
	// A tail without an index ascends: a model built in key order never
	// hashes a key.
	if n := len(t.tail); n == 0 || t.tail[n-1] < key {
		return 0, false
	}
	i, ok := slices.BinarySearch(t.tail, key)
	return base + i, ok
}

// grow appends key, which slot did not find, to a boxed table's tail and
// returns its index into t.vals. The first key to arrive out of order
// indexes the tail.
func (t *table) grow(key string) int {
	if n := len(t.tail); t.tailSlot == nil && n > 0 && key < t.tail[n-1] {
		t.tailSlot = make(map[string]int32, cap(t.tail))
		for i, k := range t.tail {
			t.tailSlot[k] = int32(len(t.schema.keys) + i)
		}
	}
	i := len(t.vals)
	if t.tailSlot != nil {
		t.tailSlot[key] = int32(i)
	}
	t.tail = append(t.tail, key)
	t.vals = append(t.vals, nil)
	return i
}

// holds reports whether index i of the column holds a value.
func (t *table) holds(i int) bool {
	if t.float {
		return t.has[i>>6]&(1<<(i&63)) != 0
	}
	return t.vals[i] != nil
}

// floatAt returns the Float64 at index i of the column without boxing
// it; false when the entry is absent or of another kind.
func (t *table) floatAt(i int) (float64, bool) {
	if t.float {
		if !t.holds(i) {
			return 0, false
		}
		return t.floats[i], true
	}
	f, ok := t.vals[i].(writable.Float64)
	return float64(f), ok
}

// value returns the present entry at index i as a Writable. On a float
// table this boxes: it is the Writable edge, not a walk's tool.
func (t *table) value(i int) writable.Writable {
	if t.float {
		return writable.Float64(t.floats[i])
	}
	return t.vals[i]
}

// valueSize is writable.Size of the present entry at index i.
func (t *table) valueSize(i int) int {
	if t.float {
		return 1 + 8
	}
	return writable.Size(t.vals[i])
}

// appendValue appends writable.Encode of the present entry at index i.
func (t *table) appendValue(dst []byte, i int) []byte {
	if t.float {
		return appendFloat(dst, t.floats[i])
	}
	return writable.Encode(dst, t.vals[i])
}

// appendFloat appends writable.Encode(writable.Float64(f)) without
// boxing f.
func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, byte(writable.KindFloat64)), math.Float64bits(f))
}

// sameValue reports whether the present entries a[i] and b[j] encode
// identically, as writable.Equal does, without boxing a float.
func sameValue(a *table, i int, b *table, j int) bool {
	switch {
	case a.float && b.float:
		return math.Float64bits(a.floats[i]) == math.Float64bits(b.floats[j])
	case !a.float && !b.float:
		return writable.Equal(a.vals[i], b.vals[j])
	}
	af, aok := a.floatAt(i)
	bf, bok := b.floatAt(j)
	return aok && bok && math.Float64bits(af) == math.Float64bits(bf)
}

// put stores v at index i of the column. A float table stores a Float64
// in place and converts itself to boxed for anything else.
func (t *table) put(i int, v writable.Writable) {
	if t.float {
		if f, ok := v.(writable.Float64); ok {
			t.putFloat(i, float64(f))
			return
		}
		t.box()
	}
	if v == nil {
		// A nil Writable encodes as Null; nil in the column means absent.
		v = writable.Null{}
	}
	if t.vals[i] == nil {
		t.n++
		t.forgetPresent()
	}
	t.vals[i] = v
}

// putFloat stores f at index i of the column, boxing it only on a boxed
// table.
func (t *table) putFloat(i int, f float64) {
	if !t.float {
		t.put(i, writable.Float64(f))
		return
	}
	if !t.holds(i) {
		t.has[i>>6] |= 1 << (i & 63)
		t.n++
		t.forgetPresent()
	}
	t.floats[i] = f
}

// box converts a float table to the boxed kind in place: the promotion
// a non-Float64 value or a key outside the schema triggers, once.
func (t *table) box() {
	vals := make([]writable.Writable, len(t.floats))
	for i, f := range t.floats {
		if t.holds(i) {
			vals[i] = writable.Float64(f)
		}
	}
	t.vals, t.float, t.floats, t.has = vals, false, nil, nil
}

// drop marks index i of the column absent.
func (t *table) drop(i int) {
	if !t.holds(i) {
		return
	}
	if t.float {
		t.has[i>>6] &^= 1 << (i & 63)
	} else {
		t.vals[i] = nil
	}
	t.n--
	t.forgetPresent()
}

func (t *table) forgetPresent() {
	if t.present.Load() != nil {
		t.present.Store(nil)
	}
}

// Set stores v under key, replacing any previous value.
func (m *Model) Set(key string, v writable.Writable) {
	t := m.t.Load()
	i, ok := t.slot(key)
	if !ok {
		if t.float {
			t.box()
		}
		i = t.grow(key)
	}
	t.put(i, v)
}

// inSchema returns m's table, panicking unless i is a slot of its
// schema.
func (m *Model) inSchema(i int, op string) *table {
	t := m.t.Load()
	if uint(i) >= uint(len(t.schema.keys)) {
		panic("model: " + op + ": slot outside the schema")
	}
	return t
}

// SetAt stores v in slot i of the model's schema.
func (m *Model) SetAt(i int, v writable.Writable) { m.inSchema(i, "SetAt").put(i, v) }

// SetFloatAt stores f in slot i of the model's schema, boxing it only in
// a boxed model.
func (m *Model) SetFloatAt(i int, f float64) { m.inSchema(i, "SetFloatAt").putFloat(i, f) }

// CopyAt stores a deep copy of src's slot j in m's slot i and reports
// whether src held one; an absent or out-of-schema j leaves m as it is.
// A Float64 is boxed only from a float model into a boxed one: between
// boxed models the copy shares the immutable scalar box.
func (m *Model) CopyAt(i int, src *Model, j int) bool {
	s := src.t.Load()
	if uint(j) >= uint(len(s.schema.keys)) || !s.holds(j) {
		return false
	}
	t := m.inSchema(i, "CopyAt")
	if f, ok := s.floatAt(j); ok && (s.float || t.float) {
		t.putFloat(i, f)
	} else {
		t.put(i, writable.Clone(s.vals[j]))
	}
	return true
}

// Get returns the value stored under key.
func (m *Model) Get(key string) (writable.Writable, bool) {
	t := m.t.Load()
	if i, ok := t.slot(key); ok && t.holds(i) {
		return t.value(i), true
	}
	return nil, false
}

// At returns the value in slot i of the model's schema. A slot outside
// the schema reads as absent, so callers can keep -1 for keys it lacks.
func (m *Model) At(i int) (writable.Writable, bool) {
	t := m.t.Load()
	if uint(i) >= uint(len(t.schema.keys)) || !t.holds(i) {
		return nil, false
	}
	return t.value(i), true
}

// HasAt reports whether slot i of the model's schema holds a value; a
// slot outside the schema reads as absent.
func (m *Model) HasAt(i int) bool {
	t := m.t.Load()
	return uint(i) < uint(len(t.schema.keys)) && t.holds(i)
}

// Vector returns the value under key as a writable.Vector. It returns
// false if the key is missing or holds a different kind.
func (m *Model) Vector(key string) (writable.Vector, bool) {
	if m.t.Load().float {
		return nil, false
	}
	v, _ := m.Get(key)
	vec, ok := v.(writable.Vector)
	return vec, ok
}

// Float returns the value under key as a float64. It returns false if
// the key is missing or holds a different kind.
func (m *Model) Float(key string) (float64, bool) {
	t := m.t.Load()
	if i, ok := t.slot(key); ok {
		return t.floatAt(i)
	}
	return 0, false
}

// FloatAt is Float for slot i of the model's schema; like At it reads a
// slot outside the schema as absent.
func (m *Model) FloatAt(i int) (float64, bool) {
	t := m.t.Load()
	if uint(i) >= uint(len(t.schema.keys)) {
		return 0, false
	}
	return t.floatAt(i)
}

// Delete removes key from the model. Deleting a missing key is a no-op.
func (m *Model) Delete(key string) {
	t := m.t.Load()
	if i, ok := t.slot(key); ok {
		t.drop(i)
	}
}

// Len reports the number of entries.
func (m *Model) Len() int { return m.t.Load().n }

// Keys returns the model's keys in sorted order, so iteration over a
// model is deterministic. The slice is shared between callers (and,
// when every slot is present, with the schema): treat it as read-only.
func (m *Model) Keys() []string {
	t := m.sealed()
	if t.n == len(t.schema.keys) {
		return t.schema.keys
	}
	if p := t.present.Load(); p != nil {
		return *p
	}
	keys := make([]string, 0, t.n)
	for i, k := range t.schema.keys {
		if t.holds(i) {
			keys = append(keys, k)
		}
	}
	t.present.Store(&keys)
	return keys
}

// Range calls fn for each entry in sorted key order until fn returns
// false.
func (m *Model) Range(fn func(key string, v writable.Writable) bool) {
	t := m.sealed()
	for i, k := range t.schema.keys {
		if t.holds(i) && !fn(k, t.value(i)) {
			return
		}
	}
}

// Clone returns a deep copy: mutating the copy's values never affects
// the original. The copy shares the original's schema and column kind.
func (m *Model) Clone() *Model {
	t := m.sealed()
	if t.float {
		return newModel(&table{schema: t.schema, float: true,
			floats: slices.Clone(t.floats), has: slices.Clone(t.has), n: t.n})
	}
	vals := make([]writable.Writable, len(t.vals))
	for i, v := range t.vals {
		vals[i] = writable.Clone(v)
	}
	return newModel(&table{schema: t.schema, vals: vals, n: t.n})
}

// keySize is the encoded size of a length-prefixed key.
func keySize(key string) int64 { return int64(uvarintLen(uint64(len(key))) + len(key)) }

// Size reports the encoded size of the model in bytes: for each entry, a
// length-prefixed key plus the encoded value. This is the number of
// bytes a model update moves across the network per copy.
func (m *Model) Size() int64 {
	t := m.t.Load()
	var n int64
	if t.float {
		for i, k := range t.schema.keys {
			if t.holds(i) {
				n += keySize(k) + 1 + 8 // an encoded Float64
			}
		}
		return n
	}
	base := len(t.schema.keys)
	for i, v := range t.vals {
		if v == nil {
			continue
		}
		if i < base {
			n += keySize(t.schema.keys[i])
		} else {
			n += keySize(t.tail[i-base])
		}
		n += int64(writable.Size(v))
	}
	return n
}

// Equal reports whether two models have the same keys bound to equal
// values.
func (m *Model) Equal(o *Model) bool {
	if m.Len() != o.Len() {
		return false
	}
	a, b := m.sealed(), o.sealed()
	if a.schema == b.schema {
		for i := range a.schema.keys {
			if h := a.holds(i); h != b.holds(i) || h && !sameValue(a, i, b, i) {
				return false
			}
		}
		return true
	}
	equal := true
	join(a, b, func(_ string, i, j int) bool {
		equal = i >= 0 && j >= 0 && sameValue(a, i, b, j)
		return equal
	})
	return equal
}

// join walks two folded tables on different schemas in ascending key
// order — a two-cursor merge over the two sorted key sets — and calls fn
// once per key present in either, with the key's slot on each side (-1
// where it is absent), until fn returns false. Tables that share a
// schema need no join: the pairwise walks (Equal, the delta, the
// convergence metrics) loop over the shared slots themselves, with no
// call per slot; on PageRank's 49 k keys a walk through join's callback
// takes 1.5–2× as long.
func join(a, b *table, fn func(key string, i, j int) bool) {
	ak, bk := a.schema.keys, b.schema.keys
	i, j := 0, 0
	for {
		for i < len(ak) && !a.holds(i) {
			i++
		}
		for j < len(bk) && !b.holds(j) {
			j++
		}
		var c int
		switch {
		case i == len(ak) && j == len(bk):
			return
		case j == len(bk):
			c = -1
		case i == len(ak):
			c = 1
		default:
			c = cmp.Compare(ak[i], bk[j])
		}
		switch {
		case c < 0:
			if !fn(ak[i], i, -1) {
				return
			}
			i++
		case c > 0:
			if !fn(bk[j], -1, j) {
				return
			}
			j++
		default:
			if !fn(ak[i], i, j) {
				return
			}
			i++
			j++
		}
	}
}

func appendKey(dst []byte, key string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// Encode appends a deterministic binary encoding of the model to dst:
// entries in sorted key order, each as length-prefixed key bytes
// followed by the encoded value. len(Encode(nil)) == Size(). Both column
// kinds encode a Float64 to the same bytes.
func (m *Model) Encode(dst []byte) []byte {
	t := m.sealed()
	for i, k := range t.schema.keys {
		if t.holds(i) {
			dst = t.appendValue(appendKey(dst, k), i)
		}
	}
	return dst
}

// readKey parses one length-prefixed key off the front of src and
// returns it (aliasing src) with the remainder.
func readKey(src []byte) (key, rest []byte, err error) {
	klen, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < klen {
		return nil, nil, writable.ErrTruncated
	}
	if n != uvarintLen(klen) {
		return nil, nil, writable.ErrNonCanonical
	}
	return src[n : n+int(klen)], src[n+int(klen):], nil
}

// Decode parses a model encoded by Encode into a boxed model. Keys in
// ascending order — all Encode ever writes — become the model's schema
// directly; any other order decodes key by key, the last duplicate
// winning.
func Decode(src []byte) (*Model, error) {
	var (
		keyBytes  []byte // every key, back to back: one string, not one per key
		ends      []int
		vals      []writable.Writable
		ascending = true
		last      []byte
	)
	for len(src) > 0 {
		key, rest, err := readKey(src)
		if err != nil {
			return nil, err
		}
		var v writable.Writable
		if v, src, err = writable.Decode(rest); err != nil {
			return nil, err
		}
		if len(ends) > 0 && bytes.Compare(last, key) >= 0 {
			ascending = false
		}
		last = key
		keyBytes = append(keyBytes, key...)
		ends = append(ends, len(keyBytes))
		vals = append(vals, v)
	}
	all := string(keyBytes)
	keys := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		keys[i] = all[start:end]
		start = end
	}
	if ascending {
		return newModel(&table{schema: &Schema{keys: keys}, vals: vals, n: len(vals)}), nil
	}
	m := NewWithCapacity(len(keys))
	for i, k := range keys {
		m.Set(k, vals[i])
	}
	return m, nil
}

// MaxVectorDelta returns the largest L2 distance between corresponding
// Vector entries of two models — the convergence metric the paper uses
// for K-means ("the change in the value of all the K centroids is within
// a pre-specified threshold"). Entries that are not vectors, or keys
// present in only one model, are ignored.
func MaxVectorDelta(a, b *Model) float64 {
	at, bt := a.sealed(), b.sealed()
	if at.float || bt.float {
		return 0 // a float column holds no vector
	}
	var worst float64
	dist := func(i, j int) {
		if d2, ok := vectorDist2(at.vals[i], bt.vals[j]); ok && d2 > worst {
			worst = d2
		}
	}
	if at.schema == bt.schema {
		for i := range at.vals {
			dist(i, i) // an absent slot is nil, not a Vector
		}
	} else {
		join(at, bt, func(_ string, i, j int) bool {
			if i >= 0 && j >= 0 {
				dist(i, j)
			}
			return true
		})
	}
	return math.Sqrt(worst)
}

// VectorDeltaBelow reports exactly MaxVectorDelta(a, b) < tol — the
// convergence test — and returns false at the first pair of vectors
// whose distance is not below tol instead of finding the largest. The
// answers agree because √ is monotone and correctly rounded, so the
// largest root is the root of the largest squared distance; a pair
// whose squared distance is NaN is skipped, as the maximum skips it;
// and MaxVectorDelta is never below a tol that is ≤ 0 or NaN.
func VectorDeltaBelow(a, b *Model, tol float64) bool {
	if !(tol > 0) {
		return false
	}
	at, bt := a.sealed(), b.sealed()
	if at.float || bt.float {
		return true // MaxVectorDelta is 0
	}
	below := func(i, j int) bool {
		d2, ok := vectorDist2(at.vals[i], bt.vals[j])
		return !ok || !(math.Sqrt(d2) >= tol)
	}
	if at.schema == bt.schema {
		for i := range at.vals {
			if !below(i, i) {
				return false
			}
		}
		return true
	}
	ok := true
	join(at, bt, func(_ string, i, j int) bool {
		ok = i < 0 || j < 0 || below(i, j)
		return ok
	})
	return ok
}

// vectorDist2 returns the squared L2 distance between a and b; ok is
// false unless both are vectors of one length.
func vectorDist2(a, b writable.Writable) (d2 float64, ok bool) {
	avec, ok := a.(writable.Vector)
	if !ok {
		return 0, false
	}
	bvec, ok := b.(writable.Vector)
	if !ok || len(bvec) != len(avec) {
		return 0, false
	}
	for k := range avec {
		d := avec[k] - bvec[k]
		d2 += float64(d * d) // rounded product: no fused multiply-add on any GOARCH
	}
	return d2, true
}

// MaxFloatDelta returns the largest absolute difference between
// corresponding Float64 entries of two models — the convergence metric
// for scalar-valued models such as PageRank ranks.
func MaxFloatDelta(a, b *Model) float64 {
	at, bt := a.sealed(), b.sealed()
	var worst float64
	diff := func(i, j int) {
		af, aok := at.floatAt(i)
		bf, bok := bt.floatAt(j)
		if d := math.Abs(af - bf); aok && bok && d > worst {
			worst = d
		}
	}
	if at.schema == bt.schema {
		for i := range at.schema.keys {
			diff(i, i)
		}
		return worst
	}
	join(at, bt, func(_ string, i, j int) bool {
		if i >= 0 && j >= 0 {
			diff(i, j)
		}
		return true
	})
	return worst
}

// FloatDeltaBelow reports exactly MaxFloatDelta(a, b) < tol — the
// convergence test — and returns false at the first pair of Float64
// entries whose difference is not below tol. A NaN difference is
// skipped, as the maximum skips it, and MaxFloatDelta is never below a
// tol that is ≤ 0 or NaN.
func FloatDeltaBelow(a, b *Model, tol float64) bool {
	if !(tol > 0) {
		return false
	}
	at, bt := a.sealed(), b.sealed()
	if at.schema == bt.schema && at.float && bt.float {
		// Both columns flat: visit the slots present on both sides a
		// presence word at a time.
		for w, ah := range at.has {
			for both := ah & bt.has[w]; both != 0; both &= both - 1 {
				i := w<<6 | bits.TrailingZeros64(both)
				if math.Abs(at.floats[i]-bt.floats[i]) >= tol {
					return false
				}
			}
		}
		return true
	}
	below := func(i, j int) bool {
		af, aok := at.floatAt(i)
		bf, bok := bt.floatAt(j)
		return !aok || !bok || !(math.Abs(af-bf) >= tol)
	}
	if at.schema == bt.schema {
		for i := range at.schema.keys {
			if !below(i, i) {
				return false
			}
		}
		return true
	}
	ok := true
	join(at, bt, func(_ string, i, j int) bool {
		ok = i < 0 || j < 0 || below(i, j)
		return ok
	})
	return ok
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
