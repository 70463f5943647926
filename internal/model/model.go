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
// NewLike, NewOn, Clone, ApplyDeltaBytes — share one schema, and between
// schema-sharing models Range, Encode, Size, Equal, the delta codec and
// the convergence metrics are linear walks: no sort, no map growth, no
// per-key hash. Callers that touch the same keys every iteration
// resolve them to slots once per schema (Schema.Slot) and use At,
// FloatAt and SetAt.
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
// own: Clone deep-copies them, every other path (Set, SetAt, Range, At,
// Decode's results) stores and hands out references. Any number of
// goroutines may read one model concurrently (Get, Float, Vector, At,
// FloatAt, Range, Keys, Schema, NewLike, Encode, Size, ...), including
// the first ordered read that folds a tail; writes (Set, SetAt, Delete)
// need exclusive access, as with a map.
//
// The encoding is independent of all this: entries in ascending key
// order, exactly as before the store was columnar.
package model

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
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

// table is one model's value column: vals[:len(schema.keys)] by slot, then
// one value per tail key. A nil value marks an absent entry.
type table struct {
	schema *Schema
	vals   []writable.Writable
	n      int // non-nil entries of vals

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

// NewOn returns a model over schema s with every slot absent.
func NewOn(s *Schema) *Model {
	return newModel(&table{schema: s, vals: make([]writable.Writable, len(s.keys))})
}

// NewLike returns an empty model over m's schema: the next version of
// the same key set, filled without sorting or indexing anything.
func (m *Model) NewLike() *Model { return NewOn(m.Schema()) }

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
// schema and tail alike, in ascending key order.
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

// slot returns key's index into t.vals.
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

// grow appends key, which slot did not find, to the tail and returns its
// index into t.vals. The first key to arrive out of order indexes the
// tail.
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

// put stores v at index i of t.vals.
func (t *table) put(i int, v writable.Writable) {
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

// drop marks index i of t.vals absent.
func (t *table) drop(i int) {
	if t.vals[i] != nil {
		t.vals[i] = nil
		t.n--
		t.forgetPresent()
	}
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
		i = t.grow(key)
	}
	t.put(i, v)
}

// SetAt stores v in slot i of the model's schema.
func (m *Model) SetAt(i int, v writable.Writable) {
	t := m.t.Load()
	if i >= len(t.schema.keys) {
		panic("model: SetAt: slot outside the schema")
	}
	t.put(i, v)
}

// Get returns the value stored under key.
func (m *Model) Get(key string) (writable.Writable, bool) {
	t := m.t.Load()
	if i, ok := t.slot(key); ok {
		return t.vals[i], t.vals[i] != nil
	}
	return nil, false
}

// At returns the value in slot i of the model's schema. A slot outside
// the schema reads as absent, so callers can keep -1 for keys it lacks.
func (m *Model) At(i int) (writable.Writable, bool) {
	t := m.t.Load()
	if uint(i) >= uint(len(t.schema.keys)) {
		return nil, false
	}
	return t.vals[i], t.vals[i] != nil
}

// Vector returns the value under key as a writable.Vector. It returns
// false if the key is missing or holds a different kind.
func (m *Model) Vector(key string) (writable.Vector, bool) {
	v, _ := m.Get(key)
	vec, ok := v.(writable.Vector)
	return vec, ok
}

// Float returns the value under key as a float64. It returns false if
// the key is missing or holds a different kind.
func (m *Model) Float(key string) (float64, bool) {
	v, _ := m.Get(key)
	f, ok := v.(writable.Float64)
	return float64(f), ok
}

// FloatAt is Float for slot i of the model's schema; like At it reads a
// slot outside the schema as absent.
func (m *Model) FloatAt(i int) (float64, bool) {
	v, _ := m.At(i)
	f, ok := v.(writable.Float64)
	return float64(f), ok
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
	if t.n == len(t.vals) {
		return t.schema.keys
	}
	if p := t.present.Load(); p != nil {
		return *p
	}
	keys := make([]string, 0, t.n)
	for i, v := range t.vals {
		if v != nil {
			keys = append(keys, t.schema.keys[i])
		}
	}
	t.present.Store(&keys)
	return keys
}

// Range calls fn for each entry in sorted key order until fn returns
// false.
func (m *Model) Range(fn func(key string, v writable.Writable) bool) {
	t := m.sealed()
	for i, v := range t.vals {
		if v != nil && !fn(t.schema.keys[i], v) {
			return
		}
	}
}

// Clone returns a deep copy: mutating the copy's values never affects
// the original. The copy shares the original's schema.
func (m *Model) Clone() *Model {
	t := m.sealed()
	vals := make([]writable.Writable, len(t.vals))
	for i, v := range t.vals {
		vals[i] = writable.Clone(v)
	}
	return newModel(&table{schema: t.schema, vals: vals, n: t.n})
}

// keySize is the encoded size of a length-prefixed key.
func keySize(key string) int64 { return int64(uvarintLen(uint64(len(key))) + len(key)) }

// entrySize is the encoded size of one entry: a length-prefixed key plus
// the encoded value.
func entrySize(key string, v writable.Writable) int64 {
	return keySize(key) + int64(writable.Size(v))
}

// Size reports the encoded size of the model in bytes: for each entry, a
// length-prefixed key plus the encoded value. This is the number of
// bytes a model update moves across the network per copy.
func (m *Model) Size() int64 {
	t := m.t.Load()
	base := len(t.schema.keys)
	var n int64
	for i, v := range t.vals {
		if v == nil {
			continue
		}
		if i < base {
			n += entrySize(t.schema.keys[i], v)
		} else {
			n += entrySize(t.tail[i-base], v)
		}
	}
	return n
}

// Equal reports whether two models have the same keys bound to equal
// values.
func (m *Model) Equal(o *Model) bool {
	if m.Len() != o.Len() {
		return false
	}
	equal := true
	join(m.sealed(), o.sealed(), func(_ string, a, b writable.Writable) bool {
		equal = a != nil && b != nil && writable.Equal(a, b)
		return equal
	})
	return equal
}

// join walks two folded tables in ascending key order and calls fn once
// per key present in either, with the two sides' values (nil where the
// key is absent), until fn returns false. Tables that share a schema
// are walked slot by slot, without comparing a key.
func join(a, b *table, fn func(key string, av, bv writable.Writable) bool) {
	if a.schema == b.schema {
		for i, av := range a.vals {
			if bv := b.vals[i]; (av != nil || bv != nil) && !fn(a.schema.keys[i], av, bv) {
				return
			}
		}
		return
	}
	ak, bk := a.schema.keys, b.schema.keys
	i, j := 0, 0
	for {
		for i < len(ak) && a.vals[i] == nil {
			i++
		}
		for j < len(bk) && b.vals[j] == nil {
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
			if !fn(ak[i], a.vals[i], nil) {
				return
			}
			i++
		case c > 0:
			if !fn(bk[j], nil, b.vals[j]) {
				return
			}
			j++
		default:
			if !fn(ak[i], a.vals[i], b.vals[j]) {
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
// followed by the encoded value. len(Encode(nil)) == Size().
func (m *Model) Encode(dst []byte) []byte {
	t := m.sealed()
	for i, v := range t.vals {
		if v != nil {
			dst = writable.Encode(appendKey(dst, t.schema.keys[i]), v)
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

// Decode parses a model encoded by Encode. Keys in ascending order —
// all Encode ever writes — become the model's schema directly; any
// other order decodes key by key, the last duplicate winning.
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
	var worst float64
	join(a.sealed(), b.sealed(), func(_ string, av, bv writable.Writable) bool {
		avec, ok := av.(writable.Vector)
		if !ok {
			return true
		}
		bvec, ok := bv.(writable.Vector)
		if !ok || len(bvec) != len(avec) {
			return true
		}
		var d2 float64
		for i := range avec {
			d := avec[i] - bvec[i]
			d2 += d * d
		}
		if d2 > worst {
			worst = d2
		}
		return true
	})
	return math.Sqrt(worst)
}

// MaxFloatDelta returns the largest absolute difference between
// corresponding Float64 entries of two models — the convergence metric
// for scalar-valued models such as PageRank ranks.
func MaxFloatDelta(a, b *Model) float64 {
	var worst float64
	join(a.sealed(), b.sealed(), func(_ string, av, bv writable.Writable) bool {
		af, ok := av.(writable.Float64)
		if !ok {
			return true
		}
		bf, ok := bv.(writable.Float64)
		if !ok {
			return true
		}
		if d := math.Abs(float64(af) - float64(bf)); d > worst {
			worst = d
		}
		return true
	})
	return worst
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
