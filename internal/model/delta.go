package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/writable"
)

// Sparse model deltas.
//
// A delta is the canonical binary encoding of the difference between
// two model versions: only the keys that changed are carried, each as a
// varint-length-prefixed key followed by an op byte (set or tombstone)
// and, for sets, the packed writable encoding of the new value. Keys
// appear in strictly ascending order and every varint is minimal, so a
// given (prev, next) pair has exactly one valid delta encoding — deltas
// can be compared byte-wise just like full model encodings.
//
// The delta format is what loop-aware delta shipping (the model bytes a
// warm iteration actually moves to its persistent workers) and opt-in
// delta checkpoints charge, instead of the full model size.

// Delta op bytes. The values are part of the wire format.
const (
	deltaOpSet    = 0x00
	deltaOpDelete = 0x01
)

// EncodeDelta appends the canonical sparse encoding of the changes
// between prev and next to dst: one entry per added or changed key of
// next (op set, with the new value) and one tombstone per key of prev
// missing from next (op delete), in ascending key order.
func EncodeDelta(prev, next *Model, dst []byte) []byte {
	nt := next.sealed()
	changes(prev.sealed(), nt, func(key string, j int) {
		if j < 0 {
			dst = append(appendKey(dst, key), deltaOpDelete)
		} else {
			dst = nt.appendValue(append(appendKey(dst, key), deltaOpSet), j)
		}
	})
	return dst
}

// DeltaSize reports len(EncodeDelta(prev, next, nil)) without building
// the encoding — the byte count delta shipping charges per iteration.
func DeltaSize(prev, next *Model) int64 {
	pt, nt := prev.sealed(), next.sealed()
	var n int64
	if pt.schema == nt.schema && pt.float && nt.float {
		keys := pt.schema.keys
		for w := range pt.has {
			set, del := changedBits(pt, nt, w)
			// A set is an op byte and an encoded Float64, a tombstone
			// an op byte; each carries its key.
			n += int64(bits.OnesCount64(set))*(1+1+8) + int64(bits.OnesCount64(del))
			for m := set | del; m != 0; m &= m - 1 {
				n += keySize(keys[w<<6|bits.TrailingZeros64(m)])
			}
		}
		return n
	}
	changes(pt, nt, func(key string, j int) {
		if j < 0 {
			n += keySize(key) + 1
		} else {
			n += 1 + keySize(key) + int64(nt.valueSize(j))
		}
	})
	return n
}

// changes calls fn, in ascending key order, for every key whose entry
// differs between pt and nt, with the key's slot in nt (-1 where nt
// lacks it): the entries of the delta from pt to nt.
func changes(pt, nt *table, fn func(key string, j int)) {
	if pt.schema == nt.schema && pt.float && nt.float {
		keys := pt.schema.keys
		for w := range pt.has {
			set, del := changedBits(pt, nt, w)
			for m := set | del; m != 0; m &= m - 1 {
				i := w<<6 | bits.TrailingZeros64(m)
				if set&(m&-m) != 0 {
					fn(keys[i], i)
				} else {
					fn(keys[i], -1)
				}
			}
		}
		return
	}
	if pt.schema == nt.schema {
		for i, k := range pt.schema.keys {
			switch ph, nh := pt.holds(i), nt.holds(i); {
			case !nh:
				if ph {
					fn(k, -1)
				}
			case !ph || !sameValue(pt, i, nt, i):
				fn(k, i)
			}
		}
		return
	}
	join(pt, nt, func(key string, i, j int) bool {
		if j < 0 || i < 0 || !sameValue(pt, i, nt, j) {
			fn(key, j)
		}
		return true
	})
}

// changedBits returns the delta's entries in presence word w of two
// float columns on one schema: set has a bit for each slot present in
// nt and absent from pt or different in value bits, del one for each
// slot present in pt only. Only the slots present on both sides are
// compared.
func changedBits(pt, nt *table, w int) (set, del uint64) {
	ph, nh := pt.has[w], nt.has[w]
	set, del = nh&^ph, ph&^nh
	for both := ph & nh; both != 0; both &= both - 1 {
		i := w<<6 | bits.TrailingZeros64(both)
		if math.Float64bits(pt.floats[i]) != math.Float64bits(nt.floats[i]) {
			set |= both & -both
		}
	}
	return set, del
}

// ApplyDeltaBytes returns a copy of prev with an encoded delta applied:
// set ops overwrite or insert, tombstones remove. It rejects truncated
// input, non-canonical varints, unknown ops and out-of-order keys, so
// round-tripping through EncodeDelta is exact:
// ApplyDeltaBytes(prev, EncodeDelta(prev, next, nil)).Equal(next).
// The copy keeps prev's column kind, and a Float64 set on a schema slot
// is stored without being boxed.
func ApplyDeltaBytes(prev *Model, src []byte) (*Model, error) {
	out := prev.Clone()
	t := out.t.Load()
	// Delta keys ascend like the schema's, so one cursor resolves every
	// key the schema holds without hashing it.
	keys, slot := t.schema.keys, 0
	var lastKey []byte
	for first := true; len(src) > 0; first = false {
		key, rest, err := readKey(src)
		if err != nil {
			return nil, err
		}
		if !first && bytes.Compare(key, lastKey) <= 0 {
			return nil, fmt.Errorf("model: delta keys out of order (%q after %q)", key, lastKey)
		}
		lastKey = key
		if len(rest) == 0 {
			return nil, writable.ErrTruncated
		}
		op := rest[0]
		src = rest[1:]
		for slot < len(keys) && keys[slot] < string(key) {
			slot++
		}
		inSchema := slot < len(keys) && keys[slot] == string(key)
		switch op {
		case deltaOpSet:
			if f, tail, ok := decodeFloat(src); ok && inSchema {
				t.putFloat(slot, f)
				src = tail
				break
			}
			var v writable.Writable
			if v, src, err = writable.Decode(src); err != nil {
				return nil, err
			}
			if inSchema {
				t.put(slot, v)
			} else {
				out.Set(string(key), v)
			}
		case deltaOpDelete:
			if inSchema {
				t.drop(slot)
			}
		default:
			return nil, fmt.Errorf("model: unknown delta op 0x%02x for key %q", op, key)
		}
	}
	return out, nil
}

// decodeFloat reads an encoded Float64 off the front of src without
// boxing it; ok is false for any other kind or a truncated value, which
// writable.Decode then handles.
func decodeFloat(src []byte) (f float64, rest []byte, ok bool) {
	if len(src) < 1+8 || writable.Kind(src[0]) != writable.KindFloat64 {
		return 0, src, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(src[1:])), src[1+8:], true
}
