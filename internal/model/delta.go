package model

import (
	"bytes"
	"fmt"

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
	join(prev.sealed(), next.sealed(), func(key string, pv, nv writable.Writable) bool {
		switch {
		case nv == nil:
			dst = append(appendKey(dst, key), deltaOpDelete)
		case pv == nil || !writable.Equal(pv, nv):
			dst = writable.Encode(append(appendKey(dst, key), deltaOpSet), nv)
		}
		return true
	})
	return dst
}

// DeltaSize reports len(EncodeDelta(prev, next, nil)) without building
// the encoding — the byte count delta shipping charges per iteration.
func DeltaSize(prev, next *Model) int64 {
	var n int64
	join(prev.sealed(), next.sealed(), func(key string, pv, nv writable.Writable) bool {
		switch {
		case nv == nil:
			n += keySize(key) + 1
		case pv == nil || !writable.Equal(pv, nv):
			n += 1 + entrySize(key, nv)
		}
		return true
	})
	return n
}

// ApplyDeltaBytes returns a copy of prev with an encoded delta applied:
// set ops overwrite or insert, tombstones remove. It rejects truncated
// input, non-canonical varints, unknown ops and out-of-order keys, so
// round-tripping through EncodeDelta is exact:
// ApplyDeltaBytes(prev, EncodeDelta(prev, next, nil)).Equal(next).
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
