package writable

import (
	"bytes"
	"math"
)

// Equal reports whether two values have identical encodings, which for
// all kinds in this package coincides with semantic equality (NaN
// payloads compare bitwise). Scalars and vectors — the values models
// hold by the ten-thousand — compare in place; only composite kinds
// fall back to encoding both sides.
func Equal(a, b Writable) bool {
	switch av := a.(type) {
	case Float64:
		bv, ok := b.(Float64)
		return ok && math.Float64bits(float64(av)) == math.Float64bits(float64(bv))
	case Vector:
		bv, ok := b.(Vector)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
		return true
	}
	if Size(a) != Size(b) {
		return false
	}
	return bytes.Equal(Encode(nil, a), Encode(nil, b))
}

// Clone returns a deep copy of w: the copy shares no mutable state with
// the original. Scalar kinds are immutable values and are returned as
// they are; vectors and byte strings are copied; composite kinds
// round-trip through the binary encoding.
func Clone(w Writable) Writable {
	switch v := w.(type) {
	case nil:
		return nil
	case Null, Text, Int32, Int64, Float64:
		return w
	case Vector:
		// Like decoding, cloning an empty vector yields a non-nil one
		// and cloning an empty byte string a nil one.
		c := make(Vector, len(v))
		copy(c, v)
		return c
	case Bytes:
		return append(Bytes(nil), v...)
	}
	c, _, err := Decode(Encode(nil, w))
	if err != nil {
		// Every Writable produced by this package decodes its own
		// encoding; a failure here is a programming error.
		panic("writable: clone round-trip failed: " + err.Error())
	}
	return c
}
