// Package writable provides Hadoop-style serializable value types for the
// MapReduce runtime. Every value that flows between map and reduce tasks,
// or that is stored in a model, implements Writable, which defines a
// compact, deterministic binary encoding. The encoded size of a value is
// exact: the network and DFS traffic counters in the runtime charge the
// same number of bytes that Encode produces.
//
// The encoding of a value is a one-byte kind tag followed by a
// kind-specific payload. Variable-length integers use the unsigned varint
// format from encoding/binary; floating-point values use IEEE 754
// big-endian. The format is self-describing, so a stream of encoded
// values can be decoded without out-of-band type information.
package writable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Kind identifies the concrete type of an encoded Writable.
type Kind uint8

// The supported value kinds. The numeric values are part of the wire
// format and must not be reordered.
const (
	KindNull Kind = iota
	KindText
	KindInt32
	KindInt64
	KindFloat64
	KindBytes
	KindVector
	KindPair
	KindList
)

// String returns the name of the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "Null"
	case KindText:
		return "Text"
	case KindInt32:
		return "Int32"
	case KindInt64:
		return "Int64"
	case KindFloat64:
		return "Float64"
	case KindBytes:
		return "Bytes"
	case KindVector:
		return "Vector"
	case KindPair:
		return "Pair"
	case KindList:
		return "List"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Writable is a value with a deterministic binary encoding. Implementations
// are the only value types accepted by the MapReduce runtime and the model
// store.
type Writable interface {
	// Kind reports the wire-format tag of the value.
	Kind() Kind
	// EncodedSize reports the exact number of payload bytes AppendTo
	// will write (excluding the kind tag).
	EncodedSize() int
	// AppendTo appends the payload encoding to dst and returns the
	// extended slice.
	AppendTo(dst []byte) []byte
}

// decoder is implemented by pointers to the concrete value types; Decode
// uses it to parse payloads in place.
type decoder interface {
	decodeFrom(src []byte) ([]byte, error)
}

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = errors.New("writable: truncated input")

// ErrNonCanonical is returned when an input uses a non-minimal varint
// encoding. The wire format is canonical: every value has exactly one
// valid encoding, so encodings can be compared byte-wise.
var ErrNonCanonical = errors.New("writable: non-canonical varint")

// Size reports the full encoded size of w, including the kind tag.
// A nil Writable encodes as Null and has size 1.
func Size(w Writable) int {
	if w == nil {
		return 1
	}
	return 1 + w.EncodedSize()
}

// Encode appends the full encoding of w (kind tag plus payload) to dst.
// A nil Writable is encoded as Null.
func Encode(dst []byte, w Writable) []byte {
	if w == nil {
		return append(dst, byte(KindNull))
	}
	dst = append(dst, byte(w.Kind()))
	return w.AppendTo(dst)
}

// Decode parses one value from src and returns it along with the
// unconsumed remainder of the buffer.
func Decode(src []byte) (Writable, []byte, error) {
	if len(src) == 0 {
		return nil, nil, ErrTruncated
	}
	kind := Kind(src[0])
	src = src[1:]
	var w decoder
	switch kind {
	case KindNull:
		return Null{}, src, nil
	case KindText:
		w = new(Text)
	case KindInt32:
		w = new(Int32)
	case KindInt64:
		w = new(Int64)
	case KindFloat64:
		w = new(Float64)
	case KindBytes:
		w = new(Bytes)
	case KindVector:
		w = new(Vector)
	case KindPair:
		w = new(Pair)
	case KindList:
		w = new(List)
	default:
		return nil, nil, fmt.Errorf("writable: unknown kind %d", kind)
	}
	rest, err := w.decodeFrom(src)
	if err != nil {
		return nil, nil, err
	}
	return deref(w), rest, nil
}

// deref converts the pointer types used during decoding to the value
// types the package hands out.
func deref(w decoder) Writable {
	switch v := w.(type) {
	case *Text:
		return *v
	case *Int32:
		return *v
	case *Int64:
		return *v
	case *Float64:
		return *v
	case *Bytes:
		return *v
	case *Vector:
		return *v
	case *Pair:
		return *v
	case *List:
		return *v
	case *Null:
		return *v
	default:
		panic("writable: unhandled decoder type")
	}
}

// Null is the zero-size placeholder value.
type Null struct{}

// Kind implements Writable.
func (Null) Kind() Kind { return KindNull }

// EncodedSize implements Writable.
func (Null) EncodedSize() int { return 0 }

// AppendTo implements Writable.
func (Null) AppendTo(dst []byte) []byte { return dst }

func (*Null) decodeFrom(src []byte) ([]byte, error) { return src, nil }

// Text is a UTF-8 string value, analogous to Hadoop's Text.
type Text string

// Kind implements Writable.
func (Text) Kind() Kind { return KindText }

// EncodedSize implements Writable.
func (t Text) EncodedSize() int { return uvarintLen(uint64(len(t))) + len(t) }

// AppendTo implements Writable.
func (t Text) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	return append(dst, t...)
}

func (t *Text) decodeFrom(src []byte) ([]byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) < n {
		return nil, ErrTruncated
	}
	*t = Text(rest[:n])
	return rest[n:], nil
}

// Int32 is a 32-bit signed integer, analogous to Hadoop's IntWritable.
type Int32 int32

// Kind implements Writable.
func (Int32) Kind() Kind { return KindInt32 }

// EncodedSize implements Writable.
func (Int32) EncodedSize() int { return 4 }

// AppendTo implements Writable.
func (v Int32) AppendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(v))
}

func (v *Int32) decodeFrom(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, ErrTruncated
	}
	*v = Int32(binary.BigEndian.Uint32(src))
	return src[4:], nil
}

// Int64 is a 64-bit signed integer, analogous to Hadoop's LongWritable.
type Int64 int64

// Kind implements Writable.
func (Int64) Kind() Kind { return KindInt64 }

// EncodedSize implements Writable.
func (Int64) EncodedSize() int { return 8 }

// AppendTo implements Writable.
func (v Int64) AppendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func (v *Int64) decodeFrom(src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, ErrTruncated
	}
	*v = Int64(binary.BigEndian.Uint64(src))
	return src[8:], nil
}

// Float64 is a double-precision float, analogous to Hadoop's
// DoubleWritable.
type Float64 float64

// Kind implements Writable.
func (Float64) Kind() Kind { return KindFloat64 }

// EncodedSize implements Writable.
func (Float64) EncodedSize() int { return 8 }

// AppendTo implements Writable.
func (v Float64) AppendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(v)))
}

func (v *Float64) decodeFrom(src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, ErrTruncated
	}
	*v = Float64(math.Float64frombits(binary.BigEndian.Uint64(src)))
	return src[8:], nil
}

// Bytes is a raw byte-string value, analogous to Hadoop's BytesWritable.
type Bytes []byte

// Kind implements Writable.
func (Bytes) Kind() Kind { return KindBytes }

// EncodedSize implements Writable.
func (b Bytes) EncodedSize() int { return uvarintLen(uint64(len(b))) + len(b) }

// AppendTo implements Writable.
func (b Bytes) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func (b *Bytes) decodeFrom(src []byte) ([]byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) < n {
		return nil, ErrTruncated
	}
	*b = append(Bytes(nil), rest[:n]...)
	return rest[n:], nil
}

// Vector is a dense vector of float64 components. It is the workhorse
// value type of the iterative-convergence applications: points,
// centroids, weight blocks, matrix rows and image rows are all Vectors.
type Vector []float64

// Kind implements Writable.
func (Vector) Kind() Kind { return KindVector }

// EncodedSize implements Writable.
func (v Vector) EncodedSize() int { return uvarintLen(uint64(len(v))) + 8*len(v) }

// AppendTo implements Writable.
func (v Vector) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

func (v *Vector) decodeFrom(src []byte) ([]byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) < 8*n {
		return nil, ErrTruncated
	}
	out := make(Vector, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*i:]))
	}
	*v = out
	return rest[8*n:], nil
}

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// VectorSize is Size of a Vector of n components, computed from n
// alone.
func VectorSize(n int) int { return 1 + uvarintLen(uint64(n)) + 8*n }

// Pair is an ordered pair of Writables, useful for composite values such
// as a (partial sum, count) accumulator.
type Pair struct {
	First  Writable
	Second Writable
}

// Kind implements Writable.
func (Pair) Kind() Kind { return KindPair }

// EncodedSize implements Writable.
func (p Pair) EncodedSize() int { return Size(p.First) + Size(p.Second) }

// AppendTo implements Writable.
func (p Pair) AppendTo(dst []byte) []byte {
	dst = Encode(dst, p.First)
	return Encode(dst, p.Second)
}

func (p *Pair) decodeFrom(src []byte) ([]byte, error) {
	first, rest, err := Decode(src)
	if err != nil {
		return nil, err
	}
	second, rest, err := Decode(rest)
	if err != nil {
		return nil, err
	}
	p.First, p.Second = first, second
	return rest, nil
}

// List is an ordered sequence of Writables, analogous to Hadoop's
// ArrayWritable. Elements may be of mixed kinds.
type List []Writable

// Kind implements Writable.
func (List) Kind() Kind { return KindList }

// EncodedSize implements Writable.
func (l List) EncodedSize() int {
	n := uvarintLen(uint64(len(l)))
	for _, w := range l {
		n += Size(w)
	}
	return n
}

// AppendTo implements Writable.
func (l List) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for _, w := range l {
		dst = Encode(dst, w)
	}
	return dst
}

func (l *List) decodeFrom(src []byte) ([]byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, err
	}
	// A list cannot hold more elements than remaining bytes (each
	// element is at least one kind byte) — reject absurd lengths before
	// allocating.
	if n > uint64(len(rest)) {
		return nil, ErrTruncated
	}
	out := make(List, n)
	for i := range out {
		out[i], rest, err = Decode(rest)
		if err != nil {
			return nil, err
		}
	}
	*l = out
	return rest, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	if n != uvarintLen(v) {
		return 0, nil, ErrNonCanonical
	}
	return v, src[n:], nil
}
