// Package integrity provides the checksum primitives used by the
// end-to-end data-integrity layer: a CRC32C content checksum, the
// combination of two such checksums into that of the concatenated
// bytes, and a small self-describing frame codec that wraps a payload
// with its length and checksum.
//
// Frames are bookkeeping, not wire format: the simulator stores a frame
// alongside each DFS file's bytes and verifies it on read, but charged
// byte counts everywhere remain the payload size, so enabling the
// integrity layer never perturbs the priced traffic of a healthy run.
//
// Frame layout:
//
//	magic   [2]byte  0xC5 0x1C
//	length  uvarint  payload length in bytes
//	payload [length]byte
//	crc32c  [4]byte  little-endian CRC32C of payload
package integrity

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C polynomial table. CRC32C is the same
// checksum HDFS and most RPC stacks use for block/transfer integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data.
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// castagnoliPoly is the CRC32C polynomial in the reflected bit order
// hash/crc32 computes in.
const castagnoliPoly = 0x82F63B78

// Combine returns the CRC32C of the concatenation a‖b given only
// crcA = Checksum(a), crcB = Checksum(b) and lenB = len(b): zlib's
// crc32_combine over the Castagnoli polynomial. Appending lenB bytes
// multiplies a's register by x^(8·lenB) modulo the polynomial, and the
// initial and final inversions of the two checksums cancel in the XOR.
// A file's checksum is thus the combination of its block checksums in
// block order, with no second pass over its bytes.
func Combine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(xPow8n(uint64(lenB)), crcA) ^ crcB
}

// multModP returns a·b modulo the CRC polynomial, both operands in the
// reflected representation (bit 31 is the coefficient of x^0).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		b = b>>1 ^ castagnoliPoly&-(b&1)
	}
	return p
}

// xPow8n returns x^(8n) modulo the CRC polynomial, by
// square-and-multiply.
func xPow8n(n uint64) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x^0, x^8
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(sq, p)
		}
		sq = multModP(sq, sq)
	}
	return p
}

// Frame magic bytes. Two bytes keep accidental payload/frame confusion
// detectable without burning real space (frames are never priced).
const (
	magic0 = 0xC5
	magic1 = 0x1C
)

// FrameError describes why a frame failed to open. Kind is one of
// "short", "magic", "length", or "checksum".
type FrameError struct {
	Kind string
	// Want and Got carry the expected/observed checksum for Kind
	// "checksum" and the declared/available payload length for Kind
	// "length"; both are zero otherwise.
	Want, Got uint64
}

func (e *FrameError) Error() string {
	switch e.Kind {
	case "checksum":
		return fmt.Sprintf("integrity: frame checksum mismatch: want %08x, got %08x", e.Want, e.Got)
	case "length":
		return fmt.Sprintf("integrity: frame declares %d payload bytes, only %d present", e.Want, e.Got)
	case "magic":
		return "integrity: bad frame magic"
	default:
		return "integrity: frame truncated"
	}
}

// Seal wraps payload in a checksummed frame.
func Seal(payload []byte) []byte {
	frame := make([]byte, 0, 2+binary.MaxVarintLen64+len(payload)+4)
	frame = append(frame, magic0, magic1)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, Checksum(payload))
}

// parse splits a frame into payload and stored checksum without
// verifying the checksum.
func parse(frame []byte) (payload []byte, sum uint32, err error) {
	if len(frame) < 2 {
		return nil, 0, &FrameError{Kind: "short"}
	}
	if frame[0] != magic0 || frame[1] != magic1 {
		return nil, 0, &FrameError{Kind: "magic"}
	}
	rest := frame[2:]
	n, used := binary.Uvarint(rest)
	if used <= 0 || used != uvarintLen(n) { // reject truncated and non-minimal lengths
		return nil, 0, &FrameError{Kind: "short"}
	}
	rest = rest[used:]
	if uint64(len(rest)) < n+4 || n > uint64(len(rest)) { // second clause guards n+4 overflow
		return nil, 0, &FrameError{Kind: "length", Want: n, Got: uint64(len(rest))}
	}
	payload = rest[:n]
	sum = binary.LittleEndian.Uint32(rest[n : n+4])
	return payload, sum, nil
}

// Open verifies a frame and returns its payload (aliasing frame's
// backing array). A checksum mismatch returns a *FrameError with Kind
// "checksum".
func Open(frame []byte) ([]byte, error) {
	payload, want, err := parse(frame)
	if err != nil {
		return nil, err
	}
	if got := Checksum(payload); got != want {
		return nil, &FrameError{Kind: "checksum", Want: uint64(want), Got: uint64(got)}
	}
	return payload, nil
}

// OpenUnchecked parses a frame structurally but skips checksum
// verification. This is the detection-off read path: corrupt payload
// bytes flow through exactly as a checksum-less system would serve
// them.
func OpenUnchecked(frame []byte) ([]byte, error) {
	payload, _, err := parse(frame)
	return payload, err
}

// PayloadRange returns the [start, end) offsets of the payload within
// a sealed frame for a payload of the given length. Corruption
// injection uses this to restrict byte flips to payload bytes so that
// framing always stays parseable and only checksums catch the damage.
func PayloadRange(payloadLen int) (start, end int) {
	start = 2 + uvarintLen(uint64(payloadLen))
	return start, start + payloadLen
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
