package integrity

import (
	"bytes"
	"testing"
)

// FuzzOpen exercises the frame parser with arbitrary byte streams: it
// must never panic, Open must accept exactly what Seal produced, and
// any frame Open accepts must round-trip through Seal to the same
// bytes (the framing is canonical).
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(Seal(nil))
	f.Add(Seal([]byte("hello, frame")))
	f.Add(Seal(bytes.Repeat([]byte{0x5A}, 300)))
	corrupt := Seal([]byte("flip me"))
	corrupt[len(corrupt)-5] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{magic0, magic1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Open(data)
		if err != nil {
			// Structural errors must agree between checked and
			// unchecked opens; only checksum mismatches may differ.
			if fe, ok := err.(*FrameError); ok && fe.Kind != "checksum" {
				if _, uerr := OpenUnchecked(data); uerr == nil {
					t.Fatalf("OpenUnchecked accepted frame Open rejected structurally: %v", err)
				}
			}
			return
		}
		if _, uerr := OpenUnchecked(data); uerr != nil {
			t.Fatalf("OpenUnchecked rejected frame Open accepted: %v", uerr)
		}
		again := Seal(payload)
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("Seal(Open(%x)) = %x", data, again)
		}
		start, end := PayloadRange(len(payload))
		if end > len(data) || !bytes.Equal(data[start:end], payload) {
			t.Fatalf("PayloadRange(%d) = [%d,%d) does not bracket payload", len(payload), start, end)
		}
	})
}

// FuzzCRCCombine checks the checksum combination against a direct pass:
// Combine(Checksum(a), Checksum(b), len(b)) == Checksum(a‖b).
func FuzzCRCCombine(f *testing.F) {
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i*7 + i>>3)
	}
	for _, cut := range []int{0, 1, 7, 8, 63, 64, 1000, 2999, 3000} {
		f.Add(data[:cut], data[cut:])
	}
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 129), []byte("tail"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		whole := append(append([]byte(nil), a...), b...)
		if got, want := Combine(Checksum(a), Checksum(b), int64(len(b))), Checksum(whole); got != want {
			t.Fatalf("Combine(%d+%d bytes) = %08x, want %08x", len(a), len(b), got, want)
		}
	})
}
