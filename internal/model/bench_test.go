package model

import (
	"fmt"
	"testing"

	"repro/internal/writable"
)

func benchModel(entries int) *Model {
	m := New()
	for i := 0; i < entries; i++ {
		m.Set(fmt.Sprintf("c%05d", i), writable.Vector{float64(i), float64(i) + 1, float64(i) + 2})
	}
	return m
}

func BenchmarkModelClone(b *testing.B) {
	m := benchModel(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Clone().Len() != 100 {
			b.Fatal("bad clone")
		}
	}
}

func BenchmarkModelSize(b *testing.B) {
	m := benchModel(100)
	for i := 0; i < b.N; i++ {
		if m.Size() == 0 {
			b.Fatal("zero size")
		}
	}
}

func BenchmarkModelEncode(b *testing.B) {
	m := benchModel(100)
	buf := make([]byte, 0, m.Size())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkMaxVectorDelta(b *testing.B) {
	a, c := benchModel(100), benchModel(100)
	for i := 0; i < b.N; i++ {
		MaxVectorDelta(a, c)
	}
}

// BenchmarkModelPageRankScale times the per-iteration model walks of a
// PageRank-sized all-Float64 model (about 49 k keys, a tenth of them
// changed between versions) in both column kinds.
func BenchmarkModelPageRankScale(b *testing.B) {
	for _, kind := range []struct {
		name  string
		float bool
	}{{"boxed", false}, {"float", true}} {
		prev, next := floatPair(49_000, kind.float, kind.float) // the PageRank cells' ranks and edge scores
		buf := next.Encode(nil)
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Encode", func() { buf = next.Encode(buf[:0]) }},
			{"Size", func() { _ = next.Size() }},
			{"Clone", func() { _ = next.Clone() }},
			{"DeltaSize", func() { _ = DeltaSize(prev, next) }},
			{"MaxFloatDelta", func() { _ = MaxFloatDelta(prev, next) }},
		} {
			b.Run(kind.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.fn()
				}
			})
		}
	}
}

// BenchmarkDeltaSize times the delta sizing loop-aware shipping pays
// twice per warm PageRank iteration, on the PageRank shape: 10 000
// floats on one schema, every value changed between the versions (as
// every rank moves until convergence), in both column kinds (the float
// pair walks presence words, the boxed pair the slot loop).
func BenchmarkDeltaSize(b *testing.B) {
	for _, kind := range []struct {
		name  string
		float bool
	}{{"float", true}, {"boxed", false}} {
		prev, _ := floatPair(10_000, kind.float, kind.float)
		next := prev.Clone()
		for i := range 10_000 {
			f, _ := next.FloatAt(i)
			next.SetFloatAt(i, f+1)
		}
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if DeltaSize(prev, next) == 0 {
					b.Fatal("no delta")
				}
			}
		})
	}
}
