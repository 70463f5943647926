package core

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/writable"
)

// BenchmarkWriteModel times one checkpoint write — sizing, encoding,
// the DFS store with its block checksums, and the sealed content
// checksum — at the two model shapes of the benchmark workloads: the
// smoothing image (512 rows of 1 024 pixels, every row changed between
// versions, delta checkpoints on, so each write sizes the delta and
// falls back to a full write) and the PageRank ranks (10 000 floats).
// Each op writes the other of two prebuilt versions and then deletes
// the file, so the DFS does not retain every version across b.N.
func BenchmarkWriteModel(b *testing.B) {
	rows := func(shift float64) *model.Model {
		m := model.New()
		for y := range 512 {
			row := make(writable.Vector, 1024)
			for x := range row {
				row[x] = float64(y*x%251) + shift
			}
			m.Set(fmt.Sprintf("row%04d", y), row)
		}
		return m
	}
	ranks := func(s *model.Schema, shift float64) *model.Model {
		m := model.NewFloatsOn(s)
		for i := range s.Keys() {
			m.SetFloatAt(i, float64(i)/7+shift)
		}
		return m
	}
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("v%06d", i)
	}
	s := model.NewSchema(keys)
	smoothA := rows(0)
	smoothB := smoothA.NewLike()
	smoothA.Range(func(k string, v writable.Writable) bool {
		row := writable.Clone(v).(writable.Vector)
		row[0] += 0.5
		smoothB.Set(k, row)
		return true
	})
	for _, c := range []struct {
		name       string
		versions   [2]*model.Model
		deltaCkpts bool
	}{
		{"smoothing", [2]*model.Model{smoothA, smoothB}, true},
		{"pagerank", [2]*model.Model{ranks(s, 0), ranks(s, 0.5)}, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			rt := testRuntime()
			rt.SetDeltaCheckpoints(c.deltaCkpts)
			rt.WriteModel("m", c.versions[1]) // the first full write sets the delta base
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.WriteModel("m", c.versions[i%2])
				rt.FS().Delete(checkpointName("m", rt.modelWrites-1))
			}
		})
	}
}
