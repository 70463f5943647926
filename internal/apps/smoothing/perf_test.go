package smoothing

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
)

// BenchmarkSweep times one sweep at the smoothing_hier shape (1024×512,
// 16 bands, the 64-node Medium cluster), on one runtime for all of b.N:
// "ic" is a framework Iteration over the whole image, "band" a local
// iteration (RunLocal) of the first band on its node group. Every call
// sweeps from the same model, so each op does the same work.
func BenchmarkSweep(b *testing.B) {
	const w, h, parts = 1024, 512, 16
	img := data.NoisyImage(11, w, h, 15)
	app := New(w, h, 2.0, 0.05)
	rt := core.NewRuntime(simcluster.New(simcluster.Medium()), dfs.DefaultConfig())
	in := mapred.NewInput(Records(img), rt.Cluster(), rt.Cluster().MapSlots())
	m0 := InitialModel(img)
	subs, err := app.Partition(in, m0, parts)
	if err != nil {
		b.Fatal(err)
	}
	group := rt.Cluster().Groups(parts)[0]
	band := subs[0]
	cases := []struct {
		name string
		rt   *core.Runtime
		in   *mapred.Input
		m    *model.Model
	}{
		{"ic", rt, in, m0},
		{"band", rt.Fork(group, true), mapred.NewInput(band.Records, group, group.MapSlots()), band.Model},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := app.Iteration(c.rt, c.in, c.m); err != nil {
					b.Fatal(err)
				}
			}
			pixels := float64(c.in.NumRecords()) * w
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*pixels), "ns/pixel")
		})
	}
}
