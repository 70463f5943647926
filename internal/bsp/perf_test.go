package bsp

import (
	"math/rand"
	"testing"

	"repro/internal/simcluster"
	"repro/internal/writable"
)

// scatterProgram is PageRank's message shape without its arithmetic:
// in superstep 0 every vertex sends its score to each of its
// out-neighbours on the float lane, FloatSum merges them per source
// node, and superstep 1 sums what arrived and halts. Vertex homes are
// dealt round-robin, so neighbouring vertices sit on different nodes.
// With boxed set it sends the same scores on the boxed lane instead,
// each boxed once per vertex as a writable.Float64 under the empty tag.
type scatterProgram struct {
	infos []VertexInfo
	out   [][]int32
	score []float64
	boxed bool
	comb  Combiner
	got   []float64
}

// newScatter draws the graph and the scores from seed. Scores differ
// in magnitude, so a sum taken in another order rounds differently.
func newScatter(n, degree, nodes int, seed int64) *scatterProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &scatterProgram{infos: make([]VertexInfo, n), out: make([][]int32, n),
		score: make([]float64, n), comb: FloatSum{}, got: make([]float64, n)}
	for i := range p.infos {
		p.infos[i] = VertexInfo{ID: "v" + pad(i), Home: i % nodes}
		p.score[i] = rng.Float64() * float64(int(1)<<rng.Intn(40))
		p.out[i] = make([]int32, degree)
		for j := range p.out[i] {
			// Neighbours cluster near the vertex, as a web graph's do,
			// so several of a node's vertices send to the same one.
			p.out[i][j] = int32((i + rng.Intn(64)) % n)
		}
	}
	return p
}

func pad(i int) string {
	b := []byte("00000000")
	for k := len(b) - 1; i > 0; k, i = k-1, i/10 {
		b[k] = byte('0' + i%10)
	}
	return string(b)
}

func (p *scatterProgram) Vertices() []VertexInfo { return p.infos }

func (p *scatterProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	if step == 0 {
		if p.boxed {
			score := writable.Float64(p.score[v])
			for _, dst := range p.out[v] {
				s.Send(int(dst), "", score)
			}
			return false, nil
		}
		for _, dst := range p.out[v] {
			s.SendFloat(int(dst), p.score[v])
		}
		return false, nil
	}
	sum := 0.0
	for _, f := range in.Floats {
		sum += f
	}
	for _, m := range in.Msgs {
		sum += float64(m.Value.(writable.Float64))
	}
	p.got[v] = sum
	return true, nil
}

func (p *scatterProgram) Combiner() Combiner { return p.comb }

// benchCluster is the 12-node, 4-rack shape of the repo benchmark's
// pagerank workloads.
func benchCluster() *simcluster.Cluster {
	return simcluster.New(simcluster.Config{
		Nodes:              12,
		RackSize:           3,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		ComputeRate:        1e9,
		NodeBandwidth:      8e6,
		RackBandwidth:      12e6,
		CoreBandwidth:      16e6,
	})
}

// BenchmarkSuperstepCombine measures one Engine.Run of a 10 000-vertex,
// 50 000-send combining program: two supersteps of compute dispatch,
// gather with sender-side combining, delivery and pricing.
func BenchmarkSuperstepCombine(b *testing.B) {
	e := NewEngine(benchCluster())
	prog := newScatter(10_000, 5, 12, 1)
	build := func() (Program, error) { return prog, nil }
	var messages int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(build, nil)
		if err != nil {
			b.Fatal(err)
		}
		messages = res.Metrics.Messages
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*messages), "ns/message")
}
