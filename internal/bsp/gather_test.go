package bsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/writable"
)

// The differential test of the message plane: seeded random programs run
// at several worker counts and checked, superstep by superstep, against
// a reference gather that uses the obvious map.

// scriptSteps is how many supersteps a scripted program sends in; the
// one after it only consumes.
const scriptSteps = 3

var scriptTags = []string{"", "a", "ab", "a\x00", strings.Repeat("tag-of-forty-bytes/", 3)[:40]}

type scriptSend struct {
	to  int
	tag string
	val writable.Text
}

// scriptProgram replays a fixed script of sends and halt votes and
// records, per superstep and vertex, whether Compute ran and what its
// inbox held. Each vertex writes only its own cells.
type scriptProgram struct {
	infos   []VertexInfo
	sends   [scriptSteps][][]scriptSend
	halts   [scriptSteps][]bool
	combine bool

	ran   [scriptSteps + 1][]bool
	inbox [scriptSteps + 1][][]Message
}

// genScript draws a program from seed: up to 40 vertices whose homes
// interleave over the four nodes, 0–6 sends per vertex per superstep to
// random vertices under tags that differ in length, prefix and an
// embedded NUL, each value naming its sender and position so that order
// is visible in whatever a combiner concatenates.
func genScript(seed int64, combine bool) *scriptProgram {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	p := &scriptProgram{infos: make([]VertexInfo, n), combine: combine}
	for i := range p.infos {
		p.infos[i] = VertexInfo{ID: fmt.Sprintf("vx%d", i*i), Home: rng.Intn(4)}
	}
	for step := range p.sends {
		p.sends[step] = make([][]scriptSend, n)
		p.halts[step] = make([]bool, n)
		for v := range p.sends[step] {
			p.halts[step][v] = rng.Intn(3) == 0
			for k := rng.Intn(7); k > 0; k-- {
				p.sends[step][v] = append(p.sends[step][v], scriptSend{
					to:  rng.Intn(n),
					tag: scriptTags[rng.Intn(len(scriptTags))],
					val: writable.Text(fmt.Sprintf("[%d.%d.%d]", step, v, k)),
				})
			}
		}
	}
	for step := range p.ran {
		p.ran[step] = make([]bool, n)
		p.inbox[step] = make([][]Message, n)
	}
	return p
}

func (p *scriptProgram) Vertices() []VertexInfo { return p.infos }

func (p *scriptProgram) Compute(step, v int, msgs []Message, s Sender) (bool, error) {
	p.ran[step][v] = true
	p.inbox[step][v] = append([]Message(nil), msgs...)
	if step == scriptSteps {
		return true, nil
	}
	for _, sd := range p.sends[step][v] {
		s.Send(sd.to, sd.tag, sd.val)
	}
	return p.halts[step][v], nil
}

// concatCombiner is order-sensitive on purpose: a combine applied in any
// order but send order changes the delivered value.
type concatCombiner struct{}

func (concatCombiner) Combine(a, b writable.Writable) writable.Writable {
	return a.(writable.Text) + b.(writable.Text)
}

func (p *scriptProgram) Combiner() Combiner {
	if !p.combine {
		return nil
	}
	return concatCombiner{}
}

// refStats is what the reference predicts a run's metrics to be.
type refStats struct {
	messages, combined, bytes, net, cross int64
	stepNet                               []int64
}

// refGather is the reference for one superstep: the sends of the
// vertices that ran, in vertex order then send order, merged per (source
// node, destination, tag) where combining, delivered in wire order.
func refGather(p *scriptProgram, step int, homes []int, rack func(int) int, st *refStats) [][]Message {
	type key struct {
		src, dst int
		tag      string
	}
	type wireRef struct {
		key
		val writable.Text
	}
	var wire []wireRef
	at := map[key]int{}
	for v, ran := range p.ran[step] {
		if !ran {
			continue
		}
		for _, sd := range p.sends[step][v] {
			st.messages++
			k := key{homes[v], sd.to, sd.tag}
			if w, ok := at[k]; ok && p.combine {
				wire[w].val += sd.val
				continue
			}
			at[k] = len(wire)
			wire = append(wire, wireRef{k, sd.val})
		}
	}
	inbox := make([][]Message, len(p.infos))
	var stepNet int64
	for _, w := range wire {
		inbox[w.dst] = append(inbox[w.dst], Message{Tag: w.tag, Value: w.val})
		size := int64(1 + len(p.infos[w.dst].ID) + 1 + len(w.tag) + writable.Size(w.val))
		st.combined++
		st.bytes += size
		if dn := homes[w.dst]; dn != w.src {
			stepNet += size
			if rack(dn) != rack(w.src) {
				st.cross += size
			}
		}
	}
	st.net += stepNet
	st.stepNet = append(st.stepNet, stepNet)
	return inbox
}

// checkAgainstReference runs the seed's program at each worker count
// and compares inboxes, message metrics and per-superstep network bytes
// with the reference, and spans and end time with the first run.
func checkAgainstReference(t *testing.T, seed int64, combine bool) {
	t.Helper()
	var first *Result
	for _, workers := range []int{1, 2, 3, 8} {
		c := testCluster()
		prog := genScript(seed, combine)
		res, err := NewEngine(c).Run(func() (Program, error) { return prog, nil }, &RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("seed %d combine=%v workers=%d: %v", seed, combine, workers, err)
		}
		where := fmt.Sprintf("seed %d combine=%v workers=%d", seed, combine, workers)

		var st refStats
		want := make([][]Message, len(prog.infos)) // superstep 0 starts with no mail
		halted := make([]bool, len(prog.infos))
		for step := 0; step < res.Supersteps; step++ {
			for v := range prog.infos {
				if active := !halted[v] || len(want[v]) > 0; prog.ran[step][v] != active {
					t.Fatalf("%s: superstep %d vertex %d ran=%v, want %v", where, step, v, prog.ran[step][v], active)
				}
				if !prog.ran[step][v] {
					continue
				}
				if got := prog.inbox[step][v]; len(got) != len(want[v]) || (len(got) > 0 && !reflect.DeepEqual(got, want[v])) {
					t.Fatalf("%s: superstep %d vertex %d inbox\n got %q\nwant %q", where, step, v, got, want[v])
				}
				halted[v] = step == scriptSteps || prog.halts[step][v]
			}
			if step < scriptSteps {
				want = refGather(prog, step, res.Homes, c.Fabric().Rack, &st)
			} else {
				want = make([][]Message, len(prog.infos))
				st.stepNet = append(st.stepNet, 0)
			}
		}
		for v := range prog.infos {
			if !halted[v] || len(want[v]) > 0 {
				t.Fatalf("%s: run ended after %d supersteps with vertex %d still active", where, res.Supersteps, v)
			}
		}
		m := res.Metrics
		got := refStats{m.Messages, m.CombinedMessages, m.MessageBytes, m.MessageNetworkBytes, m.MessageCrossRackBytes, nil}
		for _, ev := range res.Spans {
			if ev.Kind == trace.KindSuperstep {
				got.stepNet = append(got.stepNet, ev.Bytes)
			}
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: message accounting\n got %+v\nwant %+v", where, got, st)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Spans, first.Spans) || res.End != first.End || !reflect.DeepEqual(res.Metrics, first.Metrics) {
			t.Fatalf("%s: spans, end or metrics differ from workers=1", where)
		}
	}
}

func TestGatherMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		checkAgainstReference(t, seed, false)
		checkAgainstReference(t, seed, true)
	}
}

func FuzzGatherMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, combine bool) {
		checkAgainstReference(t, seed, combine)
	})
}
