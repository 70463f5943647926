package bsp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/writable"
)

// The differential test of the message plane: seeded random programs,
// sending on both lanes, run at several worker counts and checked,
// superstep by superstep, against a reference gather that uses the
// obvious map.

// scriptSteps is how many supersteps a scripted program sends in; the
// one after it only consumes.
const scriptSteps = 3

var scriptTags = []string{"", "a", "ab", "a\x00", strings.Repeat("tag-of-forty-bytes/", 3)[:40]}

// scriptSend is one boxed send, or, with float set, one float send of f.
type scriptSend struct {
	to    int
	tag   string
	val   writable.Text
	float bool
	f     float64
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
	inbox [scriptSteps + 1][]Inbox
}

// genScript draws a program from seed: up to 40 vertices whose homes
// interleave over the four nodes, 0–6 sends per vertex per superstep to
// random vertices, on either lane. Boxed sends go under tags that differ
// in length, prefix and an embedded NUL, each value naming its sender
// and position so that order is visible in whatever a combiner
// concatenates; float sends carry small distinct integers, which the
// order-sensitive float combine keeps visible too.
func genScript(seed int64, combine bool) *scriptProgram {
	rng := rand.New(rand.NewSource(seed))
	return drawScript(rng, 1+rng.Intn(40), combine)
}

// drawScript draws a program of n vertices from rng, as genScript does.
func drawScript(rng *rand.Rand, n int, combine bool) *scriptProgram {
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
				sd := scriptSend{to: rng.Intn(n)}
				if rng.Intn(2) == 0 {
					sd.float, sd.f = true, float64(1+rng.Intn(15))
				} else {
					sd.tag = scriptTags[rng.Intn(len(scriptTags))]
					sd.val = writable.Text(fmt.Sprintf("[%d.%d.%d]", step, v, k))
				}
				p.sends[step][v] = append(p.sends[step][v], sd)
			}
		}
	}
	for step := range p.ran {
		p.ran[step] = make([]bool, n)
		p.inbox[step] = make([]Inbox, n)
	}
	return p
}

func (p *scriptProgram) Vertices() []VertexInfo { return p.infos }

func (p *scriptProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	p.ran[step][v] = true
	p.inbox[step][v] = Inbox{Msgs: append([]Message(nil), in.Msgs...), Floats: append([]float64(nil), in.Floats...)}
	if step == scriptSteps {
		return true, nil
	}
	for _, sd := range p.sends[step][v] {
		if sd.float {
			s.SendFloat(sd.to, sd.f)
		} else {
			s.Send(sd.to, sd.tag, sd.val)
		}
	}
	return p.halts[step][v], nil
}

// concatCombiner is order-sensitive on purpose: a combine applied in any
// order but send order changes the delivered value. On the float lane
// it shifts the left operand a hex digit up, so the combined value of
// small integers spells out the order they were combined in.
type concatCombiner struct{}

func (concatCombiner) Combine(a, b writable.Writable) writable.Writable {
	return a.(writable.Text) + b.(writable.Text)
}

func (concatCombiner) CombineFloat(a, b float64) float64 { return float64(16*a) + b }

func (p *scriptProgram) Combiner() Combiner {
	if !p.combine {
		return nil
	}
	return concatCombiner{}
}

// refStats is what the reference predicts a run's metrics to be, and,
// for the test's own coverage, the source nodes whose float sends it
// combined.
type refStats struct {
	messages, combined, bytes, net, cross int64
	stepNet                               []int64
	floatFolds                            map[int]bool
}

// refGather is the reference for one superstep: the sends of the
// vertices that ran, in vertex order then send order, merged per (lane,
// source node, destination, tag) where combining, delivered in wire
// order — each lane's inboxes from its own wire.
func refGather(p *scriptProgram, step int, homes []int, rack func(int) int, st *refStats) []Inbox {
	type key struct {
		float    bool
		src, dst int
		tag      string
	}
	type wireRef struct {
		key
		val writable.Text
		f   float64
	}
	var wire []wireRef
	at := map[key]int{}
	for v, ran := range p.ran[step] {
		if !ran {
			continue
		}
		for _, sd := range p.sends[step][v] {
			st.messages++
			k := key{sd.float, homes[v], sd.to, sd.tag}
			if w, ok := at[k]; ok && p.combine {
				if sd.float {
					wire[w].f = concatCombiner{}.CombineFloat(wire[w].f, sd.f)
					st.floatFolds[k.src] = true
				} else {
					wire[w].val += sd.val
				}
				continue
			}
			at[k] = len(wire)
			wire = append(wire, wireRef{k, sd.val, sd.f})
		}
	}
	inbox := make([]Inbox, len(p.infos))
	var stepNet int64
	for _, w := range wire {
		var val writable.Writable = w.val
		if in := &inbox[w.dst]; w.float {
			in.Floats = append(in.Floats, w.f)
			val = writable.Float64(w.f)
		} else {
			in.Msgs = append(in.Msgs, Message{Tag: w.tag, Value: w.val})
		}
		size := int64(1 + len(p.infos[w.dst].ID) + 1 + len(w.tag) + writable.Size(val))
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
// with the reference, and spans and end time with the first run. It
// returns the source nodes whose float sends the runs combined.
func checkAgainstReference(t *testing.T, seed int64, combine bool) (floatFolds map[int]bool) {
	t.Helper()
	var first *Result
	var firstSpans []trace.Event
	for _, workers := range []int{1, 2, 3, 8} {
		c := testCluster()
		prog := genScript(seed, combine)
		var spans []trace.Event
		res, err := NewEngine(c).Run(func() (Program, error) { return prog, nil }, &RunOptions{Workers: workers, Spans: &spans})
		if err != nil {
			t.Fatalf("seed %d combine=%v workers=%d: %v", seed, combine, workers, err)
		}
		where := fmt.Sprintf("seed %d combine=%v workers=%d", seed, combine, workers)

		st := refStats{floatFolds: map[int]bool{}}
		want := make([]Inbox, len(prog.infos)) // superstep 0 starts with no mail
		halted := make([]bool, len(prog.infos))
		for step := 0; step < res.Supersteps; step++ {
			for v := range prog.infos {
				if active := !halted[v] || want[v].Len() > 0; prog.ran[step][v] != active {
					t.Fatalf("%s: superstep %d vertex %d ran=%v, want %v", where, step, v, prog.ran[step][v], active)
				}
				if !prog.ran[step][v] {
					continue
				}
				if got := prog.inbox[step][v]; !sameInbox(got, want[v]) {
					t.Fatalf("%s: superstep %d vertex %d inbox\n got %q %v\nwant %q %v", where, step, v, got.Msgs, got.Floats, want[v].Msgs, want[v].Floats)
				}
				halted[v] = step == scriptSteps || prog.halts[step][v]
			}
			if step < scriptSteps {
				want = refGather(prog, step, res.Homes, c.Fabric().Rack, &st)
			} else {
				want = make([]Inbox, len(prog.infos))
				st.stepNet = append(st.stepNet, 0)
			}
		}
		for v := range prog.infos {
			if !halted[v] || want[v].Len() > 0 {
				t.Fatalf("%s: run ended after %d supersteps with vertex %d still active", where, res.Supersteps, v)
			}
		}
		m := res.Metrics
		got := refStats{m.Messages, m.CombinedMessages, m.MessageBytes, m.MessageNetworkBytes, m.MessageCrossRackBytes, nil, st.floatFolds}
		for _, ev := range spans {
			if ev.Kind == trace.KindSuperstep {
				got.stepNet = append(got.stepNet, ev.Bytes)
			}
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: message accounting\n got %+v\nwant %+v", where, got, st)
		}
		if first == nil {
			first, firstSpans = res, spans
			continue
		}
		if !reflect.DeepEqual(spans, firstSpans) || res.End != first.End || !reflect.DeepEqual(res.Metrics, first.Metrics) {
			t.Fatalf("%s: spans, end or metrics differ from workers=1", where)
		}
		floatFolds = st.floatFolds
	}
	return floatFolds
}

// sameInbox compares two inboxes lane by lane, an empty lane equal to a
// nil one.
func sameInbox(a, b Inbox) bool {
	return len(a.Msgs) == len(b.Msgs) && len(a.Floats) == len(b.Floats) &&
		(len(a.Msgs) == 0 || reflect.DeepEqual(a.Msgs, b.Msgs)) &&
		(len(a.Floats) == 0 || reflect.DeepEqual(a.Floats, b.Floats))
}

// TestGatherMatchesReference also checks its own reach: the dense float
// index must fold order-sensitive float combines from at least three
// source nodes within one program, or a row mix-up could pass unseen.
func TestGatherMatchesReference(t *testing.T) {
	widest := 0
	for seed := int64(1); seed <= 150; seed++ {
		checkAgainstReference(t, seed, false)
		widest = max(widest, len(checkAgainstReference(t, seed, true)))
	}
	if widest < 3 {
		t.Fatalf("no seed combined float sends from more than %d source nodes, want at least 3", widest)
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

// TestFloatLaneMatchesBoxedLane: one scatter program, run once with its
// scores on the float lane and once boxed as writable.Float64 under the
// empty tag, delivers bit-identical sums at identical metrics, spans,
// homes and end time — at 1, 2 and 8 workers, with FloatSum and with no
// combiner, priced and local.
func TestFloatLaneMatchesBoxedLane(t *testing.T) {
	run := func(boxed, combine, local bool, workers int) (*Result, []float64) {
		p := newScatter(600, 5, 12, 3)
		p.boxed = boxed
		if !combine {
			p.comb = nil
		}
		res, err := NewEngine(benchCluster()).Run(func() (Program, error) { return p, nil },
			&RunOptions{Workers: workers, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		res.Program = nil
		return res, p.got
	}
	for _, local := range []bool{false, true} {
		for _, combine := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				where := fmt.Sprintf("local=%v combine=%v workers=%d", local, combine, workers)
				fres, fgot := run(false, combine, local, workers)
				bres, bgot := run(true, combine, local, workers)
				for v := range fgot {
					if math.Float64bits(fgot[v]) != math.Float64bits(bgot[v]) {
						t.Fatalf("%s: vertex %d sums %v on the float lane, %v boxed", where, v, fgot[v], bgot[v])
					}
				}
				if !reflect.DeepEqual(fres, bres) {
					t.Fatalf("%s: float-lane run\n%+v\nboxed run\n%+v", where, *fres, *bres)
				}
				if m := fres.Metrics; combine != (m.CombinedMessages < m.Messages) || (!local && m.MessageNetworkBytes == 0) {
					t.Fatalf("%s: %d sends became %d wire messages, %d network bytes: the run does not exercise the lane",
						where, m.Messages, m.CombinedMessages, m.MessageNetworkBytes)
				}
			}
		}
	}
}

// only returns p's script with just the sends keep accepts, ready to run.
func (p *scriptProgram) only(keep func(scriptSend) bool) *scriptProgram {
	q := &scriptProgram{infos: p.infos, halts: p.halts, combine: p.combine}
	for step := range q.sends {
		q.sends[step] = make([][]scriptSend, len(p.infos))
		for v, sends := range p.sends[step] {
			for _, sd := range sends {
				if keep(sd) {
					q.sends[step][v] = append(q.sends[step][v], sd)
				}
			}
		}
	}
	for step := range q.ran {
		q.ran[step] = make([]bool, len(p.infos))
		q.inbox[step] = make([]Inbox, len(p.infos))
	}
	return q
}

// TestLanesKeepTheirOwnOrder: in a program that sends on both lanes,
// each lane's inboxes are exactly what the program delivers with the
// other lane's sends taken out — the lanes neither reorder nor combine
// each other's messages — and the message counters are the sums of the
// two single-lane runs'. No vertex votes to halt before the last
// superstep, so all three runs compute the same vertices.
func TestLanesKeepTheirOwnOrder(t *testing.T) {
	run := func(p *scriptProgram) Metrics {
		res, err := NewEngine(testCluster()).Run(func() (Program, error) { return p, nil }, &RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, combine := range []bool{false, true} {
			mixed := genScript(seed, combine)
			for step := range mixed.halts {
				clear(mixed.halts[step])
			}
			boxed := mixed.only(func(sd scriptSend) bool { return !sd.float })
			floats := mixed.only(func(sd scriptSend) bool { return sd.float })
			m, mb, mf := run(mixed), run(boxed), run(floats)
			for step := range mixed.inbox {
				for v, got := range mixed.inbox[step] {
					if !sameInbox(got, Inbox{Msgs: boxed.inbox[step][v].Msgs, Floats: floats.inbox[step][v].Floats}) {
						t.Fatalf("seed %d combine=%v: superstep %d vertex %d got %q %v; the lanes alone deliver %q and %v",
							seed, combine, step, v, got.Msgs, got.Floats, boxed.inbox[step][v].Msgs, floats.inbox[step][v].Floats)
					}
				}
			}
			if m.Messages != mb.Messages+mf.Messages || m.CombinedMessages != mb.CombinedMessages+mf.CombinedMessages ||
				m.MessageBytes != mb.MessageBytes+mf.MessageBytes || m.MessageNetworkBytes != mb.MessageNetworkBytes+mf.MessageNetworkBytes {
				t.Fatalf("seed %d combine=%v: mixed run counts %+v, lanes alone %+v and %+v", seed, combine, m, mb, mf)
			}
		}
	}
}
