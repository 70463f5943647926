// Package bsp is a Bulk Synchronous Parallel (Pregel-style) execution
// engine priced on the same simulated cluster fabric as the mapred
// engine. A computation proceeds in supersteps: every active vertex
// runs Compute, may send messages to other vertices, and votes to halt;
// messages are delivered at the start of the next superstep after a
// global barrier. The engine prices three things per superstep on
// simcluster/simnet exactly as mapred prices its phases:
//
//   - compute: per-node cost totals scheduled on the node's slots
//     (locality-pinned — BSP work cannot be stolen from a vertex's home),
//   - messages: aggregated per (source node, destination node) flows
//     priced through simcluster.Cluster.TransferAt, riding the
//     link/rack/core cost model and any active NetworkPlan overlay,
//   - barrier: token flows from every participating node to a
//     coordinator and back, plus a fixed coordination overhead.
//
// Vertices are addressed by index: a vertex is its position in
// Program.Vertices(), Compute is told which position it runs for, and
// Send names its destination by position. VertexInfo.ID is a label — it
// is what a message's destination costs on the wire and what errors
// print — and is never looked up.
//
// Messages travel on two lanes. The boxed lane (Send) carries a tag and
// a writable.Writable; the float lane (SendFloat) carries one untagged
// float64 and never boxes it. Each lane keeps the engine's ordering and
// combining rules on its own: its sends are merged in global vertex
// order then send order, combined left to right per (source node,
// destination[, tag]), and delivered in that wire order into its own
// part of the Inbox. A program that uses one lane sees exactly the
// order it would see if the other did not exist. A float message costs
// on the wire what the same value boxed as a writable.Float64 under the
// empty tag costs, so moving a program's floats from Send to SendFloat
// changes no simulated byte or second.
//
// The engine is deterministic: results, metrics and trace spans are
// byte-identical across Workers settings and repeated runs. Compute is
// invoked concurrently on distinct vertices, so a Program must not
// share mutable state between vertices without its own synchronization;
// per-vertex sends are merged in global vertex order regardless of
// worker count.
package bsp

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/writable"
)

// VertexInfo labels one vertex and names the node that owns it. ID must
// be unique within the program; it sizes messages bound for the vertex
// and names it in errors, and nothing is addressed by it. Home must be a
// node id of the engine's cluster view, or -1 to let the engine assign
// one (round-robin over live nodes). Dead homes are re-assigned
// deterministically at run start.
type VertexInfo struct {
	ID   string
	Home int
}

// VertexSet is a program's vertex table together with what the engine
// derives from it before a run can start: the wire size of every id,
// length prefix included, and the first id two vertices share. Deriving
// it hashes and sizes every id. A program whose vertex table outlives a
// run — PageRank's is its input's records, the same every iteration —
// derives its set once with NewVertexSet and hands it to every run as a
// SetProgram; the engine derives the set of any other program from
// Vertices() at the start of each attempt. Either way the engine reads
// ids, homes and sizes from the set, so a derived set changes no result.
type VertexSet struct {
	infos  []VertexInfo
	idSize []int32
	dup    string // the first id two vertices share, when hasDup
	hasDup bool
}

// NewVertexSet derives the set of infos and keeps infos, which must not
// change afterwards. A duplicate id is not refused here: a run of the
// set fails with the *ProgramError a run of the same Vertices() would.
func NewVertexSet(infos []VertexInfo) *VertexSet {
	s := getScratch()
	defer s.release()
	vs := &VertexSet{}
	vs.derive(infos, s)
	return vs
}

// derive sets vs to the set of infos, hashing the ids in s's table.
func (vs *VertexSet) derive(infos []VertexInfo, s *scratch) {
	vs.infos = infos
	vs.idSize = sized(vs.idSize, len(infos))
	for i := range infos {
		vs.idSize[i] = int32(framedSize(infos[i].ID))
	}
	vs.dup, vs.hasDup = s.duplicateID(infos)
}

// Infos returns the vertices, each at its index: read-only.
func (vs *VertexSet) Infos() []VertexInfo { return vs.infos }

// SetProgram is a Program with a derived vertex set. The engine reads
// the vertex table from VertexSet, once per attempt, instead of deriving
// it from Vertices(); VertexSet().Infos() must equal Vertices().
type SetProgram interface {
	Program
	VertexSet() *VertexSet
}

// Message is one delivered message. Tag carries program-defined routing
// or grouping information (the mapred adapter uses it for record keys).
type Message struct {
	Tag   string
	Value writable.Writable
}

// Inbox is what one vertex receives in a superstep: the boxed lane's
// messages and the float lane's values, each in its lane's wire order.
// Both slices are the engine's buffers, valid for the duration of the
// Compute call: keep the values, not the slices.
type Inbox struct {
	Msgs   []Message
	Floats []float64
}

// Len is the number of messages in both lanes.
func (in Inbox) Len() int { return len(in.Msgs) + len(in.Floats) }

// Sender accepts messages during Compute. to is the destination's index
// in Program.Vertices(); the message becomes visible to that vertex in
// the next superstep. Send puts a tagged, boxed value on the boxed lane;
// SendFloat puts an untagged float64 on the float lane. A Sender is
// valid only for the duration of the Compute call it was passed to. A
// destination outside the program's vertex set is not delivered
// anywhere: the superstep fails with a *ProgramError naming the sending
// vertex.
type Sender interface {
	Send(to int, tag string, v writable.Writable)
	SendFloat(to int, f float64)
}

// Program is a vertex computation. Vertices is called once per run
// attempt, unless the program is a SetProgram, and must return a stable,
// duplicate-free vertex set; the engine reads it throughout the attempt.
// Compute runs for every active vertex each superstep, v being the
// vertex's index in Vertices(): a vertex is active in superstep 0, and
// thereafter when it has incoming messages or did not vote to halt.
// Returning halt=true votes to halt; an incoming message reactivates the
// vertex. The run terminates when every vertex has halted and no
// messages are in flight.
//
// Compute must be safe to call concurrently on distinct vertices.
type Program interface {
	Vertices() []VertexInfo
	Compute(step, v int, in Inbox, s Sender) (halt bool, err error)
}

// Combiner merges two messages bound for the same destination vertex
// on the same lane: Combine two boxed values under the same tag,
// CombineFloat two float-lane values. The engine applies it
// sender-side, per source node, in deterministic send order, as
// Combine(have, new) — mirroring Pregel's combiner, which cuts network
// bytes without changing semantics for commutative/associative
// reductions.
type Combiner interface {
	Combine(a, b writable.Writable) writable.Writable
	CombineFloat(a, b float64) float64
}

// FloatSum is the Combiner that adds: writable.Float64 values on the
// boxed lane, float64s on the float lane.
type FloatSum struct{}

// Combine implements Combiner.
func (FloatSum) Combine(a, b writable.Writable) writable.Writable {
	return a.(writable.Float64) + b.(writable.Float64)
}

// CombineFloat implements Combiner.
func (FloatSum) CombineFloat(a, b float64) float64 { return a + b }

// CombinerProgram is a Program that supplies a Combiner. A nil result
// disables combining.
type CombinerProgram interface {
	Program
	Combiner() Combiner
}

// Modeler is implemented by vertex programs that can assemble the next
// iteration's model after the run terminates. prev is the model the
// program was built from; the result must be a fresh model (prev is not
// mutated). The core runtime requires this for native vertex apps.
type Modeler interface {
	Model(prev *model.Model) (*model.Model, error)
}

// VertexCoster lets a program take full control of compute pricing: if
// implemented, VertexCost is consulted after Compute returns for that
// vertex and its result is the vertex's entire compute cost for the
// superstep, replacing the engine's default
//
//	ComputePerVertex + ComputePerMessage·in.Len() + EmitPerByte·sentBytes
//
// formula. The mapred adapter uses this to reproduce map/reduce task
// cost accounting.
type VertexCoster interface {
	VertexCost(step, v int) float64
}

// ProgramError reports a run the program itself made impossible: a
// duplicate vertex id, more vertices than the engine indexes, a send to
// an index outside the vertex set, or an error returned by Compute (Err,
// reachable through errors.Is and errors.As). Step is -1 and Vertex
// empty where the failure belongs to no superstep or vertex.
type ProgramError struct {
	Job    string
	Step   int
	Vertex string // the vertex's ID
	Reason string
	Err    error
}

func (e *ProgramError) Error() string {
	msg := "bsp: " + e.Job + ": "
	if e.Step >= 0 {
		msg += fmt.Sprintf("superstep %d vertex %s: ", e.Step, e.Vertex)
	}
	if e.Err != nil {
		return msg + e.Err.Error()
	}
	return msg + e.Reason
}

func (e *ProgramError) Unwrap() error { return e.Err }

// uvarintLen mirrors the wire framing used by writable and model for
// message size accounting.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// A message on the wire is its destination id and tag, each uvarint
// length-prefixed, then the encoded value. The id part is per vertex
// (scratch.idSize); these are the rest.

// framedSize is the size of a length-prefixed string.
func framedSize(s string) int64 { return int64(uvarintLen(uint64(len(s))) + len(s)) }

// boxedTail is the size of a boxed message after its destination id.
func boxedTail(tag string, v writable.Writable) int64 {
	return framedSize(tag) + int64(writable.Size(v))
}

// floatTail is the size of a float message after its destination id:
// the empty tag and an encoded writable.Float64, so a float message
// costs exactly what the same value boxed under tag "" does.
var floatTail = boxedTail("", writable.Float64(0))
