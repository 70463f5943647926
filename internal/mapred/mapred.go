// Package mapred is a from-scratch MapReduce runtime in the style of
// Hadoop 0.20, executing on the simulated cluster of internal/simcluster.
// User map, combine and reduce functions run for real — the key/value
// records they emit are genuine — while task scheduling, shuffle and
// model distribution are charged to the simulated clock and fabric, so
// every experiment is deterministic and byte-exact.
//
// The runtime mirrors the conventional iterative-convergence template of
// the PIC paper's Figure 1(a): each iteration of an algorithm is one or
// more jobs that read the (cached) input data and the current model and
// produce the records from which the next model is assembled.
//
// Consistent with the paper's baseline, which already includes the
// prior-work optimizations of Twister/Spark/HaLoop (§V: no repeated job
// initialization, no repeated input reads), input splits are considered
// cached at their home nodes across iterations; only genuinely new
// traffic — shuffle, model distribution, model updates — is charged.
package mapred

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/writable"
)

// Record is one key/value pair flowing through the runtime.
type Record struct {
	Key   string
	Value writable.Writable
}

// Size reports the encoded size of the record in bytes: a
// length-prefixed key plus the encoded value. This is the unit in which
// all traffic counters are maintained.
func (r Record) Size() int64 {
	return KeySize(r.Key) + int64(writable.Size(r.Value))
}

// KeySize is the encoded size of a record's length-prefixed key: a
// record's Size less its value's.
func KeySize(key string) int64 {
	n := 1
	for k := uint64(len(key)); k >= 0x80; k >>= 7 {
		n++
	}
	return int64(n + len(key))
}

// RecordsSize sums the encoded sizes of a batch of records.
func RecordsSize(recs []Record) int64 {
	var n int64
	for _, r := range recs {
		n += r.Size()
	}
	return n
}

// Emitter receives the key/value pairs produced by map and reduce
// functions.
type Emitter interface {
	Emit(key string, value writable.Writable)
}

// Mapper is the user map computation. It is invoked once per input
// record with the current model; the model must be treated as
// read-only — tasks run concurrently.
type Mapper interface {
	Map(key string, value writable.Writable, m *model.Model, emit Emitter) error
}

// Reducer is the user reduce (or combine) computation, invoked once per
// distinct key with all values for that key. As with Mapper, the model
// is read-only. The values slice is a buffer the runtime reuses between
// keys (as Hadoop reuses its value iterator): implementations must not
// retain it — or any re-slice of it — past the call. The Writables it
// holds may be retained freely.
type Reducer interface {
	Reduce(key string, values []writable.Writable, m *model.Model, emit Emitter) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key string, value writable.Writable, m *model.Model, emit Emitter) error

// Map implements Mapper.
func (f MapperFunc) Map(key string, value writable.Writable, m *model.Model, emit Emitter) error {
	return f(key, value, m, emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []writable.Writable, m *model.Model, emit Emitter) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []writable.Writable, m *model.Model, emit Emitter) error {
	return f(key, values, m, emit)
}

// Partitioner maps an intermediate key to one of r reduce partitions.
type Partitioner func(key string, r int) int

// HashPartition is the default partitioner: FNV-1a modulo r. The hash is
// inlined rather than taken from hash/fnv so the per-record hot path
// allocates nothing (the stdlib constructor and []byte(key) conversion
// both escape).
func HashPartition(key string, r int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(r))
}

// Job describes one MapReduce job.
type Job struct {
	// Name labels the job in metrics and errors.
	Name string
	// Mapper is required.
	Mapper Mapper
	// Combiner optionally pre-aggregates map output per partition
	// before it is shuffled, as Hadoop combiners do. The paper's
	// baselines all use combiners (§V-D).
	Combiner Reducer
	// Reducer is required unless the job is map-only.
	Reducer Reducer
	// NumReducers defaults to the cluster view's reduce slot count.
	NumReducers int
	// Partition defaults to HashPartition.
	Partition Partitioner
	// PartitionedModel declares that each task reads only the model
	// entries co-located with its input split (PageRank's per-vertex
	// state, the smoother's image rows) rather than the whole model.
	// Distribution then moves each node's share of the model once —
	// the HDFS re-read of the updated state — instead of broadcasting
	// the full model to every task node (K-means centroids, network
	// weights).
	PartitionedModel bool
	// Cost overrides the engine's default cost model when non-zero.
	Cost *CostModel
	// Into, when set, receives the job's output: the records
	// Output.Records would list — a map-only job's emissions in split
	// order, or the reduce tasks' outputs in reducer order — are Set
	// into Into in that order, and Output carries no records (a job with
	// a Reducer still reports ReducerNodes). Into must not be the model
	// the job reads. A mapper implementing IntoMapper may write the same
	// result by slot. Metrics are those of the same job without Into; a
	// job that fails may leave Into partly written.
	Into *model.Model
}

func (j *Job) validate(m *model.Model) error {
	if j.Mapper == nil {
		return fmt.Errorf("mapred: job %q has no mapper", j.Name)
	}
	if j.NumReducers < 0 {
		return fmt.Errorf("mapred: job %q has negative NumReducers", j.Name)
	}
	return j.CheckInto(m)
}

// CheckInto enforces Into's contract for a run over model m: a job
// never writes into the model it reads.
func (j *Job) CheckInto(m *model.Model) error {
	if j.Into != nil && j.Into == m {
		return fmt.Errorf("mapred: job %q writes Into the model it reads", j.Name)
	}
	return nil
}

// Deliver is a job's output from its tasks' records, in task order: the
// map tasks' emissions of a map-only job, or the reduce tasks' outputs
// of a job with a Reducer, with nodes the nodes those tasks ran on (nil
// for a map-only or in-memory job). The records are Set into Into when
// the job has one; otherwise Records concatenates them, and ByReducer
// holds tasks itself when nodes is set. Records is a copy, so callers
// may reuse the tasks' buffers unless ByReducer keeps them.
func (j *Job) Deliver(tasks [][]Record, nodes []int) *Output {
	out := &Output{ReducerNodes: nodes}
	if j.Into != nil {
		for _, recs := range tasks {
			for _, r := range recs {
				j.Into.Set(r.Key, r.Value)
			}
		}
		return out
	}
	if nodes != nil {
		out.ByReducer = tasks
	}
	n := 0
	for _, recs := range tasks {
		n += len(recs)
	}
	out.Records = make([]Record, 0, n)
	for _, recs := range tasks {
		out.Records = append(out.Records, recs...)
	}
	return out
}

// FloatSum is the Reducer that sums a key's Float64 values from +0 in
// arrival order and emits Then(sum) — the sum itself when Then is nil,
// which makes it a combiner too. A job with Into whose Reducer is a
// FloatSum (or a VectorSum) reduces by slot, without records, when its
// mapper implements IntoMapper, it has a combiner and the default
// partitioner, and the engine has a JobFamily (into.go).
type FloatSum struct {
	Then func(sum float64) float64
}

// Reduce implements Reducer. A value other than a Float64 is an error.
func (r FloatSum) Reduce(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
	var sum float64
	for _, v := range values {
		f, ok := v.(writable.Float64)
		if !ok {
			return fmt.Errorf("mapred: FloatSum: key %q holds a %T, not a Float64", key, v)
		}
		sum += float64(f)
	}
	emit.Emit(key, writable.Float64(r.apply(sum)))
	return nil
}

// apply is Then(sum), or sum without a Then.
func (r FloatSum) apply(sum float64) float64 {
	if r.Then == nil {
		return sum
	}
	return r.Then(sum)
}

// VectorSum is the Reducer that sums a key's Vector values
// component-wise in arrival order, starting from a copy of the first,
// and emits Then(sum) — a copy of the sum itself when Then is nil, which
// makes it a combiner too. Starting from the first value, not from
// zeros, keeps a component that is -0 in every value -0. Values of two
// lengths, or a value other than a Vector, are an error. Then must not
// retain its argument, which may be the runtime's buffer. A job with
// Into whose Reducer is a VectorSum reduces by slot as one with a
// FloatSum does (into.go).
type VectorSum struct {
	Then func(sum []float64) writable.Vector
}

// Reduce implements Reducer.
func (r VectorSum) Reduce(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
	var sum writable.Vector
	for i, v := range values {
		vec, ok := v.(writable.Vector)
		switch {
		case !ok:
			return fmt.Errorf("mapred: VectorSum: key %q holds a %T, not a Vector", key, v)
		case i == 0:
			sum = vec.Clone()
		case len(vec) != len(sum):
			return fmt.Errorf("mapred: VectorSum: key %q holds vectors of %d and %d components", key, len(sum), len(vec))
		default:
			addRow(sum, vec)
		}
	}
	if r.Then != nil {
		sum = r.Then(sum)
	}
	emit.Emit(key, sum)
	return nil
}

// addRow adds src into dst component by component; src is at least as
// long as dst.
func addRow(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// listEmitter collects emissions in order.
type listEmitter struct {
	records []Record
}

// Emit implements Emitter.
func (e *listEmitter) Emit(key string, value writable.Writable) {
	e.records = append(e.records, Record{Key: key, Value: value})
}

// mapAll applies mp to each of recs in order, collecting what it emits:
// the body of every map task.
func (e *listEmitter) mapAll(mp Mapper, recs []Record, m *model.Model) error {
	for _, rec := range recs {
		if err := mp.Map(rec.Key, rec.Value, m, e); err != nil {
			return err
		}
	}
	return nil
}

// RunMap runs a map task's body outside the engine: it applies mp to
// each of recs in order and returns everything it emitted, in emission
// order.
func RunMap(mp Mapper, recs []Record, m *model.Model) ([]Record, error) {
	var em listEmitter
	if err := em.mapAll(mp, recs, m); err != nil {
		return nil, err
	}
	return em.records, nil
}

// emitterPool recycles listEmitter record buffers between map tasks.
// Only buffers whose records have been copied out (or discarded) may be
// returned; tasks whose emissions are handed off wholesale simply never
// call putEmitter.
var emitterPool = sync.Pool{New: func() any { return &listEmitter{} }}

func getEmitter() *listEmitter { return emitterPool.Get().(*listEmitter) }

func putEmitter(e *listEmitter) {
	e.records = e.records[:0]
	emitterPool.Put(e)
}
