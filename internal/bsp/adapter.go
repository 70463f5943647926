package bsp

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/mapred"
	"repro/internal/model"
)

// The partition-level adapter runs an unmodified mapred.Job as a BSP
// program: each input split is a "split vertex" that runs the real
// Mapper in superstep 0 and sends each post-combine intermediate record
// as a message (tag = key) to a "reduce vertex", which runs the real
// Reducer in superstep 1. Map-only jobs finish in one superstep with no
// messages. This is how the three apps without native vertex programs
// (kmeans, neuralnet, linsolve) — and framework jobs like the
// distributed merge — execute on the BSP backend: the shuffle becomes a
// message exchange priced on the same fabric, and the job-overhead
// phase becomes barrier time, which is precisely the cost trade Pace's
// BSP-vs-MapReduce comparison measures.

// jobProgram adapts one mapred.Job. It implements VertexCoster to
// reproduce mapred task cost accounting (per-record map cost, per-byte
// input cost, per-value reduce cost, per-byte emit cost).
type jobProgram struct {
	job    *mapred.Job
	in     *mapred.Input
	m      *model.Model
	cost   CostModel
	nSplit int
	nRed   int
	verts  []VertexInfo // split i at i, reducer j at nSplit+j
	part   mapred.Partitioner
	outs   [][]mapred.Record
	vcost  []float64
}

// The ids are labels: they size the messages bound for a reducer.
func splitVertexID(i int) string  { return "s" + strconv.Itoa(i) }
func reduceVertexID(j int) string { return "r" + strconv.Itoa(j) }

// newJobProgram builds the adapter. numReducers must already be
// resolved (0 means map-only). Reduce vertices carry Home -1 so the
// engine deals them over live nodes — which keeps reducer placement
// crash-aware for free.
func newJobProgram(job *mapred.Job, in *mapred.Input, m *model.Model, cost CostModel, numReducers int) *jobProgram {
	p := &jobProgram{
		job:    job,
		in:     in,
		m:      m,
		cost:   cost,
		nSplit: len(in.Splits),
		nRed:   numReducers,
		part:   job.Partition,
	}
	if p.part == nil {
		p.part = mapred.HashPartition
	}
	p.verts = make([]VertexInfo, 0, p.nSplit+p.nRed)
	for i := range in.Splits {
		p.verts = append(p.verts, VertexInfo{ID: splitVertexID(i), Home: in.Splits[i].Home})
	}
	for j := 0; j < p.nRed; j++ {
		p.verts = append(p.verts, VertexInfo{ID: reduceVertexID(j), Home: -1})
	}
	p.outs = make([][]mapred.Record, len(p.verts))
	p.vcost = make([]float64, len(p.verts))
	return p
}

func (p *jobProgram) Vertices() []VertexInfo { return p.verts }

func (p *jobProgram) VertexCost(step, v int) float64 { return p.vcost[v] }

func (p *jobProgram) Compute(step, v int, in Inbox, s Sender) (bool, error) {
	if v < p.nSplit {
		if step != 0 {
			return true, nil // split vertices only work in superstep 0
		}
		return true, p.computeSplit(v, s)
	}
	if step == 0 {
		return true, nil // reduce vertices wait for messages
	}
	return true, p.computeReduce(v, in.Msgs)
}

func (p *jobProgram) computeSplit(v int, s Sender) error {
	split := &p.in.Splits[v]
	emitted, err := mapred.RunMap(p.job.Mapper, split.Records, p.m)
	if err != nil {
		return err
	}
	// Map task cost mirrors mapred: input records + input bytes +
	// pre-combine emitted bytes.
	p.vcost[v] = p.cost.splitTask(len(split.Records), split.Bytes, mapred.RecordsSize(emitted))
	if p.nRed == 0 {
		p.outs[v] = emitted // in emission order, as a mapred map-only task's
		return nil
	}
	// The partitions go on the wire as the mapred map pipeline leaves
	// them: combined when the job has a combiner.
	parts, err := mapred.PartitionAndCombine(p.job.Combiner, emitted, p.m, p.nRed, p.part)
	if err != nil {
		return err
	}
	for j, part := range parts {
		for _, r := range part {
			s.Send(p.nSplit+j, r.Key, r.Value)
		}
	}
	return nil
}

func (p *jobProgram) computeReduce(v int, msgs []Message) error {
	recs := make([]mapred.Record, len(msgs))
	for i, mg := range msgs {
		recs[i] = mapred.Record{Key: mg.Tag, Value: mg.Value}
	}
	out, err := mapred.RunGrouped(p.job.Reducer, recs, p.m)
	if err != nil {
		return err
	}
	p.outs[v] = out
	p.vcost[v] = p.cost.reduceTask(len(msgs), mapred.RecordsSize(out))
	return nil
}

// output assembles a mapred.Output from the completed program, as the
// mapred engine delivers it (mapred.Job.Deliver): a map-only job's
// split vertices' emissions in split order, or the reduce vertices'
// outputs in reducer index order with the nodes they ran on — into
// Job.Into when the job has one.
func (p *jobProgram) output(homes []int) *mapred.Output {
	if p.nRed == 0 {
		return p.job.Deliver(p.outs[:p.nSplit], nil)
	}
	return p.job.Deliver(p.outs[p.nSplit:], slices.Clone(homes[p.nSplit:]))
}

// RunJob executes a mapred job through the partition-level adapter and
// returns its output in mapred shape plus the BSP run result. The
// job's cost override (Job.Cost) is honored by deriving a BSP cost
// model from it.
func RunJob(e *Engine, job *mapred.Job, in *mapred.Input, m *model.Model, opt *RunOptions) (*mapred.Output, *Result, error) {
	if job.Mapper == nil {
		return nil, nil, fmt.Errorf("bsp: job %q has no mapper", job.Name)
	}
	if err := job.CheckInto(m); err != nil {
		return nil, nil, err
	}
	o := RunOptions{}
	if opt != nil {
		o = *opt
	}
	if o.Name == "" {
		o.Name = job.Name
	}
	o.Model = m
	o.PartitionedModel = job.PartitionedModel
	cost := e.cost
	if job.Cost != nil {
		if err := job.Cost.Validate(); err != nil {
			return nil, nil, fmt.Errorf("bsp: job %q: %w", job.Name, err)
		}
		cost = DeriveCost(*job.Cost)
	}
	numReducers := 0
	if job.Reducer != nil {
		numReducers = job.NumReducers
		if numReducers <= 0 {
			numReducers = e.cluster.ReduceSlots()
		}
	}
	build := func() (Program, error) {
		return newJobProgram(job, in, m, cost, numReducers), nil
	}
	res, err := e.Run(build, &o)
	if err != nil {
		return nil, nil, err
	}
	jp := res.Program.(*jobProgram)
	return jp.output(res.Homes), res, nil
}
