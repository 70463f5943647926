package bsp

import (
	"fmt"

	"repro/internal/mapred"
	"repro/internal/simtime"
)

// CostModel prices BSP execution in the same cost units as
// mapred.CostModel (retired at simcluster.Config.ComputeRate units per
// second per slot). The defaults are derived from the mapred model so
// the two backends price equivalent work equivalently: a vertex update
// costs what a map record costs, consuming a message costs what a
// grouped reduce value costs, and emitted message bytes cost what
// emitted intermediate bytes cost. Only the barrier terms are new —
// BSP replaces the per-job overhead + shuffle of mapred with a
// per-superstep barrier, which is exactly the trade Pace's
// BSP-vs-MapReduce comparison prices.
type CostModel struct {
	// ComputePerVertex is charged for each vertex update (each active
	// vertex Compute call), mirroring MapCostPerRecord.
	ComputePerVertex float64
	// ComputePerByte is charged per input byte a partition-level
	// vertex reads, mirroring MapCostPerByte (used by the mapred
	// adapter; native vertex programs carry their input in messages
	// and the model).
	ComputePerByte float64
	// ComputePerMessage is charged for each delivered message a vertex
	// consumes, mirroring ReduceCostPerValue.
	ComputePerMessage float64
	// EmitPerByte is charged for each message byte a vertex sends
	// (serialization), mirroring EmitCostPerByte.
	EmitPerByte float64
	// BarrierOverhead is the fixed coordination cost of one global
	// barrier, on top of the priced token exchange. A barrier is far
	// cheaper than a full job start/finish: the workers are already
	// resident, so the default is JobOverhead/10.
	BarrierOverhead simtime.Duration
	// BarrierTokenBytes is the size of the per-node barrier token
	// shipped to the coordinator and back each superstep.
	BarrierTokenBytes int64
	// LocalComputeFactor scales compute for in-memory local execution
	// (RunOptions.Local), mirroring mapred's factor: PIC best-effort
	// local solves skip framework per-record overhead on either
	// backend.
	LocalComputeFactor float64
}

// DeriveCost maps a mapred cost model onto BSP pricing. This is the
// only way bench and core construct BSP cost models, so an ablation
// that sweeps the mapred knobs sweeps both backends coherently.
func DeriveCost(c mapred.CostModel) CostModel {
	return CostModel{
		ComputePerVertex:   c.MapCostPerRecord,
		ComputePerByte:     c.MapCostPerByte,
		ComputePerMessage:  c.ReduceCostPerValue,
		EmitPerByte:        c.EmitCostPerByte,
		BarrierOverhead:    c.JobOverhead / 10,
		BarrierTokenBytes:  64,
		LocalComputeFactor: c.LocalComputeFactor,
	}
}

// DefaultCostModel is DeriveCost over mapred's defaults.
func DefaultCostModel() CostModel {
	return DeriveCost(mapred.DefaultCostModel())
}

// vertex is the default compute cost of one Compute call that consumed
// in messages and sent sentBytes (see VertexCoster). Each product is
// converted before it is added, here and below, as in mapred's
// CostModel: without the conversion the compiler may fuse multiply and
// add (the spec allows it, and arm64 does), and simulated seconds would
// depend on the host.
func (c CostModel) vertex(in int, sentBytes int64) float64 {
	return c.ComputePerVertex +
		float64(c.ComputePerMessage*float64(in)) +
		float64(c.EmitPerByte*float64(sentBytes))
}

// splitTask is the cost of an adapter split vertex, as mapred prices a
// map task: its input records and bytes plus its pre-combine output.
func (c CostModel) splitTask(records int, inBytes, outBytes int64) float64 {
	return float64(float64(records)*c.ComputePerVertex) +
		float64(float64(inBytes)*c.ComputePerByte) +
		float64(float64(outBytes)*c.EmitPerByte)
}

// reduceTask is the cost of an adapter reduce vertex, as mapred prices
// a reduce task: the values it consumed plus its output.
func (c CostModel) reduceTask(values int, outBytes int64) float64 {
	return float64(float64(values)*c.ComputePerMessage) +
		float64(float64(outBytes)*c.EmitPerByte)
}

// Validate reports whether the cost model is usable.
func (c CostModel) Validate() error {
	if c.ComputePerVertex < 0 || c.ComputePerByte < 0 || c.ComputePerMessage < 0 || c.EmitPerByte < 0 {
		return fmt.Errorf("bsp: negative cost rate")
	}
	if c.BarrierOverhead < 0 {
		return fmt.Errorf("bsp: negative BarrierOverhead")
	}
	if c.BarrierTokenBytes < 0 {
		return fmt.Errorf("bsp: negative BarrierTokenBytes")
	}
	if c.LocalComputeFactor <= 0 {
		return fmt.Errorf("bsp: LocalComputeFactor must be positive")
	}
	return nil
}
