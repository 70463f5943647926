package mapred

import "repro/internal/simtime"

// CostModel translates the real work a job performed into simulated
// compute cost units (retired at simcluster.Config.ComputeRate units per
// second per slot) and fixes the job's structural overheads. Costs are
// charged against counts measured from the actual execution — records
// processed, bytes emitted — so relative costs between the IC and PIC
// schemes fall out of the algorithms themselves.
type CostModel struct {
	// MapCostPerRecord is charged for each input record a map task
	// consumes.
	MapCostPerRecord float64
	// MapCostPerByte is charged for each input byte a map task reads.
	MapCostPerByte float64
	// EmitCostPerByte is charged for each byte a map or reduce task
	// emits (serialization + spill).
	EmitCostPerByte float64
	// ReduceCostPerValue is charged for each grouped value a reduce
	// task consumes.
	ReduceCostPerValue float64
	// ShuffleOverlap is the fraction of shuffle time hidden under the
	// map phase (Hadoop overlaps shuffle with mapping; §II notes this
	// is a well-known optimization the baseline gets). 0 ≤ v < 1.
	ShuffleOverlap float64
	// JobOverhead is the fixed start/finish cost of one job. The paper
	// subtracts repeated-initialization overhead from its baseline, so
	// the default is small; both IC and PIC pay it per job.
	JobOverhead simtime.Duration
	// LocalComputeFactor scales per-record compute for in-memory local
	// execution (Engine.RunLocal) relative to framework execution. The
	// best-effort phase of PIC runs the same map/reduce code as a
	// tight loop without per-record serialization, record-reader and
	// context-switch overhead; measurements of Hadoop-era per-record
	// framework cost versus raw loops put the ratio around 3:1, so the
	// default is 1/3. The ablation benches sweep this knob.
	LocalComputeFactor float64
}

// DefaultCostModel returns the cost model used when a job does not
// provide one. The per-record cost corresponds to a few thousand machine
// operations — the right order for distance computations, rank updates
// and gradient contributions on Hadoop-era Xeons once per-record
// framework overhead is included.
func DefaultCostModel() CostModel {
	return CostModel{
		MapCostPerRecord:   4000,
		MapCostPerByte:     2,
		EmitCostPerByte:    4,
		ReduceCostPerValue: 1500,
		ShuffleOverlap:     0.5,
		JobOverhead:        0.5,
		LocalComputeFactor: 1.0 / 3.0,
	}
}

// mapTask is the cost of a framework map task over split that emitted
// outBytes: its input records and bytes plus its pre-combine output.
// Each product is converted before it is added, here and in reduceTask:
// without the conversion the compiler may fuse multiply and add (the
// spec allows it, and arm64 does), and simulated seconds would depend
// on the host.
func (c CostModel) mapTask(split Split, outBytes int64) float64 {
	return float64(c.MapCostPerRecord*float64(len(split.Records))) +
		float64(c.MapCostPerByte*float64(split.Bytes)) +
		float64(c.EmitCostPerByte*float64(outBytes))
}

// reduceTask is the cost of a framework reduce task that consumed
// values grouped values and emitted outBytes.
func (c CostModel) reduceTask(values, outBytes int64) float64 {
	return float64(c.ReduceCostPerValue*float64(values)) +
		float64(c.EmitCostPerByte*float64(outBytes))
}

// Validate reports whether the cost model is usable.
func (c CostModel) Validate() error {
	if c.ShuffleOverlap < 0 || c.ShuffleOverlap >= 1 {
		return errOverlap
	}
	if c.MapCostPerRecord < 0 || c.MapCostPerByte < 0 || c.EmitCostPerByte < 0 ||
		c.ReduceCostPerValue < 0 || c.JobOverhead < 0 {
		return errNegativeCost
	}
	if c.LocalComputeFactor <= 0 {
		return errLocalFactor
	}
	return nil
}

var (
	errOverlap      = costErr("ShuffleOverlap must be in [0,1)")
	errNegativeCost = costErr("cost components must be non-negative")
	errLocalFactor  = costErr("LocalComputeFactor must be positive")
)

type costErr string

func (e costErr) Error() string { return "mapred: " + string(e) }
