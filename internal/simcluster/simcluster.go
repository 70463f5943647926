// Package simcluster models the compute side of a shared-nothing
// cluster: nodes with a fixed number of map and reduce task slots,
// grouped into racks, attached to a simnet fabric. The MapReduce runtime
// schedules tasks onto slots through this package and charges network
// transfers through the shared fabric.
//
// A Cluster value is a *view*: a subset of the nodes of one physical
// fabric. Sub-cluster views are how the PIC best-effort phase confines a
// sub-problem to a node group — jobs scheduled on a view only use that
// view's nodes, while traffic from all views meets in the one fabric.
package simcluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/corrupt"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Config describes a cluster: its size, slot counts, compute speed, and
// interconnect.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// RackSize is the number of nodes per rack.
	RackSize int
	// MapSlotsPerNode and ReduceSlotsPerNode bound per-node task
	// concurrency, like Hadoop's slot model.
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// ComputeRate is how many task cost units one slot retires per
	// simulated second.
	ComputeRate float64
	// NodeRateFactors optionally scales each node's compute rate
	// (heterogeneous hardware: a factor of 0.5 makes a node half
	// speed). Empty means uniform; otherwise it must have one entry
	// per node, each positive.
	NodeRateFactors []float64
	// NodeBandwidth, RackBandwidth and CoreBandwidth configure the
	// fabric (bytes/second); see simnet.Config.
	NodeBandwidth float64
	RackBandwidth float64
	CoreBandwidth float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("simcluster: Nodes = %d, must be positive", c.Nodes)
	}
	if c.RackSize <= 0 {
		return fmt.Errorf("simcluster: RackSize = %d, must be positive", c.RackSize)
	}
	if c.MapSlotsPerNode <= 0 || c.ReduceSlotsPerNode <= 0 {
		return fmt.Errorf("simcluster: slot counts must be positive (map=%d reduce=%d)",
			c.MapSlotsPerNode, c.ReduceSlotsPerNode)
	}
	if c.ComputeRate <= 0 {
		return fmt.Errorf("simcluster: ComputeRate = %g, must be positive", c.ComputeRate)
	}
	if len(c.NodeRateFactors) != 0 {
		if len(c.NodeRateFactors) != c.Nodes {
			return fmt.Errorf("simcluster: %d rate factors for %d nodes", len(c.NodeRateFactors), c.Nodes)
		}
		for i, f := range c.NodeRateFactors {
			if f <= 0 {
				return fmt.Errorf("simcluster: node %d rate factor %g, must be positive", i, f)
			}
		}
	}
	return c.NetConfig().Validate()
}

// NetConfig derives the fabric configuration.
func (c Config) NetConfig() simnet.Config {
	return simnet.Config{
		Nodes:         c.Nodes,
		RackSize:      c.RackSize,
		NodeBandwidth: c.NodeBandwidth,
		CoreBandwidth: c.CoreBandwidth,
		RackBandwidth: c.RackBandwidth,
	}
}

// Usage accumulates slot occupancy across every wave scheduled on one
// physical cluster: how long each node's slots ran completed task
// attempts, and how many attempts each node retired. All views over the
// same fabric share one accumulator, so best-effort group waves and
// full-cluster waves land in the same per-node totals.
type Usage struct {
	// SlotBusy is per-node busy seconds, indexed by global node id.
	SlotBusy []simtime.Duration
	// Tasks is per-node completed task attempts.
	Tasks []int
}

// MaxBusy returns the busiest node's slot-busy seconds.
func (u Usage) MaxBusy() simtime.Duration {
	var worst simtime.Duration
	for _, b := range u.SlotBusy {
		if b > worst {
			worst = b
		}
	}
	return worst
}

// TotalBusy returns the summed slot-busy seconds across nodes.
func (u Usage) TotalBusy() simtime.Duration {
	var total simtime.Duration
	for _, b := range u.SlotBusy {
		total += b
	}
	return total
}

// TotalTasks returns the summed completed task attempts.
func (u Usage) TotalTasks() int {
	var total int
	for _, t := range u.Tasks {
		total += t
	}
	return total
}

// computeLoad tracks the compute capacity co-tenants consume on each
// node: registered per-tenant fractions and their per-node aggregate,
// rebuilt in sorted-tenant order on every change so float summation is
// deterministic. Shared by every view over one fabric, like Usage.
type computeLoad struct {
	tenants map[string]map[int]float64 // tenant id -> node -> fraction
	agg     []float64                  // per-node aggregate, indexed by global id
}

// Cluster is a scheduling view over (a subset of) a fabric's nodes.
type Cluster struct {
	cfg    Config
	fabric *simnet.Fabric
	nodes  []int // sorted global node ids in this view
	// usage accumulates slot occupancy; shared by all views over the
	// same fabric (see Usage).
	usage *Usage
	// comp holds co-tenant compute occupancy; shared by derived views.
	comp *computeLoad
	// failplan, when set, scripts node crashes and recoveries against
	// the simulated clock (see SetFailurePlan). Shared by derived views.
	failplan *FailurePlan
	// corruptplan, when set, scripts silent data corruption (see
	// SetCorruptionPlan). Shared by derived views.
	corruptplan *corrupt.Plan
}

// New builds a full-cluster view and its fabric. It panics on an invalid
// configuration; topologies come from experiment code, not user input.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nodes := make([]int, cfg.Nodes)
	for i := range nodes {
		nodes[i] = i
	}
	usage := &Usage{SlotBusy: make([]simtime.Duration, cfg.Nodes), Tasks: make([]int, cfg.Nodes)}
	comp := &computeLoad{tenants: map[string]map[int]float64{}, agg: make([]float64, cfg.Nodes)}
	return &Cluster{cfg: cfg, fabric: simnet.New(cfg.NetConfig()), nodes: nodes, usage: usage, comp: comp}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Fabric returns the shared interconnect. All views over the same
// physical cluster return the same fabric.
func (c *Cluster) Fabric() *simnet.Fabric { return c.fabric }

// Nodes returns the global ids of the nodes in this view. The caller
// must not modify the returned slice.
func (c *Cluster) Nodes() []int { return c.nodes }

// Size reports the number of nodes in this view.
func (c *Cluster) Size() int { return len(c.nodes) }

// Contains reports whether the given global node id is in this view.
func (c *Cluster) Contains(node int) bool {
	i := sort.SearchInts(c.nodes, node)
	return i < len(c.nodes) && c.nodes[i] == node
}

// MapSlots reports the total map slots in this view.
func (c *Cluster) MapSlots() int { return len(c.nodes) * c.cfg.MapSlotsPerNode }

// ReduceSlots reports the total reduce slots in this view.
func (c *Cluster) ReduceSlots() int { return len(c.nodes) * c.cfg.ReduceSlotsPerNode }

// Subset returns a view restricted to the given global node ids, sharing
// this view's fabric and counters.
func (c *Cluster) Subset(nodes []int) *Cluster {
	if len(nodes) == 0 {
		panic("simcluster: empty subset")
	}
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	for i, n := range sorted {
		if n < 0 || n >= c.cfg.Nodes {
			panic(fmt.Sprintf("simcluster: node %d out of range", n))
		}
		if i > 0 && sorted[i-1] == n {
			panic(fmt.Sprintf("simcluster: duplicate node %d in subset", n))
		}
	}
	return &Cluster{cfg: c.cfg, fabric: c.fabric, nodes: sorted, usage: c.usage, comp: c.comp, failplan: c.failplan, corruptplan: c.corruptplan}
}

// Usage returns a snapshot of the slot-occupancy accumulator shared by
// every view over this cluster's fabric.
func (c *Cluster) Usage() Usage {
	return Usage{
		SlotBusy: append([]simtime.Duration(nil), c.usage.SlotBusy...),
		Tasks:    append([]int(nil), c.usage.Tasks...),
	}
}

// chargeUsage folds a wave's completed placements into the shared
// occupancy accumulator.
func (c *Cluster) chargeUsage(placements []Placement) {
	for _, p := range placements {
		c.usage.SlotBusy[p.Node] += p.End - p.Start
		c.usage.Tasks[p.Node]++
	}
}

// Groups splits this view into p disjoint sub-views of near-equal size,
// assigning contiguous node ranges so that groups align with racks
// whenever the arithmetic allows. It panics if p exceeds the view size.
func (c *Cluster) Groups(p int) []*Cluster {
	if p <= 0 || p > len(c.nodes) {
		panic(fmt.Sprintf("simcluster: cannot split %d nodes into %d groups", len(c.nodes), p))
	}
	groups := make([]*Cluster, p)
	for i := 0; i < p; i++ {
		lo := i * len(c.nodes) / p
		hi := (i + 1) * len(c.nodes) / p
		groups[i] = c.Subset(c.nodes[lo:hi])
	}
	return groups
}

// Task is one unit of schedulable work.
type Task struct {
	// Cost is the compute demand in cost units; duration on a slot is
	// Cost / ComputeRate.
	Cost float64
	// Preferred is the global id of the node holding the task's input
	// (for locality), or -1 for no preference.
	Preferred int
}

// Placement records where and when a scheduled task ran, in time
// relative to the start of its wave.
type Placement struct {
	Node       int
	Start, End simtime.Time
	// Local reports whether the task ran on its preferred node (always
	// true when there was no preference).
	Local bool
}

// Schedule assigns tasks to slots using greedy earliest-start list
// scheduling with locality preference: when several slots could start a
// task at the same earliest time, a slot on the task's preferred node
// wins. It returns the placements and the makespan. Scheduling is
// deterministic.
//
// slotsPerNode selects the slot pool (use Config.MapSlotsPerNode or
// ReduceSlotsPerNode).
func (c *Cluster) Schedule(tasks []Task, slotsPerNode int) ([]Placement, simtime.Duration) {
	if slotsPerNode <= 0 {
		panic("simcluster: slotsPerNode must be positive")
	}
	// free holds the sorted free times of the view's slots, those of
	// node c.nodes[i] at free[i*slotsPerNode:(i+1)*slotsPerNode].
	free := make([]simtime.Time, len(c.nodes)*slotsPerNode)
	placements := make([]Placement, len(tasks))
	var makespan simtime.Duration
	for ti, task := range tasks {
		if task.Cost < 0 {
			panic("simcluster: negative task cost")
		}
		// Earliest slot availability across the view.
		best := free[0]
		for i := slotsPerNode; i < len(free); i += slotsPerNode {
			if free[i] < best {
				best = free[i]
			}
		}
		// Prefer the task's home node when it can start equally early;
		// the view's sorted node ids index it.
		chosen := -1
		if pi, ok := slices.BinarySearch(c.nodes, task.Preferred); ok && free[pi*slotsPerNode] == best {
			chosen = pi
		} else {
			for i := range c.nodes {
				if free[i*slotsPerNode] == best {
					chosen = i
					break
				}
			}
		}
		dur := simtime.Duration(task.Cost / c.nodeRate(c.nodes[chosen]))
		end := best + dur
		placements[ti] = Placement{
			Node:  c.nodes[chosen],
			Start: best,
			End:   end,
			Local: task.Preferred < 0 || c.nodes[chosen] == task.Preferred,
		}
		// Re-insert the slot's new free time, keeping the list sorted.
		f := free[chosen*slotsPerNode : (chosen+1)*slotsPerNode]
		f[0] = end
		for j := 1; j < len(f) && f[j] < f[j-1]; j++ {
			f[j], f[j-1] = f[j-1], f[j]
		}
		if end > makespan {
			makespan = end
		}
	}
	c.chargeUsage(placements)
	return placements, makespan
}

// nodeRate is the compute rate of global node n, after any
// heterogeneous rate factor and the residual left by registered
// co-tenant compute loads.
func (c *Cluster) nodeRate(n int) float64 {
	rate := c.cfg.ComputeRate
	if len(c.cfg.NodeRateFactors) > 0 {
		rate *= c.cfg.NodeRateFactors[n]
	}
	if share := c.comp.agg[n]; share > 0 {
		if left := 1 - share; left > minComputeResidual {
			rate *= left
		} else {
			rate *= minComputeResidual
		}
	}
	return rate
}

// minComputeResidual bounds how far co-tenants can squeeze a node: even
// a fully loaded node retires foreground work at 5% speed, mirroring
// simnet's residual-capacity floor.
const minComputeResidual = 0.05

// SetTenantCompute registers (or replaces) the compute occupancy of the
// co-tenant identified by id: for each listed global node, the fraction
// of that node's compute capacity the tenant consumes while its work
// overlaps other jobs'. Fractions must lie in [0, 1]. The registration
// is shared by every view over this cluster's fabric.
func (c *Cluster) SetTenantCompute(id string, perNode map[int]float64) {
	for n, v := range perNode {
		if n < 0 || n >= c.cfg.Nodes {
			panic(fmt.Sprintf("simcluster: node %d out of range", n))
		}
		if v != v || v < 0 || v > 1 {
			panic(fmt.Sprintf("simcluster: tenant compute share %g on node %d outside [0, 1]", v, n))
		}
	}
	copied := make(map[int]float64, len(perNode))
	for n, v := range perNode {
		copied[n] = v
	}
	c.comp.tenants[id] = copied
	c.comp.recompute()
}

// ClearTenantCompute removes a registered compute occupancy. Clearing
// an unknown id is a no-op.
func (c *Cluster) ClearTenantCompute(id string) {
	if _, ok := c.comp.tenants[id]; !ok {
		return
	}
	delete(c.comp.tenants, id)
	c.comp.recompute()
}

// ClearAllTenantCompute removes every registered compute occupancy.
func (c *Cluster) ClearAllTenantCompute() {
	if len(c.comp.tenants) == 0 {
		return
	}
	c.comp.tenants = map[string]map[int]float64{}
	c.comp.recompute()
}

// NodeComputeLoad reports the aggregate co-tenant compute share on
// global node n.
func (c *Cluster) NodeComputeLoad(n int) float64 { return c.comp.agg[n] }

// MaxComputeLoad reports the largest aggregate co-tenant compute share
// across all nodes — the telemetry layer's one-number summary of how
// contended the cluster's compute is right now.
func (c *Cluster) MaxComputeLoad() float64 {
	var max float64
	for _, v := range c.comp.agg {
		if v > max {
			max = v
		}
	}
	return max
}

// recompute rebuilds the per-node aggregate in sorted-tenant order.
func (l *computeLoad) recompute() {
	for i := range l.agg {
		l.agg[i] = 0
	}
	ids := make([]string, 0, len(l.tenants))
	for id := range l.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for n, v := range l.tenants[id] {
			l.agg[n] += v
		}
	}
}
