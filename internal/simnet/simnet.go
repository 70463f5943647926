// Package simnet models the cluster interconnect: a two-level tree of
// node NICs feeding rack switches that attach to an (oversubscribed)
// core switch. This is the topology whose bisection bandwidth the PIC
// paper identifies as the scarce resource stressed by MapReduce shuffle
// traffic.
//
// The fabric uses a bottleneck transfer model: the time for a set of
// concurrent flows is the utilization of the most-loaded resource (a node
// uplink or downlink, a rack uplink or downlink, or the core). The model
// is deterministic, conserves bytes, and captures the property that
// matters for PIC — cross-rack traffic contends for core bandwidth that
// does not grow with cluster size, while intra-node transfers are free.
package simnet

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Config describes the fabric topology and link speeds.
type Config struct {
	// Nodes is the number of compute nodes attached to the fabric.
	Nodes int
	// RackSize is the number of nodes per rack. The last rack may be
	// partially filled.
	RackSize int
	// NodeBandwidth is the full-duplex NIC speed per direction, in
	// bytes per second (1 GbE ≈ 125e6).
	NodeBandwidth float64
	// CoreBandwidth is the aggregate bisection bandwidth of the core,
	// in bytes per second. Cross-rack traffic in either direction
	// shares it.
	CoreBandwidth float64
	// RackBandwidth is the uplink speed of each rack switch to the
	// core, per direction, in bytes per second.
	RackBandwidth float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("simnet: Nodes = %d, must be positive", c.Nodes)
	case c.RackSize <= 0:
		return fmt.Errorf("simnet: RackSize = %d, must be positive", c.RackSize)
	case c.NodeBandwidth <= 0:
		return fmt.Errorf("simnet: NodeBandwidth = %g, must be positive", c.NodeBandwidth)
	case c.CoreBandwidth <= 0:
		return fmt.Errorf("simnet: CoreBandwidth = %g, must be positive", c.CoreBandwidth)
	case c.RackBandwidth <= 0:
		return fmt.Errorf("simnet: RackBandwidth = %g, must be positive", c.RackBandwidth)
	}
	return nil
}

// Racks reports the number of racks implied by the configuration.
func (c Config) Racks() int { return (c.Nodes + c.RackSize - 1) / c.RackSize }

// Flow is a point-to-point transfer of Bytes from node Src to node Dst.
// A flow with Src == Dst is an in-memory hand-off: it takes no time and
// is not counted as network traffic.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// Counters accumulates the traffic a fabric has carried. All fields are
// bytes.
type Counters struct {
	// Total is every byte that crossed a node boundary.
	Total int64
	// CrossRack is the subset of Total that crossed the core switch.
	CrossRack int64
	// IntraRack is the subset of Total that stayed within one rack.
	IntraRack int64
	// Local is bytes "transferred" within a single node (free).
	Local int64
	// Transfers counts network flows (Src != Dst, Bytes > 0).
	Transfers int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Total += o.Total
	c.CrossRack += o.CrossRack
	c.IntraRack += o.IntraRack
	c.Local += o.Local
	c.Transfers += o.Transfers
}

// Utilization accumulates per-link busy time: for every byte the fabric
// carries, each traversed resource is busy bytes/bandwidth seconds.
// Busy time is charged from the same Record calls that feed Counters, so
// the two views are always consistent. Because concurrent flows share
// links, busy time is transmission time, not wall time: a link's busy
// seconds can exceed the simulated span when the simulation overlaps
// transfers on it.
type Utilization struct {
	// NodeUp and NodeDown are per-node NIC busy seconds (egress and
	// ingress), indexed by global node id.
	NodeUp, NodeDown []simtime.Duration
	// RackUp and RackDown are per-rack uplink busy seconds, indexed by
	// rack id.
	RackUp, RackDown []simtime.Duration
	// Core is bisection busy seconds: cross-rack bytes over the core
	// bandwidth.
	Core simtime.Duration
}

// MaxNode returns the busiest node's combined up+down busy time.
func (u Utilization) MaxNode() simtime.Duration {
	var worst simtime.Duration
	for i := range u.NodeUp {
		if b := u.NodeUp[i] + u.NodeDown[i]; b > worst {
			worst = b
		}
	}
	return worst
}

// MaxRack returns the busiest rack uplink's combined busy time.
func (u Utilization) MaxRack() simtime.Duration {
	var worst simtime.Duration
	for i := range u.RackUp {
		if b := u.RackUp[i] + u.RackDown[i]; b > worst {
			worst = b
		}
	}
	return worst
}

// TenantLoad is the sustained background utilization one co-tenant
// imposes on the fabric while its traffic overlaps other jobs', as
// fractions of each capacity class in [0, 1]. Missing map entries mean
// zero. Registered loads reduce the capacity the transfer-time models
// see: this is how concurrent jobs on one shared cluster slow each
// other down on the links they share.
type TenantLoad struct {
	// NodeUp and NodeDown are per-node NIC fractions (egress and
	// ingress), keyed by global node id.
	NodeUp, NodeDown map[int]float64
	// RackUp and RackDown are per-rack uplink fractions, keyed by rack.
	RackUp, RackDown map[int]float64
	// Core is the fraction of the core bisection bandwidth consumed.
	Core float64
}

// minResidualCapacity bounds how far background load can squeeze a
// link: even a saturated co-tenant leaves 5% of the capacity, the way
// fair queueing guarantees a throttled flow forward progress.
const minResidualCapacity = 0.05

// residual converts an aggregate background share into the capacity
// fraction left for a foreground transfer.
func residual(share float64) float64 {
	if r := 1 - share; r > minResidualCapacity {
		return r
	}
	return minResidualCapacity
}

// Fabric is an instantiated interconnect with traffic counters.
type Fabric struct {
	cfg      Config
	counters Counters
	util     Utilization

	// tenants holds registered background loads; the bg* fields are the
	// per-resource aggregates, recomputed in sorted-tenant order on
	// every change so summation order (and therefore float rounding) is
	// deterministic.
	tenants              map[string]TenantLoad
	bgNodeUp, bgNodeDown []float64
	bgRackUp, bgRackDown []float64
	bgCore               float64

	// netplan is the registered network fault script (nil when none);
	// see netplan.go.
	netplan *NetworkPlan
}

// New builds a fabric from cfg. It panics if cfg is invalid; topology
// parameters come from experiment code, not user input.
func New(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Fabric{cfg: cfg, util: Utilization{
		NodeUp:   make([]simtime.Duration, cfg.Nodes),
		NodeDown: make([]simtime.Duration, cfg.Nodes),
		RackUp:   make([]simtime.Duration, cfg.Racks()),
		RackDown: make([]simtime.Duration, cfg.Racks()),
	},
		tenants:    map[string]TenantLoad{},
		bgNodeUp:   make([]float64, cfg.Nodes),
		bgNodeDown: make([]float64, cfg.Nodes),
		bgRackUp:   make([]float64, cfg.Racks()),
		bgRackDown: make([]float64, cfg.Racks()),
	}
}

// validateShare panics on an unusable load fraction; loads come from
// scheduler code, not user input.
func (f *Fabric) validateShare(v float64, what string) {
	if v != v || v < 0 || v > 1 {
		panic(fmt.Sprintf("simnet: tenant load %s = %g outside [0, 1]", what, v))
	}
}

// SetTenantLoad registers (or replaces) the background load of the
// co-tenant identified by id. Fractions must lie in [0, 1]; per-node and
// per-rack indices must exist in the topology.
func (f *Fabric) SetTenantLoad(id string, load TenantLoad) {
	f.validateShare(load.Core, "Core")
	for n, v := range load.NodeUp {
		f.Rack(n) // bounds check
		f.validateShare(v, fmt.Sprintf("NodeUp[%d]", n))
	}
	for n, v := range load.NodeDown {
		f.Rack(n)
		f.validateShare(v, fmt.Sprintf("NodeDown[%d]", n))
	}
	racks := f.cfg.Racks()
	for r, v := range load.RackUp {
		if r < 0 || r >= racks {
			panic(fmt.Sprintf("simnet: rack %d out of range [0,%d)", r, racks))
		}
		f.validateShare(v, fmt.Sprintf("RackUp[%d]", r))
	}
	for r, v := range load.RackDown {
		if r < 0 || r >= racks {
			panic(fmt.Sprintf("simnet: rack %d out of range [0,%d)", r, racks))
		}
		f.validateShare(v, fmt.Sprintf("RackDown[%d]", r))
	}
	f.tenants[id] = load
	f.recomputeBackground()
}

// ClearTenantLoad removes a registered background load. Clearing an
// unknown id is a no-op.
func (f *Fabric) ClearTenantLoad(id string) {
	if _, ok := f.tenants[id]; !ok {
		return
	}
	delete(f.tenants, id)
	f.recomputeBackground()
}

// ClearAllTenantLoads removes every registered background load.
func (f *Fabric) ClearAllTenantLoads() {
	if len(f.tenants) == 0 {
		return
	}
	f.tenants = map[string]TenantLoad{}
	f.recomputeBackground()
}

// TenantLoads reports the registered co-tenant ids, sorted.
func (f *Fabric) TenantLoads() []string {
	out := make([]string, 0, len(f.tenants))
	for id := range f.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CoreLoad reports the aggregate background share of the core bisection.
func (f *Fabric) CoreLoad() float64 { return f.bgCore }

// recomputeBackground rebuilds the per-resource aggregates from scratch
// in sorted-tenant order.
func (f *Fabric) recomputeBackground() {
	clear(f.bgNodeUp)
	clear(f.bgNodeDown)
	clear(f.bgRackUp)
	clear(f.bgRackDown)
	f.bgCore = 0
	for _, id := range f.TenantLoads() {
		load := f.tenants[id]
		for n, v := range load.NodeUp {
			f.bgNodeUp[n] += v
		}
		for n, v := range load.NodeDown {
			f.bgNodeDown[n] += v
		}
		for r, v := range load.RackUp {
			f.bgRackUp[r] += v
		}
		for r, v := range load.RackDown {
			f.bgRackDown[r] += v
		}
		f.bgCore += load.Core
	}
	// Map iteration order inside one tenant's load is the remaining
	// nondeterminism; summing each map into its slot independently is
	// order-sensitive only across tenants, which the sorted loop fixes.
	// Within one map the additions target distinct slots, so order does
	// not matter.
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Rack reports the rack that node n belongs to.
func (f *Fabric) Rack(n int) int {
	if n < 0 || n >= f.cfg.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", n, f.cfg.Nodes))
	}
	return n / f.cfg.RackSize
}

// Counters returns a snapshot of the traffic carried so far.
func (f *Fabric) Counters() Counters { return f.counters }

// Utilization returns a snapshot of the per-link busy time accumulated
// so far.
func (f *Fabric) Utilization() Utilization {
	u := f.util
	u.NodeUp = append([]simtime.Duration(nil), f.util.NodeUp...)
	u.NodeDown = append([]simtime.Duration(nil), f.util.NodeDown...)
	u.RackUp = append([]simtime.Duration(nil), f.util.RackUp...)
	u.RackDown = append([]simtime.Duration(nil), f.util.RackDown...)
	return u
}

// CoreBusy returns the accumulated bisection busy time without copying
// the per-link slices — cheap enough for event-boundary sampling.
func (f *Fabric) CoreBusy() simtime.Duration { return f.util.Core }

// ResetCounters zeroes the traffic counters.
func (f *Fabric) ResetCounters() { f.counters = Counters{} }

// TransferTime computes, without recording any traffic, how long the
// given set of concurrent flows takes under the bottleneck model on an
// unfaulted fabric: price under the identity overlay, which severs
// nothing.
func (f *Fabric) TransferTime(flows []Flow) simtime.Duration {
	d, _ := f.price(flows, &identityOverlay, 0)
	return d
}

// price is the bottleneck model: the time for a set of concurrent flows
// started at time t is the utilization of the most-loaded resource,
// each resource serving with whatever capacity the registered co-tenant
// loads and the overlay's brownout factors leave it. A flow whose path
// the overlay severs fails the whole set with a typed *TransferError
// (unreachable) naming it. Multiplying a capacity by a factor of
// exactly 1 is exact in IEEE-754, so pricing under the identity overlay
// is float-identical to pricing with no overlay at all.
func (f *Fabric) price(flows []Flow, ov *overlay, t simtime.Time) (simtime.Duration, error) {
	up := make(map[int]int64)   // node -> egress bytes
	down := make(map[int]int64) // node -> ingress bytes
	rackUp := make(map[int]int64)
	rackDown := make(map[int]int64)
	var core int64
	for _, fl := range flows {
		if fl.Bytes < 0 {
			panic("simnet: negative flow size")
		}
		if fl.Src == fl.Dst || fl.Bytes == 0 {
			continue
		}
		sr, dr := f.Rack(fl.Src), f.Rack(fl.Dst)
		if ov.severs(fl.Src, fl.Dst, sr, dr) {
			return 0, &TransferError{Kind: TransferUnreachable, Src: fl.Src, Dst: fl.Dst, At: t}
		}
		up[fl.Src] += fl.Bytes
		down[fl.Dst] += fl.Bytes
		if sr != dr {
			core += fl.Bytes
			rackUp[sr] += fl.Bytes
			rackDown[dr] += fl.Bytes
		}
	}
	var worst simtime.Duration
	for n, b := range up {
		worst = max(worst, simtime.Duration(float64(b)/(f.cfg.NodeBandwidth*residual(f.bgNodeUp[n])*ov.nodeFactor(n))))
	}
	for n, b := range down {
		worst = max(worst, simtime.Duration(float64(b)/(f.cfg.NodeBandwidth*residual(f.bgNodeDown[n])*ov.nodeFactor(n))))
	}
	for r, b := range rackUp {
		worst = max(worst, simtime.Duration(float64(b)/(f.cfg.RackBandwidth*residual(f.bgRackUp[r])*ov.rackFactor(r))))
	}
	for r, b := range rackDown {
		worst = max(worst, simtime.Duration(float64(b)/(f.cfg.RackBandwidth*residual(f.bgRackDown[r])*ov.rackFactor(r))))
	}
	worst = max(worst, simtime.Duration(float64(core)/(f.cfg.CoreBandwidth*residual(f.bgCore)*ov.core)))
	return worst, nil
}

// Transfer records the traffic of the given concurrent flows and returns
// the time they take. It is the combination of Record and TransferTime.
func (f *Fabric) Transfer(flows []Flow) simtime.Duration {
	f.Record(flows)
	return f.TransferTime(flows)
}

// Record accumulates the byte counters for flows without computing a
// duration. Use it when a higher-level model charges time separately.
func (f *Fabric) Record(flows []Flow) {
	for _, fl := range flows {
		if fl.Bytes < 0 {
			panic("simnet: negative flow size")
		}
		if fl.Bytes == 0 {
			continue
		}
		if fl.Src == fl.Dst {
			f.counters.Local += fl.Bytes
			continue
		}
		f.counters.Total += fl.Bytes
		f.counters.Transfers++
		f.util.NodeUp[fl.Src] += simtime.Duration(float64(fl.Bytes) / f.cfg.NodeBandwidth)
		f.util.NodeDown[fl.Dst] += simtime.Duration(float64(fl.Bytes) / f.cfg.NodeBandwidth)
		if sr, dr := f.Rack(fl.Src), f.Rack(fl.Dst); sr != dr {
			f.counters.CrossRack += fl.Bytes
			f.util.RackUp[sr] += simtime.Duration(float64(fl.Bytes) / f.cfg.RackBandwidth)
			f.util.RackDown[dr] += simtime.Duration(float64(fl.Bytes) / f.cfg.RackBandwidth)
			f.util.Core += simtime.Duration(float64(fl.Bytes) / f.cfg.CoreBandwidth)
		} else {
			f.counters.IntraRack += fl.Bytes
		}
	}
}
