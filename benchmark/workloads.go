package main

// The workload table. Everything that distinguishes one workload from
// another lives in a row of this table as plain data; sut.go turns a
// row into the program's objects and nothing outside this file may
// branch on a workload's name.

// sizes are the seed-independent dimensions of a generated input.
type sizes struct {
	points, k, dims  int     // kmeans: points in dims dimensions, k clusters
	width, height    int     // smoothing: image size in pixels
	vertices, blocks int     // pagerank: graph size and number of nearly-uncoupled blocks
	crossFrac        float64 // pagerank: share of edges that cross blocks
	partitions       int     // PIC sub-problems
}

// faults is the seeded three-way fault script of a chaos workload, on
// the simulated clock.
type faults struct {
	crashNode int     // node that crashes
	crashAt   float64 // crash time (simulated s)
	period    float64 // cadence of outage, bit-error, poison and scrub events
	duty      float64 // share of each period a rack uplink is down
	rate      float64 // per-attempt bit-error probability inside a window
	offset    float64 // shifts the periodic events; a script that misses the run has a huge offset
	horizon   float64 // last scripted time
}

type spec struct {
	name, why string
	app       string // "kmeans", "smoothing" or "pagerank": generator and program
	cluster   string // "medium" (64 nodes, 6 racks) or "tenancy" (12 nodes, 4 racks, thin core)
	full      sizes
	quick     sizes // at most 1/20 of full, for the smoke test; never comparable to full

	bsp       bool    // run on the BSP backend
	hierMerge bool    // PIC merges through the rack tree
	deltaCkpt bool    // PIC writes sparse delta checkpoints
	chaos     *faults // crash + outages + corruption script, nil for none
	chaosFast *faults // the script at quick size (runs are shorter)
	tenancy   bool    // IC and PIC each run as a scheduler tenant beside a co-tenant
	observed  bool    // tracer + registry attached, telemetry collected and exported per op

	// tol bounds how far PIC's final model may be from IC's: for
	// kmeans the percent difference of the Jagota index, for the others
	// the largest per-key difference. Twice the largest gap seen on
	// seeds 1 to 40 (README.md has the gaps); about three times for
	// kmeans, whose gap is heavy-tailed: Lloyd's algorithm lands in
	// different local optima.
	tol float64
}

func (s *spec) size(quick bool) sizes {
	if quick {
		return s.quick
	}
	return s.full
}

func (s *spec) script(quick bool) *faults {
	if quick {
		return s.chaosFast
	}
	return s.chaos
}

// The pagerank family shares one graph shape and one cluster, so a
// difference between two of its cells is the one thing that cell
// changes.
var (
	prFull  = sizes{vertices: 10_000, blocks: 6, crossFrac: 0.05, partitions: 6}
	prQuick = sizes{vertices: 300, blocks: 6, crossFrac: 0.05, partitions: 6}
)

// chaosScript is the fault script of pagerank_chaos; the probes that
// price transfers and schedule tasks under faults use it on every
// workload's cluster.
var (
	chaosScript      = faults{crashNode: 7, crashAt: 3, period: 4, duty: 0.25, rate: 0.3, horizon: 2000}
	chaosScriptQuick = faults{crashNode: 7, crashAt: 0.3, period: 0.4, duty: 0.25, rate: 0.3, horizon: 200}
)

var workloads = []*spec{
	{
		name: "kmeans_fig2",
		why:  "record-heavy map kernel with a 25-key model: loads the apps kernel through mapred Run and RunLocal, bypasses model, dfs and simnet",
		app:  "kmeans", cluster: "medium",
		full:  sizes{points: 600_000, k: 25, dims: 3, partitions: 6},
		quick: sizes{points: 12_000, k: 25, dims: 3, partitions: 6},
		tol:   5,
	},
	{
		name: "smoothing_hier",
		why:  "few keys with 8 KB values, rack-tree merge and delta checkpoints: loads model codec, checkpoint and merge tree, the opposite model shape to pagerank",
		app:  "smoothing", cluster: "medium",
		full:      sizes{width: 1024, height: 512, partitions: 16},
		quick:     sizes{width: 1024, height: 24, partitions: 4},
		hierMerge: true, deltaCkpt: true,
		tol: 0.33,
	},
	{
		name: "pagerank_mapred",
		why:  "many tiny keys and two jobs per iteration: loads model map access and mapred sort, group and reduce; base cell of the pagerank family",
		app:  "pagerank", cluster: "tenancy", full: prFull, quick: prQuick,
		tol: 0.07,
	},
	{
		name: "pagerank_bsp",
		why:  "same graph and cluster on the BSP backend: loads the superstep engine and bypasses mapred, so a BSP gain shows here only",
		app:  "pagerank", cluster: "tenancy", full: prFull, quick: prQuick,
		bsp: true,
		tol: 0.07,
	},
	{
		name: "pagerank_chaos",
		why:  "same graph and cluster under a node crash, rack outages and bit errors: loads the fault trackers, transfer retries, dfs verify, scrub and repair",
		app:  "pagerank", cluster: "tenancy", full: prFull, quick: prQuick,
		chaos: &chaosScript, chaosFast: &chaosScriptQuick,
		tol: 0.085,
	},
	{
		name: "pagerank_tenancy_observed",
		why:  "same graph as scheduler tenants beside a co-tenant with tracer and registry on: the only workload that loads sched, trace, metrics and obs",
		app:  "pagerank", cluster: "tenancy", full: prFull, quick: prQuick,
		tenancy: true, observed: true,
		tol: 0.07,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
