package simcluster

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func testConfig() Config {
	return Config{
		Nodes:              4,
		RackSize:           2,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		ComputeRate:        10,
		NodeBandwidth:      100,
		RackBandwidth:      200,
		CoreBandwidth:      200,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig()
	bad.MapSlotsPerNode = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero map slots accepted")
	}
	bad = testConfig()
	bad.ComputeRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero compute rate accepted")
	}
	bad = testConfig()
	bad.NodeBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestNewClusterView(t *testing.T) {
	c := New(testConfig())
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4", c.Size())
	}
	if c.MapSlots() != 8 || c.ReduceSlots() != 4 {
		t.Fatalf("slots = %d/%d, want 8/4", c.MapSlots(), c.ReduceSlots())
	}
	for i, n := range c.Nodes() {
		if n != i {
			t.Fatalf("Nodes() = %v", c.Nodes())
		}
	}
}

func TestSubsetSharesFabric(t *testing.T) {
	c := New(testConfig())
	s := c.Subset([]int{1, 3})
	if s.Fabric() != c.Fabric() {
		t.Fatal("subset has its own fabric")
	}
	if s.Size() != 2 {
		t.Fatalf("subset size = %d", s.Size())
	}
}

func TestSubsetRejectsBadNodes(t *testing.T) {
	c := New(testConfig())
	for _, nodes := range [][]int{{}, {-1}, {4}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Subset(%v) did not panic", nodes)
				}
			}()
			c.Subset(nodes)
		}()
	}
}

func TestGroupsPartitionNodes(t *testing.T) {
	c := New(testConfig())
	groups := c.Groups(2)
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	seen := map[int]bool{}
	total := 0
	for _, g := range groups {
		for _, n := range g.Nodes() {
			if seen[n] {
				t.Fatalf("node %d in two groups", n)
			}
			seen[n] = true
			total++
		}
	}
	if total != 4 {
		t.Fatalf("groups cover %d nodes, want 4", total)
	}
}

func TestGroupsUnevenSplit(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 5
	cfg.RackSize = 3
	c := New(cfg)
	groups := c.Groups(3)
	sizes := []int{}
	for _, g := range groups {
		sizes = append(sizes, g.Size())
	}
	total := 0
	for _, s := range sizes {
		total += s
		if s < 1 || s > 2 {
			t.Fatalf("unbalanced group sizes %v", sizes)
		}
	}
	if total != 5 {
		t.Fatalf("sizes %v do not cover 5 nodes", sizes)
	}
}

func TestGroupsBounds(t *testing.T) {
	c := New(testConfig())
	for _, p := range []int{0, -1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Groups(%d) did not panic", p)
				}
			}()
			c.Groups(p)
		}()
	}
}

func TestScheduleSingleTask(t *testing.T) {
	c := New(testConfig())
	pl, makespan := c.Schedule([]Task{{Cost: 50, Preferred: -1}}, 2)
	if makespan != 5 { // 50 cost units / 10 units-per-second
		t.Fatalf("makespan = %v, want 5", makespan)
	}
	if pl[0].Start != 0 || pl[0].End != 5 {
		t.Fatalf("placement = %+v", pl[0])
	}
}

func TestScheduleFillsSlotsBeforeQueueing(t *testing.T) {
	c := New(testConfig())
	// 8 map slots; 8 equal tasks must all start at 0.
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Cost: 10, Preferred: -1}
	}
	pl, makespan := c.Schedule(tasks, 2)
	for i, p := range pl {
		if p.Start != 0 {
			t.Fatalf("task %d starts at %v", i, p.Start)
		}
	}
	if makespan != 1 {
		t.Fatalf("makespan = %v, want 1", makespan)
	}
}

func TestScheduleSecondWave(t *testing.T) {
	c := New(testConfig())
	tasks := make([]Task, 9) // one more than the 8 slots
	for i := range tasks {
		tasks[i] = Task{Cost: 10, Preferred: -1}
	}
	pl, makespan := c.Schedule(tasks, 2)
	if pl[8].Start != 1 {
		t.Fatalf("overflow task starts at %v, want 1", pl[8].Start)
	}
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
}

func TestScheduleLocalityPreference(t *testing.T) {
	c := New(testConfig())
	// All slots free: each task should land on its preferred node.
	tasks := []Task{
		{Cost: 10, Preferred: 3},
		{Cost: 10, Preferred: 2},
		{Cost: 10, Preferred: 1},
		{Cost: 10, Preferred: 0},
	}
	pl, _ := c.Schedule(tasks, 2)
	for i, p := range pl {
		if p.Node != tasks[i].Preferred {
			t.Fatalf("task %d placed on %d, want %d", i, p.Node, tasks[i].Preferred)
		}
		if !p.Local {
			t.Fatalf("task %d not marked local", i)
		}
	}
}

func TestScheduleNonLocalWhenBusy(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 2
	cfg.RackSize = 2
	c := New(cfg)
	// Node 0 has 1 slot in this pool; three tasks prefer node 0, but
	// greedy earliest-start forces the second onto node 1 at time 0.
	tasks := []Task{
		{Cost: 10, Preferred: 0},
		{Cost: 10, Preferred: 0},
		{Cost: 10, Preferred: 0},
	}
	pl, makespan := c.Schedule(tasks, 1)
	if pl[0].Node != 0 || !pl[0].Local {
		t.Fatalf("first task = %+v", pl[0])
	}
	if pl[1].Node != 1 || pl[1].Local {
		t.Fatalf("second task = %+v", pl[1])
	}
	if pl[2].Node != 0 || pl[2].Start != 1 {
		t.Fatalf("third task = %+v", pl[2])
	}
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
}

func TestScheduleOnSubset(t *testing.T) {
	c := New(testConfig())
	s := c.Subset([]int{2, 3})
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Cost: 10, Preferred: -1}
	}
	pl, _ := c.Schedule(tasks, 2) // silence unused warning path: full view
	_ = pl
	plSub, _ := s.Schedule(tasks, 2)
	for i, p := range plSub {
		if p.Node != 2 && p.Node != 3 {
			t.Fatalf("task %d escaped subset: node %d", i, p.Node)
		}
	}
}

func TestScheduleZeroCostTask(t *testing.T) {
	c := New(testConfig())
	pl, makespan := c.Schedule([]Task{{Cost: 0, Preferred: -1}}, 1)
	if makespan != 0 || pl[0].End != 0 {
		t.Fatalf("zero-cost task: makespan=%v placement=%+v", makespan, pl[0])
	}
}

func TestScheduleNegativeCostPanics(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Error("negative cost did not panic")
		}
	}()
	c.Schedule([]Task{{Cost: -1, Preferred: -1}}, 1)
}

func TestPresetsAreValid(t *testing.T) {
	for name, cfg := range map[string]Config{
		"small":    Small(),
		"medium":   Medium(),
		"large64":  Large(64),
		"large256": Large(256),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
	if Small().Nodes != 6 || Medium().Nodes != 64 || Large(128).Nodes != 128 {
		t.Error("preset sizes do not match the paper")
	}
	// The paper's medium cluster has 330 map and 110 reduce slots; ours
	// must be close (within one slot per node).
	m := New(Medium())
	if m.MapSlots() < 300 || m.MapSlots() > 360 {
		t.Errorf("medium map slots = %d, want ≈330", m.MapSlots())
	}
	if m.ReduceSlots() < 100 || m.ReduceSlots() > 140 {
		t.Errorf("medium reduce slots = %d, want ≈110", m.ReduceSlots())
	}
}

// Property: makespan is at least total-work/total-slots (no slot is
// oversubscribed) and at least the longest task; every placement falls
// within [0, makespan].
func TestQuickScheduleBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig())
		n := rng.Intn(40) + 1
		tasks := make([]Task, n)
		var total, longest float64
		for i := range tasks {
			cost := float64(rng.Intn(100))
			tasks[i] = Task{Cost: cost, Preferred: rng.Intn(6) - 1}
			if tasks[i].Preferred >= 4 {
				tasks[i].Preferred = -1
			}
			total += cost
			if cost > longest {
				longest = cost
			}
		}
		pl, makespan := c.Schedule(tasks, 2)
		lowerBound := simtime.Duration(total / 10 / 8) // rate 10, 8 slots
		if makespan < lowerBound || makespan < simtime.Duration(longest/10) {
			return false
		}
		for _, p := range pl {
			if p.Start < 0 || p.End > makespan || p.End < p.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: scheduling is deterministic — same input, same placements.
func TestQuickScheduleDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig())
		n := rng.Intn(20) + 1
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Cost: float64(rng.Intn(50)), Preferred: rng.Intn(4)}
		}
		a, ma := c.Schedule(tasks, 2)
		b, mb := c.Schedule(tasks, 2)
		if ma != mb {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousRates(t *testing.T) {
	cfg := testConfig()
	cfg.NodeRateFactors = []float64{1, 1, 1, 0.5} // node 3 half speed
	c := New(cfg)
	pl, _ := c.Schedule([]Task{{Cost: 100, Preferred: 3}}, 2)
	if pl[0].Node != 3 {
		t.Fatalf("task placed on %d", pl[0].Node)
	}
	if pl[0].End != 20 { // 100 / (10*0.5)
		t.Fatalf("slow-node task ended at %v, want 20", pl[0].End)
	}
	pl, _ = c.Schedule([]Task{{Cost: 100, Preferred: 0}}, 2)
	if pl[0].End != 10 {
		t.Fatalf("fast-node task ended at %v, want 10", pl[0].End)
	}
}

func TestRateFactorsValidation(t *testing.T) {
	cfg := testConfig()
	cfg.NodeRateFactors = []float64{1, 1} // wrong length
	if err := cfg.Validate(); err == nil {
		t.Fatal("wrong-length rate factors accepted")
	}
	cfg.NodeRateFactors = []float64{1, 1, 0, 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero rate factor accepted")
	}
	cfg.NodeRateFactors = []float64{1, 1, 2, 0.5}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid factors rejected: %v", err)
	}
}

func TestUsageAccounting(t *testing.T) {
	c := New(Config{Nodes: 4, RackSize: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		ComputeRate: 1, NodeBandwidth: 1, RackBandwidth: 1, CoreBandwidth: 1})
	tasks := []Task{{Cost: 2, Preferred: -1}, {Cost: 3, Preferred: -1}, {Cost: 4, Preferred: -1}}
	placements, _ := c.Schedule(tasks, 1)
	u := c.Usage()
	var want simtime.Duration
	for _, p := range placements {
		want += p.End - p.Start
	}
	if got := u.TotalBusy(); got != want {
		t.Fatalf("TotalBusy = %v, want %v", got, want)
	}
	if u.TotalTasks() != len(tasks) {
		t.Fatalf("TotalTasks = %d", u.TotalTasks())
	}
	if u.MaxBusy() <= 0 {
		t.Fatalf("MaxBusy = %v", u.MaxBusy())
	}
	// Sub-views charge the same shared accumulator.
	sub := c.Subset([]int{0, 1})
	sub.Schedule([]Task{{Cost: 5, Preferred: -1}}, 1)
	u2 := c.Usage()
	if u2.TotalTasks() != len(tasks)+1 {
		t.Fatalf("shared accumulator missed sub-view wave: %d", u2.TotalTasks())
	}
	if u2.TotalBusy() != want+5 {
		t.Fatalf("TotalBusy after sub-view = %v", u2.TotalBusy())
	}
	// The snapshot is a copy.
	u2.SlotBusy[0] = 999
	if c.Usage().SlotBusy[0] == 999 {
		t.Fatal("Usage returned a live slice")
	}
}

// referenceSchedule is Schedule written plainly — a free-time slice per
// node and a map from node id to view index — that the slab-backed
// Schedule must match placement for placement.
func referenceSchedule(c *Cluster, tasks []Task, slotsPerNode int) ([]Placement, simtime.Duration) {
	free := make([][]simtime.Time, len(c.nodes))
	for i := range free {
		free[i] = make([]simtime.Time, slotsPerNode)
	}
	index := map[int]int{}
	for i, n := range c.nodes {
		index[n] = i
	}
	placements := make([]Placement, len(tasks))
	var makespan simtime.Duration
	for ti, task := range tasks {
		best := free[0][0]
		for _, f := range free[1:] {
			best = min(best, f[0])
		}
		chosen := -1
		if pi, ok := index[task.Preferred]; ok && free[pi][0] == best {
			chosen = pi
		} else {
			for i, f := range free {
				if f[0] == best {
					chosen = i
					break
				}
			}
		}
		end := best + simtime.Duration(task.Cost/c.nodeRate(c.nodes[chosen]))
		placements[ti] = Placement{Node: c.nodes[chosen], Start: best, End: end,
			Local: task.Preferred < 0 || c.nodes[chosen] == task.Preferred}
		f := free[chosen]
		f[0] = end
		for j := 1; j < len(f) && f[j] < f[j-1]; j++ {
			f[j], f[j-1] = f[j-1], f[j]
		}
		makespan = max(makespan, end)
	}
	return placements, makespan
}

// TestScheduleMatchesReference: on random views, heterogeneous rates,
// slot counts and preferences (on the view, off it, none), Schedule
// places every task where the reference does, with the same makespan,
// and charges the same usage.
func TestScheduleMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.Nodes = 1 + rng.Intn(12)
		if rng.Intn(2) == 0 {
			cfg.NodeRateFactors = make([]float64, cfg.Nodes)
			for i := range cfg.NodeRateFactors {
				cfg.NodeRateFactors[i] = 0.5 + rng.Float64()
			}
		}
		c := New(cfg)
		view := c
		if cfg.Nodes > 1 && rng.Intn(2) == 0 {
			view = c.Subset(rng.Perm(cfg.Nodes)[:1+rng.Intn(cfg.Nodes-1)])
		}
		slots := 1 + rng.Intn(4)
		tasks := make([]Task, rng.Intn(60))
		for i := range tasks {
			tasks[i] = Task{Cost: float64(rng.Intn(5) * rng.Intn(40)), Preferred: rng.Intn(cfg.Nodes+2) - 1}
		}
		wantPl, wantSpan := referenceSchedule(view, tasks, slots)
		before := c.Usage()
		gotPl, gotSpan := view.Schedule(tasks, slots)
		if gotSpan != wantSpan || !slices.Equal(gotPl, wantPl) {
			t.Fatalf("seed %d: Schedule gave %v (makespan %v), reference %v (%v)", seed, gotPl, gotSpan, wantPl, wantSpan)
		}
		after := c.Usage()
		for _, p := range wantPl {
			before.SlotBusy[p.Node] += p.End - p.Start
			before.Tasks[p.Node]++
		}
		if !slices.Equal(after.SlotBusy, before.SlotBusy) || !slices.Equal(after.Tasks, before.Tasks) {
			t.Fatalf("seed %d: usage %+v, want %+v", seed, after, before)
		}
	}
}

// TestScheduleAllocsIndependentOfNodeCount pins Schedule's allocations
// to a constant: the placements and one slab of slot free times,
// whatever the view's size.
func TestScheduleAllocsIndependentOfNodeCount(t *testing.T) {
	allocs := func(nodes int) float64 {
		cfg := Medium()
		cfg.Nodes = nodes
		c := New(cfg)
		tasks := make([]Task, 320)
		for i := range tasks {
			tasks[i] = Task{Cost: float64(1 + i%7), Preferred: i % (nodes + 1)}
		}
		return testing.AllocsPerRun(20, func() { c.Schedule(tasks, cfg.MapSlotsPerNode) })
	}
	small, large := allocs(12), allocs(64)
	if small != 2 || large != 2 {
		t.Errorf("Schedule allocates %.1f objects on 12 nodes and %.1f on 64, want 2 each", small, large)
	}
}
