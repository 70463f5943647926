package core

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/writable"
)

// Hierarchical rack-local merge trees (PICOptions.HierarchicalMerge).
//
// The flat best-effort merge moves every partial model and every
// scattered sub-problem model over the model home's core-switch links:
// P partials in, P models out, per iteration. On large clusters the
// core links become the merge bottleneck long before the racks do. The
// hierarchical strategy prices the same logical merge as a two-level
// tree aligned with the simnet topology: partials first combine inside
// their rack (intra-rack links, which the fabric prices independently
// per rack), and only one rack-combined model per rack crosses the core
// to the home. The scatter direction dedups symmetrically: when every
// partition in a rack starts from the same model (the replicated-model
// apps — K-means, neural-net training), one copy crosses the core and
// the rack aggregator fans it out locally.
//
// The tree merge is NOT bit-identical to the flat merge: combining
// rack-first reorders the floating-point accumulation. It is the same
// logical reduction — the WeightedKeyMerger contract makes rack-level
// pre-combination unbiased — and each strategy is individually
// deterministic at any worker count.

// rackGroup is one rack's worth of fresh partitions in a best-effort
// merge tree.
type rackGroup struct {
	rack int
	// agg is the aggregator node: the group leader of the rack's first
	// member partition.
	agg int
	// members are the partition indices homed in this rack, ascending.
	members []int
}

// planRacks groups the fresh (non-stale) partitions by the rack of
// their group leader, in ascending rack order — the deterministic shape
// of the merge tree for this iteration.
func planRacks(fabric *simnet.Fabric, leaders []int, stale []bool) []rackGroup {
	byRack := map[int]*rackGroup{}
	var order []int
	for i, leader := range leaders {
		if stale[i] {
			continue
		}
		r := fabric.Rack(leader)
		g := byRack[r]
		if g == nil {
			g = &rackGroup{rack: r, agg: leader}
			byRack[r] = g
			order = append(order, r)
		}
		g.members = append(g.members, i)
	}
	sort.Ints(order)
	out := make([]rackGroup, len(order))
	for i, r := range order {
		out[i] = *byRack[r]
	}
	return out
}

// hierarchicalScatterFlows prices the dispatch of sub-problem models
// through the rack aggregators. A rack whose members all start from the
// same model receives one copy across the core and fans it out on rack
// links; mixed racks (partition-the-model apps) fall back to direct
// home→leader flows, which is what the flat scatter charges.
func hierarchicalScatterFlows(home int, leaders []int, subs []SubProblem, racks []rackGroup) []simnet.Flow {
	var flows []simnet.Flow
	for _, rg := range racks {
		shared := true
		first := subs[rg.members[0]].Model
		for _, i := range rg.members[1:] {
			if !subs[i].Model.Equal(first) {
				shared = false
				break
			}
		}
		if !shared || len(rg.members) == 1 {
			for _, i := range rg.members {
				flows = append(flows, simnet.Flow{Src: home, Dst: leaders[i], Bytes: subs[i].Model.Size()})
			}
			continue
		}
		flows = append(flows, simnet.Flow{Src: home, Dst: rg.agg, Bytes: first.Size()})
		for _, i := range rg.members {
			if leaders[i] == rg.agg {
				continue
			}
			flows = append(flows, simnet.Flow{Src: rg.agg, Dst: leaders[i], Bytes: first.Size()})
		}
	}
	return flows
}

// hierarchicalMerge gathers and combines the partial models through the
// rack tree: members flow to their rack aggregator (intra-rack links),
// each rack pre-combines with MergeKey, one combined model per rack
// crosses the core to home, and the final combine applies
// MergeKeyWeighted with each rack's member count as its weight — so the
// two-level reduction equals the flat one-level reduction up to
// floating-point order. Stale partials join the final combine with
// weight 1 and no gather traffic (they never left the driver).
func hierarchicalMerge(rt *Runtime, appName string, wm WeightedKeyMerger,
	parts []*model.Model, leaders []int, stale []bool, racks []rackGroup) (*model.Model, int64, error) {
	home := rt.LiveModelHome()

	// Stage 1: members → rack aggregators, one flow set for the whole
	// level (racks drain in parallel on their own links).
	var up []simnet.Flow
	for _, rg := range racks {
		for _, i := range rg.members {
			up = append(up, simnet.Flow{Src: leaders[i], Dst: rg.agg, Bytes: parts[i].Size()})
		}
	}
	traffic := rt.ChargeFlows(up)

	// Rack-level pre-combine: per key, MergeKey over the members holding
	// it (member order), remembering how many partials each combined
	// value summarizes — rackCounts[ri][k] for the rack model's k-th key.
	rackModels := make([]*model.Model, len(racks))
	rackCounts := make([][]int, len(racks))
	for ri, rg := range racks {
		members := make([]*model.Model, len(rg.members))
		for k, i := range rg.members {
			members[k] = parts[i]
		}
		rm := model.New() // filled in key order: no hashing, no sort
		var counts []int
		err := walkUnion(members, func(key string, _ []int, vals []writable.Writable) error {
			merged, err := wm.MergeKey(key, vals)
			if err != nil {
				return fmt.Errorf("core: %s rack merge: %w", appName, err)
			}
			rm.Set(key, merged)
			counts = append(counts, len(vals))
			return nil
		})
		if err != nil {
			return nil, traffic, err
		}
		rackModels[ri] = rm
		rackCounts[ri] = counts
	}

	// Stage 2: one combined model per rack crosses the core to home.
	var down []simnet.Flow
	for ri, rg := range racks {
		down = append(down, simnet.Flow{Src: rg.agg, Dst: home, Bytes: rackModels[ri].Size()})
	}
	traffic += rt.ChargeFlows(down)

	// Final combine: rack models weighted by their member counts, stale
	// partials appended with weight 1.
	var staleIdx []int
	for i, st := range stale {
		if st {
			staleIdx = append(staleIdx, i)
		}
	}
	sources := make([]*model.Model, 0, len(rackModels)+len(staleIdx))
	sources = append(sources, rackModels...)
	for _, i := range staleIdx {
		sources = append(sources, parts[i])
	}
	merged := model.New()
	var weights []int
	next := make([]int, len(rackModels)) // next unread entry of rackCounts[ri]
	err := walkUnion(sources, func(key string, from []int, vals []writable.Writable) error {
		weights = weights[:0]
		for _, si := range from {
			if si < len(rackModels) {
				weights = append(weights, rackCounts[si][next[si]])
				next[si]++
			} else {
				weights = append(weights, 1)
			}
		}
		out, err := wm.MergeKeyWeighted(key, vals, weights)
		if err != nil {
			return fmt.Errorf("core: %s weighted merge: %w", appName, err)
		}
		merged.Set(key, out)
		return nil
	})
	if err != nil {
		return nil, traffic, err
	}
	return merged, traffic, nil
}

// walkUnion visits the union of the sources' keys in ascending order —
// a k-way walk over their already sorted schemas, so nothing is hashed
// or sorted — and calls fn with each key, the indices of the sources
// holding it (ascending) and their values. Both slices are scratch,
// reused from key to key: fn must not retain them.
func walkUnion(srcs []*model.Model, fn func(key string, from []int, vals []writable.Writable) error) error {
	type cursor struct {
		m    *model.Model
		keys []string // m's schema; the cursor rests on a present slot or at the end
		slot int
	}
	settle := func(c *cursor) {
		for c.slot < len(c.keys) {
			if _, ok := c.m.At(c.slot); ok {
				return
			}
			c.slot++
		}
	}
	cur := make([]cursor, len(srcs))
	for i, m := range srcs {
		cur[i] = cursor{m: m, keys: m.Schema().Keys()}
		settle(&cur[i])
	}
	from := make([]int, 0, len(srcs))
	vals := make([]writable.Writable, 0, len(srcs))
	for {
		least, found := "", false
		for i := range cur {
			if c := &cur[i]; c.slot < len(c.keys) && (!found || c.keys[c.slot] < least) {
				least, found = c.keys[c.slot], true
			}
		}
		if !found {
			return nil
		}
		from, vals = from[:0], vals[:0]
		for i := range cur {
			if c := &cur[i]; c.slot < len(c.keys) && c.keys[c.slot] == least {
				v, _ := c.m.At(c.slot)
				from, vals = append(from, i), append(vals, v)
				c.slot++
				settle(c)
			}
		}
		if err := fn(least, from, vals); err != nil {
			return err
		}
	}
}
