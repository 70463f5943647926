package mapred

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/model"
	"repro/internal/writable"
)

// Jobs that reduce into Job.Into by slot.
//
// A job with Into whose Reducer is a FloatSum, with a Combiner and the
// default partitioner, and whose Mapper implements IntoMapper runs, with
// a JobFamily attached, as a sum by slot instead of through records:
//
//  1. Map. Each task folds its split into a pooled Partial: for every
//     record its combined output holds, the Into-schema slot of the key
//     and the Float64 value. It reports the records and bytes Map
//     emitted before the combiner, which price the task as the cold
//     pipeline's emissions do.
//  2. Shuffle. A partial entry stands for the record (schema key,
//     Float64) the cold combiner writes. Its reducer (HashPartition of
//     the key) and its encoded size depend on the slot alone, so a
//     slotRoute holds both for every slot of the schema, computed once
//     per (schema, reducer count). Every (split, reducer) flow, every
//     shuffle counter and each reduce task's input count come from it.
//  3. Reduce. The cold reduce task adds its map tasks' partitions as
//     runs in split order, and the stable group step hands FloatSum each
//     key's combined values in that order; FloatSum sums them from +0.
//     The fused reduce adds the partials per slot in split order into a
//     zeroed accumulator — the same float64 additions in the same order
//     — and writes Then(total) into Into by slot, where the cold path
//     Sets (key, Float64(Then(total))): SetFloatAt on a schema slot
//     stores what Set of its key stores. Each output record is (key,
//     Float64), so its size is the slot's route size too.
//
// So Into, the Output (no records, the reducers' nodes) and every
// Metrics field are those of the cold run, and nothing is boxed per
// key. Each slot is written once, so the order the writes take cannot
// show.

// Partial is one map task's fused output for a job that reduces into
// Job.Into: the Into-schema slots of the keys its combined records
// carry, in their order, and each record's Float64 value. The engine
// pools partials; a kernel only adds to the one it is handed.
type Partial struct {
	slots []int32
	vals  []float64
	// records and bytes are what MapInto reported for the split.
	records, bytes int64
}

// Add appends the combined record (key of Into's slot, Float64(v)).
func (p *Partial) Add(slot int, v float64) {
	p.slots = append(p.slots, int32(slot))
	p.vals = append(p.vals, v)
}

var partialPool = sync.Pool{New: func() any { return new(Partial) }}

func putPartials(ps []*Partial) {
	for _, p := range ps {
		if p != nil {
			p.slots, p.vals = p.slots[:0], p.vals[:0]
			partialPool.Put(p)
		}
	}
}

// slotRoute is the shuffle route of every slot of one schema under a
// reducer count: the reducer HashPartition sends the slot's key to, and
// the encoded size of the record (key, Float64).
type slotRoute struct {
	reducer []int32
	size    []int32
}

type routeKey struct {
	schema   *model.Schema
	reducers int
}

// route returns the slot routes of schema s under r reducers, computing
// them on first use.
func (f *JobFamily) route(s *model.Schema, r int) *slotRoute {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := routeKey{s, r}
	if rt := f.routes[k]; rt != nil {
		return rt
	}
	keys := s.Keys()
	rt := &slotRoute{reducer: make([]int32, len(keys)), size: make([]int32, len(keys))}
	for i, key := range keys {
		rt.reducer[i] = int32(HashPartition(key, r))
		rt.size[i] = int32(Record{Key: key, Value: writable.Float64(0)}.Size())
	}
	if f.routes == nil || len(f.routes) >= maxShippedVersions {
		f.routes = map[routeKey]*slotRoute{}
	}
	f.routes[k] = rt
	return rt
}

// partition sizes one partial's shuffle partitions: the encoded bytes
// and the record count bound for each of r reducers.
func (rt *slotRoute) partition(p *Partial, r int) (sizes, counts []int64) {
	buf := make([]int64, 2*r)
	sizes, counts = buf[:r:r], buf[r:]
	for _, s := range p.slots {
		sizes[rt.reducer[s]] += int64(rt.size[s])
		counts[rt.reducer[s]]++
	}
	return sizes, counts
}

// foldInto is the map phase of a job that reduces into Job.Into: every
// split staged, then folded by im.MapInto into a pooled partial, the
// splits concurrently. It returns nil partials when the job must run
// cold — a split declined at staging or in MapInto — and otherwise books
// the warm iteration.
func (e *Engine) foldInto(im IntoMapper, job *Job, in *Input, homes []int, m *model.Model) ([]*Partial, error) {
	ds, warmBytes := e.stage(in, homes, im.NewDerived, true)
	if ds == nil {
		return nil, nil
	}
	partials := make([]*Partial, len(ds))
	errs := make([]error, len(ds))
	e.parallelFor(len(ds), func(i int) {
		p := partialPool.Get().(*Partial)
		partials[i] = p
		p.records, p.bytes, errs[i] = im.MapInto(ds[i], m, job.Into, p)
	})
	for _, err := range errs {
		if errors.Is(err, ErrFusedUnsupported) {
			putPartials(partials)
			return nil, nil
		}
	}
	for i, err := range errs {
		if err != nil {
			putPartials(partials)
			return nil, fmt.Errorf("job %q map task %d: %w", job.Name, i, err)
		}
	}
	e.Family.noteWarm(job.Name, m, warmBytes)
	return partials, nil
}

// slotSums is a dense accumulator over a schema's slots: each slot's
// running total and whether anything was added to it. Between uses
// every total is +0 and every bit clear.
type slotSums struct {
	sums    []float64
	touched []uint64
}

var slotSumsPool sync.Pool

// reduceInto is the reduce phase of a job that reduces into Job.Into:
// the partials added per slot, in split order, into a zeroed
// accumulator, and each reduce task's output bytes counted from the
// routes. It returns the accumulator, which writeInto consumes, and the
// output record count.
func reduceInto(partials []*Partial, rt *slotRoute, outBytes []int64) (*slotSums, int) {
	n := len(rt.reducer)
	acc, _ := slotSumsPool.Get().(*slotSums)
	if acc == nil || len(acc.sums) < n {
		acc = &slotSums{sums: make([]float64, n), touched: make([]uint64, (n+63)/64)}
	}
	for _, p := range partials {
		for k, s := range p.slots {
			acc.sums[s] += p.vals[k]
			acc.touched[s>>6] |= 1 << (s & 63)
		}
	}
	out := 0
	for w, word := range acc.touched {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			outBytes[rt.reducer[s]] += int64(rt.size[s])
			out++
		}
	}
	return acc, out
}

// writeInto writes r's output for every slot acc holds a total for into
// into, by slot, and returns acc clean to the pool.
func (acc *slotSums) writeInto(into *model.Model, r FloatSum) {
	for w, word := range acc.touched {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			into.SetFloatAt(s, r.apply(acc.sums[s]))
			acc.sums[s] = 0
		}
		acc.touched[w] = 0
	}
	slotSumsPool.Put(acc)
}
