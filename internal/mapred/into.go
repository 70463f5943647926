package mapred

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/writable"
)

// Jobs that reduce into Job.Into by slot.
//
// A job with Into whose Reducer is a FloatSum or a VectorSum, with a
// Combiner and the default partitioner, and whose Mapper implements
// IntoMapper runs, with a JobFamily attached, as a sum by slot instead
// of through records:
//
//  1. Map. Each task folds its split into a pooled Partial: for every
//     record its combined output holds, the Into-schema slot of the key
//     and the value as a row of floats — a FloatSum's Float64 as a row
//     of one, a VectorSum's Vector as its components. Every row of a job
//     has one width. The task reports the records and bytes Map emitted
//     before the combiner, which price it as the cold pipeline's
//     emissions do.
//  2. Shuffle. A partial entry stands for the record the cold combiner
//     writes: (schema key, Float64) or (schema key, Vector of the row's
//     width). Its reducer (HashPartition of the key) and its key's
//     encoded size depend on the slot alone, so a slotRoute holds both
//     for every slot of the schema, computed once per (schema, reducer
//     count); the value's size depends on the width alone. Every (split,
//     reducer) flow, every shuffle counter and each reduce task's input
//     count come from them.
//  3. Reduce. The cold reduce task adds its map tasks' partitions as
//     runs in split order, and the stable group step hands the reducer
//     each key's combined values in that order: FloatSum sums them from
//     +0, VectorSum copies the first and adds the rest. The fused reduce
//     does the same per slot, in split order, in a dense accumulator —
//     the same float64 additions in the same order, from a zeroed row
//     for FloatSum and from a copy of the slot's first row for VectorSum
//     (the two differ: +0 + -0 is +0, and the sign of a zero shows in
//     the encoded bytes) — and writes Then(total) into Into by slot,
//     where the cold path Sets (key, Then(total)): SetFloatAt and SetAt
//     on a schema slot store what Set of its key stores. An output
//     record's size is its key's plus that of the value Then returned.
//
// So Into, the Output (no records, the reducers' nodes) and every
// Metrics field are those of the cold run, and nothing is boxed per
// split. Each slot is written once, so the order the writes take cannot
// show. Rows of two widths — in one partial or in two — or a FloatSum
// row of more than one float send the whole job cold, which reports
// whatever the records hold.

// Partial is one map task's fused output for a job that reduces into
// Job.Into: the Into-schema slots of the keys its combined records
// carry, in their order, and each record's value as a row of floats.
// The engine pools partials; a kernel only adds to the one it is handed.
type Partial struct {
	slots []int32
	rows  []float64 // width floats per slot
	width int
	mixed bool // rows of two widths were added
	// records and bytes are what MapInto reported for the split.
	records, bytes int64
}

// Add appends the combined record (key of Into's slot, Float64(v)): a
// row of one float.
func (p *Partial) Add(slot int, v float64) {
	p.note(1)
	p.slots = append(p.slots, int32(slot))
	p.rows = append(p.rows, v)
}

// AddRow appends the combined record (key of Into's slot, Vector(row)),
// copying row.
func (p *Partial) AddRow(slot int, row []float64) {
	p.note(len(row))
	p.slots = append(p.slots, int32(slot))
	p.rows = append(p.rows, row...)
}

// Len reports how many combined records p holds.
func (p *Partial) Len() int { return len(p.slots) }

// Row returns the i-th combined record p holds: its slot and its row,
// which stays p's to reuse.
func (p *Partial) Row(i int) (slot int, row []float64) {
	return int(p.slots[i]), p.rows[i*p.width : (i+1)*p.width]
}

// note records the width of the row being added.
func (p *Partial) note(width int) {
	if width != p.width && len(p.slots) > 0 {
		p.mixed = true
	}
	p.width = width
}

var partialPool = sync.Pool{New: func() any { return new(Partial) }}

func putPartials(ps []*Partial) {
	for _, p := range ps {
		if p != nil {
			*p = Partial{slots: p.slots[:0], rows: p.rows[:0]}
			partialPool.Put(p)
		}
	}
}

// slotReducer is a Reducer the engine can run by slot.
type slotReducer interface {
	Reducer
	// valueSize is the encoded size of a combined value whose row has
	// width floats, or -1 when the reducer takes no such value.
	valueSize(width int) int64
	// fromFirst reports that a slot's total starts as a copy of its
	// first row rather than at +0.
	fromFirst() bool
	// write stores the reducer's output for a slot's total in slot s of
	// into and returns the encoded size of the value written. total is
	// the accumulator's: write must not retain it.
	write(into *model.Model, s int, total []float64) int64
}

// bySlot returns r as a slotReducer when the engine can run it by slot:
// a FloatSum or a VectorSum itself, not a type that embeds one.
func bySlot(r Reducer) slotReducer {
	switch r := r.(type) {
	case FloatSum:
		return r
	case VectorSum:
		return r
	}
	return nil
}

var float64Size = int64(writable.Size(writable.Float64(0)))

func (FloatSum) valueSize(width int) int64 {
	if width != 1 {
		return -1
	}
	return float64Size
}

func (FloatSum) fromFirst() bool { return false }

func (r FloatSum) write(into *model.Model, s int, total []float64) int64 {
	into.SetFloatAt(s, r.apply(total[0]))
	return float64Size
}

func (VectorSum) valueSize(width int) int64 { return int64(writable.VectorSize(width)) }

func (VectorSum) fromFirst() bool { return true }

func (r VectorSum) write(into *model.Model, s int, total []float64) int64 {
	var v writable.Vector
	if r.Then != nil {
		v = r.Then(total)
	} else {
		v = slices.Clone(total)
	}
	into.SetAt(s, v)
	return int64(writable.VectorSize(len(v)))
}

// slotRoute is the shuffle route of every slot of one schema under a
// reducer count: the reducer HashPartition sends the slot's key to, and
// the encoded size of the key.
type slotRoute struct {
	reducer []int32
	keySize []int32
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
	rt := &slotRoute{reducer: make([]int32, len(keys)), keySize: make([]int32, len(keys))}
	for i, key := range keys {
		rt.reducer[i] = int32(HashPartition(key, r))
		rt.keySize[i] = int32(KeySize(key))
	}
	if f.routes == nil || len(f.routes) >= maxShippedVersions {
		f.routes = map[routeKey]*slotRoute{}
	}
	f.routes[k] = rt
	return rt
}

// partition adds one partial's shuffle partitions, each entry's record
// a key and a value of valueSize bytes, into sizes and counts: the
// encoded bytes and the record count bound for each reducer.
func (rt *slotRoute) partition(p *Partial, valueSize int64, sizes, counts []int64) {
	for _, s := range p.slots {
		r := rt.reducer[s]
		sizes[r] += int64(rt.keySize[s]) + valueSize
		counts[r]++
	}
}

// foldInto is the map phase of a job that reduces into Job.Into by r:
// every split staged, then folded by im.MapInto into a pooled partial,
// the splits concurrently. It returns the partials and their common row
// width (0 when no split has a row), or nil partials when the job must
// run cold — a split declined at staging or in MapInto, or rows whose
// widths disagree or r does not take — and otherwise books the warm
// iteration.
func (e *Engine) foldInto(im IntoMapper, r slotReducer, job *Job, in *Input, homes []int, m *model.Model) ([]*Partial, int, error) {
	ds, warmBytes := e.stage(in, homes, im.NewDerived)
	if ds == nil {
		return nil, 0, nil
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
			return nil, 0, nil
		}
	}
	for i, err := range errs {
		if err != nil {
			putPartials(partials)
			return nil, 0, fmt.Errorf("job %q map task %d: %w", job.Name, i, err)
		}
	}
	width := -1
	for _, p := range partials {
		if len(p.slots) == 0 {
			continue
		}
		if p.mixed || width >= 0 && p.width != width || r.valueSize(p.width) < 0 {
			putPartials(partials)
			return nil, 0, nil
		}
		width = p.width
	}
	e.Family.noteWarm(job.Name, m, warmBytes)
	return partials, max(width, 0), nil
}

// slotSums is a dense accumulator over a schema's slots: a row per
// slot and a bit per slot marking that some row was added to it.
// Between uses every float is +0 and every bit clear.
type slotSums struct {
	rows    []float64
	touched []uint64
}

var slotSumsPool sync.Pool

// reduceInto is the reduce phase of a job that reduces into Job.Into by
// r: the partials' rows of width floats added per slot, in split order,
// and r's output for each slot some row reached written into into, the
// bytes of each counted toward its reduce task in outBytes. It returns
// the output record count.
func reduceInto(partials []*Partial, width int, rt *slotRoute, r slotReducer, into *model.Model, outBytes []int64) int {
	n := len(rt.reducer)
	acc, _ := slotSumsPool.Get().(*slotSums)
	if acc == nil || len(acc.rows) < n*width || len(acc.touched) < (n+63)/64 {
		acc = &slotSums{rows: make([]float64, n*width), touched: make([]uint64, (n+63)/64)}
	}
	fromFirst := r.fromFirst()
	for _, p := range partials {
		if !fromFirst { // rows of one float, added to +0
			for k, s := range p.slots {
				acc.rows[s] += p.rows[k]
				acc.touched[s>>6] |= 1 << (s & 63)
			}
			continue
		}
		for k, s := range p.slots {
			dst := acc.rows[int(s)*width : (int(s)+1)*width]
			src := p.rows[k*width : (k+1)*width]
			if bit := uint64(1) << (s & 63); acc.touched[s>>6]&bit == 0 {
				acc.touched[s>>6] |= bit
				copy(dst, src)
			} else {
				addRow(dst, src)
			}
		}
	}
	out := 0
	for w, word := range acc.touched {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			total := acc.rows[s*width : (s+1)*width]
			outBytes[rt.reducer[s]] += int64(rt.keySize[s]) + r.write(into, s, total)
			clear(total)
			out++
		}
		acc.touched[w] = 0
	}
	slotSumsPool.Put(acc)
	return out
}
