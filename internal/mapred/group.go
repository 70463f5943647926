package mapred

import (
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/writable"
)

// The group step: every intermediate record set — a map task's
// emissions, a reduce task's shuffled-in partitions, a local iteration's
// whole map output — is put into the one stable order by key and scanned
// group by group. "Stable" is the load-bearing word: values reach a
// reducer in arrival order, so floating-point reductions associate the
// same way at any worker count and on either backend.
//
// The order is computed on key bytes in O(n), without hashing and
// without string comparisons in the common case:
//
//  1. One pass finds out whether the input is already in order (the
//     usual case downstream of a map task that sorted its emissions);
//     if so nothing else runs.
//  2. The bytes all keys share are skipped, and the next eight bytes of
//     each key are packed big-endian, zero-padded, into a uint64. Byte
//     order on the unsigned big-endian window is exactly
//     strings.Compare order on those bytes, and a shorter key's padding
//     sorts it before any longer key it is a prefix of — except against
//     a key whose extra bytes are themselves zero, which ties.
//  3. A stable LSD counting sort runs over the window bits in which at
//     least two keys differ, a byte position — or two, when their
//     varying bits fit one eight-bit digit — per pass: two passes for
//     "r0000dddd", one for "k07", none when all keys are equal.
//  4. Entries the window cannot tell apart (keys longer than prefix+8,
//     or of unequal length) are finished by a stable comparison sort of
//     the full keys, inside each tie group only.
//
// The result is a list of entries naming the records in order, not a
// reordered copy: a scan reads each record where its producer left it,
// and with exact windows finds group boundaries without touching a key.
// Order is established once per map task, carried through the stable
// partition scatter, and only re-established on the reduce side, which
// reads the map tasks' partitions in place as its runs.

// keyEntry is one record's sort key: its packed key window and where
// the record lives in the caller's runs.
type keyEntry struct {
	prefix uint64
	run    uint32
	off    uint32
}

// scratch is the per-task working memory of the group step, pooled as
// one object so a warm task allocates only what it returns. Buffers that
// hold records or values are cleared on release, up to the furthest
// point the task wrote, so the pool never pins user data.
type scratch struct {
	ents, swap []keyEntry
	recs       []Record
	recsHi     int // furthest record of recs handed out since the last release
	out        listEmitter
	vals       []writable.Writable
	part       []int32
	counts     []int
	// runs is the task's input, n its total length: the record slices
	// whose concatenation is to be grouped, left where their producers
	// put them.
	runs [][]Record
	n    int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) release() {
	clear(s.recs[:s.recsHi])
	s.recsHi = 0
	clear(s.out.records)
	s.out.records = s.out.records[:0]
	clear(s.vals)
	s.vals = s.vals[:0]
	clear(s.runs)
	s.runs, s.n = s.runs[:0], 0
	scratchPool.Put(s)
}

// records returns the scratch's record buffer sized to n.
func (s *scratch) records(n int) []Record {
	if cap(s.recs) < n {
		s.recs = make([]Record, n)
	}
	s.recsHi = max(s.recsHi, n)
	return s.recs[:n]
}

// partIdx returns an n-element partition-index buffer (not zeroed).
func (s *scratch) partIdx(n int) []int32 {
	if cap(s.part) < n {
		s.part = make([]int32, n)
	}
	return s.part[:n]
}

// zeroCounts returns an n-element zeroed counter buffer.
func (s *scratch) zeroCounts(n int) []int {
	if cap(s.counts) < n {
		s.counts = make([]int, n)
	}
	c := s.counts[:n]
	clear(c)
	return c
}

// addRun appends run to the task's input. Empty runs are dropped, so
// every run the kernel sees has a first and a last record.
func (s *scratch) addRun(run []Record) {
	if len(run) > 0 {
		s.runs = append(s.runs, run)
		s.n += len(run)
	}
}

// runsSorted reports whether the concatenation of runs is in key order.
// It stops at the first descent, so on unsorted input it costs almost
// nothing and on sorted input it is the whole group step.
func runsSorted(runs [][]Record) bool {
	prev := ""
	for _, run := range runs {
		for i := range run {
			if run[i].Key < prev {
				return false
			}
			prev = run[i].Key
		}
	}
	return true
}

func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// window packs up to eight bytes of k from offset cp, big-endian and
// zero-padded. cp must not exceed len(k).
func window(k string, cp int) uint64 {
	switch {
	case len(k) >= cp+8:
		return window8(k[cp : cp+8])
	case len(k) >= 8:
		// The key's last eight bytes, with those before cp shifted out.
		return window8(k[len(k)-8:]) << (8 * uint(cp+8-len(k)))
	}
	var p uint64
	for i, shift := cp, uint(56); i < len(k); i, shift = i+1, shift-8 {
		p |= uint64(k[i]) << shift
	}
	return p
}

// window8 is the big-endian load of an eight-byte string.
func window8(k string) uint64 {
	_ = k[7]
	return uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
		uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
}

// sortOrder returns the stable key order of the concatenation of the
// scratch's runs as entries naming each record's position, or nil when
// the concatenation is already in order. exact reports that equal
// windows mean equal keys, so a scan of the entries finds group
// boundaries without looking at a key. The entries live in the scratch
// and are valid until its next sortOrder call or release.
func (s *scratch) sortOrder() (order []keyEntry, exact bool) {
	runs, n := s.runs, s.n
	if n < 2 || runsSorted(runs) {
		return nil, false
	}
	if cap(s.ents) < n {
		s.ents = make([]keyEntry, n)
		s.swap = make([]keyEntry, n)
	}
	ents := s.ents[:n]
	diff, exact := packEntries(ents, runs)
	ents = radixSort(ents, s.swap[:n], diff)
	if !exact {
		sortTies(ents, runs)
	}
	return ents, exact
}

// spare returns the entry buffer that order, a result of sortOrder, is
// not in.
func (s *scratch) spare(order []keyEntry) []keyEntry {
	if &order[0] == &s.ents[0] {
		return s.swap[:len(order)]
	}
	return s.ents[:len(order)]
}

// packEntries fills ents with one entry per record of the (non-empty)
// runs, in order, and returns the mask of window bits in which at least
// two keys differ and whether the window decides every comparison.
func packEntries(ents []keyEntry, runs [][]Record) (diff uint64, exact bool) {
	// Guess the common prefix from the two ends of the input, then pack
	// while checking the guess against every key; a key that breaks it
	// shortens the prefix and restarts the pack (at most len(first)
	// times, in practice never more than once).
	first := runs[0][0].Key
	lastRun := runs[len(runs)-1]
	cp := commonPrefixLen(first, lastRun[len(lastRun)-1].Key)
pack:
	for {
		base := first[:cp]
		p0 := window(first, cp)
		lenDiff := 0
		diff = 0
		k := 0
		for ri, run := range runs {
			for i := range run {
				key := run[i].Key
				if !strings.HasPrefix(key, base) {
					cp = commonPrefixLen(base, key)
					continue pack
				}
				p := window(key, cp)
				diff |= p ^ p0
				lenDiff |= len(key) ^ len(first)
				ents[k] = keyEntry{prefix: p, run: uint32(ri), off: uint32(i)}
				k++
			}
		}
		// The window decides every comparison exactly when all keys have
		// one length and it fits: equal windows are then equal keys.
		return diff, lenDiff == 0 && len(first) <= cp+8
	}
}

// radixSort stably sorts ents by prefix with LSD counting passes over
// the bits in diff, ping-ponging between ents and swap, and returns
// whichever holds the result.
//
// A byte position in which no two keys differ needs no pass. In one
// that does, only the field between its lowest and its highest varying
// bit matters — the rest is the same in every key, so comparing fields
// compares the bytes — and two successive fields that fit eight bits
// together make one digit: two decimal digits sort in one pass, which
// halves the passes for "r0000dddd". (Measured against one pass per
// varying byte on pagerank_mapred: ic_ms_per_iter −2.4 %, pic_ms_per_pass
// −3.9 %, ten of ten pairs each.)
func radixSort(ents, swap []keyEntry, diff uint64) []keyEntry {
	type field struct{ shift, width uint }
	var fields [8]field
	nf := 0
	for b := uint(0); b < 8; b++ {
		if d := uint8(diff >> (8 * b)); d != 0 {
			lo := uint(bits.TrailingZeros8(d))
			fields[nf] = field{8*b + lo, uint(bits.Len8(d)) - lo}
			nf++
		}
	}
	for f := 0; f < nf; {
		// The pass's digit is field lo with, above it, field hi; hi stays
		// empty (width 0, contributing nothing) when the next field does
		// not fit beside lo.
		lo, hi := fields[f], field{}
		f++
		if f < nf && lo.width+fields[f].width <= 8 {
			hi = fields[f]
			f++
		}
		loMask, hiMask := uint64(1)<<lo.width-1, uint64(1)<<hi.width-1

		var count [256]uint32
		for i := range ents {
			p := ents[i].prefix
			count[(p>>lo.shift)&loMask|((p>>hi.shift)&hiMask)<<lo.width]++
		}
		var sum uint32
		for d := range count[:1<<(lo.width+hi.width)] {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range ents {
			p := ents[i].prefix
			d := (p>>lo.shift)&loMask | ((p>>hi.shift)&hiMask)<<lo.width
			swap[count[d]] = ents[i]
			count[d]++
		}
		ents, swap = swap, ents
	}
	return ents
}

// sortTies finishes, on the full keys, the groups of entries whose
// windows are equal. The groups are contiguous and internally still in
// arrival order, so a stable sort inside each leaves the whole in the
// unique stable key order.
func sortTies(ents []keyEntry, runs [][]Record) {
	keyOf := func(e keyEntry) string { return runs[e.run][e.off].Key }
	for lo := 0; lo < len(ents); {
		hi := lo + 1
		for hi < len(ents) && ents[hi].prefix == ents[lo].prefix {
			hi++
		}
		// A group of one key throughout (the usual tie: short keys of
		// mixed lengths) is already in order.
		same := true
		for i := lo + 1; i < hi && same; i++ {
			same = keyOf(ents[i]) == keyOf(ents[lo])
		}
		if !same {
			slices.SortStableFunc(ents[lo:hi], func(a, b keyEntry) int {
				return strings.Compare(keyOf(a), keyOf(b))
			})
		}
		lo = hi
	}
}

// sortedRuns returns the concatenation of the scratch's runs in stable
// key order. The result is the single run itself when that is already
// in order, and otherwise lives in the scratch's record buffer; either
// way it is read-only and valid until release.
func (s *scratch) sortedRuns() []Record {
	order, _ := s.sortOrder()
	if order == nil {
		return s.concat()
	}
	dst := s.records(s.n)
	for k, e := range order {
		dst[k] = s.runs[e.run][e.off]
	}
	return dst
}

// concat returns the concatenation of the scratch's runs as one slice:
// the run itself when there is one, the scratch's record buffer
// otherwise.
func (s *scratch) concat() []Record {
	if len(s.runs) == 1 {
		return s.runs[0]
	}
	dst := s.records(s.n)
	k := 0
	for _, run := range s.runs {
		k += copy(dst[k:], run)
	}
	return dst
}

// reduceSorted applies r to each contiguous key group of the
// already-sorted recs, emitting into em. The values slice handed to the
// reducer is a scratch buffer reused across keys (see Reducer's
// documented lifetime contract). vals comes in and goes back as long as
// the largest group it has held, so its owner can reuse it and knows how
// much of it to clear.
func reduceSorted(r Reducer, recs []Record, m *model.Model, em Emitter, vals []writable.Writable) ([]writable.Writable, error) {
	held := len(vals)
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].Key == recs[lo].Key {
			hi++
		}
		vals = vals[:0]
		for _, rec := range recs[lo:hi] {
			vals = append(vals, rec.Value)
		}
		held = max(held, len(vals))
		if err := r.Reduce(recs[lo].Key, vals, m, em); err != nil {
			return vals[:held], err
		}
		lo = hi
	}
	return vals[:held], nil
}

// reduceOrdered is reduceSorted over the records that the sorted entries
// of order name, read where they lie in runs: the group step moves no
// record. Entries with different windows have different keys; entries
// with the same window have the same key when the windows are exact, and
// otherwise the keys decide.
func reduceOrdered(r Reducer, runs [][]Record, order []keyEntry, exact bool, m *model.Model, em Emitter, vals []writable.Writable) ([]writable.Writable, error) {
	held := len(vals)
	for lo := 0; lo < len(order); {
		head := order[lo]
		first := &runs[head.run][head.off]
		vals = append(vals[:0], first.Value)
		hi := lo + 1
		for ; hi < len(order) && order[hi].prefix == head.prefix; hi++ {
			rec := &runs[order[hi].run][order[hi].off]
			if !exact && rec.Key != first.Key {
				break
			}
			vals = append(vals, rec.Value)
		}
		held = max(held, len(vals))
		if err := r.Reduce(first.Key, vals, m, em); err != nil {
			return vals[:held], err
		}
		lo = hi
	}
	return vals[:held], nil
}

// RunGrouped groups recs by key and applies r to each group, returning
// its emissions. Keys are visited in ascending byte order and, within a
// key, values keep their order in recs, so execution is deterministic.
// recs is not modified. This is the group step of every mapred reduce
// and combine task; other backends that run mapred jobs call it too, so
// one definition of the grouping order exists.
func RunGrouped(r Reducer, recs []Record, m *model.Model) ([]Record, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	s := getScratch()
	defer s.release()
	s.addRun(recs)
	return s.reduceRuns(r, m)
}

// reduceRuns is RunGrouped over the concatenation of the scratch's runs.
func (s *scratch) reduceRuns(r Reducer, m *model.Model) ([]Record, error) {
	var err error
	if order, exact := s.sortOrder(); order == nil {
		s.vals, err = reduceSorted(r, s.concat(), m, &s.out, s.vals)
	} else {
		s.vals, err = reduceOrdered(r, s.runs, order, exact, m, &s.out, s.vals)
	}
	if err != nil {
		return nil, err
	}
	return append([]Record(nil), s.out.records...), nil
}

// reduceSortedParallel is reduceSorted with the key groups of the
// already-sorted recs sharded across the engine's worker pool: the
// contiguous key groups are cut into at most one contiguous shard per
// worker (balanced by record count, never splitting a key), and shard
// outputs are concatenated in key order. Output is therefore
// byte-identical to the serial scan for any worker count.
func (e *Engine) reduceSortedParallel(r Reducer, recs []Record, m *model.Model) ([]Record, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Cut points are group starts nearest the ideal even splits.
	cuts := make([]int, 1, workers+1)
	next := 1
	for i := 1; i < len(recs) && next < workers; i++ {
		if recs[i].Key != recs[i-1].Key && i*workers >= next*len(recs) {
			cuts = append(cuts, i)
			next++
		}
	}
	cuts = append(cuts, len(recs))
	nShards := len(cuts) - 1
	outs := make([]*listEmitter, nShards)
	shErrs := make([]error, nShards)
	e.parallelFor(nShards, func(sh int) {
		em := getEmitter()
		s := getScratch()
		var err error
		s.vals, err = reduceSorted(r, recs[cuts[sh]:cuts[sh+1]], m, em, s.vals)
		s.release()
		if err != nil {
			shErrs[sh] = err
		}
		outs[sh] = em
	})
	// Shards hold disjoint, ascending key ranges, so the first failing
	// shard holds the lowest failing key — the same error a serial scan
	// reports first.
	for _, err := range shErrs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o.records)
	}
	out := make([]Record, 0, total)
	for _, o := range outs {
		out = append(out, o.records...)
		putEmitter(o)
	}
	return out, nil
}

// PartitionAndCombine is the second half of a map task, after the
// mapper: it splits the task's emissions into numReducers partitions
// and, when the job has a combiner, replaces each partition by the
// combiner's output over its key groups. recs is not modified. The
// emissions are put in key order once, before the scatter; the scatter
// is stable, so every partition comes out in key order and the combiner
// runs as a plain group scan per partition. Without a combiner the
// partitions keep emission order — the reduce side sorts them anyway —
// and no sort runs. All partitions of the task share one exactly-sized
// backing array. Other backends that run mapred jobs call this and
// RunGrouped, so the map pipeline and the grouping order are each
// defined once.
func PartitionAndCombine(combiner Reducer, recs []Record, m *model.Model, numReducers int, partition Partitioner) ([][]Record, error) {
	s := getScratch()
	defer s.release()
	n := len(recs)
	part := s.partIdx(n)
	// next[p] is partition p's next output slot: its start before the
	// scatter, its end (the start of p+1) after.
	next := s.zeroCounts(numReducers)
	for j := range recs {
		p := partition(recs[j].Key, numReducers)
		part[j] = int32(p)
		next[p]++
	}
	off := 0
	for p, c := range next {
		next[p] = off
		off += c
	}

	parts := make([][]Record, numReducers)
	if combiner == nil {
		flat := make([]Record, n)
		for j := range recs {
			p := part[j]
			flat[next[p]] = recs[j]
			next[p]++
		}
		lo := 0
		for p, hi := range next {
			parts[p] = flat[lo:hi:hi]
			lo = hi
		}
		return parts, nil
	}

	// The scatter carries the sorted order into the partitions: records
	// themselves when the emissions arrived in order, otherwise only
	// their entries, which the combiner scan reads the records through.
	s.addRun(recs)
	order, exact := s.sortOrder()
	var bucketed []Record
	var bucketedOrder []keyEntry
	if order == nil {
		bucketed = s.records(n)
		for j := range recs {
			p := part[j]
			bucketed[next[p]] = recs[j]
			next[p]++
		}
	} else {
		bucketedOrder = s.spare(order)
		for _, e := range order {
			p := part[e.off]
			bucketedOrder[next[p]] = e
			next[p]++
		}
	}
	lo := 0
	for p, hi := range next {
		var err error
		if order == nil {
			s.vals, err = reduceSorted(combiner, bucketed[lo:hi], m, &s.out, s.vals)
		} else {
			s.vals, err = reduceOrdered(combiner, s.runs, bucketedOrder[lo:hi], exact, m, &s.out, s.vals)
		}
		if err != nil {
			return nil, err
		}
		lo = hi
		next[p] = len(s.out.records) // partition p's combined output ends here
	}
	flat := slices.Clone(s.out.records)
	lo = 0
	for p, hi := range next {
		parts[p] = flat[lo:hi:hi]
		lo = hi
	}
	return parts, nil
}
