package bsp

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/writable"
)

// The message plane: everything a run attempt needs to move messages
// from Compute to the next superstep's inboxes, addressed by vertex
// index and node slot, in flat buffers that outlive the run in a pool.
//
// A node's slot is its position in the attempt's ascending list of live
// nodes, so per-node tables are arrays and slot order is node-id order.

// outMsg is one boxed send as Compute made it.
type outMsg struct {
	to  int32
	tag string
	val writable.Writable
}

// floatMsg is one float send as Compute made it. It holds no pointer,
// so appending it pays no write barrier and the GC never scans it.
type floatMsg struct {
	to int32
	f  float64
}

// chunk is the Sender of one compute worker. It holds the sends of a
// contiguous run [lo, hi) of the active list (empty for a chunk the
// superstep does not use), one buffer per lane, each in vertex order
// then send order; scratch.sent and scratch.sentFloats say how many
// belong to each vertex. A worker stops at its first failing vertex.
type chunk struct {
	n      int // the program's vertex count: destinations are [0, n)
	lo, hi int
	msgs   []outMsg
	floats []floatMsg

	// failed is the vertex whose Compute returned err, or, with err
	// nil, sent to the out-of-range index stray; -1 while none has.
	failed  int
	err     error
	stray   int
	strayed bool
}

// bound reports whether to is a vertex, noting the first stray
// destination when it is not.
func (c *chunk) bound(to int) bool {
	if uint(to) < uint(c.n) {
		return true
	}
	if !c.strayed {
		c.strayed, c.stray = true, to
	}
	return false
}

func (c *chunk) Send(to int, tag string, v writable.Writable) {
	if c.bound(to) {
		c.msgs = append(c.msgs, outMsg{to: int32(to), tag: tag, val: v})
	}
}

func (c *chunk) SendFloat(to int, f float64) {
	if c.bound(to) {
		c.floats = append(c.floats, floatMsg{to: int32(to), f: f})
	}
}

// reset empties the chunk, leaving msgs zero beyond its length.
func (c *chunk) reset() {
	clear(c.msgs)
	*c = chunk{msgs: c.msgs[:0], floats: c.floats[:0], failed: -1}
}

// wireMsg is a (possibly combined) boxed message annotated with its
// routing: the slot of the node it leaves and the vertex it is bound
// for.
type wireMsg struct {
	src int32
	dst int32
	tag string
	val writable.Writable
}

// floatWire is a (possibly combined) float message with its routing.
type floatWire struct {
	src int32
	dst int32
	f   float64
}

// inboxes is one superstep's delivered messages in CSR form, one array
// per lane: vertex i's are msgs[off[i]:off[i+1]] and
// floats[foff[i]:foff[i+1]], each in its lane's wire order.
type inboxes struct {
	msgs   []Message
	off    []int32 // n+2 long; the last element is scratch space of the fill
	floats []float64
	foff   []int32 // as off
}

func (b *inboxes) of(i int) Inbox {
	lo, hi := b.off[i], b.off[i+1]
	flo, fhi := b.foff[i], b.foff[i+1]
	return Inbox{Msgs: b.msgs[lo:hi:hi], Floats: b.floats[flo:fhi:fhi]}
}

// count is how many messages vertex i has on both lanes.
func (b *inboxes) count(i int) int {
	return int(b.off[i+1] - b.off[i] + b.foff[i+1] - b.foff[i])
}

// scratch is the working memory of one run attempt, pooled as one object
// so a warm run allocates only what it returns. Nothing in it carries
// meaning from one attempt to the next: every table is sized and
// initialized by the attempt that reads it. Buffers that hold message
// values, tags or errors are zero beyond their length at all times and
// emptied on release, so the pool never pins program data.
type scratch struct {
	// Per attempt.
	live   []int     // live node ids, ascending; position = slot
	slotOf []int32   // node id -> slot, -1 for dead and foreign ids
	hslot  []int32   // by vertex: its home's slot
	halted []bool    // by vertex: voted to halt at its last Compute
	halts  []bool    // by vertex: this superstep's vote
	idSize []int32   // by vertex: its id's framed size on the wire, from the vertex set
	own    VertexSet // the set of a program that has none of its own

	// Per superstep.
	active     []int32 // vertices to compute, ascending
	sent       []int32 // by vertex: boxed sends this superstep
	sentFloats []int32 // by vertex: float sends this superstep
	sentBytes  []int64 // by vertex: the wire size of this superstep's sends
	chunks     []chunk
	wire       []wireMsg
	fwire      []floatWire
	// table is open-addressed; 0 is empty, w+1 names wire[w] (or vertex
	// w).
	table []int32
	// findex is the float lane's combine index, by source slot *
	// vertices + destination; 0 is empty, w+1 names fwire[w]. It is all
	// zero outside gather — gather clears the entries it set — so an
	// attempt never initializes it; folding marks a gather under way, and
	// release clears a whole index a panicking combiner left behind.
	findex  []int32
	folding bool
	inbox   inboxes // what Compute reads
	next    inboxes // what deliver fills; the two swap at the barrier

	nodeCost  []float64 // by slot
	nodeUsed  []bool    // by slot; usedSlots consumes it
	slots     []int32
	linkBytes []int64 // by source slot * len(live) + destination slot
	links     []int32 // linkBytes indices with traffic, first-use order
	tasks     []simcluster.Task
	flows     []simnet.Flow
	up, down  []simnet.Flow
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) release() {
	if s.folding {
		clear(s.findex[:cap(s.findex)])
		s.folding = false
	}
	s.own = VertexSet{idSize: s.own.idSize}
	s.idSize = nil
	for i := range s.chunks {
		s.chunks[i].reset()
	}
	clear(s.wire)
	s.wire = s.wire[:0]
	clear(s.inbox.msgs)
	s.inbox.msgs = s.inbox.msgs[:0]
	clear(s.next.msgs)
	s.next.msgs = s.next.msgs[:0]
	scratchPool.Put(s)
}

// sized returns buf with length n and unspecified contents.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf with length n, all zero.
func zeroed[T any](buf []T, n int) []T {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// hashSeed keys the table's string hashes. Which slot a key lands in is
// never observable: the table only answers "seen before, and where".
var hashSeed = maphash.MakeSeed()

// emptyTable returns the table zeroed and sized for up to n keys at a
// load of at most one half, and the shift that maps a 64-bit hash to a
// slot of it.
func (s *scratch) emptyTable(n int) (tbl []int32, shift uint) {
	size := 1 << bits.Len(uint(2*n))
	s.table = zeroed(s.table, size)
	return s.table, uint(64 - bits.Len(uint(size-1)))
}

// fib spreads a hash over the table by its high bits.
const fib = 0x9E3779B97F4A7C15

// duplicateID reports an id two vertices share.
func (s *scratch) duplicateID(verts []VertexInfo) (string, bool) {
	tbl, shift := s.emptyTable(len(verts))
	mask := len(tbl) - 1
	for i := range verts {
		id := verts[i].ID
		p := int(maphash.String(hashSeed, id) * fib >> shift)
		for ; tbl[p] != 0; p = (p + 1) & mask {
			if verts[tbl[p]-1].ID == id {
				return id, true
			}
		}
		tbl[p] = int32(i) + 1
	}
	return "", false
}

// setLive numbers the nodes of the view that are not dead and returns
// them, ascending.
func (s *scratch) setLive(nodes []int, dead map[int]bool) []int {
	s.live = s.live[:0]
	maxID := -1
	if len(nodes) > 0 {
		maxID = nodes[len(nodes)-1]
	}
	s.slotOf = sized(s.slotOf, maxID+1)
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	for _, nd := range nodes {
		if !dead[nd] {
			s.slotOf[nd] = int32(len(s.live))
			s.live = append(s.live, nd)
		}
	}
	l := len(s.live)
	s.nodeCost = sized(s.nodeCost, l)
	s.nodeUsed = zeroed(s.nodeUsed, l)
	s.linkBytes = zeroed(s.linkBytes, l*l)
	s.links = s.links[:0]
	return s.live
}

// usedSlots returns the slots marked in nodeUsed, ascending, and unmarks
// them. The result is valid until the next call.
func (s *scratch) usedSlots() []int32 {
	s.slots = s.slots[:0]
	for h, used := range s.nodeUsed {
		if used {
			s.slots = append(s.slots, int32(h))
			s.nodeUsed[h] = false
		}
	}
	return s.slots
}

// vertexSet returns prog's vertex set: its own when it is a SetProgram,
// else one derived from Vertices() into the scratch's.
func (s *scratch) vertexSet(prog Program) *VertexSet {
	if sp, ok := prog.(SetProgram); ok {
		return sp.VertexSet()
	}
	s.own.derive(prog.Vertices(), s)
	return &s.own
}

// startAttempt readies the per-vertex state of vs: nobody has halted,
// every inbox is empty, homes are yet to be set.
func (s *scratch) startAttempt(vs *VertexSet) {
	n := len(vs.infos)
	s.idSize = vs.idSize
	s.hslot = sized(s.hslot, n)
	s.halted = zeroed(s.halted, n)
	s.halts = sized(s.halts, n)
	s.sent = sized(s.sent, n)
	s.sentFloats = sized(s.sentFloats, n)
	s.sentBytes = sized(s.sentBytes, n)
	s.inbox.off = zeroed(s.inbox.off, n+2)
	s.inbox.foff = zeroed(s.inbox.foff, n+2)
	s.next.off = sized(s.next.off, n+2)
	s.next.foff = sized(s.next.foff, n+2)
}

// activate lists the vertices the coming superstep computes — those that
// have not halted or have mail on either lane — and reports whether
// there are any.
func (s *scratch) activate() bool {
	s.active = s.active[:0]
	for i, halted := range s.halted {
		if !halted || s.inbox.count(i) > 0 {
			s.active = append(s.active, int32(i))
		}
	}
	return len(s.active) > 0
}

// compute runs the superstep's Compute calls on up to workers goroutines
// (GOMAXPROCS when workers <= 0), each over a contiguous chunk of the
// non-empty active list with its own send buffer. It returns the chunk holding the
// first failing vertex in vertex order, nil when every call succeeded.
func (s *scratch) compute(prog Program, step, workers int) *chunk {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	na := len(s.active)
	workers = min(workers, na)
	per := (na + workers - 1) / workers
	busy := (na + per - 1) / per
	for len(s.chunks) < busy {
		s.chunks = append(s.chunks, chunk{})
	}
	for i := range s.chunks {
		c := &s.chunks[i]
		c.reset()
		if i < busy {
			c.n, c.lo, c.hi = len(s.halted), i*per, min((i+1)*per, na)
		}
	}
	if busy == 1 {
		s.computeChunk(&s.chunks[0], prog, step)
	} else {
		var wg sync.WaitGroup
		for i := range s.chunks[:busy] {
			wg.Add(1)
			go func(c *chunk) {
				defer wg.Done()
				s.computeChunk(c, prog, step)
			}(&s.chunks[i])
		}
		wg.Wait()
	}
	for i := range s.chunks {
		if c := &s.chunks[i]; c.failed >= 0 {
			return c
		}
	}
	return nil
}

func (s *scratch) computeChunk(c *chunk, prog Program, step int) {
	for _, v := range s.active[c.lo:c.hi] {
		i := int(v)
		before, fbefore := len(c.msgs), len(c.floats)
		halt, err := prog.Compute(step, i, s.inbox.of(i), c)
		s.sent[i] = int32(len(c.msgs) - before)
		s.sentFloats[i] = int32(len(c.floats) - fbefore)
		s.sentBytes[i] = s.wireSize(c.msgs[before:], c.floats[fbefore:])
		s.halts[i] = halt
		if err != nil || c.strayed {
			c.failed, c.err = i, err
			return
		}
	}
}

// wireSize is the wire size of sends on both lanes, uncombined.
func (s *scratch) wireSize(sends []outMsg, floats []floatMsg) (bytes int64) {
	for k := range sends {
		om := &sends[k]
		bytes += int64(s.idSize[om.to]) + boxedTail(om.tag, om.val)
	}
	for k := range floats {
		bytes += int64(s.idSize[floats[k].to])
	}
	return bytes + int64(len(floats))*floatTail
}

// gather merges the superstep's sends into the two wires, each in
// global vertex order then send order, and returns how many sends there
// were. With a combiner, a send whose key — (source node, destination,
// tag) on the boxed lane, (source node, destination) on the float lane
// — is already on its lane's wire is folded into that entry, left to
// right in send order, so an entry sits where its key first occurred.
// The boxed lane finds its key in the hash table; the float lane's key
// is two small integers, so it finds it in the dense findex.
func (s *scratch) gather(comb Combiner) (sends int) {
	nb, nf := 0, 0
	for i := range s.chunks {
		nb += len(s.chunks[i].msgs)
		nf += len(s.chunks[i].floats)
	}
	clear(s.wire)
	wire := slices.Grow(s.wire[:0], nb)
	fwire := slices.Grow(s.fwire[:0], nf)
	// The table maps a boxed key to its wire entry: the integer part of
	// the key is hashed, the tag only when there is one, and the entry is
	// compared in full on a hit.
	var tbl, idx []int32
	var shift uint
	n := len(s.halted)
	if comb != nil {
		tbl, shift = s.emptyTable(nb)
		s.findex = sized(s.findex, len(s.live)*n)
		idx, s.folding = s.findex, true
	}
	mask := len(tbl) - 1
	for ci := range s.chunks {
		c := &s.chunks[ci]
		out, fout := c.msgs, c.floats
		for _, v := range s.active[c.lo:c.hi] {
			src := s.hslot[v]
			k, fk := s.sent[v], s.sentFloats[v]
		send:
			for _, om := range out[:k] {
				if comb != nil {
					h := uint64(src)<<32 | uint64(om.to)
					if om.tag != "" {
						h ^= maphash.String(hashSeed, om.tag)
					}
					p := int(h * fib >> shift)
					for ; tbl[p] != 0; p = (p + 1) & mask {
						if w := &wire[tbl[p]-1]; w.src == src && w.dst == om.to && w.tag == om.tag {
							w.val = comb.Combine(w.val, om.val)
							continue send
						}
					}
					tbl[p] = int32(len(wire)) + 1
				}
				wire = append(wire, wireMsg{src: src, dst: om.to, tag: om.tag, val: om.val})
			}
			var row []int32 // the float index's entries of keys from src
			if comb != nil {
				row = idx[int(src)*n : int(src+1)*n]
			}
			for _, fm := range fout[:fk] {
				if comb != nil {
					if e := row[fm.to]; e != 0 {
						w := &fwire[e-1]
						w.f = comb.CombineFloat(w.f, fm.f)
						continue
					}
					row[fm.to] = int32(len(fwire)) + 1
				}
				fwire = append(fwire, floatWire{src: src, dst: fm.to, f: fm.f})
			}
			out, fout = out[k:], fout[fk:]
		}
	}
	if comb != nil {
		for w := range fwire {
			idx[int(fwire[w].src)*n+int(fwire[w].dst)] = 0
		}
		s.folding = false
	}
	s.wire, s.fwire = wire, fwire
	return nb + nf
}

// deliver files both wires into the next superstep's inboxes by a
// counting pass — each inbox in its lane's wire order — and returns the
// wires' size in bytes. With network set it also totals the bytes of
// every (source node, destination node) link that crosses nodes into
// linkBytes and lists those links in first-use order, the boxed wire
// before the float wire.
func (s *scratch) deliver(network bool) (bytes int64) {
	for _, l := range s.links {
		s.linkBytes[l] = 0
	}
	s.links = s.links[:0]
	nl := int32(len(s.live))
	book := func(src, dst int32, size int64) {
		bytes += size
		if dn := s.hslot[dst]; network && dn != src {
			l := src*nl + dn
			if s.linkBytes[l] == 0 { // a message is never empty
				s.links = append(s.links, l)
			}
			s.linkBytes[l] += size
		}
	}

	// Counting into off[dst+2] makes off[dst+1], after the prefix sum,
	// the cursor the scatter advances from dst's start to its end —
	// which is dst+1's start, so off[:n+1] ends up the CSR offsets.
	off := s.next.off
	clear(off)
	for w := range s.wire {
		wm := &s.wire[w]
		off[int(wm.dst)+2]++
		book(wm.src, wm.dst, int64(s.idSize[wm.dst])+boxedTail(wm.tag, wm.val))
	}
	prefixSum(off, len(s.wire))
	msgs := s.next.msgs
	if len(s.wire) < len(msgs) {
		clear(msgs[len(s.wire):])
	}
	msgs = sized(msgs, len(s.wire))
	for w := range s.wire {
		wm := &s.wire[w]
		cur := &off[int(wm.dst)+1]
		msgs[*cur] = Message{Tag: wm.tag, Value: wm.val}
		*cur++
	}
	s.next.msgs = msgs

	foff := s.next.foff
	clear(foff)
	for w := range s.fwire {
		fw := &s.fwire[w]
		foff[int(fw.dst)+2]++
		book(fw.src, fw.dst, int64(s.idSize[fw.dst])+floatTail)
	}
	prefixSum(foff, len(s.fwire))
	floats := sized(s.next.floats, len(s.fwire))
	for w := range s.fwire {
		fw := &s.fwire[w]
		cur := &foff[int(fw.dst)+1]
		floats[*cur] = fw.f
		*cur++
	}
	s.next.floats = floats
	return bytes
}

// prefixSum turns the counts of off[2:], which add up to total, into
// running totals. All-zero counts are their own.
func prefixSum(off []int32, total int) {
	if total == 0 {
		return
	}
	for d := 2; d < len(off); d++ {
		off[d] += off[d-1]
	}
}

// linkFlows returns the superstep's network traffic as deliver totalled
// it: one flow per link, in first-use order, and their sum.
func (s *scratch) linkFlows() (flows []simnet.Flow, bytes int64) {
	s.flows = s.flows[:0]
	nl := int32(len(s.live))
	for _, l := range s.links {
		b := s.linkBytes[l]
		s.flows = append(s.flows, simnet.Flow{Src: s.live[l/nl], Dst: s.live[l%nl], Bytes: b})
		bytes += b
	}
	return s.flows, bytes
}

// endStep crosses the barrier: votes take effect and the delivered
// messages become the inboxes Compute reads.
func (s *scratch) endStep() {
	for _, v := range s.active {
		s.halted[v] = s.halts[v]
	}
	s.inbox, s.next = s.next, s.inbox
}
