package mapred

import (
	"errors"
	"sync"

	"repro/internal/model"
)

// This file implements the loop-aware half of the runtime: a JobFamily
// pins persistent per-node workers for the lifetime of an IC/PIC run and
// caches each split's loop-invariant bytes plus the derived structures a
// fused kernel parses out of them (packed point arrays, graph
// adjacency). Iterations after the first then ship only the model delta
// to the workers instead of re-staging and re-parsing full inputs.
//
// The cache is observationally invisible: outputs, Metrics and traced
// spans are byte-identical to the cold path at any worker count, so all
// of its wins are real wall-clock, not simulated-time accounting tricks.
// The only new observable state is the cache.* counter family and the
// cache-warm/cache-evict point annotations, which conformance tests
// filter when comparing cold against warm runs.

// DefaultNodeCacheBytes is the default per-node budget for resident
// split bytes plus derived structures — sized like the spare heap of a
// commodity 2012 cluster node, far above any bundled workload, so
// capacity eviction only occurs when tests dial the budget down.
const DefaultNodeCacheBytes int64 = 512 << 20

// SplitDerived is a cacheable structure a fused kernel derives from a
// split's records once and reuses every iteration (parsed/packed
// records, adjacency lists). What it derived from the records is
// read-only after construction. Beside that it may carry memo state
// written only by the single task that holds the split during a job;
// results must not depend on whether it is present — the entry, memo
// and all, is dropped without notice by capacity eviction, EvictNode,
// Release and Invalidate, and the next touch starts from a fresh
// NewDerived.
type SplitDerived interface {
	// SizeBytes reports the structure's resident size, charged against
	// the owning node's cache budget on top of the split bytes it was
	// derived from.
	SizeBytes() int64
}

// ErrFusedUnsupported is returned by a fused kernel that cannot handle
// the shape of a particular split or model (ragged dimensions, empty
// model). The engine then runs the whole job on the record-at-a-time
// path, which produces byte-identical output by construction.
var ErrFusedUnsupported = errors.New("mapred: fused kernel does not support this split/model shape")

// LocalFuser is the optional capability a Mapper implements to run
// RunLocal's map+reduce fused across all splits. par schedules f(i) for
// i in [0,n) on the engine's worker pool; implementations must confine
// cross-split floating-point accumulation to a serial pass in global
// arrival order so results stay byte-identical to the cold path at any
// worker count. mapEmits is the map-phase emission count the cold
// pipeline would have produced (it prices the reduce phase).
//
// into is the job's Into, nil when it has none. A kernel may write the
// job's output — what the cold reducer emits — into it by slot, and
// reports how many output records it wrote that way as written. What
// it emits is delivered as the cold path's output is (Set into into
// after FuseLocal returns, when there is one), so a kernel that ignores
// into stays correct.
type LocalFuser interface {
	Mapper
	// NewDerived parses a split's records into the cacheable form the
	// kernel consumes; nil opts the whole job out.
	NewDerived(recs []Record) SplitDerived
	FuseLocal(ds []SplitDerived, m, into *model.Model, par func(n int, f func(int)), emit Emitter) (mapEmits, written int64, err error)
}

// IntoMapper is the optional capability a Mapper implements to run a
// job with Job.Into by slot, split by split, instead of through
// records. The engine uses it only with a JobFamily attached, after
// every split has staged; a nil NewDerived or an ErrFusedUnsupported
// from any split runs the whole job cold. The contract is strict
// identity with that cold run — Into, Output and every Metrics field —
// and it takes one of two forms:
//
//   - A map-only job (part is nil): MapInto writes the split's output
//     into into by slot. After MapInto has run over every split in
//     order, Into must hold exactly what Setting the records Map emits
//     leaves there. The engine calls MapInto serially in split order,
//     so a kernel writes into without locks; the cold path re-Sets every
//     record, so a partial write cannot show.
//   - A job whose Reducer is a FloatSum or a VectorSum, with a Combiner
//     and the default partitioner: MapInto folds the split into part.
//     For every record the split's Map → Combiner pipeline outputs it
//     adds, once, the slot of the record's key in into's schema and the
//     record's value: a Float64 with Add, a Vector with AddRow, every
//     Vector of the job of one length. into is only read, and the engine
//     may run splits concurrently. The engine prices the shuffle and
//     reduce from part and writes the reducer's output into Into itself
//     (see into.go).
//
// records and bytes are the count and encoded size of the records Map
// emits for the split, before any combiner — the engine charges map
// costs and output counters from them.
type IntoMapper interface {
	Mapper
	// NewDerived as in LocalFuser; nil opts the whole job out.
	NewDerived(recs []Record) SplitDerived
	// MapInto runs one split's map toward into, the job's Into, reading
	// m, the job's model.
	MapInto(d SplitDerived, m, into *model.Model, part *Partial) (records, bytes int64, err error)
}

// FamilyStats is a snapshot of a family's cache counters. Hits through
// Evictions and DeltaBytes/FullBytes are cumulative; ResidentBytes is
// the current total across nodes.
type FamilyStats struct {
	// Hits and Misses count split acquisitions served from / staged
	// into the cache.
	Hits, Misses int64
	// Evictions counts entries dropped — by capacity, node crash, or
	// release.
	Evictions int64
	// ResidentBytes is the current resident total (split bytes plus
	// derived structures) across all nodes.
	ResidentBytes int64
	// DeltaBytes accumulates the model bytes actually shipped to warm
	// workers per iteration; FullBytes accumulates the input bytes those
	// iterations did not have to re-stage. Their ratio is the loop-aware
	// runtime's traffic saving.
	DeltaBytes, FullBytes int64
}

// CacheEventKind distinguishes drained cache events.
type CacheEventKind int

// The cache event kinds.
const (
	CacheWarm CacheEventKind = iota
	CacheEvict
)

// CacheEvent is one staging or eviction a family performed since the
// last drain; the core runtime turns these into cache-warm/cache-evict
// trace annotations.
type CacheEvent struct {
	Kind CacheEventKind
	// Node is the owning node (the split's home, or -1 for in-memory
	// runs with no affinity).
	Node int
	// Records is the staged split's record count (warm events only).
	Records int
	// Bytes is the resident bytes staged or released.
	Bytes int64
}

// splitIdent identifies a split's loop-invariant content within a
// family: the identity of its record backing array (address of the
// first record plus length) and the family's iteration epoch. Two
// distinct live record slices can never collide — entries pin their
// records, so the address cannot be recycled while the entry is
// resident — and re-slicings that share a first record but differ in
// length are distinct by construction.
type splitIdent struct {
	first *Record
	n     int
	epoch uint64
}

func identOf(recs []Record, epoch uint64) splitIdent {
	if len(recs) == 0 {
		return splitIdent{nil, 0, epoch}
	}
	return splitIdent{&recs[0], len(recs), epoch}
}

// cacheEntry is one resident split: the pinned records (keeping the
// backing array live so its address stays unique), the derived
// structure, and LRU bookkeeping.
type cacheEntry struct {
	ident   splitIdent
	recs    []Record
	derived SplitDerived
	bytes   int64
	lastUse uint64
}

// familyNode is one node's share of the cache.
type familyNode struct {
	entries  map[splitIdent]*cacheEntry
	resident int64
}

// JobFamily pins persistent per-node workers across the iterations of
// an IC/PIC run and owns their invariant-input caches. All mutating
// methods are serialized by the family's mutex; the engine only calls
// acquire from its serial warm pre-pass, so eviction order, counters
// and event logs are deterministic regardless of Workers.
type JobFamily struct {
	mu      sync.Mutex
	name    string
	nodeCap int64
	epoch   uint64
	clock   uint64
	nodes   map[int]*familyNode
	stats   FamilyStats
	drained FamilyStats
	events  []CacheEvent
	// shipped holds, per job name and model schema, the model version
	// last shipped to the family's warm workers, so the next warm
	// iteration charges only the sparse delta encoding against it
	// (model.EncodeDelta) instead of the full model size. The schema is
	// part of the key because the sub-problems of a PIC best-effort
	// phase share one family and run one after another: each diffs
	// against its own predecessor, not the previous partition's model.
	shipped map[string]map[*model.Schema]*model.Model
	// routes holds the slot routes of the Into schemas jobs reduce into,
	// per reducer count: a pure function of both, computed once.
	routes map[routeKey]*slotRoute
	// host holds the host-only state owners derived from whole inputs
	// (see HostDerived).
	host map[hostKey]*hostEntry
}

// hostKey names one owner's state derived from one input.
type hostKey struct {
	owner any
	in    *Input
}

// hostEntry is derived state and the splits it was derived from.
type hostEntry struct {
	splits []splitStamp
	state  any
}

// splitStamp identifies a split's records and home. It needs no epoch:
// Invalidate drops all host state.
type splitStamp struct {
	ident splitIdent
	home  int
}

func stampOf(sp *Split) splitStamp { return splitStamp{identOf(sp.Records, 0), sp.Home} }

func stampsOf(in *Input) []splitStamp {
	st := make([]splitStamp, len(in.Splits))
	for i := range in.Splits {
		st[i] = stampOf(&in.Splits[i])
	}
	return st
}

// matches reports whether in still has the splits e was derived from.
func (e *hostEntry) matches(in *Input) bool {
	if len(in.Splits) != len(e.splits) {
		return false
	}
	for i := range in.Splits {
		if e.splits[i] != stampOf(&in.Splits[i]) {
			return false
		}
	}
	return true
}

// maxShippedVersions bounds the versions shipped keeps per job, and the
// routes a family keeps: one per sub-model plus the full model's is the
// steady state, and a run that keeps minting schemas starts over rather
// than growing without bound.
const maxShippedVersions = 64

// NewJobFamily creates a family with the given per-node cache budget
// (DefaultNodeCacheBytes if perNodeCapBytes <= 0).
func NewJobFamily(name string, perNodeCapBytes int64) *JobFamily {
	if perNodeCapBytes <= 0 {
		perNodeCapBytes = DefaultNodeCacheBytes
	}
	return &JobFamily{name: name, nodeCap: perNodeCapBytes, nodes: map[int]*familyNode{},
		shipped: map[string]map[*model.Schema]*model.Model{}}
}

// Name reports the family's label.
func (f *JobFamily) Name() string { return f.name }

// Stats snapshots the cache counters.
func (f *JobFamily) Stats() FamilyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// DrainStatsDelta returns the counter increments since the previous
// drain (ResidentBytes is reported as the current value, not a delta).
func (f *JobFamily) DrainStatsDelta() FamilyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FamilyStats{
		Hits:          f.stats.Hits - f.drained.Hits,
		Misses:        f.stats.Misses - f.drained.Misses,
		Evictions:     f.stats.Evictions - f.drained.Evictions,
		ResidentBytes: f.stats.ResidentBytes,
		DeltaBytes:    f.stats.DeltaBytes - f.drained.DeltaBytes,
		FullBytes:     f.stats.FullBytes - f.drained.FullBytes,
	}
	f.drained = f.stats
	return d
}

// DrainEvents returns and clears the staged/evicted event log.
func (f *JobFamily) DrainEvents() []CacheEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	evs := f.events
	f.events = nil
	return evs
}

// NodeResident reports a node's entry count and resident bytes.
func (f *JobFamily) NodeResident(node int) (entries int, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn := f.nodes[node]
	if fn == nil {
		return 0, 0
	}
	return len(fn.entries), fn.resident
}

// acquire returns the derived structure cached for recs on node,
// building and staging it on a miss (hit reports which). A nil result
// means build declined (the split is unsuitable for fusion) and nothing
// was cached. Callers must acquire serially in split order so LRU
// stamps are deterministic.
func (f *JobFamily) acquire(node int, recs []Record, splitBytes int64, build func([]Record) SplitDerived) (d SplitDerived, hit bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ident := identOf(recs, f.epoch)
	fn := f.nodes[node]
	if fn == nil {
		fn = &familyNode{entries: map[splitIdent]*cacheEntry{}}
		f.nodes[node] = fn
	}
	f.clock++
	if e := fn.entries[ident]; e != nil {
		e.lastUse = f.clock
		f.stats.Hits++
		return e.derived, true
	}
	d = build(recs)
	if d == nil {
		return nil, false
	}
	f.stats.Misses++
	e := &cacheEntry{
		ident:   ident,
		recs:    recs,
		derived: d,
		bytes:   splitBytes + d.SizeBytes(),
		lastUse: f.clock,
	}
	fn.entries[ident] = e
	fn.resident += e.bytes
	f.stats.ResidentBytes += e.bytes
	f.events = append(f.events, CacheEvent{Kind: CacheWarm, Node: node, Records: len(recs), Bytes: e.bytes})
	f.evictOverCapLocked(node, fn, e)
	return d, false
}

// evictOverCapLocked drops least-recently-used entries (never keep,
// which was just staged) until the node fits its budget. Ties on
// lastUse cannot occur — the clock is bumped per acquisition under the
// family lock — so eviction order is fully deterministic.
func (f *JobFamily) evictOverCapLocked(node int, fn *familyNode, keep *cacheEntry) {
	for fn.resident > f.nodeCap && len(fn.entries) > 1 {
		var victim *cacheEntry
		for _, e := range fn.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		f.dropLocked(node, fn, victim)
	}
}

func (f *JobFamily) dropLocked(node int, fn *familyNode, e *cacheEntry) {
	delete(fn.entries, e.ident)
	fn.resident -= e.bytes
	f.stats.ResidentBytes -= e.bytes
	f.stats.Evictions++
	f.events = append(f.events, CacheEvent{Kind: CacheEvict, Node: node, Bytes: e.bytes})
}

// noteIteration records one warm iteration's traffic saving: deltaBytes
// of model actually shipped versus fullBytes of input not re-staged.
func (f *JobFamily) noteIteration(deltaBytes, fullBytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.DeltaBytes += deltaBytes
	f.stats.FullBytes += fullBytes
}

// shippedDelta returns the model bytes a warm iteration of job actually
// moves to the family's workers — the full model the first time a model
// on m's schema ships (the workers hold nothing to patch), the sparse
// delta encoding against the previously shipped version on that schema
// after that — and records m as the version now resident on the
// workers. Pure accounting: it never changes what the simulation
// executes, only the cache.delta_bytes honesty.
func (f *JobFamily) shippedDelta(job string, m *model.Model) int64 {
	if m == nil {
		return 0
	}
	s := m.Schema()
	f.mu.Lock()
	defer f.mu.Unlock()
	versions := f.shipped[job]
	prev := versions[s]
	var d int64
	if prev == nil {
		d = m.Size()
		if versions == nil || len(versions) >= maxShippedVersions {
			versions = map[*model.Schema]*model.Model{}
			f.shipped[job] = versions
		}
	} else {
		d = model.DeltaSize(prev, m)
	}
	versions[s] = m.Clone()
	return d
}

// noteWarm books a job's warm iteration when any of its splits hit the
// cache (warmBytes > 0): the model delta it shipped against the hit
// splits' bytes it did not have to re-stage.
func (f *JobFamily) noteWarm(job string, m *model.Model, warmBytes int64) {
	if warmBytes > 0 {
		f.noteIteration(f.shippedDelta(job, m), warmBytes)
	}
}

// ShippedModelBytes is the exported face of shippedDelta for
// alternative execution backends (the BSP engine): it returns the model
// bytes a delta-shipping transport would move for this job's next warm
// iteration and records m as the version now resident. Like the
// internal path, it is pure accounting — callers still price whatever
// distribution they actually execute.
func (f *JobFamily) ShippedModelBytes(job string, m *model.Model) int64 {
	return f.shippedDelta(job, m)
}

// NoteWarmIteration books one warm iteration's traffic saving into the
// family stats (cache.delta_bytes / cache.full_bytes): deltaBytes of
// model actually shipped versus fullBytes of input not re-staged.
// Exported for alternative backends; the mapred engine books its own.
func (f *JobFamily) NoteWarmIteration(deltaBytes, fullBytes int64) {
	f.noteIteration(deltaBytes, fullBytes)
}

// AcquireDerived is the exported face of acquire for tests and
// alternative backends: it returns the derived structure cached on node
// for the split identified by recs (building and staging it on a miss)
// and whether it was a cache hit.
func (f *JobFamily) AcquireDerived(node int, recs []Record, splitBytes int64, build func([]Record) SplitDerived) (SplitDerived, bool) {
	return f.acquire(node, recs, splitBytes, build)
}

// HostDerived returns the state derive built from in for owner, which
// must be comparable: derive runs on the first call for (owner, in) and
// again when in's splits have since changed — other records or another
// home — or the state was dropped; its error is returned and nothing is
// kept. The state is the simulator's own memory, not a worker's: it is
// charged to no node's cache budget and stages, evicts and counts
// nothing, so no cache.* counter or event shows it. EvictNode, Release
// and Invalidate drop all of it, as they drop what workers cache, and a
// family that keeps minting inputs starts over past maxShippedVersions
// of them. derive runs outside the family's lock.
func (f *JobFamily) HostDerived(owner any, in *Input, derive func() (any, error)) (any, error) {
	key := hostKey{owner, in}
	f.mu.Lock()
	e := f.host[key]
	f.mu.Unlock()
	if e != nil && e.matches(in) {
		return e.state, nil
	}
	state, err := derive()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.host == nil || len(f.host) >= maxShippedVersions {
		f.host = map[hostKey]*hostEntry{}
	}
	f.host[key] = &hostEntry{splits: stampsOf(in), state: state}
	return state, nil
}

// EvictNode drops every entry cached on node — the fault layer calls
// this when the node crashes, so splits re-homed to survivors re-stage
// cold there. Returns what was dropped.
func (f *JobFamily) EvictNode(node int) (entries int, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.host = nil
	return f.evictNodeLocked(node)
}

func (f *JobFamily) evictNodeLocked(node int) (entries int, bytes int64) {
	fn := f.nodes[node]
	if fn == nil || len(fn.entries) == 0 {
		return 0, 0
	}
	// Drop in deterministic LRU order so the event log is stable.
	for len(fn.entries) > 0 {
		var victim *cacheEntry
		for _, e := range fn.entries {
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		entries++
		bytes += victim.bytes
		f.dropLocked(node, fn, victim)
	}
	delete(f.nodes, node)
	return entries, bytes
}

// Release drops every entry on every node — the scheduler calls this
// when a job is preempted or restarted, returning the workers' memory
// to the cluster; a later resume re-warms on first touch.
func (f *JobFamily) Release() (entries int, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, node := range f.sortedNodesLocked() {
		n, b := f.evictNodeLocked(node)
		entries += n
		bytes += b
	}
	// The workers are gone, and their resident model versions with them:
	// the next warm iteration ships a full model again.
	f.shipped = map[string]map[*model.Schema]*model.Model{}
	f.host = nil
	return entries, bytes
}

// Invalidate starts a new iteration epoch: all existing entries are
// released and keys minted afterwards cannot collide with prior epochs
// even if record arrays are recycled.
func (f *JobFamily) Invalidate() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, node := range f.sortedNodesLocked() {
		f.evictNodeLocked(node)
	}
	f.shipped = map[string]map[*model.Schema]*model.Model{}
	f.host = nil
	f.epoch++
}

func (f *JobFamily) sortedNodesLocked() []int {
	nodes := make([]int, 0, len(f.nodes))
	for n := range f.nodes {
		nodes = append(nodes, n)
	}
	// Insertion sort: node counts are tiny and this avoids an import.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j] < nodes[j-1]; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	return nodes
}
