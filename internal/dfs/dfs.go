// Package dfs models the cluster file system (HDFS in the paper): files
// are sequences of blocks, each block is replicated on several nodes,
// writes go through a replication pipeline, and reads prefer the closest
// replica. The PIC paper's "model update" traffic is exactly the
// replication-pipeline traffic this package charges when an iteration
// stores a new model.
package dfs

import (
	"fmt"
	"sort"

	"repro/internal/integrity"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Config holds file-system parameters.
type Config struct {
	// Replication is the number of copies of each block (HDFS default
	// 3; the paper stores the model "with replicas").
	Replication int
	// BlockSize is the maximum block size in bytes (HDFS default 64 MB
	// in the Hadoop 0.20 era).
	BlockSize int64
}

// DefaultConfig mirrors Hadoop 0.20 defaults.
func DefaultConfig() Config {
	return Config{Replication: 3, BlockSize: 64 << 20}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Replication <= 0 {
		return fmt.Errorf("dfs: Replication = %d, must be positive", c.Replication)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("dfs: BlockSize = %d, must be positive", c.BlockSize)
	}
	return nil
}

// Block is one replicated extent of a file.
type Block struct {
	// Size is the block length in bytes.
	Size int64
	// Replicas lists the nodes holding a copy; Replicas[0] is the
	// primary (the writer's copy when the writer is a cluster node).
	Replicas []int
}

// File is a named sequence of blocks.
type File struct {
	Name   string
	Blocks []Block
	// data holds the file contents when the file was written with
	// CreateWithData; size-only files (traffic accounting without
	// payload) leave it nil.
	data []byte
	// sums holds the CRC32C of each block's slice of data, sealed at
	// write time; verify-on-read checks replicas against it.
	sums []uint32
}

// Data returns the stored contents, or nil for size-only files. The
// caller must not mutate the result.
func (f *File) Data() []byte { return f.data }

// Size reports the file length in bytes.
func (f *File) Size() int64 {
	var n int64
	for _, b := range f.Blocks {
		n += b.Size
	}
	return n
}

// Counters accumulates file-system traffic, in bytes.
type Counters struct {
	// WritePipeline is replication traffic that crossed node
	// boundaries during writes.
	WritePipeline int64
	// RemoteRead is read traffic served by a non-local replica.
	RemoteRead int64
	// LocalRead is read traffic served from a local replica (free).
	LocalRead int64
	// ReReplication is traffic spent restoring replication after node
	// failures (see Repair).
	ReReplication int64
}

// FS is a simulated distributed file system over one cluster fabric.
type FS struct {
	cfg      Config
	cluster  *simcluster.Cluster
	files    map[string]*File
	counters Counters
	place    int // round-robin cursor for primary placement
	// reReplTo accumulates re-replication bytes received per node
	// (indexed by global node id) — the per-node share of
	// Counters.ReReplication.
	reReplTo []int64
	// dead marks crashed nodes: their replicas are destroyed and they
	// receive no new placements until MarkAlive.
	dead map[int]bool
	// verify enables checksum verification on the read paths (on by
	// default; see SetVerifyReads).
	verify bool
	// patches holds scripted corruption: byte flips applied to
	// individual replicas' copies of their blocks. Empty patches keep
	// every path byte-identical to a corruption-free file system.
	patches map[replicaKey][]replicaPatch
	// icounters and ievents accumulate integrity-layer activity.
	icounters IntegrityCounters
	ievents   []IntegrityEvent
	// scrubFile/scrubBlock persist the background scrubber's cursor.
	scrubFile  string
	scrubBlock int
}

// New creates an empty file system on the given cluster view. The view
// should normally be the full cluster. It panics on an invalid
// configuration.
func New(cluster *simcluster.Cluster, cfg Config) *FS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &FS{cfg: cfg, cluster: cluster, files: make(map[string]*File),
		reReplTo: make([]int64, cluster.Config().Nodes), verify: true}
}

// Config returns the file-system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Counters returns a snapshot of the traffic counters.
func (fs *FS) Counters() Counters { return fs.counters }

// StoredBytes returns the bytes of replica data each node currently
// holds, indexed by global node id — the storage-utilization view of
// the namespace. Crashed nodes hold zero (their replicas are destroyed).
func (fs *FS) StoredBytes() []int64 {
	out := make([]int64, fs.cluster.Config().Nodes)
	for _, f := range fs.files {
		for _, b := range f.Blocks {
			for _, r := range b.Replicas {
				out[r] += b.Size
			}
		}
	}
	return out
}

// ReReplicationReceived returns the re-replication bytes each node has
// received across all Repair passes, indexed by global node id. The
// values sum to Counters().ReReplication.
func (fs *FS) ReReplicationReceived() []int64 {
	return append([]int64(nil), fs.reReplTo...)
}

// ResetCounters zeroes the traffic counters.
func (fs *FS) ResetCounters() { fs.counters = Counters{} }

// Open returns the named file, or false if it does not exist.
func (fs *FS) Open(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Delete removes the named file. Deleting a missing file is a no-op.
func (fs *FS) Delete(name string) {
	delete(fs.files, name)
	fs.dropPatches(name, -1)
}

// Create writes a new file of the given size, replacing any existing
// file with the same name. writer is the node performing the write, or
// -1 for an off-cluster client (primaries are then placed round-robin).
// It returns the file and the simulated time the replication pipeline
// took; the pipeline traffic is recorded on the cluster fabric and in
// the FS counters.
func (fs *FS) Create(name string, size int64, writer int) (*File, simtime.Duration) {
	if size < 0 {
		panic("dfs: negative file size")
	}
	if writer >= 0 && fs.dead[writer] {
		// A dead writer cannot hold the primary; fall back to
		// off-cluster placement over the live nodes.
		writer = -1
	}
	f := &File{Name: name}
	var flows []simnet.Flow
	for remaining := size; ; {
		bs := remaining
		if bs > fs.cfg.BlockSize {
			bs = fs.cfg.BlockSize
		}
		replicas := fs.placeReplicas(writer)
		f.Blocks = append(f.Blocks, Block{Size: bs, Replicas: replicas})
		// Replication pipeline: writer -> r0 -> r1 -> ... Each hop
		// that crosses a node boundary is network traffic.
		prev := writer
		if prev < 0 {
			prev = replicas[0]
		}
		for _, r := range replicas {
			if r != prev {
				flows = append(flows, simnet.Flow{Src: prev, Dst: r, Bytes: bs})
				fs.counters.WritePipeline += bs
			}
			prev = r
		}
		remaining -= bs
		if remaining <= 0 {
			break
		}
	}
	fs.files[name] = f
	fs.dropPatches(name, -1) // a rewrite supersedes the old incarnation's damage
	return f, fs.charge(flows, 0, false)
}

// placeReplicas chooses replica nodes for one block following the HDFS
// policy: first replica on the writer (or round-robin for off-cluster
// writers), second on a different rack when one exists, third on the
// second replica's rack. Placement is deterministic.
func (fs *FS) placeReplicas(writer int) []int {
	nodes := fs.liveNodes()
	fabric := fs.cluster.Fabric()
	n := len(nodes)
	reps := min(fs.cfg.Replication, n)

	first := writer
	if first < 0 {
		first = nodes[fs.place%n]
		fs.place++
	}
	chosen := []int{first}
	used := map[int]bool{first: true}
	firstRack := fabric.Rack(first)

	// Candidates in deterministic rotation order starting after first.
	start := sort.SearchInts(nodes, first)
	candidate := func(pred func(int) bool) (int, bool) {
		for i := 1; i <= n; i++ {
			c := nodes[(start+i)%n]
			if !used[c] && pred(c) {
				return c, true
			}
		}
		return 0, false
	}

	if reps >= 2 {
		// Prefer a different rack for the second replica.
		c, ok := candidate(func(c int) bool { return fabric.Rack(c) != firstRack })
		if !ok {
			c, ok = candidate(func(int) bool { return true })
		}
		if ok {
			chosen = append(chosen, c)
			used[c] = true
		}
	}
	for len(chosen) < reps {
		// Third and later replicas prefer the second replica's rack.
		rack := fabric.Rack(chosen[len(chosen)-1])
		c, ok := candidate(func(c int) bool { return fabric.Rack(c) == rack })
		if !ok {
			c, ok = candidate(func(int) bool { return true })
		}
		if !ok {
			break
		}
		chosen = append(chosen, c)
		used[c] = true
	}
	return chosen
}

// CreateWithData writes a file with real contents: the same placement,
// replication pipeline and traffic accounting as Create, plus the bytes
// themselves, retrievable with Data or ReadDataChecked. This is how
// model checkpoints are persisted.
//
// The file system takes ownership of data: it stores the slice itself,
// not a copy, so the caller must not modify it afterwards. Readers
// (Data, ReadDataChecked) are handed the same bytes and must not
// modify them either; scripted corruption lives beside them as
// per-replica patches and never writes into them.
func (fs *FS) CreateWithData(name string, data []byte, writer int) (*File, simtime.Duration) {
	f, d := fs.Create(name, int64(len(data)), writer)
	f.data = data
	// Seal a CRC32C per block at write time; verify-on-read checks
	// replicas against these.
	f.sums = make([]uint32, len(f.Blocks))
	var off int64
	for i, b := range f.Blocks {
		f.sums[i] = integrity.Checksum(data[off : off+b.Size])
		off += b.Size
	}
	return f, d
}

// Checksum returns the CRC32C of the file's contents, as
// integrity.Checksum(f.Data()) would, combined from the block checksums
// sealed at write time instead of a second pass over the bytes. A
// size-only file has no contents and returns 0.
func (f *File) Checksum() uint32 {
	var sum uint32
	for i, s := range f.sums {
		sum = integrity.Combine(sum, s, f.Blocks[i].Size)
	}
	return sum
}

// charge records flows on the fabric and returns their transfer time:
// under the registered network plan's overlay at time at when
// honourPlan is set, on the unfaulted fabric otherwise. Callers that
// honour the plan have already routed around severed paths, so the
// fabric cannot refuse the flows.
func (fs *FS) charge(flows []simnet.Flow, at simtime.Time, honourPlan bool) simtime.Duration {
	fabric := fs.cluster.Fabric()
	if !honourPlan {
		return fabric.Transfer(flows)
	}
	fabric.Record(flows)
	d, err := fabric.TransferTimeAt(flows, at)
	if err != nil {
		panic(err)
	}
	return d
}

// liveNodes returns the view's nodes that are not marked dead, in
// sorted order. It panics when every node is dead: the file system has
// nowhere left to place data.
func (fs *FS) liveNodes() []int {
	all := fs.cluster.Nodes()
	if len(fs.dead) == 0 {
		return all
	}
	live := make([]int, 0, len(all))
	for _, n := range all {
		if !fs.dead[n] {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		panic("dfs: no live nodes")
	}
	return live
}

// MarkDead records node n as crashed: every replica it held is
// destroyed and it receives no new placements. Call Repair afterwards to
// restore replication from the surviving copies. Marking a dead node
// dead again is a no-op.
func (fs *FS) MarkDead(n int) {
	if fs.dead == nil {
		fs.dead = map[int]bool{}
	}
	if fs.dead[n] {
		return
	}
	fs.dead[n] = true
	fs.dropPatches("", n) // the poisoned disk is gone with the node
	for _, f := range fs.files {
		for bi := range f.Blocks {
			reps := f.Blocks[bi].Replicas
			kept := reps[:0]
			for _, r := range reps {
				if r != n {
					kept = append(kept, r)
				}
			}
			f.Blocks[bi].Replicas = kept
		}
	}
}

// MarkAlive records node n as recovered. It rejoins with empty disks —
// re-replication moved its blocks elsewhere — and becomes eligible for
// placements again; call Repair to top blocks back up to full
// replication if earlier failures left too few live nodes.
func (fs *FS) MarkAlive(n int) { delete(fs.dead, n) }

// DeadNodes returns the crashed nodes in sorted order.
func (fs *FS) DeadNodes() []int {
	out := make([]int, 0, len(fs.dead))
	for n := range fs.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Lost reports whether any block of f has no surviving replica. Such a
// file can be neither read nor repaired: crashes destroy disks, so a
// recovering node does not bring lost blocks back.
func (fs *FS) Lost(f *File) bool {
	for _, b := range f.Blocks {
		if len(b.Replicas) == 0 {
			return true
		}
	}
	return false
}

// RepairReport summarizes one re-replication pass.
type RepairReport struct {
	// ReplicatedBlocks and ReplicatedBytes count the block copies made
	// to restore replication.
	ReplicatedBlocks int
	ReplicatedBytes  int64
	// LostBlocks counts blocks with no surviving replica, which cannot
	// be repaired.
	LostBlocks int
	// UnreachableBlocks counts blocks a RepairReachable pass skipped
	// because an active network fault severed every replica from the
	// repairing side; they are left for the post-heal repair.
	UnreachableBlocks int
}

// Repair scans every file for under-replicated blocks — fewer live
// replicas than min(Replication, live nodes) — and copies each from a
// surviving replica to a live node not already holding it, mirroring the
// namenode's re-replication queue. The copy traffic is charged on the
// fabric and in Counters.ReReplication, and the returned duration is the
// transfer time of the burst, priced on the unfaulted fabric. The scan
// is deterministic (files in name order, targets in rotation order), so
// simulations with failures stay reproducible.
func (fs *FS) Repair() (RepairReport, simtime.Duration) {
	report, flows := fs.repairAmong(func(int) bool { return true })
	return report, fs.charge(flows, 0, false)
}

// RepairReachable is Repair as a namenode on node from's side of an
// active network fault can run it at time at: only nodes alive and
// reachable from `from` serve as copy sources or targets, so the
// reachable side re-replicates around the fault while far-side
// replicas are merely uncounted, not destroyed. A block ends the pass
// with min(Replication, reachable live nodes) reachable copies; once
// the fault heals it may briefly hold more replicas than Replication,
// which later passes leave alone (extra copies are harmless). Blocks
// with no reachable replica are reported as UnreachableBlocks and
// skipped. Copy traffic is priced under the plan's overlay at `at`, so
// a concurrent brownout stretches the returned duration.
func (fs *FS) RepairReachable(from int, at simtime.Time) (RepairReport, simtime.Duration) {
	fabric := fs.cluster.Fabric()
	report, flows := fs.repairAmong(func(n int) bool { return fabric.ReachableAt(from, n, at) })
	// Sources and targets are all reachable from `from`, which the tree
	// topology makes mutually reachable.
	return report, fs.charge(flows, at, true)
}

// repairAmong is the one re-replication scan: the candidate nodes are
// the live view nodes that pass eligible, a block's holders are its
// replicas among the candidates, and each block is topped up to
// min(Replication, candidates) holders by copying from its first holder
// to the next candidate in rotation order. It mutates replica lists and
// counters and returns the copy flows for the caller to price.
func (fs *FS) repairAmong(eligible func(node int) bool) (RepairReport, []simnet.Flow) {
	var report RepairReport
	var cands []int
	isCand := make([]bool, fs.cluster.Config().Nodes)
	for _, n := range fs.cluster.Nodes() {
		if !fs.dead[n] && eligible(n) {
			cands = append(cands, n)
			isCand[n] = true
		}
	}
	target := min(fs.cfg.Replication, len(cands))

	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)

	var flows []simnet.Flow
	for _, name := range names {
		f := fs.files[name]
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if len(b.Replicas) == 0 {
				report.LostBlocks++
				continue
			}
			src, holders := -1, 0
			for _, r := range b.Replicas {
				if isCand[r] {
					if holders == 0 {
						src = r
					}
					holders++
				}
			}
			if holders == 0 {
				report.UnreachableBlocks++
				continue
			}
			for ; holders < target; holders++ {
				dst, ok := fs.repairTarget(b.Replicas, cands)
				if !ok {
					break
				}
				if b.Size > 0 {
					flows = append(flows, simnet.Flow{Src: src, Dst: dst, Bytes: b.Size})
					fs.counters.ReReplication += b.Size
					fs.reReplTo[dst] += b.Size
					report.ReplicatedBytes += b.Size
				}
				report.ReplicatedBlocks++
				b.Replicas = append(b.Replicas, dst)
			}
		}
	}
	return report, flows
}

// repairTarget picks the next live node to receive a block copy: the
// first live non-holder in rotation order after the newest replica.
func (fs *FS) repairTarget(holders, live []int) (int, bool) {
	used := make(map[int]bool, len(holders))
	for _, r := range holders {
		used[r] = true
	}
	start := sort.SearchInts(live, holders[len(holders)-1])
	for i := 1; i <= len(live); i++ {
		c := live[(start+i)%len(live)]
		if !used[c] {
			return c, true
		}
	}
	return 0, false
}

// BlockHomes returns the primary replica node of each block, used by the
// MapReduce runtime to derive split locality.
func (f *File) BlockHomes() []int {
	homes := make([]int, len(f.Blocks))
	for i, b := range f.Blocks {
		homes[i] = b.Replicas[0]
	}
	return homes
}
