package dfs

import (
	"fmt"
	"sort"

	"repro/internal/corrupt"
	"repro/internal/integrity"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// This file is the storage half of the end-to-end integrity layer:
// scripted byte flips in individual block replicas, CRC32C
// verify-on-read with replica failover, checksum-driven re-replication
// (the unified repair path), and a budgeted background scrubber.
//
// Corruption is modeled as per-replica *patches* (offset, xor mask)
// kept beside the namespace rather than as forked copies of the data,
// so a zero corruption plan leaves every existing code path — byte
// counts, replica choice, served contents — bit-for-bit untouched.

// replicaKey identifies one replica of one block.
type replicaKey struct {
	file  string
	block int
	node  int
}

// replicaPatch is a single byte flip inside a replica's copy of its
// block. Masks are always nonzero, so a patched replica never
// checksums clean.
type replicaPatch struct {
	off  int64
	mask byte
}

// IntegrityError reports a block whose every replica failed checksum
// verification; no failover can serve it.
type IntegrityError struct {
	File  string
	Block int
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("dfs: %q block %d: checksum mismatch on every replica", e.File, e.Block)
}

// IntegrityCounters accumulates the integrity layer's activity, in
// blocks and bytes.
type IntegrityCounters struct {
	// InjectedBlocks counts replicas poisoned by the corruption plan.
	InjectedBlocks int
	// DetectedBlocks/DetectedBytes count replicas caught by a checksum
	// mismatch (on read or scrub) and quarantined.
	DetectedBlocks int
	DetectedBytes  int64
	// RepairedBlocks/RepairedBytes count block copies re-replicated
	// from a clean replica after a detection.
	RepairedBlocks int
	RepairedBytes  int64
	// ScrubbedBlocks/ScrubbedBytes count replica scans by the
	// background scrubber.
	ScrubbedBlocks int
	ScrubbedBytes  int64
	// UnrepairedBlocks counts detections the layer could not repair in
	// place (no clean replica, or no reachable target).
	UnrepairedBlocks int
}

// IntegrityEvent is one detection or repair, drained by the runtime to
// emit trace annotations. Op is "detect" or "repair".
type IntegrityEvent struct {
	Op    string
	File  string
	Block int
	Node  int
	Bytes int64
}

// Integrity returns a snapshot of the integrity counters.
func (fs *FS) Integrity() IntegrityCounters { return fs.icounters }

// DrainIntegrityEvents returns the detection/repair events recorded
// since the last drain and clears the buffer.
func (fs *FS) DrainIntegrityEvents() []IntegrityEvent {
	evs := fs.ievents
	fs.ievents = nil
	return evs
}

// SetVerifyReads toggles checksum verification on the read paths.
// Verification is on by default; turning it off models a
// checksum-less system that silently serves corrupt bytes (the
// detection-off arm of the corruption ablation).
func (fs *FS) SetVerifyReads(on bool) { fs.verify = on }

// VerifyReads reports whether verify-on-read is enabled.
func (fs *FS) VerifyReads() bool { return fs.verify }

// CorruptReplica flips one byte in node's copy of the given block,
// deterministically derived from seed. Node may be
// corrupt.PrimaryReplica to target the first-listed replica. It
// reports whether a replica was actually poisoned (false when the
// file, block, or replica does not exist, or the block is empty).
func (fs *FS) CorruptReplica(name string, block, node int, seed uint64) bool {
	f, ok := fs.files[name]
	if !ok || block < 0 || block >= len(f.Blocks) {
		return false
	}
	b := &f.Blocks[block]
	if len(b.Replicas) == 0 || b.Size == 0 {
		return false
	}
	if node == corrupt.PrimaryReplica {
		node = b.Replicas[0]
	}
	holder := false
	for _, r := range b.Replicas {
		if r == node {
			holder = true
			break
		}
	}
	if !holder {
		return false
	}
	fs.addPatch(replicaKey{name, block, node}, b.Size, seed)
	return true
}

// CorruptFileAll poisons every replica of every block of the named
// file — the checkpoint-corruption mode, where replica failover must
// not be able to mask the damage. It returns the number of replicas
// poisoned.
func (fs *FS) CorruptFileAll(name string, seed uint64) int {
	f, ok := fs.files[name]
	if !ok {
		return 0
	}
	n := 0
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.Size == 0 {
			continue
		}
		for ri, node := range b.Replicas {
			fs.addPatch(replicaKey{name, bi, node}, b.Size,
				corrupt.Mix(seed, uint64(bi), uint64(ri)))
			n++
		}
	}
	return n
}

func (fs *FS) addPatch(key replicaKey, blockSize int64, seed uint64) {
	if fs.patches == nil {
		fs.patches = map[replicaKey][]replicaPatch{}
	}
	mask := byte(seed >> 56)
	if mask == 0 {
		mask = 0xA5
	}
	fs.patches[key] = append(fs.patches[key],
		replicaPatch{off: int64(seed % uint64(blockSize)), mask: mask})
	fs.icounters.InjectedBlocks++
}

// dropPatches forgets every patch for the named file (it was deleted
// or overwritten), optionally restricted to one node (its disk died).
func (fs *FS) dropPatches(name string, node int) {
	if len(fs.patches) == 0 {
		return
	}
	for key := range fs.patches {
		if key.file == name || (name == "" && key.node == node) {
			delete(fs.patches, key)
		}
	}
}

// blockOffset returns the start of block bi within f's contents.
func blockOffset(f *File, bi int) int64 {
	var off int64
	for i := 0; i < bi; i++ {
		off += f.Blocks[i].Size
	}
	return off
}

// replicaCorrupt reports whether node's copy of block bi fails
// checksum verification. For files carrying real contents the check
// recomputes CRC32C over the replica's (patched) bytes against the
// checksum sealed at write time; size-only files carry no payload, so
// a patch marker alone is the mismatch.
func (fs *FS) replicaCorrupt(f *File, bi, node int) bool {
	ps := fs.patches[replicaKey{f.Name, bi, node}]
	if len(ps) == 0 {
		return false
	}
	if f.data == nil || bi >= len(f.sums) {
		return true
	}
	start := blockOffset(f, bi)
	buf := append([]byte(nil), f.data[start:start+f.Blocks[bi].Size]...)
	applyPatches(buf, ps)
	return integrity.Checksum(buf) != f.sums[bi]
}

func applyPatches(buf []byte, ps []replicaPatch) {
	for _, p := range ps {
		if p.off >= 0 && p.off < int64(len(buf)) {
			buf[p.off] ^= p.mask
		}
	}
}

// servedData returns the bytes a read serving each block from
// srcs[bi] observes: f's contents with the serving replicas' patches
// applied. With no patches on the serving replicas it returns f.data
// itself (the byte-identical fast path). This is the detection-off
// world: damaged bytes flow to the caller unannounced.
func (fs *FS) servedData(f *File, srcs []int) []byte {
	if f.data == nil || len(fs.patches) == 0 {
		return f.data
	}
	var out []byte
	for bi := range f.Blocks {
		ps := fs.patches[replicaKey{f.Name, bi, srcs[bi]}]
		if len(ps) == 0 {
			continue
		}
		if out == nil {
			out = append([]byte(nil), f.data...)
		}
		start := blockOffset(f, bi)
		applyPatches(out[start:start+f.Blocks[bi].Size], ps)
	}
	if out == nil {
		return f.data
	}
	return out
}

// blockRead is the per-block outcome of planning a verified read: the
// replica that serves the block, plus any replicas that were tried
// first and failed verification.
type blockRead struct {
	src      int
	poisoned []int
}

// planRead picks a serving replica for every block of f — the only
// place a replica is chosen — failing over past corrupt replicas when
// verification is on. With honourPlan, only replicas reachable from the
// reader at time at are candidates and an unreachable block returns a
// *simnet.TransferError; a block whose every candidate is corrupt
// returns an *IntegrityError. Nothing is charged or mutated here, so a
// failed read charges nothing.
func (fs *FS) planRead(f *File, reader int, at simtime.Time, honourPlan bool) ([]blockRead, error) {
	fabric := fs.cluster.Fabric()
	plan := make([]blockRead, len(f.Blocks))
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if len(b.Replicas) == 0 {
			panic("dfs: block has no live replicas (lost to node failures); check Lost before reading")
		}
		// Candidates in cost order (local, intra-rack, cross-rack),
		// replica-list order within a cost tier.
		var cands []int
		for cost := 0; cost <= 2 && len(cands) < len(b.Replicas); cost++ {
			for _, r := range b.Replicas {
				c := 2
				switch {
				case r == reader:
					c = 0
				case fabric.Rack(r) == fabric.Rack(reader):
					c = 1
				}
				if c == cost && (!honourPlan || fabric.ReachableAt(r, reader, at)) {
					cands = append(cands, r)
				}
			}
		}
		if len(cands) == 0 {
			return nil, &simnet.TransferError{Kind: simnet.TransferUnreachable,
				Src: b.Replicas[0], Dst: reader, At: at}
		}
		if !fs.verify || len(fs.patches) == 0 {
			plan[bi] = blockRead{src: cands[0]}
			continue
		}
		br := blockRead{src: -1}
		for _, r := range cands {
			if fs.replicaCorrupt(f, bi, r) {
				br.poisoned = append(br.poisoned, r)
				continue
			}
			br.src = r
			break
		}
		if br.src < 0 {
			// Every candidate is corrupt: surface the mismatch rather
			// than serve damage. The replica set is left intact so the
			// caller can fall back (e.g. checkpoint rollback).
			return nil, &IntegrityError{File: f.Name, Block: bi}
		}
		plan[bi] = br
	}
	return plan, nil
}

// commitRead charges a planned read: poisoned attempts first (their
// bytes crossed the wire before the checksum failed), then the serving
// replica, then checksum-driven repair of each quarantined copy from
// the clean source. It returns the flow list and the serving replica
// per block.
func (fs *FS) commitRead(f *File, reader int, plan []blockRead, at simtime.Time, honourPlan bool) ([]simnet.Flow, []int) {
	var flows []simnet.Flow
	srcs := make([]int, len(plan))
	for bi, br := range plan {
		b := &f.Blocks[bi]
		srcs[bi] = br.src
		for _, bad := range br.poisoned {
			// The poisoned attempt is real traffic.
			if bad == reader {
				fs.counters.LocalRead += b.Size
			} else {
				fs.counters.RemoteRead += b.Size
				flows = append(flows, simnet.Flow{Src: bad, Dst: reader, Bytes: b.Size})
			}
			fs.quarantine(f, bi, bad)
		}
		if br.src == reader {
			fs.counters.LocalRead += b.Size
		} else {
			fs.counters.RemoteRead += b.Size
			flows = append(flows, simnet.Flow{Src: br.src, Dst: reader, Bytes: b.Size})
		}
		// Re-replicate what quarantine removed, from the replica that
		// just verified clean.
		for range br.poisoned {
			flow, ok := fs.repairBlock(f, bi, br.src, at, honourPlan)
			if !ok {
				continue
			}
			flows = append(flows, flow)
		}
	}
	return flows, srcs
}

// quarantine drops node's corrupt copy of block bi from the replica
// set (never the last copy — planRead guarantees a clean survivor) and
// records the detection.
func (fs *FS) quarantine(f *File, bi, node int) {
	b := &f.Blocks[bi]
	kept := b.Replicas[:0]
	for _, r := range b.Replicas {
		if r != node {
			kept = append(kept, r)
		}
	}
	b.Replicas = kept
	delete(fs.patches, replicaKey{f.Name, bi, node})
	fs.icounters.DetectedBlocks++
	fs.icounters.DetectedBytes += b.Size
	fs.ievents = append(fs.ievents, IntegrityEvent{Op: "detect", File: f.Name, Block: bi, Node: node, Bytes: b.Size})
}

// repairBlock copies block bi from the clean replica src to the next
// rotation target, restoring the copy quarantine removed. It reports
// false (and counts the block unrepaired) when no target exists or an
// active network fault severs the copy path.
func (fs *FS) repairBlock(f *File, bi, src int, at simtime.Time, honourPlan bool) (simnet.Flow, bool) {
	b := &f.Blocks[bi]
	live := fs.liveNodes()
	dst, ok := fs.repairTarget(b.Replicas, live)
	if !ok || (honourPlan && !fs.cluster.Fabric().ReachableAt(src, dst, at)) {
		fs.icounters.UnrepairedBlocks++
		return simnet.Flow{}, false
	}
	b.Replicas = append(b.Replicas, dst)
	fs.counters.ReReplication += b.Size
	fs.reReplTo[dst] += b.Size
	fs.icounters.RepairedBlocks++
	fs.icounters.RepairedBytes += b.Size
	fs.ievents = append(fs.ievents, IntegrityEvent{Op: "repair", File: f.Name, Block: bi, Node: dst, Bytes: b.Size})
	return simnet.Flow{Src: src, Dst: dst, Bytes: b.Size}, true
}

// ReadDataChecked charges a full read of the file by node reader and
// returns its contents (nil for size-only files). Each block is served
// by the closest replica (local beats intra-rack beats cross-rack); a
// fully local read takes zero network time. With verification on,
// replicas that fail their block checksum are charged, quarantined,
// repaired and read around, and a block with no clean replica returns
// an *IntegrityError with nothing charged. With verification off the
// read serves whatever the closest replica holds — possibly corrupt
// bytes. The read is blind to the registered NetworkPlan: it is priced
// on the unfaulted fabric.
func (fs *FS) ReadDataChecked(f *File, reader int) ([]byte, simtime.Duration, error) {
	return fs.read(f, reader, 0, false)
}

// ReadDataCheckedAt is ReadDataChecked honouring the registered
// NetworkPlan at time at: each block is served by the cheapest replica
// still reachable from the reader (reads fail over around outages and
// partitions as well as around corrupt copies), a block with no
// reachable replica fails the read with a typed *simnet.TransferError
// and nothing charged, and brownouts on the surviving path stretch the
// returned duration. With no plan registered, or none active at `at`,
// it is exactly ReadDataChecked.
func (fs *FS) ReadDataCheckedAt(f *File, reader int, at simtime.Time) ([]byte, simtime.Duration, error) {
	return fs.read(f, reader, at, true)
}

// read is the one read path: plan a serving replica per block, commit
// the plan's traffic and repairs, price the flows.
func (fs *FS) read(f *File, reader int, at simtime.Time, honourPlan bool) ([]byte, simtime.Duration, error) {
	plan, err := fs.planRead(f, reader, at, honourPlan)
	if err != nil {
		return nil, 0, err
	}
	flows, srcs := fs.commitRead(f, reader, plan, at, honourPlan)
	// planRead filtered unreachable candidates and repairBlock checked
	// its path, so the fabric cannot refuse the flows.
	return fs.servedData(f, srcs), fs.charge(flows, at, honourPlan), nil
}

// ScrubReport summarizes one scrubber pass.
type ScrubReport struct {
	// ScannedBlocks/ScannedBytes count replica copies verified.
	ScannedBlocks int
	ScannedBytes  int64
	// DetectedBlocks counts replicas that failed verification and were
	// quarantined; RepairedBlocks/RepairedBytes count the copies made
	// to replace them.
	DetectedBlocks int
	RepairedBlocks int
	RepairedBytes  int64
	// UnrepairedBlocks counts detections with no clean replica to copy
	// from (left in place for checkpoint rollback to handle).
	UnrepairedBlocks int
}

// Scrub runs one background-scrubber pass at time at: starting from a
// persistent cursor, it walks the namespace in deterministic order
// (file name, block index, replica order), verifies each replica
// against its block checksum, and re-replicates around any mismatch
// from the first clean copy. The pass ends after scanning budget
// bytes of replica data or one full namespace cycle, whichever comes
// first; the cursor persists so successive passes cover the whole
// namespace. Scanning itself is local disk I/O (free on the fabric);
// only repair copies are charged, priced under the network plan at
// `at`. The returned duration is the repair transfer time.
func (fs *FS) Scrub(budget int64, at simtime.Time) (ScrubReport, simtime.Duration) {
	var report ScrubReport
	if budget <= 0 || len(fs.files) == 0 {
		return report, 0
	}
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	// Resume from the cursor: the first name >= the remembered one.
	startN := sort.SearchStrings(names, fs.scrubFile)
	if startN == len(names) {
		startN = 0
	}
	startB := fs.scrubBlock
	if names[startN] != fs.scrubFile {
		startB = 0 // the remembered file is gone; start of its successor
	}

	totalBlocks := 0
	for _, name := range names {
		totalBlocks += len(fs.files[name].Blocks)
	}
	if totalBlocks == 0 {
		return report, 0
	}

	var flows []simnet.Flow
	scanned := int64(0)
	pos, bi := startN, startB
	// One full namespace cycle at most; the budget usually stops the
	// walk first.
	for visited := 0; visited < totalBlocks && scanned < budget; visited++ {
		for bi >= len(fs.files[names[pos]].Blocks) {
			pos, bi = (pos+1)%len(names), 0
		}
		f := fs.files[names[pos]]
		b := &f.Blocks[bi]
		if b.Size == 0 || len(b.Replicas) == 0 {
			bi++
			continue
		}
		// Verify every replica of this block; remember the first clean
		// one as the repair source.
		cleanSrc, bad := -1, []int(nil)
		for _, r := range b.Replicas {
			report.ScannedBlocks++
			report.ScannedBytes += b.Size
			fs.icounters.ScrubbedBlocks++
			fs.icounters.ScrubbedBytes += b.Size
			scanned += b.Size
			if fs.replicaCorrupt(f, bi, r) {
				bad = append(bad, r)
			} else if cleanSrc < 0 {
				cleanSrc = r
			}
		}
		if len(bad) > 0 && cleanSrc < 0 {
			// No clean copy anywhere: leave the replicas (and their
			// patches) in place so readers surface an IntegrityError.
			report.UnrepairedBlocks += len(bad)
			fs.icounters.UnrepairedBlocks += len(bad)
		} else {
			for _, r := range bad {
				fs.quarantine(f, bi, r)
				report.DetectedBlocks++
				flow, ok := fs.repairBlock(f, bi, cleanSrc, at, true)
				if !ok {
					continue
				}
				flows = append(flows, flow)
				report.RepairedBlocks++
				report.RepairedBytes += flow.Bytes
			}
		}
		bi++
	}
	// Persist the cursor at the next unscanned position.
	for bi >= len(fs.files[names[pos]].Blocks) {
		pos, bi = (pos+1)%len(names), 0
	}
	fs.scrubFile, fs.scrubBlock = names[pos], bi

	return report, fs.charge(flows, at, true)
}
