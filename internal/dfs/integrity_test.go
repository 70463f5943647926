package dfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/corrupt"
)

func dataOf(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 31)
	}
	return out
}

func TestCorruptReplicaTargeting(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.CreateWithData("a", dataOf(2500), 0)
	if fs.CorruptReplica("missing", 0, 0, 1) {
		t.Fatal("corrupted a missing file")
	}
	if fs.CorruptReplica("a", 9, 0, 1) {
		t.Fatal("corrupted an out-of-range block")
	}
	if fs.CorruptReplica("a", 0, 7, 1) && !holds(f.Blocks[0].Replicas, 7) {
		t.Fatal("corrupted a non-replica node")
	}
	if !fs.CorruptReplica("a", 1, corrupt.PrimaryReplica, 1) {
		t.Fatal("primary-replica targeting failed")
	}
	if got := fs.Integrity().InjectedBlocks; got == 0 {
		t.Fatal("injection not counted")
	}
}

func holds(reps []int, n int) bool {
	for _, r := range reps {
		if r == n {
			return true
		}
	}
	return false
}

func TestVerifiedReadFailsOverQuarantinesAndRepairs(t *testing.T) {
	fs := newFS(t)
	data := dataOf(2500)
	f, _ := fs.CreateWithData("a", data, 0)
	primary := f.Blocks[0].Replicas[0]
	before := append([]int(nil), f.Blocks[0].Replicas...)
	if !fs.CorruptReplica("a", 0, primary, 7) {
		t.Fatal("injection failed")
	}

	got, _, err := fs.ReadDataChecked(f, primary)
	if err != nil {
		t.Fatalf("checked read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("verified read served corrupt bytes")
	}
	if holds(f.Blocks[0].Replicas, primary) {
		t.Fatal("corrupt replica not quarantined")
	}
	if len(f.Blocks[0].Replicas) != len(before) {
		t.Fatalf("replication not restored: %v -> %v", before, f.Blocks[0].Replicas)
	}
	ic := fs.Integrity()
	if ic.DetectedBlocks != 1 || ic.RepairedBlocks != 1 {
		t.Fatalf("counters: %+v", ic)
	}
	if ic.DetectedBytes != 1000 || ic.RepairedBytes != 1000 {
		t.Fatalf("byte counters: %+v", ic)
	}
	// The poisoned attempt was charged: the primary is the reader, so
	// it lands in LocalRead on top of the successful read.
	if fs.Counters().ReReplication != 1000 {
		t.Fatalf("repair traffic: %+v", fs.Counters())
	}
	evs := fs.DrainIntegrityEvents()
	if len(evs) != 2 || evs[0].Op != "detect" || evs[1].Op != "repair" {
		t.Fatalf("events: %+v", evs)
	}
	if fs.DrainIntegrityEvents() != nil {
		t.Fatal("drain did not clear events")
	}
	// Subsequent reads are clean and quiet.
	fs.ResetCounters()
	if _, _, err := fs.ReadDataChecked(f, primary); err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if fs.Integrity().DetectedBlocks != 1 {
		t.Fatal("re-read re-detected")
	}
}

func TestAllReplicasCorruptSurfacesIntegrityError(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.CreateWithData("a", dataOf(500), 0)
	if n := fs.CorruptFileAll("a", 3); n != len(f.Blocks[0].Replicas) {
		t.Fatalf("CorruptFileAll poisoned %d replicas", n)
	}
	reps := append([]int(nil), f.Blocks[0].Replicas...)
	_, _, err := fs.ReadDataChecked(f, 0)
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.File != "a" || ie.Block != 0 {
		t.Fatalf("want IntegrityError for block 0, got %v", err)
	}
	// Nothing was charged or quarantined: rollback needs the file intact.
	if got := f.Blocks[0].Replicas; len(got) != len(reps) {
		t.Fatalf("replicas changed: %v -> %v", reps, got)
	}
	if c := fs.Counters(); c.LocalRead != 0 && c.RemoteRead != 0 {
		t.Fatalf("failed read charged: %+v", c)
	}
}

func TestDetectionOffServesPatchedBytesSilently(t *testing.T) {
	fs := newFS(t)
	fs.SetVerifyReads(false)
	data := dataOf(2500)
	f, _ := fs.CreateWithData("a", data, 0)
	primary := f.Blocks[0].Replicas[0]
	fs.CorruptReplica("a", 0, primary, 7)

	got, _, err := fs.ReadDataChecked(f, primary)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("detection-off read served clean bytes from a corrupt replica")
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly the one flip", diff)
	}
	if fs.Integrity().DetectedBlocks != 0 || len(fs.DrainIntegrityEvents()) != 0 {
		t.Fatal("detection-off read detected something")
	}
	// A different node reads from a clean replica and sees clean bytes.
	other := f.Blocks[0].Replicas[1]
	if got, _, _ := fs.ReadDataChecked(f, other); !bytes.Equal(got, data) {
		t.Fatal("clean replica served patched bytes")
	}
}

func TestScrubWalksRepairsAndHonorsBudget(t *testing.T) {
	fs := newFS(t)
	var files []*File
	for _, name := range []string{"a", "b", "c"} {
		f, _ := fs.CreateWithData(name, dataOf(2000), 0)
		files = append(files, f)
	}
	fs.CorruptReplica("a", 1, corrupt.PrimaryReplica, 11)
	fs.CorruptReplica("c", 0, corrupt.PrimaryReplica, 12)

	// Budget of one block's replicas: the first pass scans file "a"
	// block 0 only (3 replicas x 1000 B each).
	rep, _ := fs.Scrub(1000, 0)
	if rep.ScannedBlocks != 3 || rep.ScannedBytes != 3000 || rep.DetectedBlocks != 0 {
		t.Fatalf("first pass: %+v", rep)
	}
	// Second pass reaches a/1 and repairs it.
	rep, _ = fs.Scrub(1000, 0)
	if rep.DetectedBlocks != 1 || rep.RepairedBlocks != 1 || rep.RepairedBytes != 1000 {
		t.Fatalf("second pass: %+v", rep)
	}
	// A big pass sweeps the rest and catches c/0.
	rep, _ = fs.Scrub(1<<30, 0)
	if rep.DetectedBlocks != 1 || rep.RepairedBlocks != 1 {
		t.Fatalf("sweep pass: %+v", rep)
	}
	for _, f := range files {
		for bi := range f.Blocks {
			if len(f.Blocks[bi].Replicas) != 3 {
				t.Fatalf("%s block %d under-replicated after scrub", f.Name, bi)
			}
		}
	}
	if len(fs.patches) != 0 {
		t.Fatal("patches survived scrub repair")
	}
	ic := fs.Integrity()
	if ic.DetectedBlocks != 2 || ic.RepairedBlocks != 2 || ic.UnrepairedBlocks != 0 {
		t.Fatalf("counters: %+v", ic)
	}
	// The cursor wraps: another full sweep rescans everything quietly.
	rep, _ = fs.Scrub(1<<30, 0)
	if rep.DetectedBlocks != 0 || rep.ScannedBlocks == 0 {
		t.Fatalf("wrap pass: %+v", rep)
	}
}

func TestScrubLeavesAllCorruptBlocksForRollback(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.CreateWithData("a", dataOf(800), 0)
	fs.CorruptFileAll("a", 5)
	rep, _ := fs.Scrub(1<<30, 0)
	if rep.DetectedBlocks != 0 || rep.RepairedBlocks != 0 {
		t.Fatalf("scrub repaired an unrepairable block: %+v", rep)
	}
	if rep.UnrepairedBlocks != len(f.Blocks[0].Replicas) {
		t.Fatalf("unrepaired: %+v", rep)
	}
	if len(f.Blocks[0].Replicas) == 0 {
		t.Fatal("replica set destroyed")
	}
}

func TestLifecycleDropsPatches(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.CreateWithData("a", dataOf(500), 0)
	primary := f.Blocks[0].Replicas[0]
	fs.CorruptReplica("a", 0, primary, 1)

	// Overwrite forgets the old incarnation's damage.
	fs.CreateWithData("a", dataOf(500), 0)
	if len(fs.patches) != 0 {
		t.Fatal("overwrite kept stale patches")
	}

	fs.CorruptReplica("a", 0, primary, 1)
	fs.Delete("a")
	if len(fs.patches) != 0 {
		t.Fatal("delete kept patches")
	}

	f, _ = fs.CreateWithData("a", dataOf(500), 0)
	primary = f.Blocks[0].Replicas[0]
	fs.CorruptReplica("a", 0, primary, 1)
	fs.MarkDead(primary)
	if len(fs.patches) != 0 {
		t.Fatal("dead node kept patches")
	}
}

func TestZeroPlanReadsAreBytePerByteLegacy(t *testing.T) {
	// Two file systems, one with verification toggled off, must agree
	// on every counter when no corruption exists: the integrity layer
	// is invisible until a patch lands.
	a, b := newFS(t), newFS(t)
	b.SetVerifyReads(false)
	for _, fs := range []*FS{a, b} {
		f, _ := fs.CreateWithData("m", dataOf(3000), 1)
		if _, _, err := fs.ReadDataChecked(f, 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.ReadDataCheckedAt(f, 3, 10); err != nil {
			t.Fatal(err)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("verify on/off diverged with zero plan: %+v vs %+v", a.Counters(), b.Counters())
	}
	if a.Integrity() != (IntegrityCounters{}) {
		t.Fatalf("integrity counters moved: %+v", a.Integrity())
	}
}
