package dfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/integrity"
	"repro/internal/simcluster"
)

func testCluster() *simcluster.Cluster {
	return simcluster.New(simcluster.Config{
		Nodes:              8,
		RackSize:           4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		ComputeRate:        10,
		NodeBandwidth:      100,
		RackBandwidth:      400,
		CoreBandwidth:      400,
	})
}

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(testCluster(), Config{Replication: 3, BlockSize: 1000})
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Replication != 3 || c.BlockSize != 64<<20 {
		t.Fatalf("unexpected defaults %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg     Config
		wantMsg string
	}{
		{Config{Replication: 0, BlockSize: 1}, "Replication = 0"},
		{Config{Replication: -2, BlockSize: 1}, "Replication = -2"},
		{Config{Replication: 1, BlockSize: 0}, "BlockSize = 0"},
		{Config{Replication: 3, BlockSize: -4096}, "BlockSize = -4096"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("config %+v accepted", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("config %+v: err = %v, want mention of %q", tc.cfg, err, tc.wantMsg)
		}
	}
}

func TestCreateAndOpen(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("model", 2500, 0)
	if got, ok := fs.Open("model"); !ok || got != f {
		t.Fatal("Open did not return the created file")
	}
	if f.Size() != 2500 {
		t.Fatalf("Size = %d, want 2500", f.Size())
	}
	if len(f.Blocks) != 3 { // 1000 + 1000 + 500
		t.Fatalf("got %d blocks, want 3", len(f.Blocks))
	}
	if f.Blocks[2].Size != 500 {
		t.Fatalf("last block size = %d, want 500", f.Blocks[2].Size)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := newFS(t)
	if _, ok := fs.Open("nope"); ok {
		t.Fatal("Open returned a missing file")
	}
}

func TestDelete(t *testing.T) {
	fs := newFS(t)
	fs.Create("f", 10, -1)
	fs.Delete("f")
	if _, ok := fs.Open("f"); ok {
		t.Fatal("file survived Delete")
	}
	fs.Delete("f") // deleting again is a no-op
}

func TestCreateOverwrites(t *testing.T) {
	fs := newFS(t)
	fs.Create("f", 100, -1)
	f2, _ := fs.Create("f", 200, -1)
	got, _ := fs.Open("f")
	if got != f2 || got.Size() != 200 {
		t.Fatal("Create did not replace the file")
	}
}

func TestReplicationPolicy(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("f", 100, 1)
	b := f.Blocks[0]
	if len(b.Replicas) != 3 {
		t.Fatalf("got %d replicas, want 3", len(b.Replicas))
	}
	if b.Replicas[0] != 1 {
		t.Fatalf("primary = %d, want writer 1", b.Replicas[0])
	}
	fabric := testCluster().Fabric()
	if fabric.Rack(b.Replicas[1]) == fabric.Rack(1) {
		t.Fatalf("second replica %d in writer's rack", b.Replicas[1])
	}
	if fabric.Rack(b.Replicas[2]) != fabric.Rack(b.Replicas[1]) {
		t.Fatalf("third replica %d not in second replica's rack", b.Replicas[2])
	}
	seen := map[int]bool{}
	for _, r := range b.Replicas {
		if seen[r] {
			t.Fatalf("duplicate replica %d", r)
		}
		seen[r] = true
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	small := simcluster.New(simcluster.Config{
		Nodes: 2, RackSize: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		ComputeRate: 1, NodeBandwidth: 1, RackBandwidth: 1, CoreBandwidth: 1,
	})
	fs := New(small, Config{Replication: 3, BlockSize: 1000})
	f, _ := fs.Create("f", 10, 0)
	if got := len(f.Blocks[0].Replicas); got != 2 {
		t.Fatalf("got %d replicas on a 2-node cluster, want 2", got)
	}
}

func TestWritePipelineTraffic(t *testing.T) {
	cluster := testCluster()
	fs := New(cluster, Config{Replication: 3, BlockSize: 1000})
	fs.Create("f", 1000, 0)
	// Writer holds the primary: two pipeline hops of 1000 bytes each.
	if c := fs.Counters(); c.WritePipeline != 2000 {
		t.Fatalf("WritePipeline = %d, want 2000", c.WritePipeline)
	}
	if c := cluster.Fabric().Counters(); c.Total != 2000 {
		t.Fatalf("fabric Total = %d, want 2000", c.Total)
	}
}

func TestWriteTimePositive(t *testing.T) {
	fs := newFS(t)
	_, d := fs.Create("f", 1000, 0)
	if d <= 0 {
		t.Fatalf("replicated write took %v", d)
	}
}

func TestReplicationOneNoTraffic(t *testing.T) {
	cluster := testCluster()
	fs := New(cluster, Config{Replication: 1, BlockSize: 1000})
	_, d := fs.Create("f", 1000, 0)
	if d != 0 {
		t.Fatalf("unreplicated local write took %v", d)
	}
	if c := fs.Counters(); c.WritePipeline != 0 {
		t.Fatalf("WritePipeline = %d, want 0", c.WritePipeline)
	}
}

func TestLocalReadIsFree(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("f", 1000, 2)
	_, d, err := fs.ReadDataChecked(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("local read took %v", d)
	}
	c := fs.Counters()
	if c.LocalRead != 1000 || c.RemoteRead != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRemoteReadChargesTraffic(t *testing.T) {
	cluster := testCluster()
	fs := New(cluster, Config{Replication: 1, BlockSize: 1000})
	f, _ := fs.Create("f", 1000, 0)
	before := cluster.Fabric().Counters().Total
	_, d, err := fs.ReadDataChecked(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("remote read took no time")
	}
	if got := cluster.Fabric().Counters().Total - before; got != 1000 {
		t.Fatalf("remote read moved %d bytes, want 1000", got)
	}
	if c := fs.Counters(); c.RemoteRead != 1000 {
		t.Fatalf("RemoteRead = %d", c.RemoteRead)
	}
}

func TestReadPrefersIntraRackReplica(t *testing.T) {
	cluster := testCluster()
	fs := New(cluster, Config{Replication: 3, BlockSize: 1000})
	f, _ := fs.Create("f", 1000, 0) // replicas: 0, cross-rack, cross-rack-mate
	// Reader 1 is in rack 0 with the primary but is not a replica.
	plan, err := fs.planRead(f, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	src := plan[0].src
	if cluster.Fabric().Rack(src) != cluster.Fabric().Rack(1) {
		t.Fatalf("read from node %d (rack %d), want rack-local", src, cluster.Fabric().Rack(src))
	}
}

func TestBlockHomes(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("f", 2500, -1)
	homes := f.BlockHomes()
	if len(homes) != 3 {
		t.Fatalf("got %d homes", len(homes))
	}
	for i, h := range homes {
		if h != f.Blocks[i].Replicas[0] {
			t.Fatalf("home %d = %d, want primary %d", i, h, f.Blocks[i].Replicas[0])
		}
	}
}

func TestRoundRobinPrimaries(t *testing.T) {
	fs := newFS(t)
	f1, _ := fs.Create("a", 10, -1)
	f2, _ := fs.Create("b", 10, -1)
	if f1.Blocks[0].Replicas[0] == f2.Blocks[0].Replicas[0] {
		t.Fatal("off-cluster writes did not rotate primaries")
	}
}

func TestResetCounters(t *testing.T) {
	fs := newFS(t)
	fs.Create("f", 1000, 0)
	fs.ResetCounters()
	if c := fs.Counters(); c != (Counters{}) {
		t.Fatalf("counters after reset = %+v", c)
	}
}

func TestCreateNegativeSizePanics(t *testing.T) {
	fs := newFS(t)
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	fs.Create("f", -1, 0)
}

// Property: every block's replicas are distinct valid nodes and block
// sizes sum to the file size.
func TestQuickBlockInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New(testCluster(), Config{Replication: 3, BlockSize: 1000})
		size := int64(rng.Intn(10000))
		writer := rng.Intn(10) - 2 // sometimes off-cluster
		if writer >= 8 {
			writer = -1
		}
		file, _ := fs.Create("f", size, writer)
		var total int64
		for _, b := range file.Blocks {
			total += b.Size
			if b.Size <= 0 && size > 0 {
				return false
			}
			seen := map[int]bool{}
			for _, r := range b.Replicas {
				if r < 0 || r >= 8 || seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWithDataRoundTrip(t *testing.T) {
	fs := newFS(t)
	payload := []byte("model-checkpoint-bytes")
	f, d := fs.CreateWithData("ckpt", payload, 0)
	if d <= 0 {
		t.Fatal("replicated data write took no time")
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(payload))
	}
	got, _, err := fs.ReadDataChecked(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("ReadDataChecked = %q", got)
	}
	// The file system owns the caller's buffer: it stores the slice
	// itself, not a copy.
	if &f.Data()[0] != &payload[0] {
		t.Fatal("CreateWithData copied the caller's buffer instead of taking it")
	}
}

// TestFileChecksumCombinesBlockChecksums checks that a file's checksum,
// combined from its sealed block CRCs, equals one CRC32C pass over its
// bytes, for files of zero, one and several blocks (a partial last
// block included).
func TestFileChecksumCombinesBlockChecksums(t *testing.T) {
	fs := newFS(t) // 1000-byte blocks
	for _, n := range []int{0, 1, 999, 1000, 1001, 2500, 4000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*13 + i>>5)
		}
		want := integrity.Checksum(data)
		f, _ := fs.CreateWithData(fmt.Sprintf("f%d", n), data, 0)
		if got := f.Checksum(); got != want {
			t.Fatalf("%d bytes in %d blocks: Checksum = %08x, want %08x", n, len(f.Blocks), got, want)
		}
	}
	if f, _ := fs.Create("sized", 2500, 0); f.Checksum() != 0 {
		t.Fatal("a size-only file has a checksum")
	}
}

func TestSizeOnlyFilesHaveNoData(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("sized", 100, 0)
	if f.Data() != nil {
		t.Fatal("size-only file has data")
	}
	got, _, err := fs.ReadDataChecked(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("ReadDataChecked on size-only file returned bytes")
	}
}

func TestStoredBytesAndReReplicationPerNode(t *testing.T) {
	fs := New(testCluster(), Config{Replication: 3, BlockSize: 1 << 20})
	fs.Create("a", 3<<20, 0)
	stored := fs.StoredBytes()
	var total int64
	for _, b := range stored {
		total += b
	}
	if total != 3*(3<<20) { // three replicas of every block
		t.Fatalf("stored total = %d", total)
	}
	if stored[0] != 3<<20 { // writer holds every primary
		t.Fatalf("stored[0] = %d", stored[0])
	}

	fs.MarkDead(0)
	report, _ := fs.Repair()
	if report.ReplicatedBytes == 0 {
		t.Fatal("repair moved nothing")
	}
	recv := fs.ReReplicationReceived()
	var recvTotal int64
	for _, b := range recv {
		recvTotal += b
	}
	if recvTotal != fs.Counters().ReReplication {
		t.Fatalf("per-node re-replication %d != counter %d", recvTotal, fs.Counters().ReReplication)
	}
	if recv[0] != 0 {
		t.Fatal("dead node received re-replication")
	}
	if got := fs.StoredBytes()[0]; got != 0 {
		t.Fatalf("dead node still stores %d bytes", got)
	}
}
