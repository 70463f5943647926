package core

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/integrity"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/trace"
	"repro/internal/writable"
)

// plantCheckpoint writes raw bytes as checkpoint seq of family name and
// points the latest pointer at it, bypassing WriteModel — the shape a
// damaged or adversarial checkpoint store presents to a fresh driver.
func plantCheckpoint(rt *Runtime, name string, seq int64, delta bool, data []byte) string {
	file := checkpointName(name, seq)
	if delta {
		file += deltaSuffix
	}
	rt.FS().CreateWithData(file, data, 0)
	rt.FS().Delete(latestPointer(name))
	rt.FS().CreateWithData(latestPointer(name), []byte(file), 0)
	return file
}

// TestRestoreModelCorruptionErrors drives every decode-path corruption
// mode and pins the error messages: each must name the position in the
// chain (full checkpoint, delta, or its anchor) and the sequence
// numbers involved. Detection is off so the raw decode error surfaces
// without the rollback walk.
func TestRestoreModelCorruptionErrors(t *testing.T) {
	validFull := func() []byte {
		m := model.New()
		m.Set("mean", writable.Vector{1, 2})
		return m.Encode(nil)
	}
	cases := []struct {
		name  string
		plant func(rt *Runtime)
		want  []string
	}{
		{
			name: "garbage full checkpoint",
			plant: func(rt *Runtime) {
				plantCheckpoint(rt, "m", 0, false, []byte{0xFF, 0xFE, 0xFD, 0xFC})
			},
			want: []string{`corrupt checkpoint "models/m/0" (full, seq 0)`},
		},
		{
			name: "delta with bad base varint",
			plant: func(rt *Runtime) {
				plantCheckpoint(rt, "m", 1, true, []byte{0x80})
			},
			want: []string{`corrupt delta checkpoint "models/m/1.delta" (seq 1)`, "bad base-sequence varint"},
		},
		{
			name: "delta anchored at or after itself",
			plant: func(rt *Runtime) {
				data := binary.AppendUvarint(nil, 5)
				plantCheckpoint(rt, "m", 1, true, data)
			},
			want: []string{"base sequence 5 not before the delta's own"},
		},
		{
			name: "delta referencing missing base",
			plant: func(rt *Runtime) {
				data := binary.AppendUvarint(nil, 1)
				plantCheckpoint(rt, "m", 2, true, data)
			},
			want: []string{`references missing base "models/m/1" (seq 1)`},
		},
		{
			name: "delta over garbage base",
			plant: func(rt *Runtime) {
				rt.FS().CreateWithData(checkpointName("m", 0), []byte{0xFF, 0xFE, 0xFD}, 0)
				data := binary.AppendUvarint(nil, 0)
				plantCheckpoint(rt, "m", 1, true, data)
			},
			want: []string{`corrupt checkpoint base "models/m/0" (seq 0, anchor of delta seq 1)`},
		},
		{
			name: "garbage delta over valid base",
			plant: func(rt *Runtime) {
				rt.FS().CreateWithData(checkpointName("m", 0), validFull(), 0)
				data := binary.AppendUvarint(nil, 0)
				data = append(data, 0xFF, 0xFE, 0xFD)
				plantCheckpoint(rt, "m", 1, true, data)
			},
			want: []string{`corrupt delta checkpoint "models/m/1.delta" (seq 1 over base seq 0)`},
		},
		{
			name: "dangling pointer",
			plant: func(rt *Runtime) {
				rt.FS().CreateWithData(latestPointer("m"), []byte("models/m/9"), 0)
			},
			want: []string{`dangling checkpoint pointer "models/m/9"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime()
			rt.SetIntegrityChecks(false)
			tc.plant(rt)
			_, err := rt.RestoreModel("m")
			if err == nil {
				t.Fatal("restore of a corrupt checkpoint succeeded")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestRestoreModelContentChecksumMismatch pins the end-to-end seal: a
// checkpoint whose blocks read back clean (they were rewritten whole,
// so block checksums match) but whose content differs from what
// WriteModel sealed must fail restore — and with no earlier checkpoint
// to fall back to, the rollback-exhausted error wraps it.
func TestRestoreModelContentChecksumMismatch(t *testing.T) {
	rt := testRuntime()
	rt.SetIntegrityChecks(true)
	m := model.New()
	m.Set("mean", writable.Vector{4, 5})
	rt.WriteModel("m", m)

	imp := model.New()
	imp.Set("mean", writable.Vector{-9, 9})
	rt.FS().Delete(checkpointName("m", 0))
	rt.FS().CreateWithData(checkpointName("m", 0), imp.Encode(nil), 0)

	_, err := rt.RestoreModel("m")
	if err == nil {
		t.Fatal("restore of a swapped checkpoint succeeded")
	}
	for _, want := range []string{"content checksum mismatch", "no verified checkpoint to roll back to"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// TestRestoreModelRollsBack is the recovery half: when every replica of
// the latest checkpoint is damaged, restore must roll back to the
// newest earlier checkpoint that still verifies, count the rollback,
// and record it on the timeline.
func TestRestoreModelRollsBack(t *testing.T) {
	rt := testRuntime()
	tr := trace.New()
	rt.SetTracer(tr)
	rt.SetIntegrityChecks(true)
	m0 := model.New()
	m0.Set("mean", writable.Vector{1, 1})
	rt.WriteModel("m", m0)
	m1 := model.New()
	m1.Set("mean", writable.Vector{2, 2})
	rt.WriteModel("m", m1)

	if n := rt.FS().CorruptFileAll(checkpointName("m", 1), 99); n == 0 {
		t.Fatal("CorruptFileAll damaged no replicas")
	}
	got, err := rt.RestoreModel("m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Encode(nil), m0.Encode(nil)) {
		t.Fatalf("rollback restored %v, want the seq-0 model %v", got, m0)
	}
	if rt.IntegrityRollbacks() != 1 {
		t.Fatalf("IntegrityRollbacks = %d, want 1", rt.IntegrityRollbacks())
	}
	if countKind(tr, trace.KindCheckpointRollback) != 1 {
		t.Fatalf("trace has %d checkpoint-rollback events, want 1", countKind(tr, trace.KindCheckpointRollback))
	}

	// With detection off the same damage is silent poison: the raw read
	// serves the damaged bytes, no rollback engages, and the restore
	// either fails outright or hands back a wrong model.
	blind := testRuntime()
	blind.SetIntegrityChecks(false)
	blind.WriteModel("m", m0)
	blind.WriteModel("m", m1)
	blind.FS().CorruptFileAll(checkpointName("m", 1), 99)
	if blind.IntegrityRollbacks() != 0 {
		t.Fatal("checks-off runtime counted a rollback")
	}
	if got, err := blind.RestoreModel("m"); err == nil {
		if reflect.DeepEqual(got.Encode(nil), m1.Encode(nil)) {
			t.Fatal("checks-off restore of a damaged checkpoint returned the undamaged model")
		}
	} else if strings.Contains(err.Error(), "roll back") {
		t.Fatalf("checks-off restore attempted rollback: %v", err)
	}
}

// FuzzCheckpointDecode fuzzes the full restore path — pointer, decode,
// verify, rollback — with arbitrary bytes planted as the latest
// checkpoint, full or delta. It must never panic: any undecodable input
// either rolls back to the verified seq-0 anchor or fails typed.
func FuzzCheckpointDecode(f *testing.F) {
	full := model.New()
	full.Set("mean", writable.Vector{1, 2})
	next := model.New()
	next.Set("mean", writable.Vector{1, 3})
	validDelta := binary.AppendUvarint(nil, 0)
	validDelta = model.EncodeDelta(full, next, validDelta)
	f.Add(false, full.Encode(nil))
	f.Add(true, validDelta)
	f.Add(true, []byte{0x80})
	f.Add(true, []byte{})
	f.Add(false, []byte("garbage"))
	f.Add(true, binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, isDelta bool, data []byte) {
		rt := testRuntime()
		rt.SetIntegrityChecks(true)
		anchor := model.New()
		anchor.Set("mean", writable.Vector{3, 4})
		rt.WriteModel("fz", anchor)
		plantCheckpoint(rt, "fz", 1, isDelta, data)
		m, err := rt.RestoreModel("fz")
		if err == nil && m == nil {
			t.Fatal("restore returned neither model nor error")
		}
	})
}

// TestMultiBlockCheckpointSeal checks the sealed content checksum on
// checkpoints that span many DFS blocks: the seal, combined from the
// block CRCs, equals one CRC32C pass over the stored bytes; restore
// reads the latest version back; one damaged replica is failed over;
// a block damaged on every replica rolls back to the earlier version;
// and with the block layer's verification off, the seal alone still
// catches damage in the last block.
func TestMultiBlockCheckpointSeal(t *testing.T) {
	newRT := func() *Runtime {
		cluster := simcluster.New(simcluster.Config{
			Nodes: 4, RackSize: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			ComputeRate: 1e6, NodeBandwidth: 1e6, RackBandwidth: 4e6, CoreBandwidth: 4e6,
		})
		rt := NewRuntime(cluster, dfs.Config{Replication: 3, BlockSize: 100})
		rt.SetIntegrityChecks(true)
		rt.WriteModel("m", bigModel(0))
		rt.WriteModel("m", bigModel(1))
		return rt
	}
	damageBlock := func(rt *Runtime, file string, bi int) {
		f, _ := rt.FS().Open(file)
		for _, node := range f.Blocks[bi].Replicas {
			if !rt.FS().CorruptReplica(file, bi, node, 41) {
				t.Fatalf("%s block %d: no replica on node %d to damage", file, bi, node)
			}
		}
	}
	latest := checkpointName("m", 1)

	rt := newRT()
	for seq := range int64(2) {
		file := checkpointName("m", seq)
		f, ok := rt.FS().Open(file)
		if !ok || len(f.Blocks) < 3 {
			t.Fatalf("%s: want a checkpoint of at least 3 blocks", file)
		}
		if got, want := rt.integ.ckptSums[file], integrity.Checksum(f.Data()); got != want {
			t.Fatalf("%s: sealed sum %08x, CRC32C of the bytes %08x", file, got, want)
		}
	}
	if got, err := rt.RestoreModel("m"); err != nil || !got.Equal(bigModel(1)) {
		t.Fatalf("restore of an undamaged checkpoint: %v", err)
	}

	f, _ := rt.FS().Open(latest)
	mid := len(f.Blocks) / 2
	if !rt.FS().CorruptReplica(latest, mid, corrupt.PrimaryReplica, 7) {
		t.Fatal("no primary replica to damage")
	}
	if got, err := rt.RestoreModel("m"); err != nil || !got.Equal(bigModel(1)) {
		t.Fatalf("restore past one damaged replica: %v", err)
	}
	if rt.FS().Integrity().DetectedBlocks == 0 || rt.IntegrityRollbacks() != 0 {
		t.Fatal("the damaged replica was not detected and failed over")
	}

	damageBlock(rt, latest, mid)
	if got, err := rt.RestoreModel("m"); err != nil || !got.Equal(bigModel(0)) {
		t.Fatalf("restore of a block damaged on every replica did not roll back: %v", err)
	}
	if rt.IntegrityRollbacks() != 1 {
		t.Fatalf("IntegrityRollbacks = %d, want 1", rt.IntegrityRollbacks())
	}

	blind := newRT()
	blind.FS().SetVerifyReads(false)
	f, _ = blind.FS().Open(latest)
	damageBlock(blind, latest, len(f.Blocks)-1)
	if got, err := blind.RestoreModel("m"); err != nil || !got.Equal(bigModel(0)) {
		t.Fatalf("the seal missed damage the block layer let through: %v", err)
	}
	if blind.IntegrityRollbacks() != 1 {
		t.Fatalf("IntegrityRollbacks = %d, want 1", blind.IntegrityRollbacks())
	}
}
