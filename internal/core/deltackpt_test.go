package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/writable"
)

func bigModel(version int) *model.Model {
	m := model.New()
	for i := 0; i < 50; i++ {
		v := writable.Vector{float64(i), float64(i) * 2, 3, 4}
		if i == version%50 {
			v[0] += float64(version) // one entry changes per version
		}
		m.Set(fmt.Sprintf("w%03d", i), v)
	}
	return m
}

// With delta checkpoints on, successive near-identical versions must be
// stored as sparse deltas (visible as .delta files and far fewer write
// bytes) and RestoreModel must still return the exact latest version.
func TestDeltaCheckpointsRoundTripAndShrink(t *testing.T) {
	const versions = 6
	write := func(delta bool) (rt *Runtime, bytes int64) {
		rt = testRuntime()
		rt.SetDeltaCheckpoints(delta)
		for v := 0; v < versions; v++ {
			rt.WriteModel("app-be", bigModel(v))
		}
		return rt, rt.ModelUpdateBytes()
	}
	full, fullBytes := write(false)
	deltaRT, deltaBytes := write(true)
	if deltaBytes >= fullBytes {
		t.Fatalf("delta checkpoints wrote %d bytes, full wrote %d", deltaBytes, fullBytes)
	}

	want := bigModel(versions - 1)
	for name, rt := range map[string]*Runtime{"full": full, "delta": deltaRT} {
		got, err := rt.RestoreModel("app-be")
		if err != nil {
			t.Fatalf("%s: RestoreModel: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: restored model is not the latest version", name)
		}
	}

	// The latest pointer must reference a .delta file on the delta
	// runtime (version 5 differs from version 0's base by one entry).
	ptr, ok := deltaRT.FS().Open("models/app-be/latest")
	if !ok {
		t.Fatal("no latest pointer")
	}
	target, _, err := deltaRT.FS().ReadDataChecked(ptr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(target), ".delta") {
		t.Fatalf("latest checkpoint %q is not a delta", target)
	}
}

// The delta chain is bounded: after maxDeltaChain deltas a full
// checkpoint must be rewritten so restores never walk long chains.
func TestDeltaCheckpointChainBounded(t *testing.T) {
	rt := testRuntime()
	rt.SetDeltaCheckpoints(true)
	for v := 0; v < maxDeltaChain+3; v++ {
		rt.WriteModel("app-be", bigModel(v))
	}
	fulls := 0
	for seq := 0; seq < maxDeltaChain+3; seq++ {
		if _, ok := rt.FS().Open(fmt.Sprintf("models/app-be/%d", seq)); ok {
			fulls++
		}
	}
	if fulls < 2 {
		t.Fatalf("only %d full checkpoints across %d writes; chain not bounded", fulls, maxDeltaChain+3)
	}
	got, err := rt.RestoreModel("app-be")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(bigModel(maxDeltaChain + 2)) {
		t.Fatal("restore after chain rollover returned the wrong version")
	}
}

// Default off: a runtime without SetDeltaCheckpoints must write every
// version in full, keeping existing experiment traffic unchanged.
func TestDeltaCheckpointsDefaultOff(t *testing.T) {
	rt := testRuntime()
	for v := 0; v < 3; v++ {
		rt.WriteModel("app-be", bigModel(v))
	}
	for seq := 0; seq < 3; seq++ {
		if _, ok := rt.FS().Open(fmt.Sprintf("models/app-be/%d", seq)); !ok {
			t.Fatalf("version %d not stored as a full checkpoint", seq)
		}
	}
}
