package mapred

import (
	"errors"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

func corruptEngine(plan *corrupt.Plan) *Engine {
	c := testCluster()
	c.SetCorruptionPlan(plan)
	e := NewEngine(c)
	e.IntegrityChecks = true
	return e
}

// calmTransfer prices flows on an engine with no plan registered.
func calmTransfer(t *testing.T, flows []simnet.Flow) simtime.Duration {
	t.Helper()
	res, err := corruptEngine(nil).transferAt(flows, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed
}

// TestTransferAtCorruptResendConservesBytes pins the byte accounting of
// checksum re-sends: a payload that arrives corrupt crossed the fabric
// whole, so each re-send is recorded as real traffic, and the transfer
// succeeds once the advanced clock re-prices it past the window.
func TestTransferAtCorruptResendConservesBytes(t *testing.T) {
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 0.2, Rate: 1, Seed: 61},
	}}
	e := corruptEngine(plan)
	e.RetryBackoff = 0.05
	const bytes = 64 << 10
	flows := []simnet.Flow{{Src: 1, Dst: 0, Bytes: bytes}}
	before := e.cluster.Fabric().Counters().Total
	res, err := e.transferAt(flows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptRetries == 0 {
		t.Fatal("a rate-1 window at the start caused no re-sends")
	}
	if res.CorruptRetryBytes != int64(res.CorruptRetries)*bytes {
		t.Fatalf("corruptRetryBytes = %d after %d re-sends of %d bytes", res.CorruptRetryBytes, res.CorruptRetries, bytes)
	}
	// Every re-send plus the clean final attempt crossed the fabric.
	moved := e.cluster.Fabric().Counters().Total - before
	if want := int64(res.CorruptRetries+1) * bytes; moved != want {
		t.Fatalf("fabric recorded %d bytes, want %d", moved, want)
	}
	if res.Retries != 0 || res.RetryBytes != 0 {
		t.Fatalf("corrupt re-sends leaked into timeout-retry accounting: %+v", res)
	}
	if res.Elapsed <= calmTransfer(t, flows) {
		t.Fatalf("re-sends cost no time: %v", res.Elapsed)
	}
}

// TestTransferAtCorruptBudgetExhausted drives the give-up path: inside
// a window no re-send can escape, the engine stops after
// CorruptResendCap re-sends with a typed corrupt transfer error, and the
// final abandoned attempt records nothing.
func TestTransferAtCorruptBudgetExhausted(t *testing.T) {
	plan := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1e9, Rate: 1, Seed: 62},
	}}
	e := corruptEngine(plan)
	e.RetryBackoff = 0.05
	const bytes = 64 << 10
	flows := []simnet.Flow{{Src: 1, Dst: 0, Bytes: bytes}}
	before := e.cluster.Fabric().Counters().Total
	res, err := e.transferAt(flows, 0)
	if err == nil {
		t.Fatal("transfer through an endless rate-1 window succeeded")
	}
	var te *simnet.TransferError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *simnet.TransferError", err)
	}
	if te.Kind != simnet.TransferCorrupt {
		t.Fatalf("TransferError.Kind = %q, want corrupt", te.Kind)
	}
	if te.Src != 1 || te.Dst != 0 {
		t.Fatalf("TransferError endpoints = %d->%d, want 1->0", te.Src, te.Dst)
	}
	if res.CorruptRetries != simcluster.CorruptResendCap {
		t.Fatalf("corruptRetries = %d, want the cap %d", res.CorruptRetries, simcluster.CorruptResendCap)
	}
	if moved := e.cluster.Fabric().Counters().Total - before; moved != int64(simcluster.CorruptResendCap)*bytes {
		t.Fatalf("fabric recorded %d bytes; the abandoned final attempt must record nothing", moved)
	}
}

// TestTransferAtCorruptPathsOffWhenUnarmed pins the fast path both
// ways: windows with checks off are consumed silently (callers model
// the damage), and a plan with no windows leaves the plan-free pricing
// untouched even with checks on.
func TestTransferAtCorruptPathsOffWhenUnarmed(t *testing.T) {
	window := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1e9, Rate: 1, Seed: 63},
	}}
	flows := []simnet.Flow{{Src: 1, Dst: 0, Bytes: 64 << 10}}

	silent := corruptEngine(window)
	silent.IntegrityChecks = false
	res, err := silent.transferAt(flows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptRetries != 0 || res.CorruptRetryBytes != 0 {
		t.Fatalf("checks-off transfer counted re-sends: %+v", res)
	}

	pointEvents := &corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindScrub, Budget: 1 << 20, At: 0},
	}}
	armed := corruptEngine(pointEvents)
	res2, err := armed.transferAt(flows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := calmTransfer(t, flows); res.Elapsed != want || res2.Elapsed != want {
		t.Fatalf("unarmed transfers priced %v and %v, want the plan-free %v", res.Elapsed, res2.Elapsed, want)
	}
}
