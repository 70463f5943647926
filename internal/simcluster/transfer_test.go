package simcluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// TestTransferAtPolicyGrid drives the one transfer loop over every
// combination of caller policy and fault scenario and pins the whole
// outcome: elapsed time, retry and re-send counts, the bytes abandoned
// attempts carried, the typed error, and what the fabric recorded — in
// particular that a final failed attempt records nothing.
//
// The payload is one cross-rack flow of 100 bytes (plus a node-local
// hand-off the network never sees). On testConfig's fabric the node NIC
// is the bottleneck: one calm attempt takes exactly 1 s.
func TestTransferAtPolicyGrid(t *testing.T) {
	flows := []simnet.Flow{{Src: 0, Dst: 0, Bytes: 50}, {Src: 1, Dst: 2, Bytes: 100}}

	policies := []struct {
		name string
		p    TransferPolicy
	}{
		{"no deadline", TransferPolicy{}},
		{"deadline", TransferPolicy{Timeout: 1.5}},
		{"deadline+retries", TransferPolicy{Timeout: 1.5, Retries: 3, Backoff: 1}},
	}
	type scenario struct {
		name    string
		net     *simnet.NetworkPlan
		corrupt *corrupt.Plan
	}
	idle := scenario{"idle",
		&simnet.NetworkPlan{Faults: []simnet.NetFault{{Kind: simnet.FaultCore, Start: 1000, End: 1001}}},
		&corrupt.Plan{Events: []corrupt.Event{{Kind: corrupt.KindTransfer, Node: 1, Start: 1000, End: 1001, Rate: 1, Seed: 1}}}}
	// Core at a quarter capacity: an attempt started inside [0, 3)
	// takes 100/(200·0.25) = 2 s.
	brownout := scenario{"brownout",
		&simnet.NetworkPlan{Faults: []simnet.NetFault{{Kind: simnet.FaultCore, Start: 0, End: 3, Factor: 0.25}}}, nil}
	outage := scenario{"outage",
		&simnet.NetworkPlan{Faults: []simnet.NetFault{{Kind: simnet.FaultCore, Start: 0, End: 3}}}, nil}
	window := scenario{"bit-error window", nil,
		&corrupt.Plan{Events: []corrupt.Event{{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 2.5, Rate: 1, Seed: 2}}}}
	endless := scenario{"window longer than the cap", nil,
		&corrupt.Plan{Events: []corrupt.Event{{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1e9, Rate: 1, Seed: 3}}}}

	type want struct {
		res     TransferResult
		errKind simnet.TransferErrorKind // "" for success
		errAt   simtime.Time
		sends   int64 // attempts the fabric recorded
	}
	calm := want{res: TransferResult{Elapsed: 1}, sends: 1}
	cases := []struct {
		sc      scenario
		policy  int    // index into policies
		verify  string // "off", "on" or "any"
		outcome want
	}{
		{idle, 0, "any", calm},
		{idle, 1, "any", calm},
		{idle, 2, "any", calm},

		// A slow transfer is waited out without a deadline, fails typed at
		// a deadline with no retry budget, and is bridged with one: two
		// attempts run to the 1.5 s deadline (their bytes crossed the
		// fabric), back off 1 s then 2 s, and the third starts at t=6,
		// after the window.
		{brownout, 0, "any", want{res: TransferResult{Elapsed: 2}, sends: 1}},
		{brownout, 1, "any", want{errKind: simnet.TransferTimeout}},
		{brownout, 2, "any", want{res: TransferResult{Elapsed: 7, Retries: 2, RetryBytes: 200, RetryCrossRack: 200}, sends: 3}},

		// A severed path fails at once unless a deadline and a retry
		// budget bound the wait; severed attempts carry no bytes.
		{outage, 0, "any", want{errKind: simnet.TransferUnreachable}},
		{outage, 1, "any", want{errKind: simnet.TransferUnreachable}},
		{outage, 2, "any", want{res: TransferResult{Elapsed: 7, Retries: 2}, sends: 1}},

		// Unverified, corrupt arrivals are consumed silently. Verified,
		// each one crossed the fabric whole and is re-sent: immediately
		// with no backoff (attempts at t=0,1,2 are hit, t=3 lands), after
		// 1 s then 2 s with it (t=0 and t=2 are hit, t=5 lands). Re-sends
		// never touch the timeout-retry accounting.
		{window, 0, "off", calm},
		{window, 1, "off", calm},
		{window, 2, "off", calm},
		{window, 0, "on", want{res: TransferResult{Elapsed: 4, CorruptRetries: 3, CorruptRetryBytes: 300, RetryCrossRack: 300}, sends: 4}},
		{window, 1, "on", want{res: TransferResult{Elapsed: 4, CorruptRetries: 3, CorruptRetryBytes: 300, RetryCrossRack: 300}, sends: 4}},
		{window, 2, "on", want{res: TransferResult{Elapsed: 6, CorruptRetries: 2, CorruptRetryBytes: 200, RetryCrossRack: 200}, sends: 3}},

		// A window no re-send escapes: the cap's worth of re-sends are
		// recorded, then the typed corrupt error, with nothing recorded
		// for the abandoned final attempt. With backoff 1 s capped at 8×
		// the waits are 1+2+4+8·5 = 47 s on top of 8 s of sends.
		{endless, 0, "off", calm},
		{endless, 2, "off", calm},
		{endless, 0, "on", want{res: TransferResult{Elapsed: 8, CorruptRetries: 8, CorruptRetryBytes: 800, RetryCrossRack: 800},
			errKind: simnet.TransferCorrupt, errAt: 8, sends: 8}},
		{endless, 1, "on", want{res: TransferResult{Elapsed: 8, CorruptRetries: 8, CorruptRetryBytes: 800, RetryCrossRack: 800},
			errKind: simnet.TransferCorrupt, errAt: 8, sends: 8}},
		{endless, 2, "on", want{res: TransferResult{Elapsed: 55, CorruptRetries: 8, CorruptRetryBytes: 800, RetryCrossRack: 800},
			errKind: simnet.TransferCorrupt, errAt: 55, sends: 8}},
	}
	for _, tc := range cases {
		for _, verify := range []bool{false, true} {
			if (tc.verify == "on" && !verify) || (tc.verify == "off" && verify) {
				continue
			}
			pol := policies[tc.policy]
			t.Run(fmt.Sprintf("%s/%s/verify=%v", tc.sc.name, pol.name, verify), func(t *testing.T) {
				c := New(testConfig())
				c.SetNetworkPlan(tc.sc.net)
				c.SetCorruptionPlan(tc.sc.corrupt)
				p := pol.p
				p.Verify = verify
				res, err := c.TransferAt(flows, 0, p)
				if res != tc.outcome.res {
					t.Errorf("result = %+v, want %+v", res, tc.outcome.res)
				}
				if tc.outcome.errKind == "" {
					if err != nil {
						t.Fatalf("err = %v, want success", err)
					}
				} else {
					var te *simnet.TransferError
					if !errors.As(err, &te) {
						t.Fatalf("err = %v, want *simnet.TransferError", err)
					}
					if te.Kind != tc.outcome.errKind || te.Src != 1 || te.Dst != 2 || te.At != tc.outcome.errAt {
						t.Errorf("TransferError = %+v, want kind %q on 1->2 at t=%g", te, tc.outcome.errKind, float64(tc.outcome.errAt))
					}
				}
				n := tc.outcome.sends
				wantNet := simnet.Counters{Total: 100 * n, CrossRack: 100 * n, Local: 50 * n, Transfers: n}
				if got := c.Fabric().Counters(); got != wantNet {
					t.Errorf("fabric recorded %+v, want %d sends: %+v", got, n, wantNet)
				}
			})
		}
	}
	if CorruptResendCap != 8 {
		t.Fatalf("the grid's expectations assume CorruptResendCap = 8, got %d", CorruptResendCap)
	}
}

// TestTransferAtCalmIsPricePlusRecord pins the no-plan path against the
// fabric's own primitives, and that a view derived from the cluster
// charges through the same plans.
func TestTransferAtCalmIsPricePlusRecord(t *testing.T) {
	flows := []simnet.Flow{{Src: 0, Dst: 3, Bytes: 700}, {Src: 1, Dst: 0, Bytes: 300}}
	c := New(testConfig())
	want := c.Fabric().TransferTime(flows)
	res, err := c.TransferAt(flows, 12.5, TransferPolicy{Timeout: 100, Retries: 2, Backoff: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res != (TransferResult{Elapsed: want}) {
		t.Fatalf("calm TransferAt = %+v, want only Elapsed = %v", res, want)
	}
	if got := c.Fabric().Counters(); got.Total != 1000 || got.Transfers != 2 {
		t.Fatalf("calm TransferAt recorded %+v, want one send of each flow", got)
	}

	// The deadline is the caller's, not a plan's: a calm transfer slower
	// than it times out exactly as under an idle plan, recording nothing.
	var te *simnet.TransferError
	if _, err := c.TransferAt(flows, 0, TransferPolicy{Timeout: want / 2}); !errors.As(err, &te) || te.Kind != simnet.TransferTimeout {
		t.Fatalf("calm transfer past its deadline: err = %v, want a timeout", err)
	}
	if got := c.Fabric().Counters(); got.Transfers != 2 {
		t.Fatalf("the timed-out attempt recorded traffic: %+v", got)
	}

	c.SetCorruptionPlan(&corrupt.Plan{Events: []corrupt.Event{
		{Kind: corrupt.KindTransfer, Node: 3, Start: 0, End: 1e9, Rate: 1, Seed: 4},
	}})
	sub := c.Subset([]int{0, 3})
	if _, err := sub.TransferAt(flows[:1], 0, TransferPolicy{Verify: true}); err == nil {
		t.Fatal("a derived view ignored the cluster's corruption plan")
	}
}
