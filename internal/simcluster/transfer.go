package simcluster

import (
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// CorruptResendCap bounds how many corrupt arrivals of one transfer are
// re-sent before the sender gives up with a typed *simnet.TransferError
// (kind corrupt). It is independent of TransferPolicy.Retries: checksum
// re-sends must work even for callers with no transfer deadline.
const CorruptResendCap = 8

// backoffCap bounds the exponential backoff at this multiple of the
// base, so a long fault window is polled rather than escaped.
const backoffCap = 8

// TransferPolicy is how a caller wants one framework transfer handled
// when the cluster's fault scripts interfere with it. The zero policy
// waits out a slow transfer, fails immediately on a severed path and
// consumes corrupt arrivals silently.
type TransferPolicy struct {
	// Timeout is the deadline one attempt may take before it is
	// abandoned; zero disables the deadline.
	Timeout simtime.Duration
	// Retries is how many failed attempts (timed out or severed) are
	// retried before the typed error surfaces. Only meaningful with a
	// Timeout: without a deadline nothing bounds the wait between
	// attempts, so a failure is final.
	Retries int
	// Backoff is the base wait between attempts; attempt k waits
	// Backoff·2^k, capped at backoffCap times the base. Zero re-sends
	// immediately.
	Backoff simtime.Duration
	// Verify checks arrivals against the cluster's corruption plan: a
	// payload hit by a bit-error window is re-sent (after Backoff)
	// instead of silently consumed, up to CorruptResendCap times.
	Verify bool
}

// TransferResult describes one transfer: the total elapsed time (failed
// attempts, backoff waits and the successful attempt), how many
// attempts failed and were retried, and the network traffic the
// abandoned attempts carried.
type TransferResult struct {
	Elapsed        simtime.Duration
	Retries        int
	RetryBytes     int64
	RetryCrossRack int64
	// CorruptRetries / CorruptRetryBytes count attempts that arrived
	// whole but failed checksum verification and were re-sent; their
	// cross-rack share is folded into RetryCrossRack.
	CorruptRetries    int
	CorruptRetryBytes int64
}

// TransferAt is the one transfer path every engine charges through:
// price the flows at their start time under the registered network
// plan, enforce the policy's deadline, verify the arrival against the
// corruption plan, and record the traffic on the fabric. With no plan
// registered (or none active) it is exactly one price plus one Record.
//
// An attempt that would outlive the deadline is abandoned at the
// deadline — its bytes crossed the fabric before the abort and are
// recorded, then re-sent — while an attempt whose path is severed
// records nothing. A corrupt arrival crossed the fabric whole and is
// recorded too; re-pricing at the advanced clock re-rolls the bit-error
// window. When retries or re-sends are exhausted the typed
// *simnet.TransferError of the last attempt is returned, with nothing
// recorded for that final attempt.
func (c *Cluster) TransferAt(flows []simnet.Flow, at simtime.Time, p TransferPolicy) (TransferResult, error) {
	verify := p.Verify && c.corruptplan.HasTransferEvents()
	var res TransferResult
	corruptAttempts := 0
	for attempt := 0; ; attempt++ {
		now := at + res.Elapsed
		tt, err := c.fabric.TransferTimeAt(flows, now)
		if err == nil && (p.Timeout == 0 || tt <= p.Timeout) {
			src, dst, hit := 0, 0, false
			if verify {
				src, dst, hit = c.corruptFlowAt(flows, now)
			}
			if !hit {
				c.fabric.Record(flows)
				res.Elapsed += tt
				return res, nil
			}
			if corruptAttempts >= CorruptResendCap {
				return res, &simnet.TransferError{Kind: simnet.TransferCorrupt, Src: src, Dst: dst, At: now}
			}
			c.fabric.Record(flows)
			netBytes, crossRack, _, _ := c.attemptTraffic(flows)
			res.CorruptRetries++
			res.CorruptRetryBytes += netBytes
			res.RetryCrossRack += crossRack
			res.Elapsed += tt + backoffDelay(p.Backoff, corruptAttempts)
			corruptAttempts++
			continue
		}
		abandon := p.Timeout == 0 || attempt >= p.Retries
		if err == nil {
			netBytes, crossRack, firstSrc, firstDst := c.attemptTraffic(flows)
			err = &simnet.TransferError{Kind: simnet.TransferTimeout, Src: firstSrc, Dst: firstDst, At: now}
			if !abandon {
				c.fabric.Record(flows)
				res.RetryBytes += netBytes
				res.RetryCrossRack += crossRack
			}
		}
		if abandon {
			return res, err
		}
		res.Retries++
		res.Elapsed += p.Timeout + backoffDelay(p.Backoff, attempt)
	}
}

// attemptTraffic sums the network traffic one attempt at flows carries
// and names its first network flow (-1, -1 when there is none). Only
// failed attempts need it, so the calm path never pays for the scan.
func (c *Cluster) attemptTraffic(flows []simnet.Flow) (netBytes, crossRack int64, firstSrc, firstDst int) {
	firstSrc, firstDst = -1, -1
	for _, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes <= 0 {
			continue
		}
		if firstSrc < 0 {
			firstSrc, firstDst = fl.Src, fl.Dst
		}
		netBytes += fl.Bytes
		if c.fabric.Rack(fl.Src) != c.fabric.Rack(fl.Dst) {
			crossRack += fl.Bytes
		}
	}
	return netBytes, crossRack, firstSrc, firstDst
}

// corruptFlowAt asks the corruption plan whether any network flow of an
// attempt priced at time at is hit by an active bit-error window,
// returning the first offending flow.
func (c *Cluster) corruptFlowAt(flows []simnet.Flow, at simtime.Time) (src, dst int, hit bool) {
	for _, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes == 0 {
			continue
		}
		if _, h := c.corruptplan.TransferHit(fl.Src, fl.Dst, at); h {
			return fl.Src, fl.Dst, true
		}
	}
	return 0, 0, false
}

// backoffDelay is the capped exponential wait before retry attempt k
// (0-based).
func backoffDelay(base simtime.Duration, attempt int) simtime.Duration {
	d := base
	for i := 0; i < attempt; i++ {
		if d >= base*backoffCap {
			return base * backoffCap
		}
		d *= 2
	}
	return d
}
