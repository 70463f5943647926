package mapred

import (
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Framework transfers. Every transfer the engine charges — input
// fetch, model distribution, shuffle — goes through
// simcluster.Cluster.TransferAt, the one price → deadline → backoff →
// checksum-verify → record loop, under a policy filled from the
// engine's knobs. The engine reacts to a degraded fabric like a Hadoop
// shuffle client: abandon the attempt, back off exponentially (capped),
// and re-price at the advanced clock — a fault window that has closed
// by then no longer hurts. On a calm fabric the same call is one price
// and one Record.

// defaultRetryBackoff is the base backoff when Engine.RetryBackoff is
// zero: one simulated second, Hadoop's fetch-retry starting delay.
const defaultRetryBackoff = simtime.Duration(1.0)

// transferAt records flows on the fabric and charges their time from
// the given start time. FairSharingNetwork engines price under
// progressive max-min sharing instead; validateConfig guarantees no
// network plan or bit-error window is registered then, so there is
// nothing to retry or verify.
func (e *Engine) transferAt(flows []simnet.Flow, at simtime.Time) (simcluster.TransferResult, error) {
	if e.FairSharingNetwork {
		fabric := e.cluster.Fabric()
		fabric.Record(flows)
		return simcluster.TransferResult{Elapsed: fabric.MaxMinTransferTime(flows)}, nil
	}
	backoff := e.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	return e.cluster.TransferAt(flows, at, simcluster.TransferPolicy{
		Timeout: e.TransferTimeout,
		Retries: e.TransferRetries,
		Backoff: backoff,
		Verify:  e.IntegrityChecks,
	})
}

// chargeRetries folds one transfer's retry accounting into the job
// metrics: the global retry counters plus the byte counter of the
// phase that paid for the re-sent traffic.
func chargeRetries(m *Metrics, res simcluster.TransferResult, phaseBytes *int64) {
	m.TransferRetries += res.Retries
	m.RetryBytes += res.RetryBytes
	m.CorruptRetries += res.CorruptRetries
	m.CorruptRetryBytes += res.CorruptRetryBytes
	if phaseBytes != nil {
		*phaseBytes += res.RetryBytes + res.CorruptRetryBytes
	}
}
