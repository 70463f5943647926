// Package corrupt scripts silent data corruption against the simulated
// clock, the third fault dimension next to node crashes
// (simcluster.FailurePlan) and network faults (simnet.NetworkPlan).
//
// A Plan is a validated list of deterministic corruption events: byte
// flips in DFS block replicas, bit-error windows on a node's transfers,
// corruption of a model's checkpoint chain, and scheduled scrubber
// passes. Every decision a plan makes is a pure function of the plan,
// the event seeds, and simulated time — never of wall time or map
// order — so runs with the same plan are byte-identical across worker
// counts and repeats, and a zero plan is a byte-identical no-op.
package corrupt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/writable"
)

// Kind names a corruption event type.
type Kind string

const (
	// KindBlockReplica flips bytes in one replica of one DFS block at
	// time At. Node selects the replica; Node == PrimaryReplica means
	// "whichever replica is listed first", so plans need not predict
	// placement.
	KindBlockReplica Kind = "block-replica"
	// KindCheckpoint corrupts the latest stored checkpoint of model
	// family Model at time At (every replica, so replica failover
	// cannot mask it and rollback must engage).
	KindCheckpoint Kind = "checkpoint"
	// KindTransfer is a bit-error window [Start, End) on node Node:
	// while active, any transfer with Node as an endpoint is corrupted
	// in flight with probability Rate per attempt.
	KindTransfer Kind = "transfer"
	// KindScrub schedules a background scrubber pass at time At that
	// scans up to Budget replica bytes, verifying and repairing as it
	// goes.
	KindScrub Kind = "scrub"
)

// PrimaryReplica is the Node value that targets a block's
// first-listed replica.
const PrimaryReplica = -1

// Event is one scripted corruption action. Which fields matter depends
// on Kind; Validate enforces the rules.
type Event struct {
	Kind Kind

	// At is when point events (block-replica, checkpoint, scrub) fire.
	At simtime.Duration
	// Start and End bound transfer bit-error windows.
	Start, End simtime.Duration

	// File and Block locate the target of a block-replica event; Node
	// picks the replica (or PrimaryReplica).
	File  string
	Block int
	Node  int

	// Model names the checkpoint family a checkpoint event targets.
	Model string

	// Rate is the per-attempt corruption probability inside a transfer
	// window, in (0, 1].
	Rate float64

	// Budget is the scrub byte budget per pass.
	Budget int64

	// Seed feeds every pseudo-random decision the event makes.
	Seed uint64
}

// Time is the instant the event becomes relevant: At for point events,
// Start for windows. Plans drain in Time order.
func (ev *Event) Time() simtime.Duration {
	if ev.Kind == KindTransfer {
		return ev.Start
	}
	return ev.At
}

// Describe renders the event for logs and plan dumps.
func (ev *Event) Describe() string {
	switch ev.Kind {
	case KindBlockReplica:
		who := fmt.Sprintf("node %d", ev.Node)
		if ev.Node == PrimaryReplica {
			who = "primary replica"
		}
		return fmt.Sprintf("corrupt %q block %d on %s at t=%g", ev.File, ev.Block, who, float64(ev.At))
	case KindCheckpoint:
		return fmt.Sprintf("corrupt checkpoint of model %q at t=%g", ev.Model, float64(ev.At))
	case KindTransfer:
		return fmt.Sprintf("bit errors on node %d transfers [%g, %g) rate %g", ev.Node, float64(ev.Start), float64(ev.End), ev.Rate)
	case KindScrub:
		return fmt.Sprintf("scrub pass (budget %d B) at t=%g", ev.Budget, float64(ev.At))
	default:
		return fmt.Sprintf("unknown corruption event %q", string(ev.Kind))
	}
}

// PlanError reports an invalid corruption event by index.
type PlanError struct {
	Index  int
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("corrupt: corruption event %d: %s", e.Index, e.Reason)
}

// Plan scripts corruption events. Register it with
// simcluster.Cluster.SetCorruptionPlan before building runtimes. A nil
// plan — or a plan with no events — never alters a byte.
type Plan struct {
	Events []Event
}

// Validate checks the plan against a cluster of n nodes. It returns a
// *PlanError naming the first offending event, or nil.
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	fail := func(i int, format string, args ...any) error {
		return &PlanError{Index: i, Reason: fmt.Sprintf(format, args...)}
	}
	byNode := map[int][][2]simtime.Duration{}
	for i := range p.Events {
		ev := &p.Events[i]
		switch ev.Kind {
		case KindBlockReplica:
			if ev.File == "" {
				return fail(i, "block-replica event needs a file name")
			}
			if ev.Block < 0 {
				return fail(i, "negative block index %d", ev.Block)
			}
			if ev.Node != PrimaryReplica && (ev.Node < 0 || ev.Node >= nodes) {
				return fail(i, "node %d out of range [0, %d)", ev.Node, nodes)
			}
			if ev.At < 0 {
				return fail(i, "negative time %g", float64(ev.At))
			}
		case KindCheckpoint:
			if ev.Model == "" {
				return fail(i, "checkpoint event needs a model name")
			}
			if ev.At < 0 {
				return fail(i, "negative time %g", float64(ev.At))
			}
		case KindTransfer:
			if ev.Node < 0 || ev.Node >= nodes {
				return fail(i, "node %d out of range [0, %d)", ev.Node, nodes)
			}
			if ev.Start < 0 || ev.End <= ev.Start {
				return fail(i, "bad window [%g, %g)", float64(ev.Start), float64(ev.End))
			}
			if ev.Rate <= 0 || ev.Rate > 1 {
				return fail(i, "rate %g outside (0, 1]", ev.Rate)
			}
			for _, w := range byNode[ev.Node] {
				if ev.Start < w[1] && w[0] < ev.End {
					return fail(i, "window [%g, %g) overlaps an earlier window [%g, %g) on node %d",
						float64(ev.Start), float64(ev.End), float64(w[0]), float64(w[1]), ev.Node)
				}
			}
			byNode[ev.Node] = append(byNode[ev.Node], [2]simtime.Duration{ev.Start, ev.End})
		case KindScrub:
			if ev.Budget <= 0 {
				return fail(i, "scrub budget must be positive, got %d", ev.Budget)
			}
			if ev.At < 0 {
				return fail(i, "negative time %g", float64(ev.At))
			}
		default:
			return fail(i, "unknown kind %q", string(ev.Kind))
		}
	}
	return nil
}

// Sorted returns the events ordered by Time (stable, so equal-time
// events keep plan order).
func (p *Plan) Sorted() []Event {
	if p == nil || len(p.Events) == 0 {
		return nil
	}
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time() < out[j].Time() })
	return out
}

// HasTransferEvents reports whether any bit-error windows are
// scripted; transfer paths use it to keep the zero-window fast path.
func (p *Plan) HasTransferEvents() bool {
	if p == nil {
		return false
	}
	for i := range p.Events {
		if p.Events[i].Kind == KindTransfer {
			return true
		}
	}
	return false
}

// NextTransition returns the earliest bit-error window boundary (a
// start or an end) strictly after t, and whether one exists — the twin
// of simnet.NetworkPlan.NextTransition. A caller whose transfer
// exhausted its re-send budget blocks until then: the windows are
// constant in between, so nothing can change earlier.
func (p *Plan) NextTransition(t simtime.Time) (simtime.Time, bool) {
	var next simtime.Time
	found := false
	if p == nil {
		return next, found
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Kind != KindTransfer {
			continue
		}
		for _, edge := range [...]simtime.Time{ev.Start, ev.End} {
			if edge > t && (!found || edge < next) {
				next, found = edge, true
			}
		}
	}
	return next, found
}

// TransferHit decides whether a transfer between src and dst priced at
// time `at` is corrupted in flight. It returns a per-hit seed (for
// payload perturbation downstream) and whether the transfer was hit.
// The decision is a pure function of (plan, src, dst, at), so retries
// priced at later times re-roll and identical flows in one batch agree.
func (p *Plan) TransferHit(src, dst int, at simtime.Duration) (uint64, bool) {
	if p == nil {
		return 0, false
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Kind != KindTransfer || at < ev.Start || at >= ev.End {
			continue
		}
		if ev.Node != src && ev.Node != dst {
			continue
		}
		h := Mix(ev.Seed, uint64(i)+1, uint64(src)+1, uint64(dst)+1, math.Float64bits(float64(at)))
		if unitFloat(h) < ev.Rate {
			return Mix(h, 0xD1CE), true
		}
	}
	return 0, false
}

// Describe renders the whole plan, one event per line, in Time order.
func (p *Plan) Describe() string {
	evs := p.Sorted()
	if len(evs) == 0 {
		return "corruption plan: none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "corruption plan: %d events\n", len(evs))
	for i := range evs {
		fmt.Fprintf(&b, "  %s\n", evs[i].Describe())
	}
	return b.String()
}

// Mix folds salts into seed with splitmix64 steps; it is the one hash
// all corruption decisions derive from.
func Mix(seed uint64, salts ...uint64) uint64 {
	x := splitmix(seed + 0x9E3779B97F4A7C15)
	for _, s := range salts {
		x = splitmix(x ^ (s + 0x9E3779B97F4A7C15))
	}
	return x
}

func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// PerturbModel deterministically damages one value of m in place, the
// way an undetected corrupt payload would after decoding: it picks a
// key from seed, flips one byte inside the value's encoding (never the
// kind tag, so the result still decodes), and stores the damaged value
// back. Models with no keys are returned unchanged. The model is
// returned for chaining.
func PerturbModel(m *model.Model, seed uint64) *model.Model {
	keys := m.Keys()
	if len(keys) == 0 {
		return m
	}
	h := Mix(seed, uint64(len(keys)))
	key := keys[h%uint64(len(keys))]
	v, _ := m.Get(key)
	enc := writable.Encode(nil, v)
	if len(enc) < 2 {
		return m
	}
	span := uint64(len(enc) - 1)
	mask := byte(h >> 32)
	if mask == 0 {
		mask = 0xA5
	}
	for probe := uint64(0); probe < span; probe++ {
		off := 1 + int(((h>>8)+probe)%span)
		enc[off] ^= mask
		if w, rest, err := writable.Decode(enc); err == nil && len(rest) == 0 {
			m.Set(key, w)
			return m
		}
		enc[off] ^= mask // undo and probe the next offset
	}
	return m
}
