package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/simtime"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (loadable in Perfetto and chrome://tracing). Field order is fixed by
// the struct, so encoding is deterministic.
type chromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat"`
	Ph    string      `json:"ph"`
	Ts    float64     `json:"ts"`
	Dur   *float64    `json:"dur,omitempty"`
	Pid   int         `json:"pid"`
	Tid   int         `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the simulator-specific attributes of an event.
type chromeArgs struct {
	Kind   Kind     `json:"kind,omitempty"`
	Bytes  int64    `json:"bytes,omitempty"`
	ID     int64    `json:"id,omitempty"`
	Parent int64    `json:"parent,omitempty"`
	Attrs  []string `json:"attrs,omitempty"`
	Name   string   `json:"name,omitempty"` // thread_name metadata payload
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// ChromeTrace writes the timeline in Chrome trace-event JSON. Simulated
// seconds map to trace microseconds (the format's native unit), each
// lane becomes a named thread, zero-duration events export as instants,
// and every event carries its kind, byte count and span IDs in args.
// Output is byte-deterministic for a given timeline. A nil or empty
// tracer writes a valid trace with no events.
func (t *Tracer) ChromeTrace(w io.Writer) error {
	events := t.Events()
	out := chromeTrace{DisplayTimeUnit: "ms"}

	lanes := map[int]bool{}
	for _, e := range events {
		lanes[e.Lane] = true
	}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		name := fmt.Sprintf("group %d", l)
		if l == 0 {
			name = "driver"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: l,
			Args: &chromeArgs{Name: name},
		})
	}

	for _, e := range events {
		attrs := make([]string, 0, len(e.Attrs))
		for _, a := range e.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  Layer(e.Kind),
			Ts:   float64(e.Start) * 1e6,
			Pid:  0,
			Tid:  e.Lane,
			Args: &chromeArgs{Kind: e.Kind, Bytes: e.Bytes, ID: e.ID, Parent: e.Parent, Attrs: attrs},
		}
		if e.End == e.Start {
			ce.Ph = "i"
			ce.Scope = "t"
		} else {
			ce.Ph = "X"
			dur := float64(e.End-e.Start) * 1e6
			ce.Dur = &dur
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Category is a wall-clock attribution bucket of the critical-path
// summary.
type Category string

// The attribution categories, in descending precedence: when events of
// several categories overlap in simulated time, the overlapping span is
// attributed to the highest-precedence one — the scarce resources
// (recovery traffic, shuffle, model movement) win over compute, which is
// assumed to overlap them.
const (
	CatFault    Category = "fault-recovery"
	CatShuffle  Category = "shuffle"
	CatModel    Category = "model-distribution"
	CatTransfer Category = "data-transfer"
	CatCompute  Category = "compute"
	CatOverhead Category = "overhead"
)

// categories lists the buckets in precedence order.
var categories = []Category{CatFault, CatShuffle, CatModel, CatTransfer, CatCompute, CatOverhead}

// categoryOf maps an event kind to its attribution bucket; the empty
// category marks container events (phases) that only group others.
func categoryOf(k Kind) Category {
	switch k {
	case KindReReplication, KindNodeCrash, KindNodeRecover, KindGroupRepair:
		return CatFault
	case KindShuffle:
		return CatShuffle
	case KindModelDist, KindModelWrite:
		return CatModel
	case KindTransfer:
		return CatTransfer
	case KindMap, KindReduce, KindJob, KindLocalJob, KindSuperstep:
		return CatCompute
	case KindOverhead, KindBarrier:
		return CatOverhead
	default:
		return ""
	}
}

// Breakdown attributes a timeline's end-to-end extent to categories.
type Breakdown struct {
	Start, End simtime.Time
	// Total is the timeline extent End - Start.
	Total simtime.Duration
	// ByCategory holds the attributed time per bucket; every instant is
	// attributed to at most one bucket, so the values plus Idle sum to
	// Total exactly.
	ByCategory map[Category]simtime.Duration
	// Idle is the extent covered by no leaf event.
	Idle simtime.Duration
}

// interval is a half-open simulated-time span.
type interval struct{ lo, hi simtime.Time }

// mergeIntervals collapses a sorted-or-not interval list into disjoint
// sorted spans.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// measureOutside returns the total length of ivs not covered by the
// disjoint sorted list covered. Both inputs must be merged.
func measureOutside(ivs, covered []interval) simtime.Duration {
	var total simtime.Duration
	ci := 0
	for _, iv := range ivs {
		lo := iv.lo
		for ci < len(covered) && covered[ci].hi <= lo {
			ci++
		}
		cj := ci
		for lo < iv.hi {
			if cj >= len(covered) || covered[cj].lo >= iv.hi {
				total += iv.hi - lo
				break
			}
			c := covered[cj]
			if c.lo > lo {
				total += c.lo - lo
			}
			if c.hi > lo {
				lo = c.hi
			}
			cj++
		}
	}
	return total
}

// CriticalPath attributes the timeline's end-to-end extent to the
// categories above. Only leaf events participate (container spans —
// phases, jobs with recorded sub-phases — are skipped, so time is not
// double-counted); where leaves of several categories overlap, the span
// goes to the highest-precedence category. Extent no leaf covers is
// Idle. A nil or empty tracer returns a zero breakdown.
func (t *Tracer) CriticalPath() Breakdown {
	events := t.Events()
	bd := Breakdown{ByCategory: map[Category]simtime.Duration{}}
	if len(events) == 0 {
		return bd
	}
	bd.Start, bd.End = t.Span()
	bd.Total = bd.End - bd.Start

	parents := map[int64]bool{}
	for _, e := range events {
		if e.Parent != 0 {
			parents[e.Parent] = true
		}
	}
	byCat := map[Category][]interval{}
	for _, e := range events {
		if e.ID != 0 && parents[e.ID] {
			continue // container span: its children carry the time
		}
		cat := categoryOf(e.Kind)
		if cat == "" || e.End == e.Start {
			continue
		}
		byCat[cat] = append(byCat[cat], interval{e.Start, e.End})
	}

	var covered []interval
	var attributed simtime.Duration
	for _, cat := range categories {
		ivs := mergeIntervals(byCat[cat])
		if len(ivs) == 0 {
			continue
		}
		d := measureOutside(ivs, covered)
		if d > 0 {
			bd.ByCategory[cat] = d
			attributed += d
		}
		covered = mergeIntervals(append(covered, ivs...))
	}
	// The categories cover disjoint parts of the extent, so a negative
	// remainder is the rounding of their sum.
	bd.Idle = max(bd.Total-attributed, 0)
	return bd
}

// Render formats the breakdown as a fixed-order table of seconds and
// shares of the end-to-end extent.
func (b Breakdown) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "end-to-end %.3fs (%.3fs – %.3fs)\n", float64(b.Total), float64(b.Start), float64(b.End))
	if b.Total <= 0 {
		return sb.String()
	}
	for _, cat := range categories {
		d, ok := b.ByCategory[cat]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-20s %10.3fs  %5.1f%%\n", cat, float64(d), 100*float64(d)/float64(b.Total))
	}
	fmt.Fprintf(&sb, "  %-20s %10.3fs  %5.1f%%\n", "idle", float64(b.Idle), 100*float64(b.Idle)/float64(b.Total))
	return sb.String()
}
