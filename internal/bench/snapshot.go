package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps/kmeans"
	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/writable"
)

// Performance snapshots.
//
// A snapshot is a machine-readable record of the hot-path
// microbenchmarks (and optionally the full suite's wall time) at a
// point in the repository's history. The committed BENCH_baseline.json
// is the regression baseline: CI re-checks that it parses and names
// every current kernel, and a developer chasing a slowdown re-runs
// `picbench bench-snapshot` to diff against it.

// KernelResult is one microbenchmark measurement. Besides the timing,
// it carries the allocator profile of the measured op — the arena and
// pool work on the hot paths is held to account here, not just by eye.
type KernelResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Snapshot is the machine-readable performance record emitted by
// `picbench bench-snapshot`.
type Snapshot struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Scale      float64        `json:"scale"`
	Kernels    []KernelResult `json:"kernels"`
	// SuiteWallSeconds is a wall-clock total: the kernel measurements
	// themselves, or one full serial experiment suite at Scale when the
	// snapshot was taken with -suite. It is always positive; a zero
	// value marks a snapshot from before the wall total was recorded,
	// and CheckSnapshot rejects it.
	SuiteWallSeconds float64 `json:"suite_wall_seconds"`
}

// kernel is one named snapshot microbenchmark.
type kernel struct {
	name string
	fn   func(b *testing.B)
}

// groupedFixture builds the synthetic grouped job the mapred kernels
// share: duplicate-heavy keys (the shape every iterative workload
// produces — many records, few distinct reduce keys) through an
// identity mapper and a vector-sum reducer.
func groupedFixture() (*mapred.Engine, *mapred.Job, *mapred.Input) {
	const nRecords = 20_000
	const nKeys = 25
	recs := make([]mapred.Record, nRecords)
	for i := range recs {
		recs[i] = mapred.Record{
			Key:   fmt.Sprintf("k%02d", i%nKeys),
			Value: writable.Vector{float64(i), 1, 2, 3},
		}
	}
	cluster := simcluster.New(simcluster.Small())
	e := mapred.NewEngine(cluster)
	job := &mapred.Job{
		Name: "snapshot-grouped",
		Mapper: mapred.MapperFunc(func(k string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			emit.Emit(k, v)
			return nil
		}),
		Reducer: mapred.ReducerFunc(func(k string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
			acc := values[0].(writable.Vector).Clone()
			for _, v := range values[1:] {
				vec := v.(writable.Vector)
				for i := range acc {
					acc[i] += vec[i]
				}
			}
			emit.Emit(k, acc)
			return nil
		}),
		NumReducers: 4,
	}
	return e, job, mapred.NewInput(recs, cluster, cluster.MapSlots())
}

// kmeansBEIterWorkload is the one-round K-means PIC workload of the
// kmeans-be-iter kernel. Its 50k input records are built here, once:
// the kernel times the round, not the record generator.
func kmeansBEIterWorkload(name string) *Workload {
	w, ps := KMeansWorkload(name, simcluster.Small(), 50_000, 25, 3, 6, 3)
	w.PICOpts.MaxBEIterations = 1
	w.PICOpts.MaxLocalIterations = 10
	w.PICOpts.MaxTopOffIterations = 1
	recs := kmeans.Records(ps.Points)
	w.MakeInput = func(c *simcluster.Cluster) *mapred.Input {
		return mapred.NewInput(recs, c, c.MapSlots())
	}
	return w
}

// kernels returns the snapshot microbenchmarks. Their names are stable
// identifiers: BENCH_baseline.json is validated against this list.
func kernels() []kernel {
	return []kernel{
		{"run-grouped", func(b *testing.B) {
			// In-memory path: sort-based grouping + sharded reduce
			// (Engine.RunLocal), the best-effort-phase hot loop.
			e, job, in := groupedFixture()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RunLocal(job, in, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"shuffle-accounting", func(b *testing.B) {
			// Framework path: partitioning, encoded-size caching and
			// shuffle byte accounting (Engine.Run).
			e, job, in := groupedFixture()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(job, in, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"local-iteration", func(b *testing.B) {
			// One Lloyd iteration of K-means through the runtime — the
			// per-iteration cost every figure experiment multiplies. Each
			// op iterates from the model the previous op produced, and the
			// trajectory restarts from the initial model once it converges:
			// iterating from one fixed model would time a loop-resident
			// assignment memo at zero drift, where nothing is computed.
			w, _ := KMeansWorkload("snapshot-kmeans-iter", simcluster.Small(), 50_000, 25, 3, 6, 3)
			rt := w.NewRuntime()
			app := w.MakeApp()
			in := w.MakeInput(rt.Cluster())
			first := w.MakeModel()
			m := first
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, err := app.Iteration(rt, in, m)
				if err != nil {
					b.Fatal(err)
				}
				if app.Converged(m, next) {
					next = first
				}
				m = next
			}
		}},
		{"sched-multitenant", func(b *testing.B) {
			// One multi-tenant scheduler run: a PIC job beside a
			// synthetic co-tenant on one shared cluster — the sched
			// event loop, footprint measurement and residual-capacity
			// accounting end to end.
			w, _ := PageRankWorkload("snapshot-sched", tenancyCluster(), 2_000, 5, 0.02, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runTenancyCell(w, "pic", 0.5, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kmeans-be-iter", func(b *testing.B) {
			// One best-effort PIC round of K-means: partition, local
			// convergence on every node group, merge.
			w := kmeansBEIterWorkload("snapshot-kmeans-be")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.RunPIC(nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"per-iter-overhead", func(b *testing.B) {
			// Fixed per-iteration overhead with a warm loop cache: a
			// deliberately tiny K-means problem, so the measurement is
			// dominated by the per-iteration bookkeeping (job assembly,
			// accounting, model handling) rather than per-point compute —
			// the quantity the loop-aware runtime drives toward zero. One
			// untimed iteration stages the caches first.
			w, _ := KMeansWorkload("snapshot-per-iter", simcluster.Small(), 2_000, 25, 3, 6, 3)
			rt := w.NewRuntime()
			app := w.MakeApp()
			in := w.MakeInput(rt.Cluster())
			m := w.MakeModel()
			if _, err := app.Iteration(rt, in, m); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Iteration(rt, in, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"degraded-merge", func(b *testing.B) {
			// One best-effort PIC round through the degraded network
			// path: a rack uplink is down for the whole run, so every
			// transfer is priced under the fault overlay and the merge
			// settles for a quorum with the cut groups' partials stale.
			w, _ := KMeansWorkload("snapshot-degraded", netFaultCluster(), 50_000, 25, 3, 6, 3)
			w.PICOpts.MaxBEIterations = 1
			w.PICOpts.MaxLocalIterations = 10
			w.PICOpts.MaxTopOffIterations = 1
			w.PICOpts.MergeQuorum = 4
			w.PICOpts.MergeTimeout = 5
			plan := &simnet.NetworkPlan{Faults: []simnet.NetFault{
				{Kind: simnet.FaultRackUplink, Rack: 2, Start: 0, End: 1e9, Factor: 0},
			}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := netFaultRuntime(w, plan, 60)
				if _, err := core.RunPIC(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(), w.PICOpts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream-split-gen", func(b *testing.B) {
			// Out-of-core split generation: deal one tier's worth of
			// streamed mixture records into splits through the chunked
			// driver. The source is arena-backed, so a full pass keeps
			// exactly one split resident — the allocs column is the
			// point of the measurement.
			n := scaled(100_000, 10_000)
			cluster := simcluster.New(simcluster.Small())
			src := newMixtureSource(3, n, 25, 3, max(n/2_000, 1), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapred.StreamSplits(src, cluster, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sparse-delta", func(b *testing.B) {
			// Sparse model-delta round trip: encode the ~1%-changed
			// delta between two model versions into a reused buffer and
			// apply it back — the bytes loop-aware delta shipping and
			// delta checkpoints move per iteration.
			n := scaled(2_000, 200)
			prev := model.NewWithCapacity(n)
			next := model.NewWithCapacity(n)
			for i := 0; i < n; i++ {
				v := writable.Vector{float64(i), 1, 2, 3}
				key := fmt.Sprintf("w%06d", i)
				prev.Set(key, v)
				if i%100 == 0 {
					next.Set(key, writable.Vector{float64(i), 1, 2, 4})
				} else {
					next.Set(key, v)
				}
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = model.EncodeDelta(prev, next, buf[:0])
				if _, err := model.ApplyDeltaBytes(prev, buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"hier-merge", func(b *testing.B) {
			// One best-effort round merged through the rack-local tree
			// on a ladder-sized cluster: rack pre-combines on rack
			// links, one combined model per rack over the core, and the
			// weighted final combine at the model home.
			nodes := scaled(64, 8)
			racks := (nodes + 15) / 16
			w, _ := scaleWorkload("snapshot-hier-merge", nodes, scaled(50_000, 10_000), 25, 3, 4*racks, 3)
			w.PICOpts.MaxBEIterations = 1
			w.PICOpts.MaxLocalIterations = 5
			w.PICOpts.MaxTopOffIterations = 1
			w.PICOpts.HierarchicalMerge = true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.RunPIC(nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"scrub-repair", func(b *testing.B) {
			// One background-scrubber pass over a namespace with one
			// freshly poisoned replica per file: the deterministic
			// namespace walk, per-replica checksum verification, and the
			// re-replication copy around each detection — the integrity
			// layer's background hot loop.
			cluster := simcluster.New(simcluster.Small())
			fs := dfs.New(cluster, dfs.DefaultConfig())
			const files = 16
			names := make([]string, files)
			for i := range names {
				names[i] = fmt.Sprintf("scrub/f%02d", i)
				fs.Create(names[i], 4<<20, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, name := range names {
					fs.CorruptReplica(name, 0, corrupt.PrimaryReplica, uint64(i*files+j)+1)
				}
				if rep, _ := fs.Scrub(1<<30, 0); rep.RepairedBlocks != files {
					b.Fatalf("scrub repaired %d of %d poisoned blocks", rep.RepairedBlocks, files)
				}
			}
		}},
		{"bsp-superstep", func(b *testing.B) {
			// One native vertex-program iteration of PageRank on the BSP
			// backend: program build, two supersteps (sends, sender-side
			// combining, compute scheduling, message and barrier pricing)
			// and model assembly — the per-iteration hot loop of the
			// superstep engine.
			w, _ := PageRankWorkload("snapshot-bsp", simcluster.Small(), scaled(2_000, 400), 5, 0.05, 4)
			w.ICOpts.MaxIterations = 1
			rt := w.NewRuntime()
			if err := rt.SetBackend(core.BackendBSP); err != nil {
				b.Fatal(err)
			}
			app := w.MakeApp()
			in := w.MakeInput(rt.Cluster())
			m := w.MakeModel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunIC(rt, app, in, m, &w.ICOpts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"model-iterate", func(b *testing.B) {
			// One iteration's model work over an unchanged key set of
			// PageRank's shape (many tiny float entries): a new version
			// on the previous one's schema, every key filled, encoded
			// into a reused buffer, then the convergence metric and the
			// delta size against the previous version — the loop the
			// columnar store makes free of sorts, hashes-per-key growth
			// and allocations.
			n := scaled(50_000, 5_000)
			prev := model.New()
			vals := make([]writable.Writable, n)
			for i := 0; i < n; i++ {
				prev.Set(fmt.Sprintf("e%08d:%08d", i/5, i), writable.Float64(float64(i)))
				vals[i] = writable.Float64(float64(i) + 0.5)
			}
			keys := prev.Keys()
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := prev.NewLike()
				for j, k := range keys {
					next.Set(k, vals[j])
				}
				buf = next.Encode(buf[:0])
				// Every value moved by 0.5, so the delta is the whole
				// model plus one op byte per key.
				if d, size := model.MaxFloatDelta(prev, next), model.DeltaSize(prev, next); d != 0.5 || size != int64(len(buf)+n) {
					b.Fatalf("delta %g over %d bytes, model %d bytes", d, size, len(buf))
				}
			}
		}},
		{"run-grouped-distinct", func(b *testing.B) {
			// run-grouped's opposite key shape, at the size of one
			// PageRank local iteration: 6.5k records over 1.6k nine-byte
			// rank keys in scattered order, a few float contributions
			// each — the group step sorts real key bytes here instead of
			// telling 25 keys apart.
			const nRecords, nKeys = 6_500, 1_600
			recs := make([]mapred.Record, nRecords)
			for i := range recs {
				recs[i] = mapred.Record{Key: fmt.Sprintf("r%08d", (i*7919)%nKeys), Value: writable.Float64(i)}
			}
			cluster := simcluster.New(simcluster.Small())
			e := mapred.NewEngine(cluster)
			job := &mapred.Job{
				Name: "snapshot-grouped-distinct",
				Mapper: mapred.MapperFunc(func(k string, v writable.Writable, _ *model.Model, emit mapred.Emitter) error {
					emit.Emit(k, v)
					return nil
				}),
				Reducer: mapred.ReducerFunc(func(k string, values []writable.Writable, _ *model.Model, emit mapred.Emitter) error {
					var sum float64
					for _, v := range values {
						sum += float64(v.(writable.Float64))
					}
					emit.Emit(k, writable.Float64(sum))
					return nil
				}),
			}
			in := mapred.NewInput(recs, cluster, cluster.MapSlots())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RunLocal(job, in, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// KernelNames lists the snapshot kernels in measurement order.
func KernelNames() []string {
	ks := kernels()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.name
	}
	return names
}

// TakeSnapshot measures every kernel and returns the populated
// snapshot. SuiteWallSeconds is the wall time of the kernel
// measurements themselves; a caller that also times a full experiment
// suite overwrites it with that (longer) figure. Either way it is
// non-zero — a snapshot claiming a zero wall total is malformed, and
// CheckSnapshot rejects it.
func TakeSnapshot() *Snapshot {
	s := &Snapshot{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
	}
	start := time.Now()
	for _, k := range kernels() {
		r := testing.Benchmark(k.fn)
		s.Kernels = append(s.Kernels, KernelResult{
			Name:        k.name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	s.SuiteWallSeconds = time.Since(start).Seconds()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// HistoryKernel is one kernel's condensed measurement in a trajectory
// entry: mean timing plus the allocator profile of the op.
type HistoryKernel struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HistoryEntry is one line of the BENCH_history.jsonl performance
// trajectory: a dated condensation of a snapshot — the suite wall time
// plus each kernel's timing and allocation profile. Kernels marshal as
// a JSON object, which Go emits with sorted keys, so a given snapshot
// always serializes to the same line. (Entries from before the
// allocation columns record each kernel as a bare ns/op number; history
// is append-only, so both shapes coexist in the file.)
type HistoryEntry struct {
	Date             string                   `json:"date"` // YYYY-MM-DD
	GoVersion        string                   `json:"go_version"`
	Scale            float64                  `json:"scale"`
	SuiteWallSeconds float64                  `json:"suite_wall_seconds"`
	Kernels          map[string]HistoryKernel `json:"kernels"`
	// Note says what makes this entry not like-for-like with the ones
	// before it (a kernel redefined, a different host), when something
	// does.
	Note string `json:"note,omitempty"`
}

// History condenses the snapshot into a trajectory entry under the
// given date.
func (s *Snapshot) History(date, note string) HistoryEntry {
	e := HistoryEntry{
		Date:             date,
		Note:             note,
		GoVersion:        s.GoVersion,
		Scale:            s.Scale,
		SuiteWallSeconds: s.SuiteWallSeconds,
		Kernels:          map[string]HistoryKernel{},
	}
	for _, k := range s.Kernels {
		e.Kernels[k.Name] = HistoryKernel{
			NsPerOp:     k.NsPerOp,
			AllocsPerOp: k.AllocsPerOp,
			BytesPerOp:  k.BytesPerOp,
		}
	}
	return e
}

// AppendHistory writes the snapshot's trajectory entry as one JSONL
// line (the caller opens the history file in append mode).
func (s *Snapshot) AppendHistory(w io.Writer, date, note string) error {
	return json.NewEncoder(w).Encode(s.History(date, note))
}

// CheckSnapshot validates a serialized snapshot: it must parse, carry
// a plausible header, and name every current kernel with positive
// timings. It is the CI guard against a stale or hand-mangled
// baseline.
func CheckSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: snapshot does not parse: %w", err)
	}
	if s.GoVersion == "" || s.GOMAXPROCS < 1 {
		return nil, fmt.Errorf("bench: snapshot header incomplete (go_version %q, gomaxprocs %d)", s.GoVersion, s.GOMAXPROCS)
	}
	// Any positive scale is a valid tier: sub-1 smoke snapshots, the
	// scale-1 paper shape, and the ladder rungs above it. (An earlier
	// version rejected Scale > 1, which made tier snapshots uncheckable;
	// cross-tier comparison is the caller's job — runSnapshot refuses to
	// -check a snapshot taken at a different tier than the current one.)
	if s.Scale <= 0 {
		return nil, fmt.Errorf("bench: snapshot scale %v must be positive", s.Scale)
	}
	if s.SuiteWallSeconds <= 0 {
		return nil, fmt.Errorf("bench: snapshot suite_wall_seconds %v must be positive (re-take the snapshot; TakeSnapshot records the kernel-suite wall time)", s.SuiteWallSeconds)
	}
	have := map[string]KernelResult{}
	for _, k := range s.Kernels {
		have[k.Name] = k
	}
	for _, name := range KernelNames() {
		k, ok := have[name]
		if !ok {
			return nil, fmt.Errorf("bench: snapshot missing kernel %q", name)
		}
		if k.Iters < 1 || k.NsPerOp <= 0 {
			return nil, fmt.Errorf("bench: snapshot kernel %q has invalid measurement (%d iters, %v ns/op)", name, k.Iters, k.NsPerOp)
		}
	}
	return &s, nil
}
