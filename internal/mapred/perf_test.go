package mapred

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/writable"
)

// benchRecords builds a duplicate-heavy intermediate record set: n
// records cycling through k distinct keys, the shape every iterative
// workload's shuffle produces (e.g. 100k points onto 25 centroid keys).
func benchRecords(n, k int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("key%03d", i%k), Value: writable.Int64(int64(i))}
	}
	return recs
}

// sumReducer sums Int64 values per key.
var sumReducer = ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
	var total int64
	for _, v := range values {
		total += int64(v.(writable.Int64))
	}
	emit.Emit(key, writable.Int64(total))
	return nil
})

// benchJob re-emits its input through the sum reducer — the cheapest
// user code that still drives the full grouping and accounting paths.
func benchJob() *Job {
	return &Job{
		Name: "bench-grouped",
		Mapper: MapperFunc(func(k string, v writable.Writable, _ *model.Model, emit Emitter) error {
			emit.Emit(k, v)
			return nil
		}),
		Reducer:     sumReducer,
		NumReducers: 4,
	}
}

// BenchmarkRunGrouped measures the group step and reduce scan in
// isolation on the duplicate-heavy shape.
func BenchmarkRunGrouped(b *testing.B) {
	src := benchRecords(20_000, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrouped(sumReducer, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// distinctRecords builds a many-distinct-keys intermediate record set:
// n records over k nine-byte rank keys in scattered order — what one
// PageRank local iteration hands the group step (k/n ≈ 0.25).
func distinctRecords(n, k int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("r%08d", (i*7919)%k), Value: writable.Int64(int64(i))}
	}
	return recs
}

// BenchmarkRunGroupedDistinct is BenchmarkRunGrouped's opposite shape:
// many distinct keys with few values each, at the size of a local
// iteration (6.5k records) and at 40 records, where the counting passes'
// fixed costs (a 256-counter reset and prefix sum each) show.
func BenchmarkRunGroupedDistinct(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{6_500, 1_600}, {40, 30}} {
		b.Run(fmt.Sprintf("n=%d", tc.n), func(b *testing.B) {
			src := distinctRecords(tc.n, tc.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunGrouped(sumReducer, src, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShuffleAccounting measures the framework path — mapping,
// two-pass partitioning, per-(split,partition) size accounting and the
// simulated shuffle — end to end.
func BenchmarkShuffleAccounting(b *testing.B) {
	c := testCluster()
	e := NewEngine(c)
	in := NewInput(benchRecords(20_000, 25), c, c.MapSlots())
	job := benchJob()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(job, in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalIteration measures the in-memory path (Engine.RunLocal)
// — PIC's best-effort local iteration hot loop: pooled map emission,
// concatenation, grouping and the sharded reduce.
func BenchmarkLocalIteration(b *testing.B) {
	c := testCluster()
	e := NewEngine(c)
	in := NewInput(benchRecords(20_000, 25), c, c.MapSlots())
	job := benchJob()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunLocal(job, in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// randomTextLines builds deterministic pseudo-random word lines so
// worker-count tests see many splits, many keys and ragged group sizes.
func randomTextLines(n int) []string {
	rng := rand.New(rand.NewSource(7))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	lines := make([]string, n)
	for i := range lines {
		var sb strings.Builder
		for w := 0; w < 3+rng.Intn(6); w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		lines[i] = sb.String()
	}
	return lines
}

func requireSameRun(t *testing.T, o1, o2 *Output, m1, m2 Metrics) {
	t.Helper()
	if !reflect.DeepEqual(o1.Records, o2.Records) {
		t.Fatalf("outputs differ between worker counts:\n%v\nvs\n%v", o1.Records, o2.Records)
	}
	if !reflect.DeepEqual(o1.ByReducer, o2.ByReducer) {
		t.Fatal("per-reducer outputs differ between worker counts")
	}
	if m1 != m2 {
		t.Fatalf("metrics differ between worker counts:\n%+v\nvs\n%+v", m1, m2)
	}
}

// TestRunDeterministicAcrossWorkerCounts holds the tentpole invariant
// on the framework path: real execution parallelism must not change a
// single output byte or metric.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	lines := randomTextLines(64)
	run := func(workers int) (*Output, Metrics) {
		c := testCluster()
		e := NewEngine(c)
		e.Workers = workers
		out, m, err := e.Run(wordCountJob(true), textInput(c, lines...), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out, m
	}
	o1, m1 := run(1)
	o8, m8 := run(8)
	requireSameRun(t, o1, o8, m1, m8)
}

// TestRunLocalDeterministicAcrossWorkerCounts holds the same invariant
// on the in-memory path, whose grouped reduce is sharded across the
// worker pool.
func TestRunLocalDeterministicAcrossWorkerCounts(t *testing.T) {
	lines := randomTextLines(64)
	run := func(workers int) (*Output, Metrics) {
		c := testCluster()
		e := NewEngine(c)
		e.Workers = workers
		out, m, err := e.RunLocal(wordCountJob(false), textInput(c, lines...), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out, m
	}
	o1, m1 := run(1)
	o8, m8 := run(8)
	requireSameRun(t, o1, o8, m1, m8)
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4},   // empty range: no calls, no hang
		{1, 4},   // single index
		{3, 8},   // fewer items than workers
		{100, 4}, // chunked hand-out
	} {
		e := NewEngine(testCluster())
		e.Workers = tc.workers
		visited := make([]int, tc.n)
		e.parallelFor(tc.n, func(i int) { visited[i]++ })
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, v)
			}
		}
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	e := NewEngine(testCluster())
	e.Workers = 4
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want worker panic value", r)
		}
	}()
	e.parallelFor(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("parallelFor returned after worker panic")
}

// TestShuffleBytesEqualMapOutputWithoutCombiner pins the size-accounting
// invariant: with no combiner, every emitted byte is shuffled, so the
// cached per-(split,partition) sizes must sum to exactly the map output.
func TestShuffleBytesEqualMapOutputWithoutCombiner(t *testing.T) {
	c := testCluster()
	e := NewEngine(c)
	_, m, err := e.Run(wordCountJob(false), textInput(c, randomTextLines(32)...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShuffleBytes != m.MapOutputBytes {
		t.Fatalf("ShuffleBytes %d != MapOutputBytes %d without combiner", m.ShuffleBytes, m.MapOutputBytes)
	}
	if m.ShuffleRecords != m.MapOutputRecords {
		t.Fatalf("ShuffleRecords %d != MapOutputRecords %d without combiner", m.ShuffleRecords, m.MapOutputRecords)
	}
}

// TestShuffleBytesMatchCombinedSizes recomputes the post-combine
// shuffle volume independently — per split, the combiner collapses each
// word to one (word, count) record — and requires the engine's cached
// size accounting to agree byte for byte.
func TestShuffleBytesMatchCombinedSizes(t *testing.T) {
	c := testCluster()
	e := NewEngine(c)
	in := textInput(c, randomTextLines(32)...)

	var want int64
	var wantRecords int64
	for _, sp := range in.Splits {
		counts := map[string]int64{}
		for _, rec := range sp.Records {
			for _, w := range strings.Fields(string(rec.Value.(writable.Text))) {
				counts[w]++
			}
		}
		for w, n := range counts {
			want += Record{Key: w, Value: writable.Int64(n)}.Size()
			wantRecords++
		}
	}

	_, m, err := e.Run(wordCountJob(true), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShuffleBytes != want {
		t.Fatalf("ShuffleBytes %d, independently computed combined size %d", m.ShuffleBytes, want)
	}
	if m.ShuffleRecords != wantRecords {
		t.Fatalf("ShuffleRecords %d, want %d", m.ShuffleRecords, wantRecords)
	}
}
