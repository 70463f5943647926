package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/writable"
)

// stamped turns keys into records whose value is the arrival index, so
// a sorted result shows both its key order and its stability.
func stamped(keys []string) []Record {
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{Key: k, Value: writable.Int64(int64(i))}
	}
	return recs
}

// requireStableKeyOrder checks got against the defining property — keys
// ascending in byte order, arrival order kept within a key — and against
// the standard library's stable sort of the same input, which is the
// unique sequence with that property.
func requireStableKeyOrder(t *testing.T, input, got []Record) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Key > b.Key {
			t.Fatalf("keys out of order at %d: %q > %q", i, a.Key, b.Key)
		}
		if a.Key == b.Key && a.Value.(writable.Int64) > b.Value.(writable.Int64) {
			t.Fatalf("arrival order lost within %q at %d", a.Key, i)
		}
	}
	want := slices.Clone(input)
	slices.SortStableFunc(want, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("differs from slices.SortStableFunc:\n got %v\nwant %v", got, want)
	}
}

// checkKernel sorts keys as one run and cut into several runs, and
// holds each result to requireStableKeyOrder.
func checkKernel(t *testing.T, keys []string) {
	t.Helper()
	input := stamped(keys)
	for _, nRuns := range []int{1, 3, 7} {
		var runs [][]Record
		for r := 0; r < nRuns; r++ {
			lo, hi := r*len(input)/nRuns, (r+1)*len(input)/nRuns
			runs = append(runs, slices.Clone(input[lo:hi]))
		}
		s := getScratch()
		for _, run := range runs {
			s.addRun(run)
		}
		got := slices.Clone(s.sortedRuns())
		s.release()
		requireStableKeyOrder(t, input, got)
		// The runs themselves are the caller's: never reordered.
		k := 0
		for _, run := range runs {
			for _, rec := range run {
				if rec != input[k] {
					t.Fatalf("sortedRuns modified its input at %d", k)
				}
				k++
			}
		}
	}
}

// TestSortRecordsByKeyMatchesStableSort runs the kernel over the key
// shapes that break prefix-and-window tricks, from the degenerate sizes
// up. The kernel has no size threshold, so no sizes straddle one.
func TestSortRecordsByKeyMatchesStableSort(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 40, 300, 2000}
	shapes := []struct {
		name string
		key  func(rng *rand.Rand, i, n int) string
	}{
		{"few-keys", func(rng *rand.Rand, _, _ int) string { return fmt.Sprintf("k%02d", rng.Intn(7)) }},
		{"rank-keys", func(rng *rand.Rand, _, n int) string { return fmt.Sprintf("r%08d", rng.Intn(n+1)) }},
		{"all-equal", func(*rand.Rand, int, int) string { return "same" }},
		{"all-empty", func(*rand.Rand, int, int) string { return "" }},
		{"empty-among-others", func(rng *rand.Rand, _, _ int) string { return []string{"", "a", "\x00", "ab"}[rng.Intn(4)] }},
		{"prefix-of-another", func(rng *rand.Rand, _, _ int) string { return "abcdefghijkl"[:rng.Intn(13)] }},
		{"zero-padding-ties", func(rng *rand.Rand, _, _ int) string {
			return []string{"ab", "ab\x00", "ab\x00\x00", "a", "ab\x00\x01", "b"}[rng.Intn(6)]
		}},
		{"high-bytes", func(rng *rand.Rand, _, _ int) string {
			return string([]byte{byte(0x7e + rng.Intn(4)), byte(0xfd + rng.Intn(3)), byte(rng.Intn(256))})
		}},
		{"edge-keys", func(rng *rand.Rand, _, n int) string {
			// More than eight distinguishing bytes after a long shared prefix.
			return fmt.Sprintf("e%08d:%08d", rng.Intn(3), rng.Intn(n+1))
		}},
		{"long-shared-prefix", func(rng *rand.Rand, _, _ int) string {
			return "intermediate/partition/0000/" + fmt.Sprintf("%03d", rng.Intn(40))
		}},
		{"ragged-words", func(rng *rand.Rand, _, _ int) string {
			words := []string{"a", "alpha", "alphabet", "alphabetical", "alphabetically", "be", "beta", "b"}
			return words[rng.Intn(len(words))]
		}},
		{"random-bytes", func(rng *rand.Rand, _, _ int) string {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		}},
		{"sorted", func(_ *rand.Rand, i, _ int) string { return fmt.Sprintf("r%08d", i/2) }},
		{"reversed", func(_ *rand.Rand, i, n int) string { return fmt.Sprintf("r%08d", (n-i)/2) }},
		{"sorted-runs", func(_ *rand.Rand, i, n int) string {
			// Five ascending runs glued together, as a reduce task sees them.
			run := n/5 + 1
			return fmt.Sprintf("r%08d", 3*(i%run)+i/run)
		}},
		{"prefix-broken-late", func(_ *rand.Rand, i, n int) string {
			// First and last keys share a prefix one key in the middle lacks.
			if i == n/2 {
				return "rz"
			}
			return fmt.Sprintf("r0000%04d", (i*7919)%1000)
		}},
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 3))
				keys := make([]string, n)
				for i := range keys {
					keys[i] = sh.key(rng, i, n)
				}
				checkKernel(t, keys)
			})
		}
	}
}

// FuzzSortRecordsByKey is the same differential check over generated
// key sets: data is cut into keys at sep, every key gets a shared prefix
// of prefixLen bytes, and the list is repeated so that duplicates occur.
func FuzzSortRecordsByKey(f *testing.F) {
	f.Add([]byte("b,a,c,a"), byte(','), uint8(0), uint8(1))
	f.Add([]byte("ab|ab\x00|a||ab\x00\x00"), byte('|'), uint8(3), uint8(20))
	f.Add([]byte("00000001:00000002 00000001:00000001 00000000:99999999"), byte(' '), uint8(1), uint8(30))
	f.Add([]byte{0xff, 0, 0x80, 0, 0x7f, 0, 0xff, 0xff}, byte(0), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, sep byte, prefixLen, repeat uint8) {
		prefix := strings.Repeat("p", int(prefixLen%12))
		var keys []string
		for r := 0; r <= int(repeat%32); r++ {
			for _, k := range bytes.Split(data, []byte{sep}) {
				keys = append(keys, prefix+string(k))
			}
		}
		if len(keys) > 4096 {
			keys = keys[:4096]
		}
		checkKernel(t, keys)
	})
}

// TestRunGroupedWarmAllocations pins the scratch pooling: once the pool
// is warm, grouping 1k distinct keys allocates the returned slice and
// nothing per record or per key.
func TestRunGroupedWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("r%08d", (i*7919)%1000), Value: writable.Int64(1)}
	}
	first := ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
		emit.Emit(key, values[0]) // no boxing: the reducer itself allocates nothing
		return nil
	})
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := RunGrouped(first, recs, nil); err != nil {
			t.Fatal(err)
		}
	})
	// One for the output; a collection between runs may empty the pool
	// once, which the average absorbs.
	if allocs > 3 {
		t.Fatalf("warm RunGrouped allocates %.1f objects per call, want the output slice only", allocs)
	}
}

// orderFold is a reducer whose output depends on the order of its
// values, so any change in arrival order within a key shows.
var orderFold = ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
	var h int64
	for _, v := range values {
		h = h*31 + int64(v.(writable.Int64))
	}
	emit.Emit(key, writable.Int64(h))
	return nil
})

// manyKeysInput is a pagerank-shaped job input: every record emits to
// several of ~1.5k nine-byte keys.
func manyKeysInput() []Record {
	rng := rand.New(rand.NewSource(5))
	recs := make([]Record, 600)
	for i := range recs {
		out := make(writable.Vector, 3+rng.Intn(8))
		for j := range out {
			out[j] = float64(rng.Intn(1500))
		}
		recs[i] = Record{Key: fmt.Sprintf("v%04d", i), Value: out}
	}
	return recs
}

func manyKeysJob(combiner, reducer Reducer) *Job {
	return &Job{
		Name: "many-keys",
		Mapper: MapperFunc(func(key string, v writable.Writable, _ *model.Model, emit Emitter) error {
			for j, dst := range v.(writable.Vector) {
				emit.Emit(fmt.Sprintf("r%08d", int(dst)), writable.Int64(int64(len(key)+j)))
			}
			return nil
		}),
		Combiner:    combiner,
		Reducer:     reducer,
		NumReducers: 5,
	}
}

// TestManyKeysDeterministicAcrossWorkerCounts is the worker-count
// identity on a job with many distinct keys and a combiner — the shape
// where the map-side sort, the stable partition scatter and the
// reduce-side merge of sorted runs all do real work.
func TestManyKeysDeterministicAcrossWorkerCounts(t *testing.T) {
	recs := manyKeysInput()
	for _, local := range []bool{false, true} {
		run := func(workers int) (*Output, Metrics) {
			c := testCluster()
			e := NewEngine(c)
			e.Workers = workers
			in := NewInput(recs, c, 12)
			job := manyKeysJob(orderFold, orderFold)
			var out *Output
			var m Metrics
			var err error
			if local {
				out, m, err = e.RunLocal(job, in, nil)
			} else {
				out, m, err = e.Run(job, in, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			return out, m
		}
		o1, m1 := run(1)
		o8, m8 := run(8)
		requireSameRun(t, o1, o8, m1, m8)
		if len(o1.Records) < 1000 {
			t.Fatalf("local=%v: only %d distinct keys reached the reducers", local, len(o1.Records))
		}
	}
}

// TestRekeyingCombinerStillGroupsCorrectly: a combiner may emit under a
// key other than the one it was given, so what the map side hands the
// reduce side is then not in key order. The reduce side must group it
// correctly all the same, and a job without a combiner — whose runs are
// in emission order — must give the same totals.
func TestRekeyingCombinerStillGroupsCorrectly(t *testing.T) {
	bucket := func(key string) string { return "b" + key[len(key)-1:] }
	sum := func(values []writable.Writable) writable.Int64 {
		var total int64
		for _, v := range values {
			total += int64(v.(writable.Int64))
		}
		return writable.Int64(total)
	}
	// The combiner moves each vertex key's partial sum to its bucket key;
	// the reducer does the same for vertex keys that arrive uncombined
	// and passes bucket keys through.
	rekey := ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
		emit.Emit(bucket(key), sum(values))
		return nil
	})
	reduce := ReducerFunc(func(key string, values []writable.Writable, _ *model.Model, emit Emitter) error {
		if key[0] == 'r' {
			key = bucket(key)
		}
		emit.Emit(key, sum(values))
		return nil
	})

	recs := manyKeysInput()
	want := map[string]int64{}
	for _, rec := range recs {
		for j, dst := range rec.Value.(writable.Vector) {
			want[bucket(fmt.Sprintf("r%08d", int(dst)))] += int64(len(rec.Key) + j)
		}
	}

	var outs [2]*Output
	for i, combiner := range []Reducer{nil, rekey} {
		for _, workers := range []int{1, 8} {
			c := testCluster()
			e := NewEngine(c)
			e.Workers = workers
			out, _, err := e.Run(manyKeysJob(combiner, reduce), NewInput(recs, c, 12), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := countsFromOutput(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("combiner=%v workers=%d: totals %v, serial reference %v", combiner != nil, workers, got, want)
			}
			// With the combiner every key reaching a reducer is a bucket
			// key it passes through, so its output shows its visit order.
			for _, part := range out.ByReducer {
				if combiner != nil && !slices.IsSortedFunc(part, func(a, b Record) int { return strings.Compare(a.Key, b.Key) }) {
					t.Fatalf("workers=%d: a reduce task visited re-keyed keys out of order: %v", workers, part)
				}
			}
			if workers == 1 {
				outs[i] = out
			} else if !reflect.DeepEqual(outs[i].ByReducer, out.ByReducer) {
				t.Fatalf("combiner=%v: output differs between 1 and 8 workers", combiner != nil)
			}
		}
	}
}
