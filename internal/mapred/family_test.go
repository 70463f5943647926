package mapred

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// famDerived is a trivially-sized derived structure for cache tests.
type famDerived struct{ bytes int64 }

func (d *famDerived) SizeBytes() int64 { return d.bytes }

func buildFam(bytes int64) func([]Record) SplitDerived {
	return func([]Record) SplitDerived { return &famDerived{bytes: bytes} }
}

// famKey mirrors a splitIdent for test bookkeeping: backing-array
// offset, length, and epoch fully determine the identity.
type famKey struct {
	start, n int
	epoch    uint64
}

// TestFamilyKeysNeverCollide drives acquire with thousands of random
// subslices of one backing array across epoch bumps: a hit must only
// ever be served for a (subslice, epoch) pair staged earlier in the
// same epoch — distinct keys never collide.
func TestFamilyKeysNeverCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backing := make([]Record, 512)
	f := NewJobFamily("collide", 1<<40) // effectively unbounded: no capacity evictions
	seen := map[famKey]bool{}
	for i := 0; i < 5000; i++ {
		if rng.Intn(97) == 0 {
			// New epoch: every previously staged key is dead; re-staging
			// the same subslice must miss.
			f.Invalidate()
		}
		start := rng.Intn(len(backing) - 1)
		n := 1 + rng.Intn(len(backing)-start)
		k := famKey{start: start, n: n, epoch: f.epoch}
		_, hit := f.acquire(rng.Intn(4), backing[start:start+n], int64(n), buildFam(8))
		// Node is part of residency, not identity — but each node has
		// its own entry map, so a hit requires this (key, node) staged
		// before. Weaken to the soundness half: a hit for a key never
		// staged in this epoch is a collision.
		if hit && !seen[k] {
			t.Fatalf("iteration %d: hit on never-staged key %+v — ident collision", i, k)
		}
		seen[k] = true
	}
	stats := f.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("degenerate drive: %+v", stats)
	}
}

// TestFamilyEvictionDeterministic replays one randomized access
// sequence against two fresh families with a deliberately tiny budget:
// the eviction decisions, event logs and final counters must be
// identical — LRU order depends only on the access sequence.
func TestFamilyEvictionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	backing := make([]Record, 256)
	type access struct {
		node, start, n int
	}
	var seq []access
	for i := 0; i < 800; i++ {
		start := rng.Intn(len(backing) - 1)
		seq = append(seq, access{
			node:  rng.Intn(3),
			start: start,
			n:     1 + rng.Intn(min(32, len(backing)-start)),
		})
	}
	run := func() ([]CacheEvent, FamilyStats) {
		f := NewJobFamily("evict", 64) // tiny: a few entries per node
		for _, a := range seq {
			f.acquire(a.node, backing[a.start:a.start+a.n], int64(a.n), buildFam(8))
		}
		return f.DrainEvents(), f.Stats()
	}
	ev1, s1 := run()
	ev2, s2 := run()
	if s1.Evictions == 0 {
		t.Fatalf("budget never forced an eviction — test drives nothing: %+v", s1)
	}
	if s1 != s2 {
		t.Fatalf("stats differ between identical replays:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event logs differ between identical replays (%d vs %d events)", len(ev1), len(ev2))
	}
}

// TestFamilyEvictNodeDropsOnlyThatNode stages entries on three nodes
// and crashes one: exactly its entries go, the others stay resident,
// and the global accounting matches the per-node view.
func TestFamilyEvictNodeDropsOnlyThatNode(t *testing.T) {
	backing := make([]Record, 30)
	f := NewJobFamily("crash", 1<<40)
	for node := 0; node < 3; node++ {
		for s := 0; s < 3; s++ {
			lo := node*10 + s*3
			f.acquire(node, backing[lo:lo+3], 3, buildFam(5))
		}
	}
	entries, bytes := f.EvictNode(1)
	if entries != 3 || bytes != 3*(3+5) {
		t.Fatalf("EvictNode(1) dropped %d entries / %d bytes, want 3 / 24", entries, bytes)
	}
	if n, b := f.NodeResident(1); n != 0 || b != 0 {
		t.Fatalf("node 1 still resident: %d entries, %d bytes", n, b)
	}
	for _, node := range []int{0, 2} {
		if n, b := f.NodeResident(node); n != 3 || b != 24 {
			t.Fatalf("node %d lost entries to another node's eviction: %d entries, %d bytes", node, n, b)
		}
	}
	if got := f.Stats().ResidentBytes; got != 48 {
		t.Fatalf("ResidentBytes = %d after one node's eviction, want 48", got)
	}
	// A crashed node's splits re-staged elsewhere must miss.
	if _, hit := f.acquire(2, backing[10:13], 3, buildFam(5)); hit {
		t.Fatal("evicted split hit on a different node")
	}
}

// TestFamilyReleaseDropsEverything covers the preemption path: Release
// returns every entry on every node and zeroes residency, and a
// subsequent acquire re-stages cold.
func TestFamilyReleaseDropsEverything(t *testing.T) {
	backing := make([]Record, 20)
	f := NewJobFamily("release", 1<<40)
	f.acquire(0, backing[0:5], 5, buildFam(2))
	f.acquire(1, backing[5:10], 5, buildFam(2))
	entries, bytes := f.Release()
	if entries != 2 || bytes != 2*(5+2) {
		t.Fatalf("Release dropped %d entries / %d bytes, want 2 / 14", entries, bytes)
	}
	if got := f.Stats().ResidentBytes; got != 0 {
		t.Fatalf("ResidentBytes = %d after Release", got)
	}
	if _, hit := f.acquire(0, backing[0:5], 5, buildFam(2)); hit {
		t.Fatal("released entry served a hit")
	}
}

// FuzzFamilyAcquire feeds arbitrary op sequences (acquire / crash /
// release / epoch bump) into a small-budget family and checks the
// structural invariants: hits only on keys staged this epoch, per-node
// residency within budget whenever more than one entry is held, and
// global ResidentBytes equal to the per-node sum.
func FuzzFamilyAcquire(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 9, 1, 17, 2, 5, 3, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 96
		backing := make([]Record, 64)
		fam := NewJobFamily("fuzz", cap)
		seen := map[famKey]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			node := arg % 4
			switch op {
			case 6:
				n, b := fam.EvictNode(node)
				if (n == 0) != (b == 0) {
					t.Fatalf("EvictNode(%d) = %d entries, %d bytes", node, n, b)
				}
			case 7:
				fam.Invalidate()
			default:
				start := arg % (len(backing) - 1)
				n := 1 + int(op)*7%(len(backing)-start)
				k := famKey{start: start, n: n, epoch: fam.epoch}
				_, hit := fam.acquire(node, backing[start:start+n], int64(n), buildFam(16))
				if hit && !seen[k] {
					t.Fatalf("hit on never-staged key %+v", k)
				}
				seen[k] = true
				if entries, bytes := fam.NodeResident(node); entries > 1 && bytes > cap {
					t.Fatalf("node %d over budget with %d entries (%d > %d bytes)", node, entries, bytes, cap)
				}
			}
			var sum int64
			for n := 0; n < 4; n++ {
				_, b := fam.NodeResident(n)
				sum += b
			}
			if got := fam.Stats().ResidentBytes; got != sum {
				t.Fatalf("ResidentBytes %d != per-node sum %d", got, sum)
			}
		}
	})
}

// TestShippedDeltaPerSchema pins shippedDelta's versions per (job,
// schema): when models on two schemas alternate under one job name, as
// PIC's sub-problems do, each diffs against its own predecessor — never
// the other schema's model — and a job that keeps minting schemas keeps
// at most maxShippedVersions of them.
func TestShippedDeltaPerSchema(t *testing.T) {
	onSchema := func(s *model.Schema, v float64) *model.Model {
		m := model.NewFloatsOn(s)
		for i := range s.Keys() {
			m.SetFloatAt(i, v+float64(i))
		}
		return m
	}
	a := model.NewSchema([]string{"a0", "a1", "a2", "a3"})
	b := model.NewSchema([]string{"b0", "b1", "b2"})
	f := NewJobFamily("ship", 0)
	first := []*model.Model{onSchema(a, 1), onSchema(b, 1)}
	for _, m := range first {
		if got := f.shippedDelta("job", m); got != m.Size() {
			t.Fatalf("first ship on its schema: %d bytes, want the full %d", got, m.Size())
		}
	}
	prev := first
	for round := 2; round < 5; round++ {
		for i := range prev {
			m := prev[i].Clone()
			m.SetFloatAt(round%len(m.Schema().Keys()), float64(-round)) // one slot changes
			got, want := f.shippedDelta("job", m), model.DeltaSize(prev[i], m)
			if got != want || got >= m.Size() {
				t.Fatalf("round %d schema %d: %d bytes, want the one-slot delta %d against its own predecessor (model %d bytes)",
					round, i, got, want, m.Size())
			}
			prev[i] = m
		}
	}
	// Another job name keeps its own versions.
	if got, m := f.shippedDelta("other", prev[0]), prev[0]; got != m.Size() {
		t.Fatalf("another job's first ship: %d bytes, want the full %d", got, m.Size())
	}

	for i := 0; i < 3*maxShippedVersions; i++ {
		f.shippedDelta("job", onSchema(model.NewSchema([]string{fmt.Sprint("k", i)}), 0))
		if n := len(f.shipped["job"]); n > maxShippedVersions {
			t.Fatalf("after %d schemas the job holds %d versions, want at most %d", i+1, n, maxShippedVersions)
		}
	}
}
