package pagerank

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/webgraph"
	"repro/internal/writable"
)

func TestParseKeyInvertsTheKeyFunctions(t *testing.T) {
	for _, v := range []int{0, 7, 99_999_999, 100_000_000, 123_456_789_012} {
		for kind, key := range map[byte]string{'r': RankKey(v), 'f': inflowKey(v), 'v': pad8Key('v', v)} {
			if k, a, _, ok := parseKey(key); !ok || k != kind || a != v {
				t.Errorf("parseKey(%q) = %c %d %v", key, k, a, ok)
			}
		}
		w := v/2 + 1
		if k, a, b, ok := parseKey(EdgeKey(v, w)); !ok || k != 'e' || a != v || b != w {
			t.Errorf("parseKey(%q) = %c %d %d %v", EdgeKey(v, w), k, a, b, ok)
		}
	}
	// Only the canonical rendering names a vertex: anything else is a
	// foreign key and must not alias one.
	for _, key := range []string{"", "r", "r1", "r000000001", "r0000000x", "e00000001", "e00000001:1", "e00000001:00000002:3", "x00000001"} {
		if _, _, _, ok := parseKey(key); ok {
			t.Errorf("parseKey(%q) accepted a non-canonical key", key)
		}
	}
}

// parseKeyCut and parse8Loop are parseKey and parse8 as first written,
// with strings.Cut and a digit loop: the oracle FuzzParseKey holds the
// fast paths to.
func parseKeyCut(key string) (kind byte, a, b int, ok bool) {
	if key == "" {
		return 0, 0, 0, false
	}
	kind, rest := key[0], key[1:]
	switch kind {
	case 'r', 'f', 'v':
		a, ok = parse8Loop(rest)
	case 'e':
		src, dst, _ := strings.Cut(rest, ":")
		if a, ok = parse8Loop(src); ok {
			b, ok = parse8Loop(dst)
		}
	}
	return kind, a, b, ok
}

func parse8Loop(s string) (int, bool) {
	if len(s) < 8 || len(s) > 18 || (len(s) > 8 && s[0] == '0') {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int(d)
	}
	return v, true
}

func FuzzParseKey(f *testing.F) {
	for _, key := range []string{"", RankKey(0), RankKey(12_345_678), RankKey(99_999_999), RankKey(100_000_000),
		inflowKey(7), pad8Key('v', 42), EdgeKey(12, 34_567_890), EdgeKey(100_000_000, 3), EdgeKey(3, 100_000_000),
		"r0000000/", "r0000000:", "r0000000\xb0", "r1234567\x00", "e00000001;00000002", "e0000000::00000002",
		"e00000001:0000000a", "e00000001:00000002:3", "x00000001"} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		k, a, b, ok := parseKey(key)
		wk, wa, wb, wok := parseKeyCut(key)
		if k != wk || a != wa || b != wb || ok != wok {
			t.Fatalf("parseKey(%q) = %c %d %d %v, oracle %c %d %d %v", key, k, a, b, ok, wk, wa, wb, wok)
		}
		for _, s := range []string{key, key[min(1, len(key)):]} {
			v, ok := parse8(s)
			wv, wok := parse8Loop(s)
			if v != wv || ok != wok {
				t.Fatalf("parse8(%q) = %d %v, oracle %d %v", s, v, ok, wv, wok)
			}
		}
	})
}

// Parallel edges share one score key; every copy reads and writes it, as
// it did when each was looked up by key.
func TestParallelEdgesMatchReference(t *testing.T) {
	g := &webgraph.Graph{N: 3, Out: [][]int32{{1, 1, 2}, {2}, {0, 1}}}
	for _, backend := range []core.Backend{core.BackendMapred, core.BackendBSP} {
		rt := testRuntime()
		if err := rt.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		res, err := core.RunIC(rt, New(g, 0.85, 1e-12, 1), graphInput(rt, g), InitialModel(g), &core.ICOptions{MaxIterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		want := Reference(g, 0.85, 6)
		for v, got := range Ranks(res.Model, g.N) {
			if math.Abs(got-want[v]) > 1e-12 {
				t.Errorf("backend %v: rank %d = %v, reference %v", backend, v, got, want[v])
			}
		}
	}
}

// A model that carries keys the graph does not name keeps them through
// Merge, by key, next to the slot-addressed ones.
func TestMergeKeepsForeignKeys(t *testing.T) {
	g := webgraph.NearlyUncoupled(3, 60, 3, 0.2, 3)
	rt := testRuntime()
	app := New(g, 0.85, 1e-9, 1)
	m := InitialModel(g)
	subs, err := app.Partition(graphInput(rt, g), m, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*model.Model, len(subs))
	for i, sub := range subs {
		parts[i] = sub.Model
	}
	parts[1].Set("note", writable.Text("kept"))
	merged, err := app.Merge(parts, m)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := merged.Get("note"); !ok || v != writable.Text("kept") {
		t.Fatalf("foreign key lost in Merge: %v, %v", v, ok)
	}
	if merged.Len() != m.Len()+1 {
		t.Fatalf("merged model has %d entries, want %d", merged.Len(), m.Len()+1)
	}
	if _, err := app.Merge(append(parts, parts[0]), m); err == nil {
		t.Fatal("duplicate partial accepted")
	}
}
