package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	return c, err
}

// runSet is the untraced records of one -record file.
type runSet struct {
	values  map[string]map[string][]float64 // workload -> metric -> one value per run
	digests map[string]string               // "workload/seed" -> sim_digest
	failed  int
}

func loadRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: map[string]map[string][]float64{}, digests: map[string]string{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced || r.Env.Quick {
			continue // end-to-end metrics are never taken from a traced or quick run
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
		set.digests[fmt.Sprintf("%s/%d", r.Workload, r.Env.Seed)] = r.Digest
		set.failed += r.Failed
	}
	return set, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives: the figure the benchmark's
// acceptance is judged by. One value has no spread.
func quartileSpread(values []float64) (med, spread float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	med = median(x)
	if len(x) < 2 {
		return med, 0
	}
	q := func(i int) float64 {
		m := len(x) + 1
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}

// compareFiles applies the bounds of ./BENCHMARK.json to two run sets,
// A the reference and B the candidate, one row per workload and
// end-to-end metric. It returns non-zero when any row is worse.
func compareFiles(pathA, pathB string) int {
	bf, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare reads the bounds from ./BENCHMARK.json:", err)
		return 2
	}
	a, err := loadRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	fmt.Printf("%-26s %-24s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "B vs A", "bound", "verdict")
	worse := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 || m.Bound == nil {
				fmt.Printf("%-26s %-24s missing from a file, or has no bound\n", w.Name, m.Name)
				worse++
				continue
			}
			medA, spreadA := quartileSpread(va)
			medB, spreadB := quartileSpread(vb)
			change := (medB - medA) / math.Abs(medA) // positive: B reads higher
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			bound := *m.Bound
			verdict := "within bound"
			switch {
			case allBetter(va, vb, m.Better == "higher"):
				verdict = "better (every B run beats every A run)"
			case max(spreadA, spreadB) > bound:
				verdict = "unresolved (spread wider than bound)"
			case worsening > bound:
				verdict = "WORSE"
				worse++
			case worsening < -bound:
				verdict = "better"
			}
			fmt.Printf("%-26s %-24s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, medA, spreadA*100, medB, spreadB*100, change*100, bound*100, verdict)
		}
	}

	// The simulated result of a seed must not move under a host-side
	// change; a digest that differs is for the reviewer to read, not a
	// failure by itself.
	shared, differ := 0, 0
	for key, da := range a.digests {
		if db, ok := b.digests[key]; ok {
			shared++
			if da != db {
				differ++
				fmt.Printf("sim_digest differs on %s: %s vs %s\n", key, da, db)
			}
		}
	}
	fmt.Printf("sim_digest: %d of %d shared (workload, seed) pairs identical\n", shared-differ, shared)
	fmt.Printf("failed ops: A %d, B %d\n", a.failed, b.failed)
	if worse > 0 || b.failed > a.failed {
		return 1
	}
	return 0
}

// allBetter reports whether every run of b reads strictly better than
// every run of a.
func allBetter(a, b []float64, higher bool) bool {
	minA, maxA := a[0], a[0]
	for _, v := range a {
		minA, maxA = min(minA, v), max(maxA, v)
	}
	for _, v := range b {
		if (higher && v <= maxA) || (!higher && v >= minA) {
			return false
		}
	}
	return true
}
