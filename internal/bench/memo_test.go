package bench

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// resetMemo forgets every memoized cell and run count, so the next
// experiment executes its cells afresh. Tests that compare two
// executions of an experiment call it between them; otherwise the
// second would read the first's memoized results.
func resetMemo() {
	memo.Range(func(key, _ any) bool {
		memo.Delete(key)
		return true
	})
	runsMu.Lock()
	clear(runs)
	runsMu.Unlock()
}

// runCount reports how many times the named workload ran under scheme.
func runCount(name, scheme string) int {
	runsMu.Lock()
	defer runsMu.Unlock()
	return runs[[2]string{name, scheme}]
}

// TestMemoConcurrentCallersShareOneRun is the -parallel case: callers
// of one key racing each other see a single run and one shared result,
// and a failed run's error reaches every caller.
func TestMemoConcurrentCallersShareOneRun(t *testing.T) {
	defer resetMemo()
	for _, fail := range []bool{false, true} {
		resetMemo()
		var ran atomic.Int64
		errBoom := errors.New("boom")
		got := make([]*int, 8)
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = memoized("concurrent", func() (*int, error) {
					ran.Add(1)
					if fail {
						return nil, errBoom
					}
					return new(int), nil
				})
			}()
		}
		wg.Wait()
		if ran.Load() != 1 {
			t.Fatalf("fail=%v: run executed %d times", fail, ran.Load())
		}
		for i := range got {
			if got[i] != got[0] || errors.Is(errs[i], errBoom) != fail {
				t.Fatalf("fail=%v: caller %d got (%p, %v), caller 0 (%p, %v)", fail, i, got[i], errs[i], got[0], errs[0])
			}
		}
	}
}

// TestMemoRunsEachCellOnce pins the memo's two promises: every consumer
// of a shared cell in one process reads a single IC run and a single
// PIC run of it, and every cell that differs from it — in an argument,
// the cost model, an option, a configure hook, or the scale — runs on
// its own.
func TestMemoRunsEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("memo run-count test skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	resetMemo()
	defer resetMemo()

	for _, run := range []func() error{
		func() error { _, err := Fig10(); return err },
		func() error { _, err := Fig12a(); return err },
		func() error { _, err := Fig2(); return err },
		func() error { _, err := Fig12b(); return err },
		func() error { _, err := AblationPartitionCount(); return err },
		func() error { _, err := AblationLocalFactor(); return err },
		func() error { _, err := AblationNetworkModel(); return err },
		func() error { _, err := AblationAsync(); return err },
		func() error { _, err := AblationSeeding(); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	once := []string{
		// The three shared cells.
		"neuralnet", "kmeans-medium", "kmeans-small",
		// Cells that differ from kmeans-small and must not be served
		// from it: partition count, local compute factor, network
		// model, stragglers, initial model.
		"kmeans-p1", "kmeans-p2", "kmeans-p12", "kmeans-p24",
		"kmeans-lf1.000", "kmeans-lf0.333", "kmeans-lf0.067",
		"kmeans-net-max-min fair", "kmeans-async + stragglers",
		"kmeans-seed-clumped", "kmeans-seed-k-means++",
	}
	for _, name := range once {
		for _, scheme := range []string{"ic", "pic"} {
			if n := runCount(name, scheme); n != 1 {
				t.Errorf("%s ran %d times under %s, want once", name, n, scheme)
			}
		}
	}
	// A different scale is a different cell.
	c1, err := smallKMeans()
	if err != nil {
		t.Fatal(err)
	}
	SetScale(0.2)
	c2, err := smallKMeans()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 || runCount("kmeans-small", "ic") != 2 {
		t.Fatal("scales 0.05 and 0.2 shared a memo entry")
	}
}

// TestFaultAblationsIdenticalAcrossWorkerCounts renders the three fault
// ablations at one and at eight engine workers: every runtime they
// build goes through Workload.NewRuntime, so the worker setting reaches
// all of them and none of the simulated numbers may move.
func TestFaultAblationsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-ablation worker-count test skipped in -short mode")
	}
	SetScale(0.05)
	defer SetScale(1.0)
	defer SetEngineWorkers(0)
	render := func(workers int) string {
		resetMemo()
		SetEngineWorkers(workers)
		faults, err := AblationNodeFailure()
		if err != nil {
			t.Fatal(err)
		}
		netfaults, err := AblationNetworkFault()
		if err != nil {
			t.Fatal(err)
		}
		corruption, err := AblationCorruption()
		if err != nil {
			t.Fatal(err)
		}
		return faults.Render() + netfaults.Render() + corruption.Render()
	}
	one, eight := render(1), render(8)
	if one != eight {
		t.Fatalf("fault ablations differ between 1 and 8 engine workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
}
