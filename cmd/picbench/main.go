// Command picbench regenerates the tables and figures of the PIC paper's
// evaluation. Run with no arguments for everything, or name experiments:
//
//	picbench fig2 fig9 fig10 fig11 fig12a fig12b fig12c \
//	         table1 table2 table3 \
//	         abl-parts abl-coupling abl-partitioner abl-localfactor \
//	         abl-network abl-async abl-seeding abl-rate abl-degenerate \
//	         abl-faults abl-netfaults abl-tenancy abl-loopaware abl-scale \
//	         abl-backend abl-corruption
//
// Three fault ablations exist: abl-faults crashes a node (machine and
// disk die; DFS re-replicates, tasks reschedule, PIC groups repair),
// abl-netfaults leaves every node alive and severs the network
// between them (periodic core outages; transfers retry, IC blocks,
// PIC merges on a quorum), and abl-corruption flips bits silently
// (checksummed transfers re-send, the DFS quarantines and scrubs, PIC
// merges reject unverifiable partials). Run `picbench -list` for
// one-line descriptions of every experiment.
//
// The report subcommand runs one fully-instrumented PIC execution and
// emits its run-inspector artifacts (Chrome trace JSON and a
// convergence-curve CSV alongside the text report):
//
//	picbench [-scale S] report [-out DIR] [workload ...]
//
// The bench-snapshot subcommand measures the hot-path microbenchmark
// kernels (timings plus allocs/op and bytes/op) and emits a
// machine-readable performance snapshot (see BENCH_baseline.json);
// -check validates an existing snapshot instead, and refuses to compare
// across scale tiers:
//
//	picbench [-scale S] bench-snapshot [-out FILE] [-suite]
//	picbench [-scale S] bench-snapshot -check BENCH_baseline.json
//
// -scale doubles as the scale-ladder control: values above 1 grow the
// tiered kernels and the abl-scale ablation (records linearly, simulated
// nodes with the square root), up to ~10⁷ records on 1,000+ simulated
// nodes at combined tier 1000.
//
// Independent experiment cells (figure rows, sweep points) can run
// concurrently with -parallel N; outputs are byte-identical at any
// setting because all clocks and counters are simulated per cell.
//
// -cpuprofile F and -memprofile F write pprof profiles of the
// experiments run (the CPU profile while they run, the heap profile
// after the last). Each experiment runs under the pprof label
// experiment=<name>, so `go tool pprof -tagfocus experiment=fig2 F`
// shows one experiment's share of the suite:
//
//	picbench -cpuprofile cpu.pprof -memprofile mem.pprof fig2 abl-backend
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

type renderer interface{ Render() string }

type experiment struct {
	name string
	desc string
	run  func() (renderer, error)
}

func wrap[T renderer](fn func() (T, error)) func() (renderer, error) {
	return func() (renderer, error) { return fn() }
}

var experiments = []experiment{
	{"fig2", "K-means run time (best-effort + top-off) and traffic on the 64-node cluster", wrap(bench.Fig2)},
	{"fig9", "speedups on the small (6-node) cluster: K-means, PageRank, linear solver", wrap(bench.Fig9)},
	{"fig10", "speedups on the medium (64-node) cluster: K-means, neural net, image smoothing", wrap(bench.Fig10)},
	{"fig11", "speedup vs cluster size (image smoothing, strong scaling)", wrap(bench.Fig11)},
	{"fig12a", "neural network training: validation error vs time", wrap(bench.Fig12a)},
	{"fig12b", "K-means: centroid displacement vs time", wrap(bench.Fig12b)},
	{"fig12c", "linear equation solver: distance to the exact solution vs time", wrap(bench.Fig12c)},
	{"table1", "K-means iterations: IC vs PIC's best-effort phase across dataset sizes", wrap(bench.Table1)},
	{"table2", "K-means intermediate data and model-update volume, IC vs PIC", wrap(bench.Table2)},
	{"table3", "quality of PIC's best-effort K-means model vs IC (Jagota index)", wrap(bench.Table3)},
	{"abl-parts", "partition-count sweep", wrap(bench.AblationPartitionCount)},
	{"abl-coupling", "graph coupling strength sweep", wrap(bench.AblationGraphCoupling)},
	{"abl-partitioner", "partitioner quality comparison", wrap(bench.AblationPartitioner)},
	{"abl-localfactor", "in-memory/framework compute-ratio sweep", wrap(bench.AblationLocalFactor)},
	{"abl-network", "network transfer model: bottleneck vs max-min fair sharing", wrap(bench.AblationNetworkModel)},
	{"abl-async", "synchronous vs asynchronous merge", wrap(bench.AblationAsync)},
	{"abl-seeding", "initial-model seeding: clumped, random, k-means++", wrap(bench.AblationSeeding)},
	{"abl-rate", "best-effort convergence rate vs partitions (linear solver)", wrap(bench.AblationConvergenceRate)},
	{"abl-degenerate", "degenerate PIC (1 partition) reproduces the IC solution", wrap(bench.AblationDegenerate)},
	{"abl-faults", "node-failure ablation: a machine crashes (disk dies, DFS re-replicates, groups repair)", wrap(bench.AblationNodeFailure)},
	{"abl-netfaults", "network-fault ablation: nodes stay up but core links fail (retries, quorum merges)", wrap(bench.AblationNetworkFault)},
	{"abl-tenancy", "multi-tenant contention ablation", wrap(bench.AblationMultiTenant)},
	{"abl-loopaware", "loop-aware runtime ablation: cold vs warm invariant-input cache (wall time drops, simulated results byte-identical)", wrap(bench.AblationLoopAware)},
	{"abl-scale", "scale-ladder ablation: streamed splits, delta checkpoints, flat vs hierarchical merge across tiers (core bytes drop, outputs byte-identical)", wrap(bench.AblationScale)},
	{"abl-backend", "execution-backend ablation: IC/PIC × mapred/BSP grid with per-link traffic shapes and the pace-crossover size sweep", wrap(bench.AblationBackend)},
	{"abl-corruption", "silent-corruption ablation: IC/PIC × bit-error-rate sweep × detection on/off (checksums catch corrupt payloads, re-sends bridge, the scrubber repairs; silent runs degrade)", wrap(bench.AblationCorruption)},
}

// checkScale rejects a -scale value bench.SetScale would panic on (zero,
// negative, NaN) or that names no dataset size (+Inf).
func checkScale(s float64) error {
	if !(s > 0) || math.IsInf(s, 1) {
		return fmt.Errorf("-scale must be a positive finite number, got %v", s)
	}
	return nil
}

func main() {
	// The suite is allocation-heavy (every map output is materialized) and
	// latency-bound on real compute, so trade heap headroom for fewer GC
	// cycles. An explicit GOGC in the environment wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of rendered tables")
	scaleArg := flag.Float64("scale", 1.0, "dataset-size multiplier: values in (0,1) shrink for smoke runs, 1 is the paper shape, values above 1 climb the scale ladder")
	parallel := flag.Int("parallel", 1, "experiment cells run concurrently (outputs are identical at any setting)")
	list := flag.Bool("list", false, "list experiments and report workloads, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments run")
	flag.Parse()
	if *list {
		sorted := append([]experiment(nil), experiments...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
		for _, e := range sorted {
			fmt.Printf("%-16s %s\n", e.name, e.desc)
		}
		fmt.Printf("%-16s %s\n", "bench-snapshot", "measure the hot-path microbenchmark kernels (-out, -check, -suite, -history; see BENCH_baseline.json)")
		for _, w := range bench.ReportWorkloads() {
			fmt.Printf("%-16s %s\n", "report "+w, "instrumented PIC run with inspector report (-out writes trace JSON, convergence CSV, telemetry JSONL, OpenMetrics)")
		}
		for _, w := range bench.ReportWorkloads() {
			fmt.Printf("%-16s %s\n", "watch "+w, "live run inspector: tails the run, prints health frames (-interval, -window, -out, -openmetrics)")
		}
		return
	}
	if err := checkScale(*scaleArg); err != nil {
		fmt.Fprintln(os.Stderr, "picbench:", err)
		os.Exit(2)
	}
	if *scaleArg != 1.0 {
		bench.SetScale(*scaleArg)
		fmt.Fprintf(os.Stderr, "note: running at scale %.2f — numbers will not match EXPERIMENTS.md\n", *scaleArg)
	}
	bench.SetParallelism(*parallel)
	if args := flag.Args(); len(args) > 0 && args[0] == "report" {
		os.Exit(runReport(args[1:]))
	}
	if args := flag.Args(); len(args) > 0 && args[0] == "bench-snapshot" {
		os.Exit(runSnapshot(args[1:]))
	}
	if args := flag.Args(); len(args) > 0 && args[0] == "watch" {
		os.Exit(runWatch(args[1:]))
	}
	selected := map[string]bool{}
	for _, arg := range flag.Args() {
		selected[arg] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for name := range selected {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\navailable:", name)
			for _, e := range experiments {
				fmt.Fprintf(os.Stderr, " %s", e.name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "picbench:", err)
		os.Exit(1)
	}
	failed := false
	ran := 0
	var suiteSeconds float64
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		start := time.Now()
		var result renderer
		pprof.Do(context.Background(), pprof.Labels("experiment", e.name), func(context.Context) {
			result, err = e.run()
		})
		wall := time.Since(start).Seconds()
		ran++
		suiteSeconds += wall
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			payload := map[string]any{
				"experiment":   e.name,
				"wall_seconds": wall,
				"result":       result,
			}
			if err := enc.Encode(payload); err != nil {
				fmt.Fprintf(os.Stderr, "%s: encode: %v\n", e.name, err)
				failed = true
			}
			continue
		}
		fmt.Println(result.Render())
		fmt.Printf("[%s completed in %.1fs wall time]\n\n", e.name, wall)
	}
	if ran > 0 {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]any{"suite_wall_seconds": suiteSeconds, "experiments": ran})
		} else {
			fmt.Printf("[suite completed in %.1fs wall time: %d experiments]\n", suiteSeconds, ran)
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "picbench:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile into cpuFile, when named, and
// returns the function that stops it and writes the heap profile into
// memFile, when named.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				return errors.Join(append(errs, err)...)
			}
			runtime.GC() // the heap profile reports as of the last collection
			errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// runSnapshot executes the bench-snapshot subcommand: measure the
// hot-path microbenchmark kernels and emit (or, with -check, validate)
// the machine-readable performance snapshot.
func runSnapshot(args []string) int {
	fs := flag.NewFlagSet("bench-snapshot", flag.ExitOnError)
	outPath := fs.String("out", "", "write the snapshot JSON to this file (default stdout)")
	checkPath := fs.String("check", "", "validate an existing snapshot file instead of measuring")
	suite := fs.Bool("suite", false, "also run the full experiment suite once and record its wall time")
	historyPath := fs.String("history", "", "append a dated trajectory entry (see BENCH_history.jsonl) to this file")
	note := fs.String("note", "", "with -history: what makes this entry not like-for-like with the previous ones")
	fs.Parse(args)
	if *checkPath != "" {
		data, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: %v\n", err)
			return 1
		}
		snap, err := bench.CheckSnapshot(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: %v\n", err)
			return 1
		}
		// Tier like-for-like: a snapshot is only comparable to runs at
		// its own scale, so refuse to validate one against a different
		// current tier instead of silently blessing an apples-to-oranges
		// baseline.
		if snap.Scale != bench.Scale() {
			fmt.Fprintf(os.Stderr, "bench-snapshot: %s was taken at scale %g but the current scale is %g; re-run with -scale %g to compare like for like\n",
				*checkPath, snap.Scale, bench.Scale(), snap.Scale)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench-snapshot: %s ok (%s, %d kernels, scale %g, suite %.1fs)\n",
			*checkPath, snap.GoVersion, len(snap.Kernels), snap.Scale, snap.SuiteWallSeconds)
		return 0
	}
	snap := bench.TakeSnapshot()
	if *suite {
		start := time.Now()
		for _, e := range experiments {
			if _, err := e.run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench-snapshot: suite %s: %v\n", e.name, err)
				return 1
			}
		}
		snap.SuiteWallSeconds = time.Since(start).Seconds()
	}
	w := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := snap.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "bench-snapshot: %v\n", err)
		return 1
	}
	if *historyPath != "" {
		f, err := os.OpenFile(*historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: %v\n", err)
			return 1
		}
		err = snap.AppendHistory(f, time.Now().Format("2006-01-02"), *note)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: history: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench-snapshot: appended trajectory entry to %s\n", *historyPath)
	}
	return 0
}

// runWatch executes the watch subcommand: launch one report workload
// in the background and tail it live — periodic health frames built
// from the event stream and a mid-run registry snapshot — then print
// the final telemetry product and optionally write its JSONL event log
// and an OpenMetrics snapshot.
func runWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 500*time.Millisecond, "wall-clock refresh interval between live frames")
	window := fs.Float64("window", 10, "tumbling-window width in simulated seconds")
	outPath := fs.String("out", "", "write the final JSONL telemetry event log to this file")
	omPath := fs.String("openmetrics", "", "write a final OpenMetrics snapshot to this file")
	fs.Parse(args)
	names := fs.Args()
	if len(names) == 0 {
		names = bench.ReportWorkloads()
	}
	if len(names) > 1 && (*outPath != "" || *omPath != "") {
		fmt.Fprintln(os.Stderr, "watch: -out/-openmetrics need exactly one workload")
		return 2
	}
	for _, name := range names {
		if code := watchOne(name, *interval, simtime.Duration(*window), *outPath, *omPath); code != 0 {
			return code
		}
	}
	return 0
}

// lastSeries returns the final sample value of the first named series
// present in the snapshot.
func lastSeries(snap metrics.Snapshot, ids ...string) (float64, bool) {
	for _, id := range ids {
		if m, ok := snap.Get(id); ok && len(m.Samples) > 0 {
			return m.Samples[len(m.Samples)-1].Value, true
		}
	}
	return 0, false
}

func watchOne(name string, interval time.Duration, window simtime.Duration, outPath, omPath string) int {
	live, err := bench.StartReport(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "watch %s: %v\n", name, err)
		return 1
	}
	start := time.Now()
	opts := obs.Options{Window: window}
	var events []trace.Event
	lastPhase := "starting"
	drain := func() {
		for {
			select {
			case e, ok := <-live.Events:
				if !ok {
					return
				}
				events = append(events, e)
				if e.Kind == trace.KindPhase {
					lastPhase = e.Name
				}
			default:
				return
			}
		}
	}
	frame := func() {
		drain()
		snap := live.Registry.Snapshot()
		p := obs.CollectEvents(name, events, snap, opts)
		jobs := 0.0
		if m, ok := snap.Get("mapred.jobs"); ok {
			jobs = m.Value
		}
		conv := "delta=-"
		if v, ok := lastSeries(snap, "core.be_delta", "core.residual{phase=top-off}", "core.residual{phase=ic}"); ok {
			conv = fmt.Sprintf("delta=%.6g", v)
		}
		fmt.Printf("watch %s +%5.1fs  sim=%9.2fs  phase=%-12s spans=%-6d jobs=%-5.0f %s  anomalies=%d\n",
			name, time.Since(start).Seconds(), float64(p.End), lastPhase, len(p.Events), jobs, conv, len(p.Anomalies))
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	running := true
	for running {
		select {
		case <-live.Done():
			running = false
		case <-ticker.C:
			frame()
		}
	}
	rep, err := live.Wait()
	if err != nil {
		fmt.Fprintf(os.Stderr, "watch %s: %v\n", name, err)
		return 1
	}
	// The final product derives from the finished tracer and registry —
	// deterministic regardless of how the live tail interleaved.
	finalOpts := rep.ObsOpts
	finalOpts.Window = window
	p := obs.Collect(rep.Name, rep.Trace, rep.Registry, finalOpts)
	fmt.Println(p.Render())
	fmt.Println(p.Flight.Render())
	fmt.Printf("[watch %s completed in %.1fs wall time]\n\n", name, time.Since(start).Seconds())
	if outPath != "" {
		if err := writeFileWith(outPath, p.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "watch %s: write event log: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "watch %s: wrote %s\n", name, outPath)
	}
	if omPath != "" {
		if err := writeFileWith(omPath, p.WriteOpenMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "watch %s: write openmetrics: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "watch %s: wrote %s\n", name, omPath)
	}
	return 0
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runReport executes the report subcommand: one instrumented PIC run
// per named workload (all of them when none are named), printing the
// inspector report and, with -out, writing <name>-trace.json and
// <name>-convergence.csv into the directory.
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	outDir := fs.String("out", "", "directory for <name>-trace.json and <name>-convergence.csv artifacts")
	fs.Parse(args)
	names := fs.Args()
	if len(names) == 0 {
		names = bench.ReportWorkloads()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
	}
	for _, name := range names {
		start := time.Now()
		rep, err := bench.RunReport(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report %s: %v\n", name, err)
			return 1
		}
		fmt.Println(rep.Render())
		fmt.Printf("[report %s completed in %.1fs wall time]\n\n", name, time.Since(start).Seconds())
		if *outDir == "" {
			continue
		}
		tracePath := filepath.Join(*outDir, name+"-trace.json")
		f, err := os.Create(tracePath)
		if err == nil {
			err = rep.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "report %s: write trace: %v\n", name, err)
			return 1
		}
		csvPath := filepath.Join(*outDir, name+"-convergence.csv")
		if err := os.WriteFile(csvPath, []byte(rep.ConvergenceCSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "report %s: write csv: %v\n", name, err)
			return 1
		}
		logPath := filepath.Join(*outDir, name+"-events.jsonl")
		if err := writeFileWith(logPath, rep.WriteEventLog); err != nil {
			fmt.Fprintf(os.Stderr, "report %s: write event log: %v\n", name, err)
			return 1
		}
		omPath := filepath.Join(*outDir, name+"-metrics.om")
		if err := writeFileWith(omPath, rep.WriteOpenMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "report %s: write openmetrics: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "report %s: wrote %s, %s, %s and %s\n", name, tracePath, csvPath, logPath, omPath)
	}
	return 0
}
