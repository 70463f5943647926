// Command benchmark is the repository's benchmark: six IC-versus-PIC
// workloads over the simulator, measured end to end (the default) and
// layer by layer (-trace 1). See README.md.
//
//	go run ./benchmark                      every workload, one child process each
//	go run ./benchmark -workload W -seed N  one workload in this process
//	go run ./benchmark -trace 1             the traced run: per-layer metrics and span files
//	go run ./benchmark -compare A B         apply BENCHMARK.json's bounds to two result files
//	go run ./benchmark -list                workloads and metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 11, "the only source of randomness: generates every input and fault plan")
		seconds  = flag.Float64("seconds", 10, "host seconds of timed ops per run (at least 3 ops run regardless)")
		traced   = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics; 0: the untraced run, reporting end-to-end metrics")
		runs     = flag.Int("runs", 1, "with every workload: runs per workload, on seeds seed, seed+1, ...")
		quick    = flag.Bool("quick", false, "inputs at 1/20 size, one op, probes at one call: a smoke run, never comparable to a full one")
		outDir   = flag.String("out", ".bench_out", "directory for trace-<workload>.json")
		record   = flag.String("record", "", "append each run's full record to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -record files: benchmark -compare A B")
		list     = flag.Bool("list", false, "print workloads and metrics, then exit")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A B")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case *workload == "":
		return runAll(*seed, *runs)
	}
	sp := findWorkload(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *workload)
		return 2
	}
	cfg := runConfig{sp: sp, seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, gogc: applyGC()}
	run := measure
	if *traced == 1 {
		run = measureTraced
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	rec.print()
	return 0
}

// runAll runs every workload in a child process of its own, one at a
// time, so peak RSS and heap state are per workload, and passes the
// other flags through.
func runAll(seed int64, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "seed" && f.Name != "runs" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	status := 0
	for r := 0; r < runs; r++ {
		for _, sp := range workloads {
			args := append([]string{"-workload=" + sp.name, fmt.Sprintf("-seed=%d", seed+int64(r))}, pass...)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				status = 1
			}
			fmt.Println()
		}
	}
	return status
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the record for people, then the one line the driver
// reads: correct, attempted, failed, metrics.
func (r *runRecord) print() {
	label := "untraced run: end-to-end metrics"
	if r.Traced {
		label = "traced run: per-layer metrics"
	}
	if r.Env.Quick {
		label += " — QUICK SIZE, NOT COMPARABLE TO A FULL RUN"
	}
	fmt.Printf("== %s — %s\n", r.Workload, label)
	e := r.Env
	fmt.Printf("env: seed=%d %s %s cpu=%q num_cpu=%d gomaxprocs=%d (engine workers) gogc=%s; closed loop, one client\n",
		e.Seed, e.GoVersion, e.OSArch, e.CPU, e.NumCPU, e.GOMAXPROCS, e.GOGC)
	fmt.Printf("ops: %d passed of %d attempted; whole-op host seconds min/median/max %.3f/%.3f/%.3f\n",
		r.Ops, r.Attempted, r.OpSeconds[0], r.OpSeconds[1], r.OpSeconds[2])
	fmt.Printf("sim_digest: %s\n", r.Digest)
	fmt.Printf("PIC's final model is %.4g from the conventional one (tolerance %.4g)\n", r.Gap, r.Tolerance)
	for _, f := range r.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Printf("spans: %s\n", r.TraceFile)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Println(string(last))
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-26s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (untraced run): name, unit, which way is better")
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %-8s %-6s\n", m.name, m.unit, better(m.higher))
	}
	fmt.Println("per-layer metrics (traced run): name, unit, which way is better, source (C count, S span, P probe), what it should move")
	for _, m := range perLayer {
		fmt.Printf("  %-28s %-8s %-6s %s  moves %s\n", m.name, m.unit, better(m.higher), m.source, m.moves)
	}
	fmt.Println(strings.Repeat("-", 20))
	fmt.Println("units starting with sim_ are on the simulated clock; every other time is host time")
}
