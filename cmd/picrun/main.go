// Command picrun executes one of the five case-study applications under
// the conventional (IC) scheme, under PIC, or both, on a chosen
// simulated testbed, and prints times, iteration counts and traffic.
//
//	picrun -app kmeans -cluster small -scheme both -partitions 6
//	picrun -app pagerank -cluster medium -scheme pic
//
// Applications: kmeans, pagerank, neuralnet, linsolve, smoothing.
// Clusters: small (6 nodes), medium (64), large (256).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/simcluster"
	"repro/internal/trace"
)

// checkArgs rejects flag values the workload builders cannot use,
// before any dataset is generated.
func checkArgs(scheme string, partitions int) error {
	switch scheme {
	case "ic", "pic", "async", "both":
	default:
		return fmt.Errorf("-scheme %q: want ic, pic, async or both", scheme)
	}
	if partitions < 1 {
		return fmt.Errorf("-partitions %d: PIC needs at least one sub-problem", partitions)
	}
	return nil
}

func main() {
	var (
		appName    = flag.String("app", "kmeans", "application: kmeans|pagerank|neuralnet|linsolve|smoothing")
		clusterArg = flag.String("cluster", "small", "testbed: small|medium|large")
		scheme     = flag.String("scheme", "both", "execution scheme: ic|pic|async|both")
		partitions = flag.Int("partitions", 6, "PIC sub-problem count")
		seed       = flag.Int64("seed", 1, "dataset seed")
		showTrace  = flag.Bool("trace", false, "print the execution timeline (Gantt + events)")
	)
	flag.Parse()
	if err := checkArgs(*scheme, *partitions); err != nil {
		fmt.Fprintln(os.Stderr, "picrun:", err)
		os.Exit(2)
	}

	var cluster simcluster.Config
	switch *clusterArg {
	case "small":
		cluster = simcluster.Small()
	case "medium":
		cluster = simcluster.Medium()
	case "large":
		cluster = simcluster.Large(256)
	default:
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *clusterArg)
		os.Exit(2)
	}

	var w *bench.Workload
	switch *appName {
	case "kmeans":
		w, _ = bench.KMeansWorkload("kmeans", cluster, 300_000, 25, 3, *partitions, *seed)
	case "pagerank":
		w, _ = bench.PageRankWorkload("pagerank", cluster, 20_000, *partitions, 0.05, *seed)
	case "neuralnet":
		w, _, _, _ = bench.NeuralNetWorkload("neuralnet", cluster, 8_000, *partitions, *seed)
	case "linsolve":
		w, _ = bench.LinSolveWorkload("linsolve", cluster, 100, *partitions, *seed)
	case "smoothing":
		w, _ = bench.SmoothingWorkload("smoothing", cluster, 1024, 512, *partitions, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	w.PICOpts.Partitions = *partitions
	var tracer *trace.Tracer
	if *showTrace {
		tracer = trace.New()
		w.Tracer = tracer
	}

	if *scheme == "ic" || *scheme == "both" {
		ic, err := w.RunIC(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("IC : %3d iterations   %8.1f simulated s   %10s network   %8s model updates\n",
			ic.Iterations, float64(ic.Duration),
			bench.FormatBytes(ic.Metrics.ShuffleNetworkBytes+ic.Metrics.ModelBytes),
			bench.FormatBytes(ic.ModelUpdateBytes))
	}
	if *scheme == "pic" || *scheme == "both" {
		pic, err := w.RunPIC(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("PIC: %3d BE + %2d top-off %6.1f simulated s   %10s network   %8s model updates\n",
			pic.BEIterations, pic.TopOffIterations, float64(pic.Duration),
			bench.FormatBytes(pic.Metrics.ShuffleNetworkBytes+pic.Metrics.ModelBytes+pic.MergeTrafficBytes),
			bench.FormatBytes(pic.ModelUpdateBytes))
		fmt.Printf("     local iterations per best-effort iteration: %v\n", pic.MaxLocalIterationsPerBE())
	}
	if *scheme == "async" {
		rt := w.NewRuntime()
		res, err := core.RunPICAsync(rt, w.MakeApp(), w.MakeInput(rt.Cluster()), w.MakeModel(),
			core.AsyncOptions{Partitions: *partitions})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ASY: rounds/group %v + %2d top-off %6.1f simulated s\n",
			res.RoundsPerGroup, res.TopOffIterations, float64(res.Duration))
	}
	if tracer != nil {
		fmt.Println()
		fmt.Print(tracer.Gantt(72))
	}
}
