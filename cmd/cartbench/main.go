// Command cartbench regenerates the tables and figures of the paper's
// evaluation (Träff & Hunold, Cartesian Collective Communication, ICPP
// 2019) on the simulated runtime.
//
// Usage:
//
//	cartbench [flags] <experiment>...
//
// Experiments: table1, fig3, fig4, fig5, fig6, fig7 (the paper's
// evaluation), plus crossover (cut-off sweep), timeline (per-rank Gantt
// charts of one exchange), scaling (p-independence check), mesh
// (non-periodic pruned schedules), reduce and reorder (the implemented
// extensions), predict (analytic model), chaos (injected-fault sweep with
// survivor recovery and deadlock diagnosis), trace (Perfetto/Chrome trace
// capture with metrics and predicted-vs-observed accounting; -o sets the
// output path), and all.
//
// Performance gates do not live here: the runtime's wall-clock cost is
// measured by the benchmark/ module, and the deterministic virtual-time
// gates (Auto within 1.05x of the best fixed algorithm, the pipelined
// executor against the barriered one) are tests in internal/cart:
//
//	go test -v -run 'TestAutoWithinGateOfBestFixed|TestPipelinedBeatsBarrieredUnderModel' ./internal/cart
//
// Flags:
//
//	-scale quick|default   experiment size (default "default")
//	-transport NAME        force a transport backend for wall-clock
//	                       worlds: loopback, tcp or unix (sets
//	                       CARTCC_TRANSPORT; virtual-time figures are
//	                       in-process by construction)
//	-csv                   emit CSV instead of text tables
//	-bars                  render figures as ASCII bar charts
//	-reps N                override repetitions per variant
//	-procs-d3 N            override process count for d<=4 panels
//	-procs-d5 N            override process count for d=5 panels
//	-serve ADDR            serve the live introspection plane (/metrics,
//	                       /healthz, /debug/*) over a continuous workload
//	-serve-for D           stop the -serve workload after D (0 = interrupt)
//	-dump-dir DIR          post-mortem bundle directory for -serve
//
// Figures are printed as text tables: the absolute baseline time per cell
// and, per series, run time relative to the blocking MPI_Neighbor_*
// baseline (the bars of the paper's figures). fig7 prints run-time
// histograms. Absolute numbers are virtual-model times, not the authors'
// hardware; EXPERIMENTS.md compares the shapes against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cartcc/internal/bench"
	"cartcc/internal/cart"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/stats"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

func main() {
	scale := flag.String("scale", "default", "experiment size: quick or default")
	csv := flag.Bool("csv", false, "emit CSV instead of text")
	bars := flag.Bool("bars", false, "render figures as ASCII bar charts")
	reps := flag.Int("reps", 0, "override repetitions per variant")
	procsD3 := flag.Int("procs-d3", 0, "override process count for d<=4 panels")
	procsD5 := flag.Int("procs-d5", 0, "override process count for d=5 panels")
	traceOut := flag.String("o", "trace.json", "output path for the trace experiment")
	serve := flag.String("serve", "", "serve the live introspection plane on this address over a continuous workload (e.g. 127.0.0.1:6060; empty port picks one)")
	serveFor := flag.Duration("serve-for", 0, "stop the -serve workload after this long (0 = until interrupt)")
	dumpDir := flag.String("dump-dir", "", "post-mortem bundle directory for the -serve workload")
	transport := flag.String("transport", "", "force a transport backend for wall-clock worlds: loopback, tcp or unix (sets CARTCC_TRANSPORT)")
	flag.Parse()
	traceOutPath = *traceOut
	if !mpi.KnownTransport(*transport) {
		fmt.Fprintf(os.Stderr, "cartbench: unknown transport %q (want loopback, tcp or unix)\n", *transport)
		os.Exit(2)
	}
	if *transport != "" {
		os.Setenv(mpi.EnvTransport, *transport)
	}

	if *serve != "" {
		if err := serveExperiment(*serve, *serveFor, *dumpDir); err != nil {
			fmt.Fprintf(os.Stderr, "cartbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sc := bench.DefaultScale
	if *scale == "quick" {
		sc = bench.QuickScale
	}
	if *reps > 0 {
		sc.Reps = *reps
	}
	if *procsD3 > 0 {
		sc.ProcsD3 = *procsD3
	}
	if *procsD5 > 0 {
		sc.ProcsD5 = *procsD5
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "cartbench: no experiment named; try: table1 fig3 fig4 fig5 fig6 fig7 crossover timeline scaling mesh reduce reorder predict chaos trace all")
		os.Exit(2)
	}
	mode := renderText
	if *csv {
		mode = renderCSV
	} else if *bars {
		mode = renderBars
	}
	for _, arg := range args {
		if err := run(arg, sc, mode); err != nil {
			fmt.Fprintf(os.Stderr, "cartbench: %s: %v\n", arg, err)
			os.Exit(1)
		}
	}
}

type renderMode int

const (
	renderText renderMode = iota
	renderCSV
	renderBars
)

func run(name string, sc bench.Scale, mode renderMode) error {
	switch name {
	case "all":
		for _, e := range []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "crossover", "timeline", "scaling", "mesh", "reduce", "reorder", "predict"} {
			if err := run(e, sc, mode); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
		return nil
	case "fig3":
		return figure(mode, "Figure 3 — Cart_alltoall vs MPI_Neighbor_alltoall (Hydra/Open-MPI-like profile)",
			"fig3", bench.Figure3(sc))
	case "fig4":
		return figure(mode, "Figure 4 — Cart_alltoall vs MPI_Neighbor_alltoall (Hydra/Intel-MPI-like profile)",
			"fig4", bench.Figure4(sc))
	case "fig5":
		return figure(mode, "Figure 5 — Cart_alltoall vs MPI_Neighbor_alltoall (Titan/Cray profile)",
			"fig5", bench.Figure5(sc))
	case "fig6":
		if err := figure(mode, "Figure 6 (top) — Cart_allgather, d=5 n=5 (Hydra profile)",
			"fig6top", bench.Figure6Top(sc)); err != nil {
			return err
		}
		return figure(mode, "Figure 6 (bottom) — Cart_alltoallv, d=5 n=5, irregular blocks (Titan profile)",
			"fig6bottom", bench.Figure6Bottom(sc))
	case "fig7":
		return figure7(sc)
	case "crossover":
		return crossover(sc)
	case "timeline":
		return timeline()
	case "scaling":
		return scaling(sc)
	case "mesh":
		return meshExperiment(sc)
	case "reduce":
		return reduceExperiment(sc)
	case "reorder":
		return reorderExperiment(sc)
	case "predict":
		return predict()
	case "chaos":
		return chaosExperiment(sc)
	case "trace":
		return traceExperiment()
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

// traceOutPath is the -o flag value, bound in main.
var traceOutPath = "trace.json"

// traceExperiment captures one combining Cart_alltoall on a 4×4 torus
// (Moore neighborhood) in virtual time and wall clock, plus a chaos pass
// that crashes one rank mid-collective and records the self-healing
// recovery windows, writes the unified Perfetto/Chrome trace to the -o
// path, and prints the metrics and predicted-vs-observed accounting
// summary. Load the JSON in ui.perfetto.dev (or chrome://tracing) to
// browse it; `carttrace` prints the same file as text tables.
func traceExperiment() error {
	res, err := bench.RunObserve(bench.ObserveConfig{Chaos: true})
	if err != nil {
		return err
	}
	f, err := os.Create(traceOutPath)
	if err != nil {
		return err
	}
	if err := res.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Print(bench.FormatObserve(res))
	fmt.Printf("\nwrote %s — open it in ui.perfetto.dev or chrome://tracing\n", traceOutPath)
	return nil
}

func figure(mode renderMode, title, id string, panels []bench.Panel) error {
	results := make([][]bench.Cell, len(panels))
	for i, p := range panels {
		cells, err := bench.Run(p.Cfg)
		if err != nil {
			return err
		}
		results[i] = cells
	}
	switch mode {
	case renderCSV:
		fmt.Print(bench.CSVPanels(id, panels, results))
	case renderBars:
		fmt.Println(bench.BarPanels(title, panels, results))
	default:
		fmt.Println(bench.FormatPanels(title, panels, results))
	}
	return nil
}

func figure7(sc bench.Scale) error {
	fmt.Println("Figure 7 — run-time distribution of Cart_alltoall (d=3, n=3, m=1) under system noise")
	fmt.Println(strings.Repeat("=", 80))
	for _, hc := range bench.Figure7Configs(sc) {
		h, samples, err := bench.RunHistogram(hc)
		if err != nil {
			return err
		}
		mean := stats.Mean(samples)
		fmt.Printf("\np = %d processes, %d repetitions (times in µs; mean %.2f, median %.2f)\n",
			hc.Procs, hc.Reps, mean, stats.Median(samples))
		fmt.Print(h.Render(1))
	}
	return nil
}

func crossover(sc bench.Scale) error {
	fmt.Println("Cut-off validation — empirical vs analytic crossover block size (Section 3.1)")
	fmt.Println(strings.Repeat("=", 80))
	for _, dn := range [][2]int{{2, 3}, {3, 3}, {3, 5}} {
		procs := sc.ProcsD3
		if dn[0] == 2 {
			procs = 16
		}
		res, err := bench.RunCrossover(dn[0], dn[1], procs, "hydra", nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatCrossover(res))
	}
	return nil
}

// timeline renders per-rank communication Gantt charts of one Cart_alltoall
// under the Hydra model: the direct baseline (a burst of t sends) against
// the combining schedule (d compact phases), made visible.
func timeline() error {
	nbh, err := vec.Stencil(2, 3, -1)
	if err != nil {
		return err
	}
	const procs = 9
	for _, variant := range []struct {
		name string
		algo cart.Algorithm
	}{{"direct baseline (MPI_Neighbor_alltoall)", -1}, {"trivial Cart_alltoall (blocking rounds)", cart.Trivial}, {"message-combining Cart_alltoall", cart.Combining}} {
		rec := trace.NewRecorder(procs)
		err := mpi.Run(mpi.Config{Procs: procs, Model: netmodel.Hydra(), Seed: 1, Recorder: rec, Timeout: time.Minute}, func(w *mpi.Comm) error {
			c, err := cart.NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
			if err != nil {
				return err
			}
			send := make([]int32, len(nbh)*10)
			recv := make([]int32, len(nbh)*10)
			var op func() error
			if variant.algo < 0 {
				g, err := c.DistGraph()
				if err != nil {
					return err
				}
				op = func() error { return mpi.NeighborAlltoall(g, send, recv) }
			} else {
				plan, err := cart.AlltoallInit(c, 10, variant.algo)
				if err != nil {
					return err
				}
				op = func() error { return cart.Run(plan, send, recv) }
			}
			// Trim communicator-creation traffic from the recording.
			if err := mpi.Barrier(c.Base()); err != nil {
				return err
			}
			rec.ResetRank(w.Rank())
			return op()
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s — 9-point stencil, 9 processes, m=10 ints (s=inject, r=receive-wait, *=both)\n", variant.name)
		fmt.Print(rec.Render(100))
		fmt.Print(rec.Summary())
	}
	return nil
}

func scaling(sc bench.Scale) error {
	fmt.Println("Weak scaling — the combining advantage is p-independent (per-process counts fixed)")
	fmt.Println(strings.Repeat("=", 80))
	cells, err := bench.RunScalingExperiment(3, 3, 10, []int{27, 64, 125, 216}, "hydra", sc.Reps)
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatScaling(3, 3, 10, cells))
	return nil
}

func meshExperiment(sc bench.Scale) error {
	fmt.Println("Non-periodic mesh extension — pruned combining schedules (paper §2, left open)")
	fmt.Println(strings.Repeat("=", 80))
	for _, op := range []cart.OpKind{cart.OpAlltoall, cart.OpAllgather} {
		res, err := bench.RunMeshExperiment(op, 64, 10, sc.Reps)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatMesh(res, 64, 10))
	}
	return nil
}

func reduceExperiment(sc bench.Scale) error {
	fmt.Println("Neighborhood reduction extension (§2.2) — trivial vs reversed-tree combining")
	fmt.Println(strings.Repeat("=", 80))
	for _, dn := range [][2]int{{3, 3}, {3, 5}} {
		cells, err := bench.RunReduceExperiment(dn[0], dn[1], sc.ProcsD3, "hydra", nil, sc.Reps)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatReduce(dn[0], dn[1], cells))
	}
	return nil
}

func reorderExperiment(sc bench.Scale) error {
	fmt.Println("Rank reordering extension — node-blocked remapping on a two-level machine")
	fmt.Println(strings.Repeat("=", 80))
	res, err := bench.RunReorderExperiment(64, 4, 4000, sc.Reps)
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatReorder(res))
	return nil
}

func predict() error {
	fmt.Println("Analytic prediction — relative run time of message combining (Cα+βVm)/(t(α+βm))")
	fmt.Println(strings.Repeat("=", 80))
	for _, profile := range []string{"hydra", "titan"} {
		model, err := netmodel.Preset(profile)
		if err != nil {
			return err
		}
		fmt.Printf("\nprofile %s (α=%.2gs, β=%.2gs/B): cut-off block size in bytes per (d,n):\n", profile, model.Alpha, model.Beta)
		for _, dn := range [][2]int{{3, 3}, {3, 5}, {5, 3}, {5, 5}} {
			cfg := bench.Config{Op: cart.OpAlltoall, D: dn[0], N: dn[1], F: -1, Profile: profile}
			for _, mBytes := range []int{4, 40, 400} {
				pred, err := bench.Predict(cfg, mBytes)
				if err != nil {
					return err
				}
				fmt.Printf("  d=%d n=%d m=%4dB: combining/direct = %.3f\n", dn[0], dn[1], mBytes, pred[bench.SeriesCombining])
			}
		}
	}
	return nil
}
