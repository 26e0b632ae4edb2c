// Command benchmark is the measurement spine of the Cartesian-collective
// stack: six closed-loop workloads, their end-to-end metrics, an isolated
// table of per-layer costs, and a traced run that attributes one to the
// other. README.md is the glossary.
//
// It runs in three ways. With -workload it measures that one workload for
// -seconds and prints one JSON line: the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1); this is the form BENCHMARK.json names.
// Without -workload it is the full run: every workload in interleaved
// repetitions, the layer table, the traced runs and the budgets, as one
// document on stdout and in out/result.json with a table on stderr. With
// -compare it judges two such documents against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"cartcc"
	"cartcc/internal/mpi"
	"cartcc/internal/stats"
)

// repetitions is how many times the full run measures each workload; the
// reported value is the median.
const repetitions = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "measure this one workload and print the driver's JSON line (default: the full run)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 4, "length of one timed window in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		doCompare    = flag.Bool("compare", false, "compare two result.json files given as arguments, instead of measuring")
	)
	flag.Parse()
	if err := run(*workloadName, config{seed: *seed, seconds: *seconds, scale: 1}, *trace, *doCompare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, cfg config, trace int, doCompare bool, args []string) error {
	switch {
	case doCompare:
		if len(args) != 2 {
			return errors.New("-compare needs two result.json paths")
		}
		regressed, err := compare(os.Stdout, args[0], args[1])
		if err == nil && regressed > 0 {
			err = fmt.Errorf("%d metric(s) regressed", regressed)
		}
		return err
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %v", args)
	case cfg.seconds <= 0:
		return errors.New("-seconds must be positive")
	case cartcc.TransportEnvActive():
		return fmt.Errorf("%s is set: it would reroute the loopback workloads through a socket; unset it", mpi.EnvTransport)
	case workloadName == "":
		return fullRun(cfg)
	case trace == 0:
		return driverEndToEnd(workloadName, cfg)
	case trace == 1:
		return driverPerLayer(workloadName, cfg)
	}
	return fmt.Errorf("-trace %d: want 0 or 1", trace)
}

// driverEndToEnd is one run of the driver with tracing off.
func driverEndToEnd(name string, cfg config) error {
	wl, err := newWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	e, err := measureEndToEnd(wl, cfg)
	if e == nil {
		return err
	}
	if cerr := checkComplete(endToEndDefs, e.values); cerr != nil {
		return cerr
	}
	if perr := printDriverResult(os.Stdout, endToEndDefs, e.values, e.attempted, e.failed); perr != nil {
		return perr
	}
	return err
}

// layerShare is the part of a traced driver run's window that each of the
// layer table's micro-runs measures for, so that the whole table takes
// about half a window.
const layerShare = 1.0 / 64

// driverPerLayer is one run of the driver with tracing on: a plain window
// for the base, the traced window, the model and the layer table, each on a
// quarter or so of the time an end-to-end run spends.
func driverPerLayer(name string, cfg config) error {
	wl, err := newWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	short := cfg
	short.seconds = cfg.seconds / 4
	plain, err := measureWindow(wl, short, nil, nil)
	if err != nil {
		return err
	}
	layers, err := measureLayers(cfg, time.Duration(cfg.seconds*layerShare*float64(time.Second)))
	if err != nil {
		return err
	}
	values, attempted, err := perLayer(wl, short, layers, stats.Median(plain.opUs))
	if err != nil {
		return err
	}
	return printDriverResult(os.Stdout, perLayerDefs, values, plain.attempted+attempted, 0)
}

// perLayer measures every per-layer metric of one workload: the model, the
// traced run and the budget, joined with the (workload-independent) layer
// table. plainUs is the untraced op_us_p50 the overhead and the budget are
// relative to.
func perLayer(wl *workload, cfg config, layers map[string]float64, plainUs float64) (map[string]float64, int, error) {
	modelUs, plans, err := measureModel(wl, max(modelReps/cfg.scale, 2))
	if err != nil {
		return nil, 0, err
	}
	tr, err := measureTraced(wl, cfg)
	if err != nil {
		return nil, 0, err
	}
	values := maps.Clone(layers)
	maps.Copy(values, tr.values)
	maps.Copy(values, budget(tr.values, layers, plainUs, wl.procs, wl.network))
	pred := prediction(plans, wl.blockBytes)
	values["harness.trace_overhead_ratio"] = tr.opUsP50 / plainUs
	values["model_us_per_op"] = modelUs
	values["netmodel.pred_us"] = pred
	values["netmodel.pred_over_model"] = pred / modelUs
	return values, tr.attempted, checkComplete(perLayerDefs, values)
}

// fullRun measures everything: each workload `repetitions` times,
// interleaved round-robin in fresh worlds so that a burst of interference
// hits one repetition and not one workload; then the layer table once, and
// per workload the model, the traced run and the budget.
func fullRun(cfg config) error {
	res := &fullResult{
		Env:       environment(cfg, repetitions),
		Workloads: map[string]map[string]*metricValue{},
		Traced:    map[string]map[string]float64{},
	}
	workloads := map[string]*workload{}
	for _, name := range workloadNames {
		wl, err := newWorkload(name, cfg.seed, cfg.scale)
		if err != nil {
			return err
		}
		workloads[name] = wl
		res.Workloads[name] = map[string]*metricValue{}
		for _, d := range reportedDefs {
			res.Workloads[name][d.name] = &metricValue{Unit: d.unit}
		}
	}
	var failed error
	for rep := 0; rep < repetitions; rep++ {
		for _, name := range workloadNames {
			fmt.Fprintf(os.Stderr, "repetition %d/%d: %s\n", rep+1, repetitions, name)
			e, err := measureEndToEnd(workloads[name], cfg)
			if e == nil {
				return err
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed = err
			}
			e.values["fail_ratio"] = float64(e.failed) / float64(e.attempted)
			for metric, v := range e.values {
				m := res.Workloads[name][metric]
				m.Reps = append(m.Reps, v)
				m.NSamples += e.samples
			}
		}
	}
	fmt.Fprintln(os.Stderr, "layer table")
	// The full run gives each micro-run a second, as the layer table's
	// numbers are read on their own here.
	layers, err := measureLayers(cfg, time.Second/time.Duration(cfg.scale))
	if err != nil {
		return err
	}
	res.Layers = layers
	// The traced pass runs a quarter of a window, like the driver's.
	short := cfg
	short.seconds = cfg.seconds / 4
	for _, name := range workloadNames {
		fmt.Fprintf(os.Stderr, "traced run: %s\n", name)
		plainUs := stats.Median(res.Workloads[name]["op_us_p50"].Reps)
		values, _, err := perLayer(workloads[name], short, layers, plainUs)
		if err != nil {
			return err
		}
		res.Traced[name] = map[string]float64{}
		for k, v := range values {
			if _, isLayer := layers[k]; !isLayer {
				res.Traced[name][k] = v
			}
		}
		m := res.Workloads[name]["model_us_per_op"]
		m.Reps = []float64{values["model_us_per_op"]}
	}
	for _, metrics := range res.Workloads {
		for _, m := range metrics {
			m.Value = stats.Median(m.Reps)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	printTable(os.Stderr, res)
	fmt.Printf("%s\n", data)
	return failed
}
