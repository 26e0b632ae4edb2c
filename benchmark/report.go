package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"cartcc/internal/netmodel"
	"cartcc/internal/stats"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary; BENCHMARK.json repeats them for the driver and the smoke
// test holds the two in step.
type metricDef struct {
	name, unit   string
	higherBetter bool
	// bound is the share of the baseline's median by which the metric may
	// get worse before it counts as a regression.
	bound float64
}

// endToEndDefs are what a user of the stack sees, per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"op_us_p50", "us", false, 0.25},
	{"op_us_p90", "us", false, 0.25},
	{"iters_per_s", "1/s", true, 0.25},
	{"allocs_per_op", "count", false, 0.02},
	{"bytes_per_op", "B", false, 0.02},
	{"live_heap_mb", "MB", false, 0.10},
}

// fullRunDefs are reported per workload by the full run only. The driver's
// contract has no place for them among the end-to-end metrics: a virtual
// time repeats exactly, and a failure ratio is 0 on a healthy run.
var fullRunDefs = []metricDef{
	{"model_us_per_op", "virt_us", false, 0.001},
	{"fail_ratio", "ratio", false, 0},
}

// reportedDefs are the per-workload metrics of the full run and -compare.
var reportedDefs = append(append([]metricDef{}, endToEndDefs...), fullRunDefs...)

// perLayerDefs are the single-layer metrics: the isolated layer table, the
// traced run's counters, the budget, and the model.
var perLayerDefs = []metricDef{
	{"vec.neighborhood_us", "us", false, 0},
	{"datatype.copy_contig_gbps", "GB/s", true, 0},
	{"datatype.copy_strided_ns_per_elem", "ns", false, 0},
	{"datatype.gather_ns_per_elem", "ns", false, 0},
	{"datatype.scatter_ns_per_elem", "ns", false, 0},
	{"wire.encode_ns_per_frame", "ns", false, 0},
	{"wire.decode_ns_per_frame", "ns", false, 0},
	{"wire.allocs_per_frame", "count", false, 0},
	{"mpi.p2p.pingpong_us", "us", false, 0},
	{"mpi.p2p.pingpong_allocs", "count", false, 0},
	{"mpi.p2p.sendrecv_us", "us", false, 0},
	{"mpi.p2p.nb_pair_us", "us", false, 0},
	{"mpi.p2p.nb_pair_allocs", "count", false, 0},
	{"mpi.waitset.cycle_ns", "ns", false, 0},
	{"mpi.link.rtt_us.tcp", "us", false, 0},
	{"mpi.link.rtt_us.unix", "us", false, 0},
	{"mpi.link.rtt_allocs.tcp", "count", false, 0},
	{"mpi.link.nb_pair_us.tcp", "us", false, 0},
	{"mpi.link.stream_mbps.tcp", "MB/s", true, 0},
	{"cart.compile.alltoall_us", "us", false, 0},
	{"cart.compile.allgather_us", "us", false, 0},
	{"cart.init.cold_us", "us", false, 0},
	{"cart.init.warm_us", "us", false, 0},
	{"cart.init.warm_allocs", "count", false, 0},
	{"cart.exec.pipelined_us", "us", false, 0},
	{"cart.exec.barriered_us", "us", false, 0},
	{"cart.exec.blocking_us", "us", false, 0},
	{"cart.exec.trivial_us", "us", false, 0},
	{"cart.exec.trivial_allocs", "count", false, 0},
	{"cart.exec.neighbor_us", "us", false, 0},
	{"cart.exec.speedup_vs_neighbor", "ratio", true, 0},
	{"cart.engine.start_wait_us", "us", false, 0},
	{"cart.engine.overhead_us", "us", false, 0},
	{"cart.engine.overlap_ratio", "ratio", true, 0},
	{"stencil.exchange_us", "us", false, 0},
	{"stencil.kernel_us", "us", false, 0},
	{"stencil.exchange_share", "ratio", false, 0},
	{"stencil.serial_iter_us", "us", false, 0},
	{"tune.pick_combining", "count", true, 0},
	{"tune.decide_ns", "ns", false, 0},

	{"mpi.sends_per_op", "count", false, 0},
	{"mpi.send_bytes_per_op", "B", false, 0},
	{"mpi.zerocopy_ratio", "ratio", true, 0},
	{"mpi.wirepool_hit_ratio", "ratio", true, 0},
	{"mpi.recv_detached_per_op", "count", true, 0},
	{"mpi.unexpected_hwm", "count", false, 0},
	{"mpi.wait_blocks_per_op", "count", false, 0},
	{"mpi.wait_blocked_us_per_op", "us", false, 0},
	{"cart.rounds_per_op", "count", false, 0},
	{"cart.blocks_fwd_per_op", "count", false, 0},
	{"cart.prepost_hwm", "count", false, 0},
	{"cart.retire_us_p50", "us", false, 0},
	{"cart.planned_rounds", "count", false, 0},
	{"cart.planned_volume", "count", false, 0},
	{"cart.planned_messages", "count", false, 0},
	{"cart.plancache.hit_ratio", "ratio", true, 0},
	{"harness.trace_overhead_ratio", "ratio", false, 0},

	{"budget.p2p_share", "ratio", false, 0},
	{"budget.datatype_share", "ratio", false, 0},
	{"budget.wire_share", "ratio", false, 0},
	{"budget.link_share", "ratio", false, 0},
	{"budget.remainder_share", "ratio", false, 0},

	{"model_us_per_op", "virt_us", false, 0},
	{"netmodel.pred_us", "virt_us", false, 0},
	{"netmodel.pred_over_model", "ratio", false, 0},
}

// prediction is netmodel.pred_us: the paper's Cα + βVm for the plans the
// op executes, under the same Hydra constants as the virtual-time run.
func prediction(plans []planInfo, blockBytes float64) float64 {
	m := netmodel.Hydra()
	us := 0.0
	for _, p := range plans {
		us += (float64(p.rounds)*m.Alpha + m.Beta*float64(p.volume)*blockBytes) * 1e6
	}
	return us
}

// budget attributes a workload's median op time to the layers below it:
// world-wide per-op counts from the traced run times the isolated per-call
// costs of the layer table, spread over the cores the ranks share, as
// shares of op_us_p50. What is left over is the finding: executor logic,
// scheduling between oversubscribed ranks, and time spent waiting.
func budget(tr, layers map[string]float64, opUs float64, procs int, network string) map[string]float64 {
	cores := float64(min(runtime.GOMAXPROCS(0), procs))
	sends, bytes := tr["mpi.sends_per_op"], tr["mpi.send_bytes_per_op"]
	p2p := sends * layers["mpi.p2p.nb_pair_us"]
	// Every byte is scattered out of a wire buffer once; only sends that
	// missed the zero-copy path were gathered into one first.
	copies := 2 - tr["mpi.zerocopy_ratio"]
	datatype := bytes * copies / (layers["datatype.copy_contig_gbps"] * 1e3)
	codec, link := 0.0, 0.0
	if network != "" {
		perFrame := (layers["wire.encode_ns_per_frame"] + layers["wire.decode_ns_per_frame"]) / 1e3
		codec = sends * perFrame
		// What crossing the socket adds to an in-process delivery when
		// messages are in flight together, as they are inside a round, less
		// the codec counted above. The round trip is a latency: it overlaps
		// between messages, so it does not add up.
		link = sends * max(0, layers["mpi.link.nb_pair_us."+network]-layers["mpi.p2p.nb_pair_us"]-perFrame)
	}
	share := func(us float64) float64 { return us / cores / opUs }
	out := map[string]float64{
		"budget.p2p_share":      share(p2p),
		"budget.datatype_share": share(datatype),
		"budget.wire_share":     share(codec),
		"budget.link_share":     share(link),
	}
	out["budget.remainder_share"] = 1 - out["budget.p2p_share"] - out["budget.datatype_share"] - out["budget.wire_share"] - out["budget.link_share"]
	return out
}

// checkComplete reports the first metric of defs that is missing from
// values or not a finite number.
func checkComplete(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}

// driverResult is the one-line result the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverResult(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed int) error {
	res := driverResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = driverValue{values[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fullResult is the document of a full run (out/result.json).
type fullResult struct {
	Env       map[string]any                     `json:"env"`
	Workloads map[string]map[string]*metricValue `json:"workloads"`
	Traced    map[string]map[string]float64      `json:"traced"`
	Layers    map[string]float64                 `json:"layers"`
}

// metricValue is one end-to-end metric of one workload: the median of the
// repetitions, and the repetitions.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Reps     []float64 `json:"reps"`
	NSamples int       `json:"n_samples"`
}

// environment is the fingerprint recorded with every full run.
func environment(cfg config, reps int) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go":           runtime.Version(),
		"os_arch":      runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          cpu,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"repetitions":  reps,
		"interleaving": "round-robin over workloads, a fresh world per repetition",
		"network":      "a2a_small_tcp and mpi.link.* cross sockets on the host loopback interface (127.0.0.1 / a unix socket); no wire latency is measured",
	}
}

// printTable renders the full run for a reader, on stderr.
func printTable(w io.Writer, res *fullResult) {
	fmt.Fprintf(w, "\nenvironment: %v, %v, GOMAXPROCS %v, %v; seed %v, %v s windows, %v repetitions\n",
		res.Env["go"], res.Env["os_arch"], res.Env["gomaxprocs"], res.Env["cpu"], res.Env["seed"], res.Env["seconds"], res.Env["repetitions"])
	fmt.Fprintf(w, "network: %v\n", res.Env["network"])
	fmt.Fprintf(w, "\nend-to-end (median of repetitions)\n%-18s", "metric [unit]")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %15s", name)
	}
	fmt.Fprintln(w)
	for _, d := range reportedDefs {
		fmt.Fprintf(w, "%-18s", fmt.Sprintf("%s [%s]", d.name, d.unit))
		for _, name := range workloadNames {
			fmt.Fprintf(w, " %15.6g", res.Workloads[name][d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s", "op samples")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %15d", res.Workloads[name]["op_us_p50"].NSamples)
	}
	fmt.Fprintf(w, "\n\nlayer table (isolated micro-runs)\n")
	for _, d := range perLayerDefs {
		if v, ok := res.Layers[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(w, "\ntraced run, model and budget\n%-34s", "metric [unit]")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %15s", name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayerDefs {
		if _, ok := res.Traced[workloadNames[0]][d.name]; !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s", fmt.Sprintf("%s [%s]", d.name, d.unit))
		for _, name := range workloadNames {
			fmt.Fprintf(w, " %15.6g", res.Traced[name][d.name])
		}
		fmt.Fprintln(w)
	}
}

// compare prints, per workload and end-to-end metric, the two medians, the
// ratio of the second to the first, and a verdict against the bound:
// regressed when the second is worse by more than the bound and its
// repetitions do not overlap the first's; unresolved when they do.
func compare(w io.Writer, pathA, pathB string) (regressed int, err error) {
	load := func(path string) (*fullResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res fullResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &res, nil
	}
	a, err := load(pathA)
	if err != nil {
		return 0, err
	}
	b, err := load(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A: "+pathA, "B: "+pathB, "B/A", "bound", "verdict")
	for _, name := range workloadNames {
		for _, d := range reportedDefs {
			ma, mb := a.Workloads[name][d.name], b.Workloads[name][d.name]
			if ma == nil || mb == nil {
				return regressed, fmt.Errorf("%s.%s is missing from one of the files", name, d.name)
			}
			verdict := verdictFor(d, ma, mb)
			if verdict == "regressed" {
				regressed++
			}
			ratio := math.NaN()
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %9.4f %6.1f%%  %s\n", name, d.name, ma.Value, mb.Value, ratio, d.bound*100, verdict)
		}
	}
	return regressed, nil
}

// verdictFor judges b against a for one metric.
func verdictFor(d metricDef, a, b *metricValue) string {
	worse := b.Value - a.Value
	if d.higherBetter {
		worse = -worse
	}
	if worse <= d.bound*math.Abs(a.Value) {
		return "ok"
	}
	// Worse than the bound allows. It is resolved only if every repetition
	// of b reads worse than every repetition of a.
	aMin, aMax := stats.Quantile(a.Reps, 0), stats.Quantile(a.Reps, 1)
	bMin, bMax := stats.Quantile(b.Reps, 0), stats.Quantile(b.Reps, 1)
	overlap := bMin <= aMax
	if d.higherBetter {
		overlap = bMax >= aMin
	}
	if overlap && len(a.Reps) > 1 && len(b.Reps) > 1 {
		return "unresolved"
	}
	return "regressed"
}
