package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"cartcc"
	"cartcc/internal/mpi"
)

// quick is the smoke scale: every code path of the measurement at a tiny
// op count.
var quick = config{seed: 7, seconds: 0.05, scale: 25}

// TestQuickScale runs every workload and the layer table end to end and
// checks that every named metric comes out, that nothing fails
// verification, and that virtual time repeats exactly.
func TestQuickScale(t *testing.T) {
	if cartcc.TransportEnvActive() {
		t.Skip("CARTCC_TRANSPORT reroutes the loopback workloads")
	}
	layers, err := measureLayers(quick, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]float64{}
	for _, name := range workloadNames {
		wl, err := newWorkload(name, quick.seed, quick.scale)
		if err != nil {
			t.Fatal(err)
		}
		e, err := measureEndToEnd(wl, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkComplete(endToEndDefs, e.values); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for metric, v := range e.values {
			if v <= 0 {
				t.Errorf("%s.%s = %v, want a positive value", name, metric, v)
			}
		}
		if e.failed != 0 || e.attempted < wl.warmup+wl.batch+1 {
			t.Errorf("%s: %d of %d ops failed", name, e.failed, e.attempted)
		}
		// perLayer checks completeness itself, and Plan.Stats().Check()
		// inside the traced run.
		values, _, err := perLayer(wl, quick, layers, e.values["op_us_p50"])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, _, err := measureModel(wl, max(modelReps/quick.scale, 2))
		if err != nil {
			t.Fatal(err)
		}
		if values["model_us_per_op"] != again || again <= 0 {
			t.Errorf("%s: model_us_per_op %v, then %v: virtual time must repeat exactly", name, values["model_us_per_op"], again)
		}
		model[name] = again
		if _, err := os.Stat("out/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", name, err)
		}
	}
	if model["a2a_small"] != model["a2a_small_tcp"] {
		t.Errorf("model_us_per_op: a2a_small %v != a2a_small_tcp %v; the transport must not enter virtual time", model["a2a_small"], model["a2a_small_tcp"])
	}
}

// TestVerificationCatchesCorruption corrupts one received block, and
// separately leaves a receive buffer unfilled, and expects verification to
// object to both.
func TestVerificationCatchesCorruption(t *testing.T) {
	want := make([]int64, 9*16)
	for i := range want {
		want[i] = payload(1, 3, i)
	}
	got := append([]int64(nil), want...)
	if err := checkBlocks(got, want, 16); err != nil {
		t.Fatalf("intact buffer rejected: %v", err)
	}
	got[5*16+2] ^= 1
	if err := checkBlocks(got, want, 16); err == nil || !strings.Contains(err.Error(), "block 5 element 2") {
		t.Errorf("corrupted block 5 element 2: got %v", err)
	}

	wl, err := newWorkload("a2a_small", 1, quick.scale)
	if err != nil {
		t.Fatal(err)
	}
	err = runWorld(wl.procs, "", nil, nil, func(w *mpi.Comm) error {
		r, err := wl.build(w, nil)
		if err != nil {
			return err
		}
		if wrong, err := verifiedOp(r); wrong != nil || err != nil {
			return errors.Join(wrong, err)
		}
		r.reset()
		if r.verify() == nil {
			t.Errorf("rank %d: a cleared receive buffer passed verification", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompareVerdicts pins the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "op_us_p50", bound: 0.10}
	higher := metricDef{name: "iters_per_s", higherBetter: true, bound: 0.10}
	mv := func(reps ...float64) *metricValue { return &metricValue{Value: reps[1], Reps: reps} }
	for _, tc := range []struct {
		d    metricDef
		a, b *metricValue
		want string
	}{
		{lower, mv(99, 100, 101), mv(104, 105, 106), "ok"},
		{lower, mv(99, 100, 101), mv(119, 120, 121), "regressed"},
		{lower, mv(99, 100, 125), mv(119, 120, 121), "unresolved"},
		{lower, mv(99, 100, 101), mv(49, 50, 51), "ok"},
		{higher, mv(99, 100, 101), mv(79, 80, 81), "regressed"},
		{higher, mv(70, 100, 101), mv(79, 80, 81), "unresolved"},
		{higher, mv(99, 100, 101), mv(149, 150, 151), "ok"},
	} {
		if got := verdictFor(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %v vs %v: got %s, want %s", tc.d.name, tc.a.Reps, tc.b.Reps, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var driven []string
	for _, name := range workloadNames {
		if !fullRunOnly[name] {
			driven = append(driven, name)
		}
	}
	if len(doc.Workloads) != len(driven) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program drives %d", len(doc.Workloads), len(driven))
	}
	for i, w := range doc.Workloads {
		if w.Name != driven[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, driven[i])
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higherBetter {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
}
