package main

import (
	"strings"
	"testing"
	"time"

	"cartcc/internal/bench"
	"cartcc/internal/cart"
)

// The cheap experiments run end to end (the heavy ones are exercised by
// the bench package's own tests and by invoking the binary).
func TestRunCheapExperiments(t *testing.T) {
	sc := bench.Scale{ProcsD3: 8, ProcsD5: 32, Reps: 1}
	for _, name := range []string{"table1", "predict", "timeline"} {
		if err := run(name, sc, renderText); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunSmallFigureAllModes(t *testing.T) {
	sc := bench.Scale{ProcsD3: 8, ProcsD5: 32, Reps: 1}
	// A single panel through every render mode.
	panels := bench.Figure6Bottom(sc)
	for _, mode := range []renderMode{renderText, renderCSV, renderBars} {
		if err := figure(mode, "test", "t", panels); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
}

// TestChaosScenarios runs a slice of the chaos sweep directly: one crash
// scenario under the self-healing wrapper (both re-embedding policies) and
// the deadlock-diagnosis demo.
func TestChaosScenarios(t *testing.T) {
	for _, policy := range []cart.ReembedPolicy{cart.CollapseSlab, cart.DenseRelabel} {
		res, err := chaosCrash(cart.OpAlltoall, cart.Combining, policy, 10, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.outcome != "typed rank-failure, self-healed" {
			t.Fatalf("%s: crash outcome = %q (%+v)", policy, res.outcome, res)
		}
		if res.survivors != chaosProcs-1 || !res.recovered {
			t.Fatalf("%s: survivors = %d recovered = %v", policy, res.survivors, res.recovered)
		}
		if res.mttr <= 0 {
			t.Fatalf("%s: recovered without recovery time (mttr = %v)", policy, res.mttr)
		}
	}
	dres, err := chaosDeadlock()
	if err != nil {
		t.Fatal(err)
	}
	if dres.detect <= 0 || dres.detect > time.Second {
		t.Fatalf("deadlock detect latency = %v, want (0, 1s]", dres.detect)
	}
	if !strings.HasPrefix(dres.outcome, "deadlock diagnosed") {
		t.Fatalf("deadlock outcome = %q", dres.outcome)
	}
}

// TestRunUnknownExperiment: unknown names are errors, including the
// performance sweeps whose gates live in internal/cart tests and the
// benchmark module rather than here.
func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nosuch", "allocs", "pipeline", "autotune", "concurrent", "transport"} {
		if err := run(name, bench.QuickScale, renderText); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}
