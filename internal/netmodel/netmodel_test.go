package netmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestCost(t *testing.T) {
	m := &Model{Alpha: 1e-6, Beta: 1e-9}
	if got := m.Cost(0); got != 1e-6 {
		t.Errorf("Cost(0) = %g", got)
	}
	if got := m.Cost(1000); math.Abs(got-2e-6) > 1e-18 {
		t.Errorf("Cost(1000) = %g, want 2e-6", got)
	}
}

func TestCutoffBytes(t *testing.T) {
	m := &Model{Alpha: 1e-6, Beta: 1e-9}
	// Cut-off = (α/β)·(t−C)/(V−t) = 1000·21/27 for d=3,n=3 (t incl. self).
	got := m.CutoffBytes(27, 6, 54)
	want := 1000.0 * 21.0 / 27.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cutoff = %g, want %g", got, want)
	}
	if c := m.CutoffBytes(5, 5, 9); c != 0 {
		t.Errorf("C >= t should never combine, got %g", c)
	}
	if c := m.CutoffBytes(27, 6, 27); !math.IsInf(c, 1) {
		t.Errorf("V <= t should always combine, got %g", c)
	}
	free := &Model{Alpha: 1e-6, Beta: 0}
	if c := free.CutoffBytes(27, 6, 54); !math.IsInf(c, 1) {
		t.Errorf("beta=0 cutoff = %g", c)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Model{Alpha: -1}).Validate(); err == nil {
		t.Error("negative alpha validated")
	}
	if err := Hydra().Validate(); err != nil {
		t.Errorf("Hydra preset invalid: %v", err)
	}
	bad := Hydra()
	bad.Noise = &Noise{SpikeProb: 2}
	if err := bad.Validate(); err == nil {
		t.Error("invalid noise validated")
	}
}

func TestNoiseSample(t *testing.T) {
	n := &Noise{Jitter: 0.5, SpikeProb: 0.1, Spike: 1e-3}
	rng := rand.New(rand.NewSource(1))
	spikes := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		extra := n.Sample(rng, 1e-6)
		if extra < 0 {
			t.Fatalf("negative noise %g", extra)
		}
		if extra >= 1e-3 {
			spikes++
		}
	}
	frac := float64(spikes) / trials
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("spike fraction %.3f, want ~0.1", frac)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	n := &Noise{Jitter: 0.3, SpikeProb: 0.02, Spike: 5e-5}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if n.Sample(a, 1e-6) != n.Sample(b, 1e-6) {
			t.Fatal("noise not deterministic under equal seeds")
		}
	}
}

func TestCutoffBytesLogGP(t *testing.T) {
	m := &Model{Alpha: 1.5e-6, Beta: 8e-11, SendOverhead: 0.4e-6, RecvOverhead: 0.4e-6}
	// d=3, n=3: t=26, C=6, V=54.
	got := m.CutoffBytesLogGP(26, 6, 54, 3)
	want := (0.8e-6*20 - 2*1.5e-6) / (8e-11 * 28)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("LogGP cutoff %g, want %g", got, want)
	}
	if c := m.CutoffBytesLogGP(5, 5, 9, 2); c != 0 {
		t.Errorf("C >= t: %g", c)
	}
	if c := m.CutoffBytesLogGP(26, 6, 26, 3); !math.IsInf(c, 1) {
		t.Errorf("V <= t: %g", c)
	}
	if c := (&Model{Alpha: 1e-6}).CutoffBytesLogGP(26, 6, 54, 3); !math.IsInf(c, 1) {
		t.Errorf("beta=0: %g", c)
	}
	// Latency-dominated: overheads too small to ever pay off.
	tiny := &Model{Alpha: 100e-6, Beta: 8e-11, SendOverhead: 1e-9, RecvOverhead: 1e-9}
	if c := tiny.CutoffBytesLogGP(26, 6, 54, 3); c != 0 {
		t.Errorf("negative numerator not clamped: %g", c)
	}
}

func TestHierarchy(t *testing.T) {
	m := HydraHierarchical(8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.SameNode(0, 7) || m.SameNode(7, 8) {
		t.Error("SameNode node boundaries wrong")
	}
	if !m.SameNode(3, 3) {
		t.Error("SameNode self wrong")
	}
	flat := Hydra()
	if flat.SameNode(0, 1) {
		t.Error("flat model claims shared node")
	}
	if !flat.SameNode(2, 2) {
		t.Error("flat model self")
	}
	a, b := m.PathParams(0, 1)
	if a != m.Hierarchy.IntraAlpha || b != m.Hierarchy.IntraBeta {
		t.Errorf("intra params %g %g", a, b)
	}
	a, b = m.PathParams(0, 8)
	if a != m.Alpha || b != m.Beta {
		t.Errorf("inter params %g %g", a, b)
	}
	a, b = m.PathParams(5, 5)
	if a != 0 || b != m.Beta {
		t.Errorf("self params %g %g", a, b)
	}
	bad := HydraHierarchical(4)
	bad.Hierarchy.IntraAlpha = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative intra alpha validated")
	}
	if err := (&Hierarchy{CoresPerNode: 0}).Validate(); err == nil {
		t.Error("zero cores validated")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"hydra", "titan", "titan-noisy"} {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if m.Alpha <= 0 || m.Beta <= 0 {
			t.Errorf("preset %q has degenerate costs", name)
		}
	}
	if _, err := Preset("bluegene"); err == nil {
		t.Error("unknown preset accepted")
	}
	if TitanNoisy().Noise == nil {
		t.Error("titan-noisy has no noise")
	}
	// Titan (Gemini) should be slower than Hydra (OmniPath) per message.
	if Titan().Alpha <= Hydra().Alpha || Titan().Beta <= Hydra().Beta {
		t.Error("preset cost ordering unexpected")
	}
}

// TestRandomModel checks that Random draws valid models and that the draw
// is a pure function of the rng stream (the determinism the simulation
// harness replays on).
func TestRandomModel(t *testing.T) {
	sawNoise, sawHierarchy := false, false
	for seed := int64(0); seed < 200; seed++ {
		m := Random(rand.New(rand.NewSource(seed)))
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.Alpha <= 0 || m.Beta <= 0 {
			t.Fatalf("seed %d: degenerate costs %+v", seed, m)
		}
		if m.Noise != nil {
			sawNoise = true
		}
		if m.Hierarchy != nil {
			sawHierarchy = true
			if m.Hierarchy.IntraAlpha >= m.Alpha || m.Hierarchy.IntraBeta >= m.Beta {
				t.Fatalf("seed %d: intra-node costs not cheaper: %+v", seed, m.Hierarchy)
			}
		}
		again := Random(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("seed %d: replay differs: %+v vs %+v", seed, m, again)
		}
	}
	if !sawNoise || !sawHierarchy {
		t.Errorf("200 seeds never drew noise (%v) or hierarchy (%v)", sawNoise, sawHierarchy)
	}
}
