package tune

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
)

func TestFromModelAndDefault(t *testing.T) {
	m := netmodel.Hydra()
	p := FromModel(m)
	if p.Alpha != m.Alpha || p.Beta != m.Beta || p.SendOverhead != m.SendOverhead || p.RecvOverhead != m.RecvOverhead {
		t.Fatalf("FromModel lost constants: %+v vs %+v", p, m)
	}
	if p.Source != "model" {
		t.Fatalf("Source = %q, want model", p.Source)
	}
	d := Default()
	if d.Source != "default" {
		t.Fatalf("Default Source = %q", d.Source)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	bad := []Profile{
		{Alpha: -1, Beta: 1e-10},
		{Alpha: 1e-6, Beta: 0},
		{Alpha: 1e-6, Beta: 1e-10, SendOverhead: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
	}
}

// A world carrying a virtual-time model must calibrate deterministically
// from the model, with no wall-clock probes, on every rank.
func TestCalibrateModelFallback(t *testing.T) {
	model := netmodel.Titan()
	var mu sync.Mutex
	got := map[int]Profile{}
	err := mpi.Run(mpi.Config{Procs: 4, Model: model}, func(c *mpi.Comm) error {
		p, err := Calibrate(c)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = p
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range got {
		if p.Source != "model" {
			t.Fatalf("rank %d: Source = %q, want model", r, p.Source)
		}
		if p.Alpha != model.Alpha || p.Beta != model.Beta {
			t.Fatalf("rank %d: constants %+v differ from model %+v", r, p, model)
		}
	}
}

func TestCalibrateSingleRankFallsBackToDefault(t *testing.T) {
	err := mpi.Run(mpi.Config{Procs: 1}, func(c *mpi.Comm) error {
		p, err := Calibrate(c)
		if err != nil {
			return err
		}
		if p.Source != "default" {
			t.Errorf("Source = %q, want default", p.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Live wall-clock calibration: every rank must agree on the measured
// profile and the constants must be physically plausible (finite,
// non-negative, β > 0).
func TestCalibrateLiveAgreement(t *testing.T) {
	var mu sync.Mutex
	got := map[int]Profile{}
	err := mpi.Run(mpi.Config{Procs: 3}, func(c *mpi.Comm) error {
		p, err := Calibrate(c, CalibrateConfig{Probes: 8, LargeBytes: 1 << 16})
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = p
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := got[0]
	if ref.Source != "measured" || ref.Probes != 8 {
		t.Fatalf("rank 0 profile %+v: want measured/8-probe", ref)
	}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{ref.Alpha, ref.Beta, ref.SendOverhead, ref.RecvOverhead} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite constant in %+v", ref)
		}
	}
	for r, p := range got {
		if p != ref {
			t.Fatalf("rank %d profile %+v disagrees with rank 0 %+v", r, p, ref)
		}
	}
}

func TestMachineProfileLifecycle(t *testing.T) {
	ClearMachine()
	t.Cleanup(ClearMachine)
	if _, ok := Machine(); ok {
		t.Fatal("Machine() reported a profile before SetMachine")
	}
	p := Default()
	if err := SetMachine(p); err != nil {
		t.Fatal(err)
	}
	got, ok := Machine()
	if !ok || got != p {
		t.Fatalf("Machine() = %+v, %v; want %+v, true", got, ok, p)
	}
	if err := SetMachine(Profile{Beta: -1}); err == nil {
		t.Fatal("SetMachine accepted an invalid profile")
	}
	ClearMachine()
	if _, ok := Machine(); ok {
		t.Fatal("Machine() reported a profile after ClearMachine")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	p := Profile{Alpha: 1.5e-6, Beta: 8e-11, SendOverhead: 4e-7, RecvOverhead: 4e-7, Source: "measured", Probes: 32}
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("roundtrip: %+v != %+v", got, p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}
