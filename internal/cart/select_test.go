package cart

import (
	"math"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/tune"
	"cartcc/internal/vec"
)

// mooreStats returns (t, C, V, d) of the radius-1 Moore stencil on a 3×3
// torus — the selection-model fixture: t=8 trivial rounds, C=4 combining
// rounds, V=12 blocks, so the families genuinely cross over.
func mooreStats(t *testing.T) (tt, c, v, d int) {
	t.Helper()
	nbh, err := vec.Stencil(2, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	c, v = Predicted(nbh, OpAlltoall, Combining)
	tt, _ = Predicted(nbh, OpAlltoall, Trivial)
	return tt, c, v, 2
}

// TestDecideCrossoverMoore: below the analytic crossover combining wins,
// above it trivial wins, and the crossover itself satisfies the defining
// equation (the two modeled costs tie there).
func TestDecideCrossoverMoore(t *testing.T) {
	tt, c, v, d := mooreStats(t)
	prof := tune.FromModel(netmodel.Hydra())
	small := Decide(OpAlltoall, tt, c, v, d, 8, prof)
	if small.Chosen != Combining {
		t.Errorf("8B blocks: chose %v, want combining (%+v)", small.Chosen, small)
	}
	large := Decide(OpAlltoall, tt, c, v, d, 1<<20, prof)
	if large.Chosen != Trivial {
		t.Errorf("1MiB blocks: chose %v, want trivial (%+v)", large.Chosen, large)
	}
	cross := small.CrossoverBytes
	if math.IsInf(cross, 1) || cross <= 0 {
		t.Fatalf("crossover = %v, want finite positive (V=%d > t=%d)", cross, v, tt)
	}
	at := Decide(OpAlltoall, tt, c, v, d, cross, prof)
	if diff := math.Abs(at.CostTrivial - at.CostCombining); diff > 1e-12 {
		t.Errorf("costs at the crossover differ by %g: %+v", diff, at)
	}
	// Selection must be monotone: combining strictly below, trivial
	// strictly above.
	if below := Decide(OpAlltoall, tt, c, v, d, cross*0.9, prof); below.Chosen != Combining {
		t.Errorf("just below crossover: chose %v", below.Chosen)
	}
	if above := Decide(OpAlltoall, tt, c, v, d, cross*1.1, prof); above.Chosen != Trivial {
		t.Errorf("just above crossover: chose %v", above.Chosen)
	}
}

// TestDecideVolumeFreeCombiningAlwaysWins: when V ≤ t the combining
// schedule saves rounds at no volume penalty, so it wins at every block
// size and the crossover is +Inf (the 1D ±1 stencil: t=2, C=2, V=2, d=1).
func TestDecideVolumeFreeCombiningAlwaysWins(t *testing.T) {
	prof := tune.FromModel(netmodel.Hydra())
	for _, mB := range []float64{1, 1 << 10, 1 << 30} {
		dec := Decide(OpAlltoall, 2, 2, 2, 1, mB, prof)
		if dec.Chosen != Combining {
			t.Errorf("mB=%g: chose %v, want combining (V<=t)", mB, dec.Chosen)
		}
		if !math.IsInf(dec.CrossoverBytes, 1) {
			t.Errorf("mB=%g: crossover = %v, want +Inf", mB, dec.CrossoverBytes)
		}
	}
}

// TestAutoPlanDecidesUnderModel: an Auto plan on a virtual-time world
// resolves through Decide at first Run — small blocks execute the
// combining variant, huge blocks the trivial one — and the Decision
// record is exposed with the model as profile source.
func TestAutoPlanDecidesUnderModel(t *testing.T) {
	cases := []struct {
		m    int
		want Algorithm
	}{
		{1, Combining},
		{1 << 16, Trivial}, // 512 KiB int64 blocks, far above the Hydra crossover
	}
	for _, tc := range cases {
		err := mpi.Run(mpi.Config{Procs: 9, Model: netmodel.Hydra(), Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
			if err != nil {
				return err
			}
			p, err := AlltoallInit(c, tc.m, Auto)
			if err != nil {
				return err
			}
			if _, ok := p.Decision(); ok {
				t.Errorf("m=%d: Decision available before first Run", tc.m)
			}
			if got := p.Effective(); got != Auto {
				t.Errorf("m=%d: Effective before Run = %v, want Auto", tc.m, got)
			}
			send := make([]int64, len(nbh)*tc.m)
			recv := make([]int64, len(nbh)*tc.m)
			if err := Run(p, send, recv); err != nil {
				return err
			}
			dec, ok := p.Decision()
			if !ok {
				t.Fatalf("m=%d: no Decision after Run", tc.m)
			}
			if dec.Chosen != tc.want || p.Effective() != tc.want {
				t.Errorf("m=%d: chose %v (effective %v), want %v — %s", tc.m, dec.Chosen, p.Effective(), tc.want, dec)
			}
			if dec.ProfileSource != "model" {
				t.Errorf("m=%d: profile source %q, want model", tc.m, dec.ProfileSource)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAutoUsesInstalledMachineProfile: without a cost model the selection
// falls back to tune.Machine() — install a profile with absurdly cheap
// latency (trivial should win even at m=1) and verify both the pick and
// the reported provenance; clear it and the built-in default picks
// combining at tiny blocks again.
func TestAutoUsesInstalledMachineProfile(t *testing.T) {
	tune.ClearMachine()
	t.Cleanup(tune.ClearMachine)
	cheapLatency := tune.Profile{Alpha: 0, Beta: 1e-9, SendOverhead: 0, RecvOverhead: 0, Source: "measured"}
	if err := tune.SetMachine(cheapLatency); err != nil {
		t.Fatal(err)
	}
	runOnce := func(wantAlgo Algorithm, wantSource string) error {
		return mpi.Run(mpi.Config{Procs: 9, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
			if err != nil {
				return err
			}
			p, err := AlltoallInit(c, 1, Auto)
			if err != nil {
				return err
			}
			send := make([]int64, len(nbh))
			recv := make([]int64, len(nbh))
			if err := Run(p, send, recv); err != nil {
				return err
			}
			dec, ok := p.Decision()
			if !ok {
				t.Error("no Decision after Run")
				return nil
			}
			if dec.Chosen != wantAlgo {
				t.Errorf("chose %v, want %v (%s)", dec.Chosen, wantAlgo, dec)
			}
			if dec.ProfileSource != wantSource {
				t.Errorf("profile source %q, want %q", dec.ProfileSource, wantSource)
			}
			return nil
		})
	}
	// α = o = 0: messages are free, only volume costs — trivial's V=t
	// beats combining's V=12 at any size.
	if err := runOnce(Trivial, "measured"); err != nil {
		t.Fatal(err)
	}
	tune.ClearMachine()
	// Default constants are latency-heavy: combining wins at m=1.
	if err := runOnce(Combining, "default"); err != nil {
		t.Fatal(err)
	}
}

// TestAutoWithinGateOfBestFixed is the self-tuning gate: executed on the
// hydra model's virtual clock, Auto must come within 1.05x of the faster
// fixed algorithm at every point of the sweep — it may tie the winner,
// never lose the trade. The sweep runs both op families on the 2-d and 3-d
// Moore stencils with int32 blocks from 4 B to 256 KiB, straddling the
// predicted alltoall crossovers (38 125 B at d=2, 22 545 B at d=3), where
// a selector stuck on one family loses by 1.15x to 1.9x. Run with -v to
// print the table.
//
// The 256 KiB points hold about half a gigabyte of buffers across the 27
// ranks, which the race detector's shadow memory multiplies past what a CI
// runner can spare; the schedule executions it would check run under -race
// in every other test, so the sweep runs only in plain builds (CI runs it
// in its non-race gate step).
func TestAutoWithinGateOfBestFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("half a gigabyte of buffers at 256 KiB blocks in -short mode")
	}
	if raceEnabled {
		t.Skip("half a gigabyte of buffers at 256 KiB blocks; the race detector multiplies it")
	}
	const gate, iters = 1.05, 2
	t.Logf("%-10s %2s %9s %12s %12s %12s  %-10s %9s", "op", "d", "m(elems)", "trivial", "combining", "auto", "picked", "auto/best")
	for _, dims := range [][]int{{4, 4}, {3, 3, 3}} {
		d := len(dims)
		nbh, err := vec.Stencil(d, 3, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, m := range []int{1, 256, 4096, 16384, 65536} {
				triv, _ := modelNsPerOp(t, dims, nbh, op, m, iters, nil, Trivial)
				comb, _ := modelNsPerOp(t, dims, nbh, op, m, iters, nil, Combining)
				auto, picked := modelNsPerOp(t, dims, nbh, op, m, iters, nil, Auto)
				ratio := auto / math.Min(triv, comb)
				t.Logf("%-10v %2d %9d %12.0f %12.0f %12.0f  %-10v %9.3f", op, d, m, triv, comb, auto, picked, ratio)
				if ratio > gate {
					t.Errorf("%v d=%d m=%d: Auto picked %v at %.0f ns/op, %.3fx the best fixed algorithm (gate %.2fx)",
						op, d, m, picked, auto, ratio, gate)
				}
			}
		}
	}
}

// TestAutoDecisionMemoized: repeated Runs at one element size decide
// once; the memo is per-element-size, so a different element width
// re-decides.
func TestAutoDecisionMemoized(t *testing.T) {
	err := mpi.Run(mpi.Config{Procs: 9, Model: netmodel.Hydra(), Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
		nbh, err := vec.Stencil(2, 3, -1)
		if err != nil {
			return err
		}
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		// m chosen so int64 blocks sit above the crossover but byte
		// blocks sit below it: the pick must flip with the element size.
		const m = 8192
		p, err := AlltoallInit(c, m, Auto)
		if err != nil {
			return err
		}
		s64 := make([]int64, len(nbh)*m)
		r64 := make([]int64, len(nbh)*m)
		for i := 0; i < 2; i++ {
			if err := Run(p, s64, r64); err != nil {
				return err
			}
		}
		if got := p.Effective(); got != Trivial {
			t.Errorf("int64 blocks (64KiB): effective %v, want trivial", got)
		}
		s8 := make([]byte, len(nbh)*m)
		r8 := make([]byte, len(nbh)*m)
		if err := Run(p, s8, r8); err != nil {
			return err
		}
		if got := p.Effective(); got != Combining {
			t.Errorf("byte blocks (8KiB): effective %v, want combining", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
