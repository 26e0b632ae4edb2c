package cartcc_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cartcc"
)

// TestFacadeAllCollectiveWrappers drives every collective wrapper of the
// public API once on a 3×3 torus with the 9-point stencil, verifying the
// wiring end to end.
func TestFacadeAllCollectiveWrappers(t *testing.T) {
	nbh, err := cartcc.Stencil(2, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	tn := len(nbh)
	err = cartcc.Launch(9, func(w *cartcc.ProcComm) error {
		c, err := cartcc.NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, cartcc.WithAlgorithm(cartcc.AlgorithmAuto))
		if err != nil {
			return err
		}
		grid := c.Grid()
		expectBlock := func(i int) int {
			src, _ := grid.RankDisplace(w.Rank(), nbh[i].Neg())
			return src
		}

		// Alltoall + AlltoallInit + RunPlan + StartPlan.
		send := make([]int, tn)
		recv := make([]int, tn)
		for i := range send {
			send[i] = w.Rank()
		}
		if err := cartcc.Alltoall(c, send, recv); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != expectBlock(i) {
				return fmt.Errorf("alltoall block %d: %d", i, recv[i])
			}
		}
		plan, err := cartcc.AlltoallInit(c, 1, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		if err := cartcc.RunPlan(plan, send, recv); err != nil {
			return err
		}
		h, err := cartcc.StartPlan(plan, send, recv)
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}

		// Allgather family.
		ag := make([]int, tn)
		if err := cartcc.Allgather(c, []int{w.Rank()}, ag); err != nil {
			return err
		}
		for i := range ag {
			if ag[i] != expectBlock(i) {
				return fmt.Errorf("allgather block %d: %d", i, ag[i])
			}
		}
		if _, err := cartcc.AllgatherInit(c, 1, cartcc.AlgorithmAuto); err != nil {
			return err
		}

		// v variants.
		counts := make([]int, tn)
		displs := make([]int, tn)
		for i := range counts {
			counts[i] = 1
			displs[i] = i
		}
		if err := cartcc.Alltoallv(c, send, counts, displs, recv, counts, displs); err != nil {
			return err
		}
		if err := cartcc.Allgatherv(c, []int{w.Rank()}, ag, counts, displs); err != nil {
			return err
		}
		if _, err := cartcc.AlltoallvInit(c, counts, displs, counts, displs, cartcc.AlgorithmAuto); err != nil {
			return err
		}
		if _, err := cartcc.AllgathervInit(c, 1, counts, displs, cartcc.AlgorithmAuto); err != nil {
			return err
		}

		// w variants.
		var sendL, recvL []cartcc.Layout
		for i := 0; i < tn; i++ {
			sendL = append(sendL, cartcc.Contiguous(i, 1))
			recvL = append(recvL, cartcc.Contiguous(i, 1))
		}
		if err := cartcc.Alltoallw(c, send, sendL, recv, recvL); err != nil {
			return err
		}
		if err := cartcc.Allgatherw(c, []int{w.Rank()}, cartcc.Contiguous(0, 1), ag, recvL); err != nil {
			return err
		}
		if _, err := cartcc.AlltoallwInit(c, sendL, recvL, cartcc.AlgorithmAuto); err != nil {
			return err
		}
		if _, err := cartcc.AllgatherwInit(c, cartcc.Contiguous(0, 1), recvL, cartcc.AlgorithmAuto); err != nil {
			return err
		}

		// Reduction.
		sum := make([]float64, 1)
		if err := cartcc.NeighborReduce(c, []float64{1}, sum, cartcc.SumOp); err != nil {
			return err
		}
		if sum[0] != float64(tn) {
			return fmt.Errorf("reduce sum %v", sum[0])
		}
		rp, err := cartcc.NeighborReduceInit(c, 1, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		if err := cartcc.RunReduce(rp, []float64{1}, sum, cartcc.SumOp); err != nil {
			return err
		}

		// Baseline neighborhood collectives over the dist graph.
		g, err := c.DistGraph()
		if err != nil {
			return err
		}
		if err := cartcc.NeighborAlltoall(g, send, recv); err != nil {
			return err
		}
		req, err := cartcc.IneighborAlltoall(g, send, recv)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if err := cartcc.NeighborAlltoallv(g, send, counts, displs, recv, counts, displs); err != nil {
			return err
		}
		if err := cartcc.NeighborAlltoallw(g, send, sendL, recv, recvL); err != nil {
			return err
		}
		if err := cartcc.NeighborAllgather(g, []int{w.Rank()}, ag); err != nil {
			return err
		}
		req2, err := cartcc.IneighborAllgather(g, []int{w.Rank()}, ag)
		if err != nil {
			return err
		}
		if _, err := req2.Wait(); err != nil {
			return err
		}

		// Global collectives.
		bc := []int{0}
		if w.Rank() == 0 {
			bc[0] = 42
		}
		if err := cartcc.Bcast(w, bc, 0); err != nil {
			return err
		}
		if bc[0] != 42 {
			return fmt.Errorf("bcast %d", bc[0])
		}
		all := make([]int, 9)
		if err := cartcc.GlobalAllgather(w, []int{w.Rank()}, all); err != nil {
			return err
		}
		var gat []int
		if w.Rank() == 0 {
			gat = make([]int, 9)
		}
		if err := cartcc.GlobalGather(w, []int{w.Rank()}, gat, 0); err != nil {
			return err
		}
		a2a := make([]int, 9)
		src2 := make([]int, 9)
		for i := range src2 {
			src2[i] = w.Rank()*100 + i
		}
		if err := cartcc.GlobalAlltoall(w, src2, a2a); err != nil {
			return err
		}
		for r := 0; r < 9; r++ {
			if a2a[r] != r*100+w.Rank() {
				return fmt.Errorf("global alltoall %v", a2a)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHelpersAndGenerators(t *testing.T) {
	if nbh, err := cartcc.Moore(2, 1); err != nil || len(nbh) != 9 {
		t.Errorf("Moore: %v %v", nbh, err)
	}
	if nbh, err := cartcc.VonNeumann(2, 1); err != nil || len(nbh) != 5 {
		t.Errorf("VonNeumann: %v %v", nbh, err)
	}
	if nbh, err := cartcc.Star(2, 2); err != nil || len(nbh) != 9 {
		t.Errorf("Star: %v %v", nbh, err)
	}
	dims, err := cartcc.DimsCreate(12, 2)
	if err != nil || !reflect.DeepEqual(dims, []int{4, 3}) {
		t.Errorf("DimsCreate: %v %v", dims, err)
	}
	if n, err := cartcc.Decompose(12, 4); err != nil || n != 3 {
		t.Errorf("Decompose: %d %v", n, err)
	}
}

func TestFacadeFlatCreateAndHelpers(t *testing.T) {
	err := cartcc.Launch(4, func(w *cartcc.ProcComm) error {
		flat := []int{0, 1, 1, 0}
		c, err := cartcc.NeighborhoodCreateFlat(w, 2, []int{2, 2}, nil, flat, nil, cartcc.WithReorder())
		if err != nil {
			return err
		}
		if c.NeighborCount() != 2 {
			return fmt.Errorf("t=%d", c.NeighborCount())
		}
		in, out, err := c.RelativeShift(cartcc.Vec{0, 1})
		if err != nil || in < 0 || out < 0 {
			return fmt.Errorf("shift %d %d %v", in, out, err)
		}
		if _, _, err := c.RelativeRank(cartcc.Vec{1, 1}); err != nil {
			return err
		}
		if _, err := c.RelativeCoord(out); err != nil {
			return err
		}
		sources, _, targets, _ := c.NeighborGet()
		if len(sources) != 2 || len(targets) != 2 {
			return fmt.Errorf("NeighborGet %v %v", sources, targets)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMeshExchangers(t *testing.T) {
	err := cartcc.Launch(4, func(w *cartcc.ProcComm) error {
		g, err := cartcc.NewGrid2D[float64](2, 2, 1)
		if err != nil {
			return err
		}
		ex, err := cartcc.NewExchanger2DOn(w, []int{2, 2}, []bool{false, false}, g, true, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		if err := cartcc.Exchange2D(ex, g); err != nil {
			return err
		}
		g3, err := cartcc.NewGrid3D[float64](2, 2, 2, 1)
		if err != nil {
			return err
		}
		// 3-D needs 8 ranks; just construct on a degenerate 1-proc-dims
		// check is invalid here, so only validate the error path.
		if _, err := cartcc.NewExchanger3DOn(w, []int{2, 2}, nil, g3, true, cartcc.Trivial); err == nil {
			return fmt.Errorf("bad 3-D dims accepted")
		}
		// Two-phase exchangers.
		tp, err := cartcc.NewTwoPhaseExchanger2D(w, []int{2, 2}, g, cartcc.Combining)
		if err != nil {
			return err
		}
		if err := cartcc.ExchangeTwoPhase2D(tp, g); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = cartcc.Launch(8, func(w *cartcc.ProcComm) error {
		g3, err := cartcc.NewGrid3D[float64](2, 2, 2, 1)
		if err != nil {
			return err
		}
		ex3, err := cartcc.NewExchanger3D(w, []int{2, 2, 2}, g3, true, cartcc.Combining)
		if err != nil {
			return err
		}
		if err := cartcc.Exchange3D(ex3, g3); err != nil {
			return err
		}
		tp3, err := cartcc.NewTwoPhaseExchanger3D(w, []int{2, 2, 2}, g3, cartcc.Combining)
		if err != nil {
			return err
		}
		if err := cartcc.ExchangeTwoPhase3D(tp3, g3); err != nil {
			return err
		}
		cartcc.Heat7(g3, g3, 0) // r=0: dst == src is safe (identity)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeKernels(t *testing.T) {
	err := cartcc.Launch(1, func(w *cartcc.ProcComm) error {
		g, _ := cartcc.NewGrid2D[uint8](4, 4, 1)
		dst, _ := cartcc.NewGrid2D[uint8](4, 4, 1)
		g.Set(1, 1, 1)
		g.Set(1, 2, 1)
		g.Set(2, 1, 1)
		g.Set(2, 2, 1) // block: still life
		cartcc.LifeStep(dst, g)
		for i := 1; i <= 2; i++ {
			for j := 1; j <= 2; j++ {
				if dst.At(i, j) != 1 {
					return fmt.Errorf("block died at (%d,%d)", i, j)
				}
			}
		}
		f, _ := cartcc.NewGrid3D[float64](2, 2, 2, 1)
		fd, _ := cartcc.NewGrid3D[float64](2, 2, 2, 1)
		cartcc.Heat27(fd, f, 0.1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAutoSelectionAndPlanCache exercises the self-tuning surface
// end to end through the public API: an AlgorithmAuto plan decides after
// its first execution and exposes the Decision record; a second
// identical *Init binds from the shared plan cache (FromCache reports
// it, the hit counter increments and the miss counter does not move);
// and the tuning helpers (Calibrate under a cost model, profile
// install/clear, DecideAlgorithm) round-trip.
func TestFacadeAutoSelectionAndPlanCache(t *testing.T) {
	cartcc.ResetPlanCache()
	t.Cleanup(cartcc.ResetPlanCache)
	nbh, err := cartcc.Stencil(2, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := cartcc.ModelPreset("hydra")
	if err != nil {
		t.Fatal(err)
	}
	err = cartcc.Run(cartcc.RunConfig{Procs: 9, Model: model, Timeout: time.Minute}, func(w *cartcc.ProcComm) error {
		c, err := cartcc.NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		first, err := cartcc.AlltoallInit(c, 4, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		send := make([]int64, len(nbh)*4)
		recv := make([]int64, len(nbh)*4)
		if err := cartcc.RunPlan(first, send, recv); err != nil {
			return err
		}
		dec, ok := first.Decision()
		if !ok {
			return fmt.Errorf("Auto plan exposes no Decision after Run")
		}
		if dec.Chosen != cartcc.Combining || first.Effective() != cartcc.Combining {
			return fmt.Errorf("32B blocks under hydra: chose %v (effective %v), want combining", dec.Chosen, first.Effective())
		}
		if err := cartcc.Barrier(w); err != nil {
			return err
		}
		// The second identical Init must be a cache hit, not a recompile.
		before := cartcc.SnapshotPlanCache()
		second, err := cartcc.AlltoallInit(c, 4, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		if !second.FromCache() {
			return fmt.Errorf("second identical AlltoallInit recompiled instead of binding from cache")
		}
		after := cartcc.SnapshotPlanCache()
		if after.Hits <= before.Hits {
			return fmt.Errorf("plan-cache hits did not increment: %d -> %d", before.Hits, after.Hits)
		}
		if after.Misses != before.Misses {
			return fmt.Errorf("second Init recorded a miss: %d -> %d", before.Misses, after.Misses)
		}
		if err := cartcc.RunPlan(second, send, recv); err != nil {
			return err
		}
		// Calibrate under the virtual-time model returns the model's
		// constants on every rank, deterministically.
		prof, err := cartcc.Calibrate(w)
		if err != nil {
			return err
		}
		if prof.Source != "model" || prof.Alpha != model.Alpha {
			return fmt.Errorf("calibration under model: %+v", prof)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Profile helpers (outside the world: process-global state).
	def := cartcc.DefaultMachineProfile()
	if def.Beta <= 0 {
		t.Fatalf("default profile has no bandwidth term: %+v", def)
	}
	if err := cartcc.SetMachineProfile(def); err != nil {
		t.Fatal(err)
	}
	if got, ok := cartcc.MachineProfileInstalled(); !ok || got.Alpha != def.Alpha {
		t.Fatalf("installed profile did not round-trip: %+v ok=%v", got, ok)
	}
	cartcc.ClearMachineProfile()
	if _, ok := cartcc.MachineProfileInstalled(); ok {
		t.Fatal("profile still installed after ClearMachineProfile")
	}
	// The pure selection model: the Moore fixture crosses over, so tiny
	// blocks pick combining and huge blocks pick trivial.
	if d := cartcc.DecideAlgorithm(cartcc.OpAlltoall, 8, 4, 12, 2, 8, def); d.Chosen != cartcc.Combining {
		t.Errorf("DecideAlgorithm 8B: %v, want combining (%s)", d.Chosen, d)
	}
	if d := cartcc.DecideAlgorithm(cartcc.OpAlltoall, 8, 4, 12, 2, 1<<20, def); d.Chosen != cartcc.Trivial {
		t.Errorf("DecideAlgorithm 1MiB: %v, want trivial (%s)", d.Chosen, d)
	}
}

func TestFacadeMeshAlltoallInit(t *testing.T) {
	nbh, _ := cartcc.Stencil(1, 3, -1)
	err := cartcc.Launch(4, func(w *cartcc.ProcComm) error {
		c, err := cartcc.NeighborhoodCreate(w, []int{4}, []bool{false}, nbh, nil)
		if err != nil {
			return err
		}
		p, err := cartcc.AlltoallInit(c, 2, cartcc.Combining)
		if err != nil {
			return err
		}
		send := make([]int, 6)
		recv := make([]int, 6)
		return cartcc.RunPlan(p, send, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
}
