package cart

import (
	"fmt"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/vec"
)

// Ablation benchmarks for the design choices called out in DESIGN.md.

// BenchmarkScheduleComputation verifies the O(td) claim of Proposition
// 3.1 in practice: schedule construction cost for growing neighborhoods.
func BenchmarkScheduleComputation(b *testing.B) {
	for _, dn := range [][2]int{{3, 3}, {4, 4}, {5, 5}} {
		nbh, err := vec.Stencil(dn[0], dn[1], -1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alltoall_d%d_n%d_t%d", dn[0], dn[1], len(nbh)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := AlltoallSchedule(nbh); s.Rounds == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
		b.Run(fmt.Sprintf("allgather_d%d_n%d_t%d", dn[0], dn[1], len(nbh)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := AllgatherSchedule(nbh); s.Rounds == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkAblationTreeOrder quantifies the allgather dimension-order
// choice (Figure 2): tree volume and construction cost for the paper's
// increasing-C_k order vs. the natural and the worst (decreasing) order,
// on the asymmetric Figure 2 neighborhood scaled up.
func BenchmarkAblationTreeOrder(b *testing.B) {
	// A neighborhood with strongly skewed C_k: many distinct offsets in
	// dimension 0, few in the others.
	var nbh vec.Neighborhood
	for x := -4; x <= 4; x++ {
		if x != 0 {
			nbh = append(nbh, vec.Vec{x, 1, 1})
		}
	}
	orders := map[string][]int{
		"increasingCk": nil, // the paper's heuristic
		"natural":      {0, 1, 2},
		"decreasingCk": {0, 2, 1},
	}
	for name, ord := range orders {
		ord := ord
		b.Run(name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				tr := BuildAllgatherTree(nbh, ord)
				edges = tr.Edges
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkAblationBlockingRounds compares the same message-combining
// schedule executed phase-concurrently (Listing 5) against sequential
// blocking rounds, under the Hydra cost model — the execution-style
// choice the paper's trivial-vs-baseline observation hinges on.
func BenchmarkAblationBlockingRounds(b *testing.B) {
	for _, style := range []string{"phased", "blocking"} {
		style := style
		b.Run(style, func(b *testing.B) {
			vt := benchPlanVTime(b, style == "blocking")
			b.ReportMetric(vt*1e6, "vus/op")
		})
	}
}

func benchPlanVTime(b *testing.B, blocking bool) float64 {
	b.Helper()
	nbh, err := vec.Stencil(3, 3, -1)
	if err != nil {
		b.Fatal(err)
	}
	var vtime float64
	err = mpi.Run(mpi.Config{Procs: 27, Model: netmodel.Hydra(), Seed: 1, Timeout: time.Minute}, func(w *mpi.Comm) error {
		var opts []PlanOption
		if blocking {
			opts = append(opts, WithBlockingRounds())
		}
		c, err := NeighborhoodCreate(w, []int{3, 3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, 10, Combining, opts...)
		if err != nil {
			return err
		}
		send := make([]int32, len(nbh)*10)
		recv := make([]int32, len(nbh)*10)
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		t0 := w.VTime()
		for i := 0; i < b.N; i++ {
			if err := Run(plan, send, recv); err != nil {
				return err
			}
		}
		el := []float64{w.VTime() - t0}
		if err := mpi.Allreduce(w, el, el, mpi.MaxOp[float64]); err != nil {
			return err
		}
		if w.Rank() == 0 {
			vtime = el[0] / float64(b.N)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return vtime
}

// BenchmarkIsomorphismDetection measures the O(t) collective check of
// Section 2.2 at communicator-creation time.
func BenchmarkIsomorphismDetection(b *testing.B) {
	nbh, err := vec.Stencil(3, 5, -1) // t = 125
	if err != nil {
		b.Fatal(err)
	}
	dims := []int{3, 3, 3}
	err = mpi.Run(mpi.Config{Procs: 27, Timeout: time.Minute}, func(w *mpi.Comm) error {
		grid, _ := vec.NewGrid(dims, nil)
		targets := make([]int, len(nbh))
		for i, rel := range nbh {
			targets[i], _ = grid.RankDisplace(w.Rank(), rel)
		}
		for i := 0; i < b.N; i++ {
			_, detected, err := DetectCartesian(w, dims, nil, targets)
			if err != nil {
				return err
			}
			if !detected {
				return fmt.Errorf("detection failed")
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReorderHierarchical quantifies topology-aware rank reordering
// (the paper's reorder flag) on a two-level machine: the direct sparse
// exchange with 16 kB blocks, identity vs node-blocked mapping.
func BenchmarkReorderHierarchical(b *testing.B) {
	nbh, err := vec.Stencil(2, 3, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, reorder := range []bool{false, true} {
		reorder := reorder
		name := "identity"
		if reorder {
			name = "blocked"
		}
		b.Run(name, func(b *testing.B) {
			model := netmodel.Hydra()
			model.Hierarchy = &netmodel.Hierarchy{CoresPerNode: 4, IntraAlpha: 0.05e-6, IntraBeta: 8e-13}
			var vt float64
			err := mpi.Run(mpi.Config{Procs: 64, Model: model, Seed: 1, Timeout: time.Minute}, func(w *mpi.Comm) error {
				var opts []Option
				if reorder {
					opts = append(opts, WithReorder())
				}
				c, err := NeighborhoodCreate(w, []int{8, 8}, nil, nbh, nil, opts...)
				if err != nil {
					return err
				}
				g, err := c.DistGraph()
				if err != nil {
					return err
				}
				const m = 4000
				send := make([]int32, len(nbh)*m)
				recv := make([]int32, len(nbh)*m)
				if err := mpi.Barrier(c.Base()); err != nil {
					return err
				}
				t0 := w.VTime()
				for i := 0; i < b.N; i++ {
					if err := mpi.NeighborAlltoall(g, send, recv); err != nil {
						return err
					}
				}
				el := []float64{w.VTime() - t0}
				if err := mpi.Allreduce(c.Base(), el, el, mpi.MaxOp[float64]); err != nil {
					return err
				}
				if w.Rank() == 0 {
					vt = el[0] / float64(b.N)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vt*1e6, "vus/op")
		})
	}
}

// BenchmarkPlanCompilation measures compiling the symbolic schedule into
// an executable plan (rank resolution + composite construction).
func BenchmarkPlanCompilation(b *testing.B) {
	nbh, err := vec.Stencil(5, 3, -1) // t = 243
	if err != nil {
		b.Fatal(err)
	}
	err = mpi.Run(mpi.Config{Procs: 32, Timeout: time.Minute}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{2, 2, 2, 2, 2}, nil, nbh, nil)
		if err != nil {
			return err
		}
		if w.Rank() != 0 {
			return nil
		}
		sched := AlltoallSchedule(nbh)
		geom := uniformGeometry(OpAlltoall, 10)
		for i := 0; i < b.N; i++ {
			if _, err := c.compile(sched, geom); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
