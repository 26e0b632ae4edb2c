package cart

import (
	"fmt"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// TestPredictedVsObserved is the schedule-accounting invariant of the
// observability layer: on a torus, every rank's observed execution must
// reproduce the paper's analytic quantities exactly — rounds executed ==
// C, blocks forwarded == V — for the combining schedules, and t rounds /
// t blocks for the trivial schedule. Three neighborhood shapes (Moore,
// von Neumann/star, and an asymmetric hand-built stencil), both
// collective families, both algorithms, three executions each so the
// per-execution scaling is checked too.
func TestPredictedVsObserved(t *testing.T) {
	moore, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	von, err := vec.VonNeumann(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	asym := vec.Neighborhood{{1, 0}, {2, 0}, {0, 1}, {-1, -1}, {1, 2}}
	shapes := []struct {
		name string
		nbh  vec.Neighborhood
	}{
		{"moore", moore},
		{"vonneumann", von},
		{"asymmetric", asym},
	}
	const execs = 3
	for _, shape := range shapes {
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, algo := range []Algorithm{Trivial, Combining} {
				shape, op, algo := shape, op, algo
				t.Run(shape.name+"/"+op.String()+"/"+algoName(algo), func(t *testing.T) {
					t.Parallel()
					nbh := shape.nbh
					predC, predV := Predicted(nbh, op, algo)
					err := mpi.Run(mpi.Config{Procs: 16, Timeout: time.Minute}, func(w *mpi.Comm) error {
						c, err := NeighborhoodCreate(w, []int{4, 4}, []bool{true, true}, nbh, nil, WithAlgorithm(algo))
						if err != nil {
							return err
						}
						m := 8
						var plan *Plan
						send := make([]int32, len(nbh)*m)
						recv := make([]int32, len(nbh)*m)
						if op == OpAlltoall {
							plan, err = AlltoallInit(c, m, algo)
						} else {
							plan, err = AllgatherInit(c, m, algo)
							send = send[:m]
						}
						if err != nil {
							return err
						}
						for i := 0; i < execs; i++ {
							if err := Run(plan, send, recv); err != nil {
								return err
							}
						}
						s := plan.Stats()
						if err := s.Check(); err != nil {
							return err
						}
						if s.Executions != execs {
							t.Errorf("rank %d: %d executions recorded, want %d", w.Rank(), s.Executions, execs)
						}
						// Torus: every rank is interior, so the per-execution
						// observation must hit the paper's exact C and V.
						if !s.Interior() {
							t.Errorf("rank %d: torus rank not interior: planned rounds %d (C=%d), planned blocks %d (V=%d)",
								w.Rank(), s.PlannedRounds, s.PredictedRounds, s.PlannedBlocks, s.PredictedVolume)
						}
						if s.PredictedRounds != predC || s.PredictedVolume != predV {
							t.Errorf("rank %d: plan predicts C=%d V=%d; analytic Predicted() gives C=%d V=%d",
								w.Rank(), s.PredictedRounds, s.PredictedVolume, predC, predV)
						}
						if s.RoundsActive != execs*int64(predC) {
							t.Errorf("rank %d: observed rounds %d != %d executions × C=%d",
								w.Rank(), s.RoundsActive, execs, predC)
						}
						if s.BlocksForwarded != execs*int64(predV) {
							t.Errorf("rank %d: observed volume %d blocks != %d executions × V=%d",
								w.Rank(), s.BlocksForwarded, execs, predV)
						}
						if s.ElementsSent != execs*int64(predV*m) {
							t.Errorf("rank %d: observed %d elements != %d executions × V·m=%d",
								w.Rank(), s.ElementsSent, execs, predV*m)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPredictedVsObservedMesh: on a non-periodic mesh every rank's plan
// records the interior C and V; interior ranks plan exactly those and
// boundary ranks strictly less, and Check's planned-vs-observed equality
// holds rank by rank with non-vacuous block counts.
func TestPredictedVsObservedMesh(t *testing.T) {
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op     OpKind
		blocks int
	}{{OpAlltoall, 12}, {OpAllgather, 8}} {
		err = mpi.Run(mpi.Config{Procs: 16, Timeout: time.Minute}, func(w *mpi.Comm) error {
			c, err := NeighborhoodCreate(w, []int{4, 4}, []bool{false, false}, nbh, nil, WithAlgorithm(Combining))
			if err != nil {
				return err
			}
			const m = 4
			init, sendLen := AlltoallInit, len(nbh)*m
			if tc.op == OpAllgather {
				init, sendLen = AllgatherInit, m
			}
			plan, err := init(c, m, Combining)
			if err != nil {
				return err
			}
			send := make([]int32, sendLen)
			recv := make([]int32, len(nbh)*m)
			for i := 0; i < 2; i++ {
				if err := Run(plan, send, recv); err != nil {
					return err
				}
			}
			s := plan.Stats()
			if err := s.Check(); err != nil {
				return err
			}
			predC, predV := Predicted(nbh, tc.op, Combining)
			if s.PredictedRounds != predC || s.PredictedVolume != predV {
				return fmt.Errorf("%v rank %d: plan predicts C=%d V=%d, analysis C=%d V=%d",
					tc.op, w.Rank(), s.PredictedRounds, s.PredictedVolume, predC, predV)
			}
			coords := c.Coords()
			interior := coords[0] >= 1 && coords[0] <= 2 && coords[1] >= 1 && coords[1] <= 2
			switch {
			case interior && (!s.Interior() || s.PlannedBlocks != tc.blocks):
				return fmt.Errorf("%v interior rank %d: Interior()=%v, %d planned blocks, want %d",
					tc.op, w.Rank(), s.Interior(), s.PlannedBlocks, tc.blocks)
			case !interior && s.Interior():
				return fmt.Errorf("%v boundary rank %d reports interior bounds", tc.op, w.Rank())
			}
			if s.PlannedMessages > 0 && s.BlocksForwarded == 0 {
				return fmt.Errorf("%v rank %d sends %d messages per execution but forwarded no blocks",
					tc.op, w.Rank(), s.PlannedMessages)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
