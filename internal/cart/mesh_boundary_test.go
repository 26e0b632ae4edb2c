package cart

import (
	"fmt"
	"reflect"
	"testing"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// TestMeshBoundaryAgainstTrivialOracle is the table-driven boundary check
// for non-periodic meshes: on every rank — corners and edges with
// truncated neighborhoods included — the mesh-aware combining plans, run
// pipelined, barriered and as blocking rounds, and the trivial plans must
// leave byte-identical receive buffers. Both
// receive buffers start at the -1 sentinel, so the comparison also pins
// down *which* blocks each algorithm leaves untouched (those whose source
// lies off the grid), not just the delivered payloads.
func TestMeshBoundaryAgainstTrivialOracle(t *testing.T) {
	asym2 := vec.Neighborhood{{0, 0}, {1, 0}, {2, 0}, {0, -1}, {-1, 2}}
	cases := []struct {
		name string
		dims []int
		nbh  func(t *testing.T) vec.Neighborhood
		m    int
	}{
		{"1d line r1", []int{5}, func(t *testing.T) vec.Neighborhood { return mustStencil(t, 1, 3, -1) }, 2},
		{"1d line r2", []int{4}, func(t *testing.T) vec.Neighborhood { return mustStencil(t, 1, 5, -2) }, 1},
		{"2d moore", []int{3, 4}, func(t *testing.T) vec.Neighborhood { return mustStencil(t, 2, 3, -1) }, 2},
		{"2d wide reach", []int{4, 3}, func(t *testing.T) vec.Neighborhood { return mustStencil(t, 2, 5, -2) }, 1},
		{"2d asymmetric", []int{3, 3}, func(t *testing.T) vec.Neighborhood { return asym2 }, 3},
		{"3d moore", []int{3, 2, 3}, func(t *testing.T) vec.Neighborhood { return mustStencil(t, 3, 3, -1) }, 1},
		{"3d von neumann", []int{2, 3, 2}, func(t *testing.T) vec.Neighborhood {
			n, err := vec.VonNeumann(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nbh := tc.nbh(t)
			periods := make([]bool, len(tc.dims))
			runWorld(t, gridSize(tc.dims), func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, tc.dims, periods, nbh, nil)
				if err != nil {
					return err
				}
				for _, opts := range [][]PlanOption{nil, {WithBarrieredPhases()}, {WithBlockingRounds()}} {
					for _, op := range []OpKind{OpAllgather, OpAlltoall} {
						if err := compareMeshToTrivial(c, w, nbh, tc.m, op, opts...); err != nil {
							return err
						}
					}
				}
				return nil
			})
			// The cases are chosen so truncation actually happens: an
			// all-interior grid would make the comparison vacuous.
			g, err := vec.NewGrid(tc.dims, periods)
			if err != nil {
				t.Fatal(err)
			}
			truncated := false
			for r := 0; r < g.Size() && !truncated; r++ {
				for _, rel := range nbh {
					if _, ok := g.RankDisplace(r, rel); !ok {
						truncated = true
						break
					}
				}
			}
			if !truncated {
				t.Fatalf("case exercises no boundary: every neighbor of every rank is on the grid")
			}
		})
	}
}

// compareMeshToTrivial runs the mesh-aware combining plan, compiled with
// opts, and the trivial plan for one operation in the same world and
// demands identical receive buffers, sentinel blocks included. On ranks
// with truncated neighborhoods it additionally checks that exactly the
// off-grid sources stayed at the sentinel.
func compareMeshToTrivial(c *Comm, w *mpi.Comm, nbh vec.Neighborhood, m int, op OpKind, opts ...PlanOption) error {
	tn := len(nbh)
	var send []int
	if op == OpAllgather {
		send = make([]int, m)
		for e := range send {
			send[e] = encode(w.Rank(), 0, e)
		}
	} else {
		send = make([]int, tn*m)
		for i := 0; i < tn; i++ {
			for e := 0; e < m; e++ {
				send[i*m+e] = encode(w.Rank(), i, e)
			}
		}
	}
	var mesh, triv *Plan
	var err error
	if op == OpAllgather {
		if mesh, err = AllgatherInit(c, m, Combining, opts...); err != nil {
			return err
		}
		if triv, err = AllgatherInit(c, m, Trivial); err != nil {
			return err
		}
	} else {
		if mesh, err = AlltoallInit(c, m, Combining, opts...); err != nil {
			return err
		}
		if triv, err = AlltoallInit(c, m, Trivial); err != nil {
			return err
		}
	}
	sentinel := func() []int {
		b := make([]int, tn*m)
		for i := range b {
			b[i] = -1
		}
		return b
	}
	got, want := sentinel(), sentinel()
	if err := Run(mesh, send, got); err != nil {
		return err
	}
	if err := Run(triv, send, want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rank %d %v (fence %d): mesh=%v trivial=%v", w.Rank(), op, mesh.fence, got, want)
	}
	for i, rel := range nbh {
		_, onGrid := c.Grid().RankDisplace(w.Rank(), rel.Neg())
		for e := 0; e < m; e++ {
			if onGrid && got[i*m+e] == -1 {
				return fmt.Errorf("rank %d %v: block %d from on-grid source never arrived", w.Rank(), op, i)
			}
			if !onGrid && got[i*m+e] != -1 {
				return fmt.Errorf("rank %d %v: block %d has no source but holds %d", w.Rank(), op, i, got[i*m+e])
			}
		}
	}
	return nil
}
