package cart

import (
	"fmt"
	"math/rand"
	"testing"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// refReduce computes the expected reduction at rank directly from the
// definition: op over all i of the contribution of source R − N[i].
func refReduce(grid *vec.Grid, nbh vec.Neighborhood, rank, m int, contrib func(rank, e int) int, op func(a, b int) int) ([]int, bool) {
	out := make([]int, m)
	has := false
	for _, rel := range nbh {
		src, ok := grid.RankDisplace(rank, rel.Neg())
		if !ok {
			continue
		}
		for e := 0; e < m; e++ {
			if !has {
				out[e] = contrib(src, e)
			} else {
				out[e] = op(out[e], contrib(src, e))
			}
		}
		has = true
	}
	return out, has
}

func checkReduce(t *testing.T, dims []int, nbh vec.Neighborhood, m int, algo Algorithm) {
	t.Helper()
	contrib := func(rank, e int) int { return rank*1000 + e + 1 }
	op := func(a, b int) int { return a + b }
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil, WithAlgorithm(algo))
		if err != nil {
			return err
		}
		plan, err := NeighborReduceInit(c, m, algo)
		if err != nil {
			return err
		}
		send := make([]int, m)
		for e := range send {
			send[e] = contrib(w.Rank(), e)
		}
		recv := make([]int, m)
		if err := RunReduce(plan, send, recv, op); err != nil {
			return err
		}
		want, _ := refReduce(c.Grid(), nbh, w.Rank(), m, contrib, op)
		for e := range want {
			if recv[e] != want[e] {
				return fmt.Errorf("rank %d algo %v elem %d: got %d want %d (recv=%v want=%v)",
					w.Rank(), algo, e, recv[e], want[e], recv, want)
			}
		}
		return nil
	})
}

func TestNeighborReduceMoore(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining, Auto} {
		checkReduce(t, []int{3, 3}, nbh, 3, algo)
	}
}

func TestNeighborReduce3D(t *testing.T) {
	nbh := mustStencil(t, 3, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkReduce(t, []int{3, 3, 3}, nbh, 2, algo)
	}
}

func TestNeighborReduceAsymmetric(t *testing.T) {
	nbh := mustStencil(t, 2, 4, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkReduce(t, []int{3, 4}, nbh, 2, algo)
	}
}

func TestNeighborReduceFigure2Neighborhood(t *testing.T) {
	nbh := vec.Neighborhood{{-2, 1, 1}, {-1, 1, 1}, {1, 1, 1}, {2, 1, 1}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkReduce(t, []int{5, 3, 3}, nbh, 2, algo)
	}
}

func TestNeighborReduceDuplicatesCountTwice(t *testing.T) {
	// Duplicate offsets contribute once per occurrence (sum semantics).
	nbh := vec.Neighborhood{{1, 0}, {1, 0}, {0, 0}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkReduce(t, []int{3, 3}, nbh, 1, algo)
	}
}

func TestNeighborReduceRandomNeighborhoods(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		nbh := randomNeighborhood(rng)
		d := nbh.Dims()
		dims := make([]int, d)
		for i := range dims {
			dims[i] = rng.Intn(4) + 2
		}
		if gridSize(dims) > 150 {
			continue
		}
		m := rng.Intn(3) + 1
		for _, algo := range []Algorithm{Trivial, Combining} {
			checkReduce(t, dims, nbh, m, algo)
		}
	}
}

func TestNeighborReduceCombiningEconomics(t *testing.T) {
	// The dual of Proposition 3.3: combining reduction runs in C rounds
	// with tree-edge volume, against t rounds trivially.
	nbh := mustStencil(t, 3, 3, -1)
	runWorld(t, 27, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		comb, err := NeighborReduceInit(c, 1, Combining)
		if err != nil {
			return err
		}
		if comb.Rounds() != 6 || comb.Volume() != 26 {
			return fmt.Errorf("combining reduce: %d rounds volume %d, want 6/26", comb.Rounds(), comb.Volume())
		}
		triv, err := NeighborReduceInit(c, 1, Trivial)
		if err != nil {
			return err
		}
		if triv.Rounds() != 26 || triv.Volume() != 26 {
			return fmt.Errorf("trivial reduce: %d rounds volume %d, want 26/26", triv.Rounds(), triv.Volume())
		}
		if comb.algo != Combining || triv.algo != Trivial {
			return fmt.Errorf("algorithm accessors wrong")
		}
		return nil
	})
}

func TestNeighborReduceConvenienceAndValidation(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		send := []float64{float64(w.Rank())}
		recv := make([]float64, 1)
		if err := NeighborReduce(c, send, recv, func(a, b float64) float64 { return a + b }); err != nil {
			return err
		}
		// Sum of the 9 sources (torus: all ranks appear as sources once
		// each for the Moore neighborhood on a 3x3 torus).
		want := 0.0
		for r := 0; r < 9; r++ {
			want += float64(r)
		}
		if recv[0] != want {
			return fmt.Errorf("rank %d: sum %v, want %v", w.Rank(), recv[0], want)
		}
		if _, err := NeighborReduceInit(c, -1, Trivial); err == nil {
			return fmt.Errorf("negative m accepted")
		}
		p, _ := NeighborReduceInit(c, 4, Trivial)
		if err := RunReduce(p, make([]float64, 2), make([]float64, 4), func(a, b float64) float64 { return a }); err == nil {
			return fmt.Errorf("short send buffer accepted")
		}
		return nil
	})
}

func TestNeighborReduceMaxOp(t *testing.T) {
	// Non-sum operator over an asymmetric neighborhood.
	nbh := vec.Neighborhood{{0, 1}, {2, -1}, {1, 1}}
	contribMax := func(rank, e int) int { return (rank*7)%13 + e }
	opMax := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	dims := []int{3, 4}
	runWorld(t, 12, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil, WithAlgorithm(Combining))
		if err != nil {
			return err
		}
		send := []int{contribMax(w.Rank(), 0), contribMax(w.Rank(), 1)}
		recv := make([]int, 2)
		if err := NeighborReduce(c, send, recv, opMax); err != nil {
			return err
		}
		want, _ := refReduce(c.Grid(), nbh, w.Rank(), 2, contribMax, opMax)
		if recv[0] != want[0] || recv[1] != want[1] {
			return fmt.Errorf("rank %d: %v want %v", w.Rank(), recv, want)
		}
		return nil
	})
}

func TestNeighborReduceOnMesh(t *testing.T) {
	// Trivial reduction on a non-periodic mesh: boundary processes combine
	// only their existing sources; a process with no sources leaves recv
	// untouched.
	nbh := vec.Neighborhood{{1}} // source = rank-1... source of block (1) is r-1
	runWorld(t, 4, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{4}, []bool{false}, nbh, nil, WithAlgorithm(Trivial))
		if err != nil {
			return err
		}
		send := []int{w.Rank() + 100}
		recv := []int{-1}
		if err := NeighborReduce(c, send, recv, func(a, b int) int { return a + b }); err != nil {
			return err
		}
		if w.Rank() == 0 {
			if recv[0] != -1 {
				return fmt.Errorf("rank 0 (no source) recv = %d", recv[0])
			}
		} else if recv[0] != w.Rank()-1+100 {
			return fmt.Errorf("rank %d recv = %d", w.Rank(), recv[0])
		}
		return nil
	})
}

func TestNeighborReduceCombiningOnMesh(t *testing.T) {
	// The reversed-tree reduction pruned at the boundary: boundary
	// processes combine only existing sources; contributions without a
	// destination are dropped at the source.
	contrib := func(rank, e int) int { return rank*1000 + e + 1 }
	op := func(a, b int) int { return a + b }
	for _, tc := range []struct {
		dims    []int
		periods []bool
		nbh     vec.Neighborhood
	}{
		{[]int{5}, []bool{false}, mustStencil(t, 1, 3, -1)},
		{[]int{3, 4}, []bool{false, false}, mustStencil(t, 2, 3, -1)},
		{[]int{4, 4}, []bool{false, false}, mustStencil(t, 2, 4, -1)},
		{[]int{3, 4}, []bool{true, false}, mustStencil(t, 2, 3, -1)},
	} {
		tc := tc
		runWorld(t, gridSize(tc.dims), func(w *mpi.Comm) error {
			c, err := NeighborhoodCreate(w, tc.dims, tc.periods, tc.nbh, nil)
			if err != nil {
				return err
			}
			plan, err := NeighborReduceInit(c, 2, Combining)
			if err != nil {
				return err
			}
			send := []int{contrib(w.Rank(), 0), contrib(w.Rank(), 1)}
			recv := []int{-7, -7}
			if err := RunReduce(plan, send, recv, op); err != nil {
				return err
			}
			want, has := refReduce(c.Grid(), tc.nbh, w.Rank(), 2, contrib, op)
			if !has {
				want = []int{-7, -7} // untouched
			}
			for e := range want {
				if recv[e] != want[e] {
					return fmt.Errorf("rank %d dims %v elem %d: got %d want %d",
						w.Rank(), tc.dims, e, recv[e], want[e])
				}
			}
			return nil
		})
	}
}

func TestNeighborReduceMeshRandom(t *testing.T) {
	contrib := func(rank, e int) int { return rank*100 + e }
	op := func(a, b int) int { return a + b }
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 12; trial++ {
		nbh := randomNeighborhood(rng)
		d := nbh.Dims()
		dims := make([]int, d)
		periods := make([]bool, d)
		for i := range dims {
			dims[i] = rng.Intn(4) + 2
			periods[i] = rng.Intn(2) == 0
		}
		if gridSize(dims) > 120 {
			continue
		}
		nbhc := nbh
		dimsC, periodsC := dims, periods
		runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
			c, err := NeighborhoodCreate(w, dimsC, periodsC, nbhc, nil)
			if err != nil {
				return err
			}
			plan, err := NeighborReduceInit(c, 1, Combining)
			if err != nil {
				return err
			}
			send := []int{contrib(w.Rank(), 0)}
			recv := []int{-7}
			if err := RunReduce(plan, send, recv, op); err != nil {
				return err
			}
			want, has := refReduce(c.Grid(), nbhc, w.Rank(), 1, contrib, op)
			if !has {
				want = []int{-7}
			}
			if recv[0] != want[0] {
				return fmt.Errorf("trial rank %d dims %v: got %d want %d (nbh=%v)",
					w.Rank(), dimsC, recv[0], want[0], nbhc)
			}
			return nil
		})
	}
}
