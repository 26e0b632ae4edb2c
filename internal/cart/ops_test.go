package cart

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/vec"
)

// runWorld runs f on p ranks.
func runWorld(t *testing.T, p int, f func(c *mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(mpi.Config{Procs: p, Timeout: 30 * time.Second}, f); err != nil {
		t.Fatal(err)
	}
}

// gridSize multiplies dims.
func gridSize(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

// refAlltoall computes the expected receive buffer of the regular alltoall
// for one rank directly from the definition: block i comes from source
// R − N[i], which filled its send block i with encode(source, i, e).
func refAlltoall(grid *vec.Grid, nbh vec.Neighborhood, rank, m int) []int {
	out := make([]int, len(nbh)*m)
	for i, rel := range nbh {
		src, ok := grid.RankDisplace(rank, rel.Neg())
		if !ok {
			continue
		}
		for e := 0; e < m; e++ {
			out[i*m+e] = encode(src, i, e)
		}
	}
	return out
}

// refAllgather is refAlltoall for the allgather: every source sends the
// same block encode(source, 0, e).
func refAllgather(grid *vec.Grid, nbh vec.Neighborhood, rank, m int) []int {
	out := make([]int, len(nbh)*m)
	for i, rel := range nbh {
		src, ok := grid.RankDisplace(rank, rel.Neg())
		if !ok {
			continue
		}
		for e := 0; e < m; e++ {
			out[i*m+e] = encode(src, 0, e)
		}
	}
	return out
}

// encode builds a distinctive payload value.
func encode(rank, block, elem int) int { return rank*1_000_000 + block*1_000 + elem }

// checkAlltoallOnce creates the neighborhood communicator and verifies one
// alltoall with the given algorithm against the reference.
func checkAlltoallOnce(t *testing.T, dims []int, nbh vec.Neighborhood, m int, algo Algorithm) {
	t.Helper()
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil, WithAlgorithm(algo))
		if err != nil {
			return err
		}
		tn := len(nbh)
		send := make([]int, tn*m)
		for i := 0; i < tn; i++ {
			for e := 0; e < m; e++ {
				send[i*m+e] = encode(w.Rank(), i, e)
			}
		}
		recv := make([]int, tn*m)
		if err := Alltoall(c, send, recv); err != nil {
			return err
		}
		want := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("rank %d (%v, algo %v): recv=%v want=%v", w.Rank(), dims, algo, recv, want)
		}
		return nil
	})
}

// checkAllgatherOnce is checkAlltoallOnce for the allgather.
func checkAllgatherOnce(t *testing.T, dims []int, nbh vec.Neighborhood, m int, algo Algorithm) {
	t.Helper()
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil, WithAlgorithm(algo))
		if err != nil {
			return err
		}
		send := make([]int, m)
		for e := 0; e < m; e++ {
			send[e] = encode(w.Rank(), 0, e)
		}
		recv := make([]int, len(nbh)*m)
		if err := Allgather(c, send, recv); err != nil {
			return err
		}
		want := refAllgather(c.Grid(), nbh, w.Rank(), m)
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("rank %d (%v, algo %v): recv=%v want=%v", w.Rank(), dims, algo, recv, want)
		}
		return nil
	})
}

func TestAlltoall9PointStencil(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining, Auto} {
		checkAlltoallOnce(t, []int{4, 4}, nbh, 3, algo)
	}
}

func TestAllgather9PointStencil(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining, Auto} {
		checkAllgatherOnce(t, []int{4, 4}, nbh, 3, algo)
	}
}

func TestAlltoall27PointStencil(t *testing.T) {
	nbh := mustStencil(t, 3, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAlltoallOnce(t, []int{3, 3, 3}, nbh, 2, algo)
	}
}

func TestAllgather27PointStencil(t *testing.T) {
	nbh := mustStencil(t, 3, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAllgatherOnce(t, []int{3, 3, 3}, nbh, 2, algo)
	}
}

func TestAlltoallAsymmetricStencil(t *testing.T) {
	// n=4, f=-1: offsets {-1,0,1,2}, asymmetric and wrapping heavily on a
	// 3-extent torus (offset 2 ≡ -1: distinct neighbors map to the same
	// process).
	nbh := mustStencil(t, 2, 4, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAlltoallOnce(t, []int{3, 4}, nbh, 2, algo)
	}
}

func TestAllgatherAsymmetricStencil(t *testing.T) {
	nbh := mustStencil(t, 2, 4, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAllgatherOnce(t, []int{3, 4}, nbh, 2, algo)
	}
}

func TestAlltoallFigure2Neighborhood(t *testing.T) {
	nbh := vec.Neighborhood{{-2, 1, 1}, {-1, 1, 1}, {1, 1, 1}, {2, 1, 1}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAlltoallOnce(t, []int{5, 3, 3}, nbh, 2, algo)
	}
}

func TestAllgatherFigure2Neighborhood(t *testing.T) {
	nbh := vec.Neighborhood{{-2, 1, 1}, {-1, 1, 1}, {1, 1, 1}, {2, 1, 1}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAllgatherOnce(t, []int{5, 3, 3}, nbh, 2, algo)
	}
}

func TestAlltoallDuplicateNeighbors(t *testing.T) {
	nbh := vec.Neighborhood{{1, 0}, {1, 0}, {0, 1}, {0, 0}, {0, 0}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAlltoallOnce(t, []int{3, 3}, nbh, 2, algo)
	}
}

func TestAllgatherDuplicateNeighbors(t *testing.T) {
	nbh := vec.Neighborhood{{1, 0}, {1, 0}, {0, 1}, {0, 0}, {0, 0}}
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAllgatherOnce(t, []int{3, 3}, nbh, 2, algo)
	}
}

func TestAlltoallSingleProcessTorus(t *testing.T) {
	// Extent-1 dimensions: every neighbor is the process itself.
	nbh := mustStencil(t, 2, 3, -1)
	for _, algo := range []Algorithm{Trivial, Combining} {
		checkAlltoallOnce(t, []int{1, 1}, nbh, 2, algo)
	}
}

func TestAlltoallEmptyBlocks(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	checkAlltoallOnce(t, []int{3, 3}, nbh, 0, Combining)
}

func TestRandomNeighborhoodsAgainstReference(t *testing.T) {
	// The central property test: for random neighborhoods, grids and block
	// sizes, both algorithms produce exactly the reference exchange.
	rng := rand.New(rand.NewSource(99))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		nbh := randomNeighborhood(rng)
		d := nbh.Dims()
		dims := make([]int, d)
		for i := range dims {
			dims[i] = rng.Intn(4) + 2 // extents 2..5
		}
		if gridSize(dims) > 200 {
			continue
		}
		m := rng.Intn(4) + 1
		for _, algo := range []Algorithm{Trivial, Combining} {
			checkAlltoallOnce(t, dims, nbh, m, algo)
			checkAllgatherOnce(t, dims, nbh, m, algo)
		}
	}
}

func TestMeshTrivialSkipsMissingNeighbors(t *testing.T) {
	// Non-periodic mesh: boundary processes have ProcNull neighbors, the
	// trivial algorithm skips them and leaves the receive blocks untouched.
	nbh := mustStencil(t, 1, 3, -1) // offsets -1, 0, 1
	dims := []int{4}
	runWorld(t, 4, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, []bool{false}, nbh, nil, WithAlgorithm(Trivial))
		if err != nil {
			return err
		}
		send := []int{encode(w.Rank(), 0, 0), encode(w.Rank(), 1, 0), encode(w.Rank(), 2, 0)}
		recv := []int{-1, -1, -1}
		if err := Alltoall(c, send, recv); err != nil {
			return err
		}
		// Block 0 (offset -1) comes from rank+1; block 2 (offset +1) from
		// rank-1; block 1 (offset 0) is the local copy.
		if recv[1] != send[1] {
			return fmt.Errorf("rank %d: self block %v", w.Rank(), recv)
		}
		if w.Rank() < 3 {
			if recv[0] != encode(w.Rank()+1, 0, 0) {
				return fmt.Errorf("rank %d: block 0 = %d", w.Rank(), recv[0])
			}
		} else if recv[0] != -1 {
			return fmt.Errorf("rank 3: block 0 written: %d", recv[0])
		}
		if w.Rank() > 0 {
			if recv[2] != encode(w.Rank()-1, 2, 0) {
				return fmt.Errorf("rank %d: block 2 = %d", w.Rank(), recv[2])
			}
		} else if recv[2] != -1 {
			return fmt.Errorf("rank 0: block 2 written: %d", recv[2])
		}
		return nil
	})
}

func TestCombiningOnMeshes(t *testing.T) {
	// Both families' combining schedules honor the mesh boundary
	// (boundary.go); Auto composes them with the trivial fallback.
	nbh := mustStencil(t, 1, 3, -1)
	runWorld(t, 4, func(w *mpi.Comm) error {
		for _, algo := range []Algorithm{Combining, Auto} {
			c, err := NeighborhoodCreate(w, []int{4}, []bool{false}, nbh, nil, WithAlgorithm(algo))
			if err != nil {
				return err
			}
			send := []int{encode(w.Rank(), 0, 0), encode(w.Rank(), 1, 0), encode(w.Rank(), 2, 0)}
			recv := []int{-1, -1, -1}
			if err := Alltoall(c, send, recv); err != nil {
				return fmt.Errorf("mesh %v alltoall: %w", algo, err)
			}
			want := refAlltoall(c.Grid(), nbh, w.Rank(), 1)
			for i, rel := range nbh {
				if _, ok := c.Grid().RankDisplace(w.Rank(), rel.Neg()); !ok {
					want[i] = -1
				}
			}
			if !reflect.DeepEqual(recv, want) {
				return fmt.Errorf("mesh %v alltoall: %v want %v", algo, recv, want)
			}
			ag := []int{-1, -1, -1}
			if err := Allgather(c, []int{encode(w.Rank(), 0, 0)}, ag); err != nil {
				return fmt.Errorf("mesh %v allgather: %w", algo, err)
			}
			wantAG := refAllgather(c.Grid(), nbh, w.Rank(), 1)
			for i, rel := range nbh {
				if _, ok := c.Grid().RankDisplace(w.Rank(), rel.Neg()); !ok {
					wantAG[i] = -1
				}
			}
			if !reflect.DeepEqual(ag, wantAG) {
				return fmt.Errorf("mesh %v allgather: %v want %v", algo, ag, wantAG)
			}
		}
		return nil
	})
}

func TestNeighborhoodCreateValidation(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{0, 1}}
		if _, err := NeighborhoodCreate(w, []int{2, 3}, nil, nbh, nil); err == nil {
			return fmt.Errorf("grid/comm size mismatch accepted")
		}
		if _, err := NeighborhoodCreate(w, []int{2, 2}, nil, vec.Neighborhood{{1}}, nil); err == nil {
			return fmt.Errorf("wrong-arity neighborhood accepted")
		}
		if _, err := NeighborhoodCreate(w, []int{2, 2}, nil, nbh, []int{1, 2}); err == nil {
			return fmt.Errorf("wrong-length weights accepted")
		}
		return nil
	})
}

func TestNeighborhoodCreateDetectsNonIsomorphic(t *testing.T) {
	// Rank 2 passes a different offset list: the collective O(t) check of
	// Section 2.2 must reject it on every rank.
	err := mpi.Run(mpi.Config{Procs: 4, Timeout: 10 * time.Second}, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{0, 1}, {1, 0}}
		if w.Rank() == 2 {
			nbh = vec.Neighborhood{{0, 1}, {1, 1}}
		}
		_, err := NeighborhoodCreate(w, []int{2, 2}, nil, nbh, nil)
		if err == nil {
			return fmt.Errorf("non-isomorphic neighborhood accepted on rank %d", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodCreateDetectsSizeMismatch(t *testing.T) {
	err := mpi.Run(mpi.Config{Procs: 2, Timeout: 10 * time.Second}, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{0, 1}}
		if w.Rank() == 1 {
			nbh = vec.Neighborhood{{0, 1}, {1, 0}}
		}
		_, err := NeighborhoodCreate(w, []int{1, 2}, nil, nbh, nil)
		if err == nil {
			return fmt.Errorf("size-mismatched neighborhood accepted on rank %d", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodCreateFlat(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		flat := []int{0, 1, 1, 0, -1, -1}
		c, err := NeighborhoodCreateFlat(w, 2, []int{2, 2}, nil, flat, nil)
		if err != nil {
			return err
		}
		if c.NeighborCount() != 3 {
			return fmt.Errorf("t = %d", c.NeighborCount())
		}
		want := vec.Neighborhood{{0, 1}, {1, 0}, {-1, -1}}
		if !c.Neighborhood().Equal(want) {
			return fmt.Errorf("neighborhood %v", c.Neighborhood())
		}
		return nil
	})
}

func TestHelperFunctions(t *testing.T) {
	runWorld(t, 12, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{0, 1}, {1, -1}}
		c, err := NeighborhoodCreate(w, []int{3, 4}, nil, nbh, []int{5, 7})
		if err != nil {
			return err
		}
		// RelativeRank / RelativeShift consistency.
		rel := vec.Vec{1, -1}
		out, ok, err := c.RelativeRank(rel)
		if err != nil || !ok {
			return fmt.Errorf("RelativeRank: %v %v", ok, err)
		}
		in, out2, err := c.RelativeShift(rel)
		if err != nil || out2 != out {
			return fmt.Errorf("RelativeShift out %d vs %d (%v)", out2, out, err)
		}
		// The shift identity: my out-neighbor's in-rank for rel is me.
		coords := c.Coords()
		wantOut, _ := c.Grid().RankDisplace(w.Rank(), rel)
		wantIn, _ := c.Grid().RankDisplace(w.Rank(), rel.Neg())
		if out != wantOut || in != wantIn {
			return fmt.Errorf("coords %v: shift (%d,%d), want (%d,%d)", coords, in, out, wantIn, wantOut)
		}
		// RelativeCoord inverts RelativeRank (canonically).
		back, err := c.RelativeCoord(out)
		if err != nil {
			return err
		}
		r2, ok, err := c.RelativeRank(back)
		if err != nil || !ok || r2 != out {
			return fmt.Errorf("RelativeCoord(%d) = %v, maps back to %d", out, back, r2)
		}
		// NeighborGet format.
		sources, sw, targets, tw := c.NeighborGet()
		if len(sources) != 2 || len(targets) != 2 {
			return fmt.Errorf("NeighborGet lengths %d/%d", len(sources), len(targets))
		}
		if sw[0] != 5 || tw[1] != 7 {
			return fmt.Errorf("weights %v %v", sw, tw)
		}
		if c.NeighborCount() != 2 {
			return fmt.Errorf("NeighborCount = %d", c.NeighborCount())
		}
		// Errors on bad arity.
		if _, _, err := c.RelativeRank(vec.Vec{1}); err == nil {
			return fmt.Errorf("bad arity accepted by RelativeRank")
		}
		if _, _, err := c.RelativeShift(vec.Vec{1, 2, 3}); err == nil {
			return fmt.Errorf("bad arity accepted by RelativeShift")
		}
		if _, err := c.RelativeCoord(99); err == nil {
			return fmt.Errorf("bad rank accepted by RelativeCoord")
		}
		return nil
	})
}

func TestPlanReuse(t *testing.T) {
	// A plan executes correctly many times (persistent-collective usage),
	// and the one-shot entry point reuses the cached plan.
	nbh := mustStencil(t, 2, 3, -1)
	dims := []int{3, 3}
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, 2, Combining)
		if err != nil {
			return err
		}
		for iter := 0; iter < 5; iter++ {
			tn := len(nbh)
			send := make([]int, tn*2)
			for i := 0; i < tn; i++ {
				for e := 0; e < 2; e++ {
					send[i*2+e] = encode(w.Rank(), i, e) + iter
				}
			}
			recv := make([]int, tn*2)
			if err := Run(plan, send, recv); err != nil {
				return err
			}
			want := refAlltoall(c.Grid(), nbh, w.Rank(), 2)
			for j := range want {
				want[j] += iter
			}
			if !reflect.DeepEqual(recv, want) {
				return fmt.Errorf("iter %d rank %d: %v != %v", iter, w.Rank(), recv, want)
			}
		}
		return nil
	})
}

func TestPlanAccessors(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		p, err := AlltoallInit(c, 1, Combining)
		if err != nil {
			return err
		}
		if p.Rounds() != 4 || p.Volume() != 12 || p.Algorithm() != Combining || p.op != OpAlltoall {
			return fmt.Errorf("plan accessors: rounds=%d vol=%d algo=%v op=%v", p.Rounds(), p.Volume(), p.Algorithm(), p.op)
		}
		tp, err := AllgatherInit(c, 1, Trivial)
		if err != nil {
			return err
		}
		if tp.Rounds() != 8 || tp.op != OpAllgather {
			return fmt.Errorf("trivial plan: rounds=%d op=%v", tp.Rounds(), tp.op)
		}
		return nil
	})
}

func TestPlanBufferLengthValidation(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		p, err := AlltoallInit(c, 2, Trivial)
		if err != nil {
			return err
		}
		if err := Run(p, make([]int, 5), make([]int, 18)); err == nil {
			return fmt.Errorf("short send buffer accepted")
		}
		if err := Run(p, make([]int, 18), make([]int, 17)); err == nil {
			return fmt.Errorf("short recv buffer accepted")
		}
		return nil
	})
}

func TestAlltoallArgumentValidation(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		if err := Alltoall(c, make([]int, 10), make([]int, 10)); err == nil {
			return fmt.Errorf("non-divisible send length accepted")
		}
		if _, err := AlltoallInit(c, -1, Trivial); err == nil {
			return fmt.Errorf("negative block size accepted")
		}
		return nil
	})
}

func TestDistGraphFromCartComm(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		g, err := c.DistGraph()
		if err != nil {
			return err
		}
		in, out, err := g.DistGraphNeighborsCount()
		if err != nil || in != 9 || out != 9 {
			return fmt.Errorf("degrees %d/%d (%v)", in, out, err)
		}
		// The baseline neighborhood alltoall over this graph must agree
		// with the Cartesian alltoall.
		tn := len(nbh)
		send := make([]int, tn)
		for i := range send {
			send[i] = encode(w.Rank(), i, 0)
		}
		recv := make([]int, tn)
		if err := mpi.NeighborAlltoall(g, send, recv); err != nil {
			return err
		}
		want := refAlltoall(c.Grid(), nbh, w.Rank(), 1)
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("baseline recv %v, want %v", recv, want)
		}
		return nil
	})
}

func TestPlanCostIntrospection(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		comb, err := AlltoallInit(c, 5, Combining)
		if err != nil {
			return err
		}
		if comb.Messages() != 4 {
			return fmt.Errorf("combining messages = %d, want 4 (=C)", comb.Messages())
		}
		if comb.SendElements() != 12*5 {
			return fmt.Errorf("combining elements = %d, want 60 (=V·m)", comb.SendElements())
		}
		triv, err := AlltoallInit(c, 5, Trivial)
		if err != nil {
			return err
		}
		if triv.Messages() != 8 || triv.SendElements() != 8*5 {
			return fmt.Errorf("trivial cost = %d msgs / %d elems", triv.Messages(), triv.SendElements())
		}
		return nil
	})
}

func TestMeshPlanCostShrinksAtBoundary(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	dims := []int{4, 4}
	runWorld(t, 16, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, []bool{false, false}, nbh, nil)
		if err != nil {
			return err
		}
		p, err := AlltoallInit(c, 1, Combining)
		if err != nil {
			return err
		}
		coords := c.Coords()
		interior := coords[0] > 0 && coords[0] < 3 && coords[1] > 0 && coords[1] < 3
		if interior {
			if p.SendElements() != 12 {
				return fmt.Errorf("interior mesh volume %d, want 12", p.SendElements())
			}
		} else if p.SendElements() >= 12 {
			return fmt.Errorf("boundary mesh volume %d, want < 12", p.SendElements())
		}
		return nil
	})
}

func TestAutoChoosesByCutoffUnderModel(t *testing.T) {
	// Under a cost model, Auto plans resolve per execution: combining for
	// small blocks, trivial past the cut-off. Verify via the executed
	// plan's observable behavior — virtual time close to the explicitly
	// chosen algorithm's.
	nbh := mustStencil(t, 2, 3, -1)
	measure := func(algo Algorithm, m int) float64 {
		var vt float64
		err := mpi.Run(mpi.Config{Procs: 9, Model: netmodel.Hydra(), Seed: 1, Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(algo))
			if err != nil {
				return err
			}
			send := make([]int32, len(nbh)*m)
			recv := make([]int32, len(nbh)*m)
			if err := mpi.Barrier(c.Base()); err != nil {
				return err
			}
			t0 := w.VTime()
			for i := 0; i < 3; i++ {
				if err := Alltoall(c, send, recv); err != nil {
					return err
				}
			}
			el := []float64{w.VTime() - t0}
			if err := mpi.Allreduce(c.Base(), el, el, mpi.MaxOp[float64]); err != nil {
				return err
			}
			if w.Rank() == 0 {
				vt = el[0]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vt
	}
	const small, large = 1, 100000 // 4 B vs 400 kB blocks
	if a, c := measure(Auto, small), measure(Combining, small); a != c {
		t.Errorf("Auto at m=%d: %g, combining %g — expected the combining schedule", small, a, c)
	}
	if a, tr := measure(Auto, large), measure(Trivial, large); a != tr {
		t.Errorf("Auto at m=%d: %g, trivial %g — expected the trivial schedule", large, a, tr)
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	if Combining.String() != "combining" || Trivial.String() != "trivial" || Auto.String() != "auto" {
		t.Error("Algorithm names")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown Algorithm name empty")
	}
	if OpAlltoall.String() != "alltoall" || OpAllgather.String() != "allgather" {
		t.Error("OpKind names")
	}
	if BufSend.String() != "send" || BufRecv.String() != "recv" || BufTemp.String() != "temp" {
		t.Error("BufKind names")
	}
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(Trivial))
		if err != nil {
			return err
		}
		if c.Size() != 9 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		if c.algo != Trivial {
			return fmt.Errorf("configured algorithm = %v", c.algo)
		}
		if len(c.targets) != 9 || len(c.Sources()) != 9 {
			return fmt.Errorf("targets/Sources lengths")
		}
		if !c.IsPeriodic() {
			return fmt.Errorf("torus not periodic")
		}
		return nil
	})
}

func TestWithBlockingRoundsOption(t *testing.T) {
	// A combining plan forced to blocking rounds still computes the right
	// answer (the execution-style ablation's correctness side).
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		p, err := AlltoallInit(c, 2, Combining, WithBlockingRounds())
		if err != nil {
			return err
		}
		tn := len(nbh)
		send := make([]int, tn*2)
		for i := 0; i < tn; i++ {
			for e := 0; e < 2; e++ {
				send[i*2+e] = encode(w.Rank(), i, e)
			}
		}
		recv := make([]int, tn*2)
		if err := Run(p, send, recv); err != nil {
			return err
		}
		want := refAlltoall(c.Grid(), nbh, w.Rank(), 2)
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("blocking combining: %v != %v", recv, want)
		}
		return nil
	})
}
