package cart

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// checkMeshAlltoall runs the mesh-aware combining alltoall and compares
// against the reference (which already honors mesh boundaries by skipping
// missing sources).
func checkMeshAlltoall(t *testing.T, dims []int, periods []bool, nbh vec.Neighborhood, m int) {
	t.Helper()
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, periods, nbh, nil, WithAlgorithm(Trivial))
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
		plan, err := MeshAlltoallInit(c, m)
		if err != nil {
			return err
		}
		recv := make([]int, tn*m)
		for j := range recv {
			recv[j] = -1
		}
		if err := Run(plan, send, recv); err != nil {
			return err
		}
		want := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		// Blocks with no source stay untouched (-1) in the combining
		// version; normalize the reference accordingly.
		for i, rel := range nbh {
			if _, ok := c.Grid().RankDisplace(w.Rank(), rel.Neg()); !ok {
				for e := 0; e < m; e++ {
					want[i*m+e] = -1
				}
			}
		}
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("rank %d (%v): recv=%v want=%v", w.Rank(), dims, recv, want)
		}
		return nil
	})
}

func TestMeshCombiningAlltoall1D(t *testing.T) {
	nbh := mustStencil(t, 1, 3, -1)
	checkMeshAlltoall(t, []int{5}, []bool{false}, nbh, 2)
}

func TestMeshCombiningAlltoall2D(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAlltoall(t, []int{3, 4}, []bool{false, false}, nbh, 2)
}

func TestMeshCombiningAlltoallMixedPeriodicity(t *testing.T) {
	// One periodic, one mesh dimension.
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAlltoall(t, []int{3, 4}, []bool{true, false}, nbh, 1)
}

func TestMeshCombiningAlltoallAsymmetric(t *testing.T) {
	// Offsets up to +2 on a small mesh: many paths truncated.
	nbh := mustStencil(t, 2, 4, -1)
	checkMeshAlltoall(t, []int{4, 4}, []bool{false, false}, nbh, 2)
}

func TestMeshCombiningEqualsTorusCombiningOnTorus(t *testing.T) {
	// On a fully periodic grid the mesh plan must behave exactly like the
	// torus combining plan.
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAlltoall(t, []int{3, 3}, nil, nbh, 2)
	// And its round/volume accounting matches the torus schedule.
	grid, _ := vec.NewGrid([]int{5, 5}, nil)
	s := MeshAlltoallSchedule(grid, 12, nbh)
	torus := AlltoallSchedule(nbh)
	if s.Rounds != torus.Rounds || s.Volume != torus.Volume {
		t.Errorf("torus-degenerate mesh schedule: %d/%d vs %d/%d", s.Rounds, s.Volume, torus.Rounds, torus.Volume)
	}
}

func TestMeshScheduleBoundaryVolumesShrink(t *testing.T) {
	// A corner process of a mesh relays fewer blocks than an interior one.
	grid, _ := vec.NewGrid([]int{5, 5}, []bool{false, false})
	nbh := mustStencil(t, 2, 3, -1)
	corner := MeshAlltoallSchedule(grid, 0, nbh) // coordinate (0,0)
	interiorRank, _ := grid.RankOf(vec.Vec{2, 2})
	interior := MeshAlltoallSchedule(grid, interiorRank, nbh)
	if corner.Volume >= interior.Volume {
		t.Errorf("corner volume %d not below interior %d", corner.Volume, interior.Volume)
	}
	if interior.Volume != AlltoallSchedule(nbh).Volume {
		t.Errorf("interior volume %d differs from torus %d", interior.Volume, AlltoallSchedule(nbh).Volume)
	}
}

func TestMeshCombiningRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	trials := 15
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		nbh := randomNeighborhood(rng)
		d := nbh.Dims()
		dims := make([]int, d)
		periods := make([]bool, d)
		for i := range dims {
			dims[i] = rng.Intn(4) + 2
			periods[i] = rng.Intn(2) == 0
		}
		if gridSize(dims) > 150 {
			continue
		}
		checkMeshAlltoall(t, dims, periods, nbh, rng.Intn(3)+1)
	}
}

// meshAllgatherPlan compiles the mesh-aware combining allgather directly,
// on any grid: on a torus it must match the torus combining plan.
func meshAllgatherPlan(c *Comm, m int) (*Plan, error) {
	p, err := c.compileMeshAllgather(uniformGeometry(OpAllgather, m))
	if err != nil {
		return nil, err
	}
	p.setLens(m, len(c.nbh)*m)
	return p, nil
}

// checkMeshAllgather mirrors checkMeshAlltoall for the allgather family.
func checkMeshAllgather(t *testing.T, dims []int, periods []bool, nbh vec.Neighborhood, m int) {
	t.Helper()
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, periods, nbh, nil, WithAlgorithm(Trivial))
		if err != nil {
			return err
		}
		send := make([]int, m)
		for e := 0; e < m; e++ {
			send[e] = encode(w.Rank(), 0, e)
		}
		plan, err := meshAllgatherPlan(c, m)
		if err != nil {
			return err
		}
		recv := make([]int, len(nbh)*m)
		for j := range recv {
			recv[j] = -1
		}
		if err := Run(plan, send, recv); err != nil {
			return err
		}
		want := refAllgather(c.Grid(), nbh, w.Rank(), m)
		for i, rel := range nbh {
			if _, ok := c.Grid().RankDisplace(w.Rank(), rel.Neg()); !ok {
				for e := 0; e < m; e++ {
					want[i*m+e] = -1
				}
			}
		}
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("rank %d (%v): recv=%v want=%v", w.Rank(), dims, recv, want)
		}
		return nil
	})
}

func TestMeshCombiningAllgather1D(t *testing.T) {
	nbh := mustStencil(t, 1, 3, -1)
	checkMeshAllgather(t, []int{5}, []bool{false}, nbh, 2)
}

func TestMeshCombiningAllgather2D(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAllgather(t, []int{3, 4}, []bool{false, false}, nbh, 2)
}

func TestMeshCombiningAllgatherAsymmetric(t *testing.T) {
	nbh := mustStencil(t, 2, 4, -1)
	checkMeshAllgather(t, []int{4, 4}, []bool{false, false}, nbh, 1)
}

func TestMeshCombiningAllgatherMixedPeriodicity(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAllgather(t, []int{3, 4}, []bool{true, false}, nbh, 2)
}

func TestMeshAllgatherTorusDegenerate(t *testing.T) {
	// On a torus the mesh plan must match the torus combining accounting.
	nbh := mustStencil(t, 2, 3, -1)
	checkMeshAllgather(t, []int{3, 3}, nil, nbh, 2)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		mesh, err := meshAllgatherPlan(c, 1)
		if err != nil {
			return err
		}
		torus, err := AllgatherInit(c, 1, Combining)
		if err != nil {
			return err
		}
		if mesh.Rounds() != torus.Rounds() || mesh.SendElements() != torus.SendElements() {
			return fmt.Errorf("mesh %d/%d vs torus %d/%d", mesh.Rounds(), mesh.SendElements(), torus.Rounds(), torus.SendElements())
		}
		return nil
	})
}

func TestMeshCombiningAllgatherRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	trials := 15
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		nbh := randomNeighborhood(rng)
		d := nbh.Dims()
		dims := make([]int, d)
		periods := make([]bool, d)
		for i := range dims {
			dims[i] = rng.Intn(4) + 2
			periods[i] = rng.Intn(2) == 0
		}
		if gridSize(dims) > 150 {
			continue
		}
		checkMeshAllgather(t, dims, periods, nbh, rng.Intn(3)+1)
	}
}

func TestMeshAllgatherBoundaryVolumeShrinks(t *testing.T) {
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 25, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{5, 5}, []bool{false, false}, nbh, nil, WithAlgorithm(Trivial))
		if err != nil {
			return err
		}
		p, err := meshAllgatherPlan(c, 1)
		if err != nil {
			return err
		}
		coords := c.Coords()
		interior := coords[0] > 0 && coords[0] < 4 && coords[1] > 0 && coords[1] < 4
		if interior {
			if p.SendElements() != 8 {
				return fmt.Errorf("interior allgather volume %d, want 8", p.SendElements())
			}
		} else if p.SendElements() >= 8 {
			return fmt.Errorf("boundary allgather volume %d, want < 8", p.SendElements())
		}
		return nil
	})
}
