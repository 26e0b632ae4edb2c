package cart

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// checkMeshAlltoall runs the combining alltoall on a grid with a boundary
// and compares against the reference (which already honors mesh
// boundaries by skipping missing sources).
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
		plan, err := AlltoallInit(c, m, Combining)
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

func TestMeshScheduleBoundaryVolumesShrink(t *testing.T) {
	// A corner process of a mesh relays fewer blocks than an interior one,
	// which relays exactly the torus volume.
	grid, _ := vec.NewGrid([]int{5, 5}, []bool{false, false})
	nbh := mustStencil(t, 2, 3, -1)
	torus := AlltoallSchedule(nbh)
	sent := func(rank int) int {
		s := alltoallSchedule(nbh, boundary{grid: grid, rank: rank})
		n := 0
		for _, ph := range s.Phases {
			for _, r := range ph.Rounds {
				n += len(r.Moves)
			}
		}
		return n
	}
	interiorRank, _ := grid.RankOf(vec.Vec{2, 2})
	corner, interior := sent(0), sent(interiorRank) // coordinates (0,0), (2,2)
	if corner >= interior {
		t.Errorf("corner volume %d not below interior %d", corner, interior)
	}
	if interior != torus.Volume {
		t.Errorf("interior volume %d differs from torus %d", interior, torus.Volume)
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
		plan, err := AllgatherInit(c, m, Combining)
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
		p, err := AllgatherInit(c, 1, Combining)
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

// TestAutoOnMeshAgreesAcrossRanks: Auto's cut-off must resolve the same
// way on every rank of a mesh, or an interior rank running the trivial
// schedule waits for messages its combining neighbors never send. Every
// rank's plan records the interior C and V, so the decision is global;
// the block sizes straddle the alltoall cut-off.
func TestAutoOnMeshAgreesAcrossRanks(t *testing.T) {
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn := len(nbh)
	for _, op := range []OpKind{OpAlltoall, OpAllgather} {
		for _, m := range []int{1, 16384, 65536} {
			chosen := make([]Algorithm, 16)
			runWorld(t, 16, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, []int{4, 4}, []bool{false, false}, nbh, nil)
				if err != nil {
					return err
				}
				init, sendLen := AlltoallInit, tn*m
				if op == OpAllgather {
					init, sendLen = AllgatherInit, m
				}
				auto, err := init(c, m, Auto)
				if err != nil {
					return err
				}
				triv, err := init(c, m, Trivial)
				if err != nil {
					return err
				}
				send := make([]int32, sendLen)
				for j := range send {
					send[j] = int32(w.Rank()*tn*m + j)
				}
				got, want := make([]int32, tn*m), make([]int32, tn*m)
				for j := range got {
					got[j], want[j] = -1, -1
				}
				if err := Run(auto, send, got); err != nil {
					return err
				}
				if err := Run(triv, send, want); err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("%v m=%d rank %d: Auto payload differs from the trivial oracle", op, m, w.Rank())
				}
				dec, ok := auto.Decision()
				if !ok {
					return fmt.Errorf("%v m=%d rank %d: no decision after Run", op, m, w.Rank())
				}
				chosen[w.Rank()] = dec.Chosen
				return nil
			})
			for r, a := range chosen {
				if a != chosen[0] {
					t.Fatalf("%v m=%d: rank %d chose %v, rank 0 chose %v", op, m, r, a, chosen[0])
				}
			}
			t.Logf("%v m=%d: every rank chose %v", op, m, chosen[0])
		}
	}
}

// TestBoundarySchedulesValidate: every rank's schedule on the compiled-plan
// topologies passes Validate and records the torus schedule's C and V, the
// interior bounds its plan reports.
func TestBoundarySchedulesValidate(t *testing.T) {
	for _, tc := range compiledCases(t) {
		g, err := vec.NewGrid(tc.dims, tc.periods)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.Size(); r++ {
			b := boundary{grid: g, rank: r}
			for _, pair := range [][2]*Schedule{
				{alltoallSchedule(tc.nbh, b), AlltoallSchedule(tc.nbh)},
				{allgatherSchedule(tc.nbh, b), AllgatherSchedule(tc.nbh)},
			} {
				s, torus := pair[0], pair[1]
				if err := s.Validate(len(tc.nbh)); err != nil {
					t.Fatalf("%s rank %d %v: %v", tc.name, r, s.Op, err)
				}
				if s.Rounds != torus.Rounds || s.Volume != torus.Volume {
					t.Fatalf("%s rank %d %v: records C=%d V=%d, torus C=%d V=%d",
						tc.name, r, s.Op, s.Rounds, s.Volume, torus.Rounds, torus.Volume)
				}
			}
		}
	}
}
