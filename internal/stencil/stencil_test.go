package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/mpi"
)

func runWorld(t *testing.T, p int, f func(c *mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(mpi.Config{Procs: p, Timeout: 30 * time.Second}, f); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DIndexing(t *testing.T) {
	g, err := NewGrid2D[float64](3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stride() != 8 {
		t.Errorf("stride = %d", g.Stride())
	}
	if len(g.Cells) != 7*8 {
		t.Errorf("cells = %d", len(g.Cells))
	}
	g.Set(-2, -2, 1) // first halo cell
	if g.Cells[0] != 1 {
		t.Error("halo corner not at index 0")
	}
	g.Set(2, 3, 9) // last interior cell
	if g.At(2, 3) != 9 {
		t.Error("interior round trip")
	}
	if _, err := NewGrid2D[float64](0, 1, 1); err == nil {
		t.Error("zero-size grid accepted")
	}
}

func TestGrid3DIndexing(t *testing.T) {
	g, err := NewGrid3D[int](2, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 4*5*6 {
		t.Errorf("cells = %d", len(g.Cells))
	}
	g.Set(-1, -1, -1, 7)
	if g.Cells[0] != 7 {
		t.Error("halo corner not at index 0")
	}
	g.Set(1, 2, 3, 5)
	if g.At(1, 2, 3) != 5 {
		t.Error("interior round trip")
	}
}

func TestDecompose(t *testing.T) {
	if n, err := Decompose(12, 3); err != nil || n != 4 {
		t.Errorf("Decompose = %d, %v", n, err)
	}
	if _, err := Decompose(10, 3); err == nil {
		t.Error("uneven decomposition accepted")
	}
	if _, err := Decompose(0, 3); err == nil {
		t.Error("zero extent accepted")
	}
}

// serialJacobi9 runs iters steps of the 9-point kernel on the full
// periodic global grid.
func serialJacobi9(global [][]float64, iters int) [][]float64 {
	n := len(global)
	m := len(global[0])
	cur := global
	for it := 0; it < iters; it++ {
		next := make([][]float64, n)
		for i := range next {
			next[i] = make([]float64, m)
			for j := range next[i] {
				at := func(di, dj int) float64 {
					return cur[((i+di)%n+n)%n][((j+dj)%m+m)%m]
				}
				edge := at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)
				corner := at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1)
				next[i][j] = (4*edge + corner) / 20
			}
		}
		cur = next
	}
	return cur
}

func TestDistributedJacobi9MatchesSerial(t *testing.T) {
	const (
		procRows, procCols = 2, 3
		nx, ny             = 4, 5 // local interior
		iters              = 4
	)
	globalRows, globalCols := procRows*nx, procCols*ny
	// Deterministic global initial condition.
	initial := make([][]float64, globalRows)
	rng := rand.New(rand.NewSource(13))
	for i := range initial {
		initial[i] = make([]float64, globalCols)
		for j := range initial[i] {
			initial[i][j] = rng.Float64()
		}
	}
	want := serialJacobi9(initial, iters)

	for _, algo := range []cart.Algorithm{cart.Trivial, cart.Combining} {
		algo := algo
		runWorld(t, procRows*procCols, func(w *mpi.Comm) error {
			src, err := NewGrid2D[float64](nx, ny, 1)
			if err != nil {
				return err
			}
			dst, _ := NewGrid2D[float64](nx, ny, 1)
			ex, err := NewExchanger2D(w, []int{procRows, procCols}, src, true, algo)
			if err != nil {
				return err
			}
			coords := ex.Comm().Coords()
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					src.Set(i, j, initial[coords[0]*nx+i][coords[1]*ny+j])
				}
			}
			for it := 0; it < iters; it++ {
				if err := ExchangeGrid2D(ex, src); err != nil {
					return err
				}
				Jacobi9(dst, src)
				src, dst = dst, src
			}
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					got := src.At(i, j)
					exp := want[coords[0]*nx+i][coords[1]*ny+j]
					if math.Abs(got-exp) > 1e-12 {
						return fmt.Errorf("algo %v coords %v cell (%d,%d): %v != %v", algo, coords, i, j, got, exp)
					}
				}
			}
			return nil
		})
	}
}

func TestExchanger2DFaceOnly(t *testing.T) {
	// Without corners: 4 neighbors, halo faces filled, corners untouched.
	runWorld(t, 4, func(w *mpi.Comm) error {
		g, err := NewGrid2D[float64](2, 2, 1)
		if err != nil {
			return err
		}
		ex, err := NewExchanger2D(w, []int{2, 2}, g, false, cart.Combining)
		if err != nil {
			return err
		}
		if ex.Comm().NeighborCount() != 4 {
			return fmt.Errorf("neighbors = %d", ex.Comm().NeighborCount())
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				g.Set(i, j, float64(w.Rank()+1))
			}
		}
		// Mark halo.
		g.Set(-1, -1, -99)
		if err := ExchangeGrid2D(ex, g); err != nil {
			return err
		}
		if g.At(-1, -1) != -99 {
			return fmt.Errorf("corner halo written by face-only exchange")
		}
		if g.At(-1, 0) == 0 {
			return fmt.Errorf("face halo not filled")
		}
		return nil
	})
}

// serialHeat27 advances the full periodic 3-D global grid.
func serialHeat27(global [][][]float64, r float64, iters int) [][][]float64 {
	nx, ny, nz := len(global), len(global[0]), len(global[0][0])
	cur := global
	for it := 0; it < iters; it++ {
		next := make([][][]float64, nx)
		for i := range next {
			next[i] = make([][]float64, ny)
			for j := range next[i] {
				next[i][j] = make([]float64, nz)
				for k := range next[i][j] {
					at := func(dx, dy, dz int) float64 {
						return cur[((i+dx)%nx+nx)%nx][((j+dy)%ny+ny)%ny][((k+dz)%nz+nz)%nz]
					}
					var faces, edges, corners float64
					for dx := -1; dx <= 1; dx++ {
						for dy := -1; dy <= 1; dy++ {
							for dz := -1; dz <= 1; dz++ {
								switch abs(dx) + abs(dy) + abs(dz) {
								case 1:
									faces += at(dx, dy, dz)
								case 2:
									edges += at(dx, dy, dz)
								case 3:
									corners += at(dx, dy, dz)
								}
							}
						}
					}
					lap := faces + edges/2 + corners/3 - (6+6+8.0/3)*at(0, 0, 0)
					next[i][j][k] = at(0, 0, 0) + r*lap
				}
			}
		}
		cur = next
	}
	return cur
}

func TestDistributedHeat27MatchesSerial(t *testing.T) {
	const (
		px, py, pz = 2, 2, 2
		nx, ny, nz = 2, 3, 2
		iters      = 3
		r          = 0.01
	)
	gx, gy, gz := px*nx, py*ny, pz*nz
	rng := rand.New(rand.NewSource(17))
	initial := make([][][]float64, gx)
	for i := range initial {
		initial[i] = make([][]float64, gy)
		for j := range initial[i] {
			initial[i][j] = make([]float64, gz)
			for k := range initial[i][j] {
				initial[i][j][k] = rng.Float64()
			}
		}
	}
	want := serialHeat27(initial, r, iters)

	runWorld(t, px*py*pz, func(w *mpi.Comm) error {
		src, err := NewGrid3D[float64](nx, ny, nz, 1)
		if err != nil {
			return err
		}
		dst, _ := NewGrid3D[float64](nx, ny, nz, 1)
		ex, err := NewExchanger3D(w, []int{px, py, pz}, src, true, cart.Combining)
		if err != nil {
			return err
		}
		if ex.Comm().NeighborCount() != 26 {
			return fmt.Errorf("neighbors = %d", ex.Comm().NeighborCount())
		}
		coords := ex.Comm().Coords()
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					src.Set(i, j, k, initial[coords[0]*nx+i][coords[1]*ny+j][coords[2]*nz+k])
				}
			}
		}
		for it := 0; it < iters; it++ {
			if err := ExchangeGrid3D(ex, src); err != nil {
				return err
			}
			Heat27(dst, src, r)
			src, dst = dst, src
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					got := src.At(i, j, k)
					exp := want[coords[0]*nx+i][coords[1]*ny+j][coords[2]*nz+k]
					if math.Abs(got-exp) > 1e-12 {
						return fmt.Errorf("coords %v cell (%d,%d,%d): %v != %v", coords, i, j, k, got, exp)
					}
				}
			}
		}
		return nil
	})
}

func TestLifeBlinker(t *testing.T) {
	// A vertical blinker spanning a process boundary must oscillate
	// correctly — the classic correctness test for distributed Life.
	const (
		procRows, procCols = 2, 1
		nx, ny             = 3, 6
	)
	runWorld(t, 2, func(w *mpi.Comm) error {
		src, err := NewGrid2D[uint8](nx, ny, 1)
		if err != nil {
			return err
		}
		dst, _ := NewGrid2D[uint8](nx, ny, 1)
		ex, err := NewExchanger2D(w, []int{procRows, procCols}, src, true, cart.Combining)
		if err != nil {
			return err
		}
		coords := ex.Comm().Coords()
		// Global blinker: cells (2,2), (3,2), (4,2) — crosses the row
		// boundary between rank (0) rows 0..2 and rank (1) rows 3..5.
		set := func(gr, gc int, v uint8) {
			lr := gr - coords[0]*nx
			if lr >= 0 && lr < nx {
				src.Set(lr, gc, v)
			}
		}
		set(2, 2, 1)
		set(3, 2, 1)
		set(4, 2, 1)
		for step := 0; step < 2; step++ {
			if err := ExchangeGrid2D(ex, src); err != nil {
				return err
			}
			Life(dst, src)
			src, dst = dst, src
			// After odd steps the blinker is horizontal at global row 3.
			alive := map[[2]int]bool{}
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					if src.At(i, j) == 1 {
						alive[[2]int{coords[0]*nx + i, j}] = true
					}
				}
			}
			var want map[[2]int]bool
			if step%2 == 0 {
				want = map[[2]int]bool{{3, 1}: true, {3, 2}: true, {3, 3}: true}
			} else {
				want = map[[2]int]bool{{2, 2}: true, {3, 2}: true, {4, 2}: true}
			}
			for cell := range want {
				lr := cell[0] - coords[0]*nx
				if lr < 0 || lr >= nx {
					continue
				}
				if !alive[cell] {
					return fmt.Errorf("step %d rank %d: cell %v dead; alive=%v", step, w.Rank(), cell, alive)
				}
			}
			for cell := range alive {
				if !want[cell] {
					return fmt.Errorf("step %d rank %d: unexpected live cell %v", step, w.Rank(), cell)
				}
			}
		}
		return nil
	})
}

func TestExchangerValidation(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		g, _ := NewGrid2D[float64](2, 2, 0)
		if _, err := NewExchanger2D(w, []int{2, 2}, g, true, cart.Trivial); err == nil {
			return fmt.Errorf("halo 0 accepted")
		}
		g1, _ := NewGrid2D[float64](2, 2, 1)
		if _, err := NewExchanger2D(w, []int{4}, g1, true, cart.Trivial); err == nil {
			return fmt.Errorf("1-D process dims accepted by 2-D exchanger")
		}
		g3, _ := NewGrid3D[float64](2, 2, 2, 1)
		if _, err := NewExchanger3D(w, []int{2, 2}, g3, true, cart.Trivial); err == nil {
			return fmt.Errorf("2-D process dims accepted by 3-D exchanger")
		}
		return nil
	})
}

func TestDeepHaloExchange(t *testing.T) {
	// Halo depth 2 with radius-1 process neighborhood: strips of thickness
	// 2 move to immediate neighbors (higher-order stencil support).
	runWorld(t, 4, func(w *mpi.Comm) error {
		g, err := NewGrid2D[float64](4, 4, 2)
		if err != nil {
			return err
		}
		ex, err := NewExchanger2D(w, []int{2, 2}, g, true, cart.Combining)
		if err != nil {
			return err
		}
		coords := ex.Comm().Coords()
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				g.Set(i, j, float64(encode2(coords[0]*4+i, coords[1]*4+j)))
			}
		}
		if err := ExchangeGrid2D(ex, g); err != nil {
			return err
		}
		// Every halo cell mirrors the torus-wrapped global cell.
		for i := -2; i < 6; i++ {
			for j := -2; j < 6; j++ {
				gi := ((coords[0]*4+i)%8 + 8) % 8
				gj := ((coords[1]*4+j)%8 + 8) % 8
				if got := g.At(i, j); got != float64(encode2(gi, gj)) {
					return fmt.Errorf("coords %v halo (%d,%d) = %v, want %v", coords, i, j, got, encode2(gi, gj))
				}
			}
		}
		return nil
	})
}

func encode2(i, j int) int { return i*1000 + j }

func TestHeat7MatchesSerial(t *testing.T) {
	const (
		px, py, pz = 2, 1, 2
		nx, ny, nz = 2, 4, 2
		iters      = 3
		r          = 0.05
	)
	gx, gy, gz := px*nx, py*ny, pz*nz
	rng := rand.New(rand.NewSource(23))
	initial := make([][][]float64, gx)
	for i := range initial {
		initial[i] = make([][]float64, gy)
		for j := range initial[i] {
			initial[i][j] = make([]float64, gz)
			for k := range initial[i][j] {
				initial[i][j][k] = rng.Float64()
			}
		}
	}
	// Serial 7-point reference.
	ref := initial
	for it := 0; it < iters; it++ {
		next := make([][][]float64, gx)
		for i := range next {
			next[i] = make([][]float64, gy)
			for j := range next[i] {
				next[i][j] = make([]float64, gz)
				for k := range next[i][j] {
					at := func(dx, dy, dz int) float64 {
						return ref[((i+dx)%gx+gx)%gx][((j+dy)%gy+gy)%gy][((k+dz)%gz+gz)%gz]
					}
					lap := at(-1, 0, 0) + at(1, 0, 0) + at(0, -1, 0) + at(0, 1, 0) + at(0, 0, -1) + at(0, 0, 1) - 6*at(0, 0, 0)
					next[i][j][k] = at(0, 0, 0) + r*lap
				}
			}
		}
		ref = next
	}

	runWorld(t, px*py*pz, func(w *mpi.Comm) error {
		src, err := NewGrid3D[float64](nx, ny, nz, 1)
		if err != nil {
			return err
		}
		dst, _ := NewGrid3D[float64](nx, ny, nz, 1)
		ex, err := NewExchanger3D(w, []int{px, py, pz}, src, false, cart.Combining)
		if err != nil {
			return err
		}
		if ex.plan == nil || ex.Comm() == nil {
			return fmt.Errorf("accessors nil")
		}
		coords := ex.Comm().Coords()
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					src.Set(i, j, k, initial[coords[0]*nx+i][coords[1]*ny+j][coords[2]*nz+k])
				}
			}
		}
		for it := 0; it < iters; it++ {
			if err := ExchangeGrid3D(ex, src); err != nil {
				return err
			}
			Heat7(dst, src, r)
			src, dst = dst, src
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					got := src.At(i, j, k)
					exp := ref[coords[0]*nx+i][coords[1]*ny+j][coords[2]*nz+k]
					if math.Abs(got-exp) > 1e-12 {
						return fmt.Errorf("cell (%d,%d,%d): %v != %v", i, j, k, got, exp)
					}
				}
			}
		}
		return nil
	})
}

func TestTwoPhaseAccessors(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		g, _ := NewGrid2D[float64](2, 2, 1)
		ex, err := NewTwoPhaseExchanger2D(w, []int{2, 2}, g, cart.Trivial)
		if err != nil {
			return err
		}
		if ex.Comm() == nil || ex.VolumeElements() <= 0 {
			return fmt.Errorf("accessors")
		}
		g2, _ := NewExchanger2D(w, []int{2, 2}, g, true, cart.Trivial)
		if g2.Plan() == nil {
			return fmt.Errorf("plan accessor")
		}
		return nil
	})
}
