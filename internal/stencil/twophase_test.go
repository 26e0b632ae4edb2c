package stencil

import (
	"fmt"
	"testing"

	"cartcc/internal/cart"
	"cartcc/internal/mpi"
)

func TestTwoPhaseExchange2DMatchesMoore(t *testing.T) {
	// The combined schedule must fill exactly the same halo (including
	// corners) as the plain 8-neighbor Moore exchange.
	const (
		procRows, procCols = 2, 3
		nx, ny             = 4, 3
	)
	for _, halo := range []int{1, 2} {
		halo := halo
		runWorld(t, procRows*procCols, func(w *mpi.Comm) error {
			mk := func() (*Grid2D[float64], error) {
				g, err := NewGrid2D[float64](nx, ny, halo)
				if err != nil {
					return nil, err
				}
				return g, nil
			}
			a, err := mk()
			if err != nil {
				return err
			}
			b, _ := mk()
			moore, err := NewExchanger2D(w, []int{procRows, procCols}, a, true, cart.Combining)
			if err != nil {
				return err
			}
			two, err := NewTwoPhaseExchanger2D(w, []int{procRows, procCols}, b, cart.Combining)
			if err != nil {
				return err
			}
			coords := moore.Comm().Coords()
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					v := float64((coords[0]*nx+i)*1000 + coords[1]*ny + j)
					a.Set(i, j, v)
					b.Set(i, j, v)
				}
			}
			if err := ExchangeGrid2D(moore, a); err != nil {
				return err
			}
			if err := ExchangeTwoPhase2D(two, b); err != nil {
				return err
			}
			for i := -halo; i < nx+halo; i++ {
				for j := -halo; j < ny+halo; j++ {
					if a.At(i, j) != b.At(i, j) {
						return fmt.Errorf("halo %d coords %v cell (%d,%d): moore %v, two-phase %v",
							halo, coords, i, j, a.At(i, j), b.At(i, j))
					}
				}
			}
			return nil
		})
	}
}

func TestTwoPhaseVolumeSavesCornerBytes(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		g, err := NewGrid2D[float64](8, 8, 2)
		if err != nil {
			return err
		}
		two, err := NewTwoPhaseExchanger2D(w, []int{2, 2}, g, cart.Combining)
		if err != nil {
			return err
		}
		moore := MooreVolumeElements2D(g)
		got := two.VolumeElements()
		// Moore: 2h(nx+ny) + 8h² = 2·2·16 + 32 = 96;
		// two-phase: 2h·nx + 2h(ny+2h) = 32 + 48 = 80.
		if moore != 96 || got != 80 {
			return fmt.Errorf("volumes: moore %d (want 96), two-phase %d (want 80)", moore, got)
		}
		if got >= moore {
			return fmt.Errorf("two-phase exchange did not reduce volume: %d >= %d", got, moore)
		}
		return nil
	})
}

func TestTwoPhaseExchange3DMatchesMoore(t *testing.T) {
	const (
		px, py, pz = 2, 2, 2
		nx, ny, nz = 3, 2, 4
	)
	runWorld(t, px*py*pz, func(w *mpi.Comm) error {
		a, err := NewGrid3D[float64](nx, ny, nz, 1)
		if err != nil {
			return err
		}
		b, _ := NewGrid3D[float64](nx, ny, nz, 1)
		moore, err := NewExchanger3D(w, []int{px, py, pz}, a, true, cart.Combining)
		if err != nil {
			return err
		}
		two, err := NewTwoPhaseExchanger3D(w, []int{px, py, pz}, b, cart.Combining)
		if err != nil {
			return err
		}
		coords := moore.Comm().Coords()
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					v := float64((coords[0]*nx+i)*10000 + (coords[1]*ny+j)*100 + coords[2]*nz + k)
					a.Set(i, j, k, v)
					b.Set(i, j, k, v)
				}
			}
		}
		if err := ExchangeGrid3D(moore, a); err != nil {
			return err
		}
		if err := ExchangeTwoPhase3D(two, b); err != nil {
			return err
		}
		for i := -1; i < nx+1; i++ {
			for j := -1; j < ny+1; j++ {
				for k := -1; k < nz+1; k++ {
					if a.At(i, j, k) != b.At(i, j, k) {
						return fmt.Errorf("coords %v cell (%d,%d,%d): moore %v, two-phase %v",
							coords, i, j, k, a.At(i, j, k), b.At(i, j, k))
					}
				}
			}
		}
		// The Section 3.4 volume claim: edges and corners stop being
		// duplicated.
		if two.elems >= MooreVolumeElements3D(b) {
			return fmt.Errorf("3-D two-phase volume %d not below moore %d",
				two.elems, MooreVolumeElements3D(b))
		}
		return nil
	})
}

func TestTwoPhaseJacobi9EndToEnd(t *testing.T) {
	// The combined-schedule exchange must drive the 9-point kernel to the
	// same result as the Moore exchange over several iterations.
	const (
		procRows, procCols = 2, 2
		nx, ny             = 4, 4
		iters              = 5
	)
	runWorld(t, 4, func(w *mpi.Comm) error {
		src1, _ := NewGrid2D[float64](nx, ny, 1)
		dst1, _ := NewGrid2D[float64](nx, ny, 1)
		src2, _ := NewGrid2D[float64](nx, ny, 1)
		dst2, _ := NewGrid2D[float64](nx, ny, 1)
		moore, err := NewExchanger2D(w, []int{procRows, procCols}, src1, true, cart.Combining)
		if err != nil {
			return err
		}
		two, err := NewTwoPhaseExchanger2D(w, []int{procRows, procCols}, src2, cart.Combining)
		if err != nil {
			return err
		}
		coords := moore.Comm().Coords()
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				v := float64((coords[0]*nx+i)*31 + (coords[1]*ny+j)*7)
				src1.Set(i, j, v)
				src2.Set(i, j, v)
			}
		}
		for it := 0; it < iters; it++ {
			if err := ExchangeGrid2D(moore, src1); err != nil {
				return err
			}
			Jacobi9(dst1, src1)
			src1, dst1 = dst1, src1
			if err := ExchangeTwoPhase2D(two, src2); err != nil {
				return err
			}
			Jacobi9(dst2, src2)
			src2, dst2 = dst2, src2
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				if src1.At(i, j) != src2.At(i, j) {
					return fmt.Errorf("cell (%d,%d): %v vs %v", i, j, src1.At(i, j), src2.At(i, j))
				}
			}
		}
		return nil
	})
}

func TestTwoPhaseValidation(t *testing.T) {
	runWorld(t, 4, func(w *mpi.Comm) error {
		g0, _ := NewGrid2D[float64](2, 2, 0)
		if _, err := NewTwoPhaseExchanger2D(w, []int{2, 2}, g0, cart.Trivial); err == nil {
			return fmt.Errorf("halo 0 accepted")
		}
		g, _ := NewGrid2D[float64](2, 2, 1)
		if _, err := NewTwoPhaseExchanger2D(w, []int{4}, g, cart.Trivial); err == nil {
			return fmt.Errorf("wrong dims accepted")
		}
		g3, _ := NewGrid3D[float64](2, 2, 2, 1)
		if _, err := NewTwoPhaseExchanger3D(w, []int{2, 2}, g3, cart.Trivial); err == nil {
			return fmt.Errorf("wrong 3-D dims accepted")
		}
		return nil
	})
}
