package stencil

import (
	"fmt"

	"cartcc/internal/cart"
	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// Grid3D is one process's block of a distributed 3-D grid: an NX×NY×NZ
// interior with a halo of depth Halo, stored x-major (z fastest).
type Grid3D[T any] struct {
	NX, NY, NZ int
	Halo       int
	Cells      []T
}

// NewGrid3D allocates a zeroed local block.
func NewGrid3D[T any](nx, ny, nz, halo int) (*Grid3D[T], error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || halo < 0 {
		return nil, fmt.Errorf("stencil: invalid grid %dx%dx%d halo %d", nx, ny, nz, halo)
	}
	ax, ay, az := nx+2*halo, ny+2*halo, nz+2*halo
	return &Grid3D[T]{NX: nx, NY: ny, NZ: nz, Halo: halo, Cells: make([]T, ax*ay*az)}, nil
}

// Idx returns the Cells index of interior coordinate (i, j, k), each in
// [-Halo, N*+Halo).
func (g *Grid3D[T]) Idx(i, j, k int) int {
	ay, az := g.NY+2*g.Halo, g.NZ+2*g.Halo
	return ((i+g.Halo)*ay+(j+g.Halo))*az + (k + g.Halo)
}

// At returns the cell at interior coordinate (i, j, k).
func (g *Grid3D[T]) At(i, j, k int) T { return g.Cells[g.Idx(i, j, k)] }

// Set stores v at interior coordinate (i, j, k).
func (g *Grid3D[T]) Set(i, j, k int, v T) { g.Cells[g.Idx(i, j, k)] = v }

// Exchanger3D performs the 26-neighbor (or 6-neighbor) halo exchange of a
// Grid3D over a 3-D process torus with one Cart_alltoallw plan.
type Exchanger3D struct {
	comm *cart.Comm
	plan *cart.Plan
}

// Comm returns the underlying Cartesian-neighborhood communicator.
func (e *Exchanger3D) Comm() *cart.Comm { return e.comm }

// NewExchanger3D builds the exchanger over the process torus procDims.
// corners selects the full 26-neighbor Moore exchange (27-point stencils);
// without corners only the 6 face neighbors exchange (7-point stencils).
func NewExchanger3D[T any](base *mpi.Comm, procDims []int, g *Grid3D[T], corners bool, algo cart.Algorithm) (*Exchanger3D, error) {
	return NewExchanger3DOn(base, procDims, nil, g, corners, algo)
}

// NewExchanger3DOn is NewExchanger3D with explicit periodicity (see
// NewExchanger2DOn).
func NewExchanger3DOn[T any](base *mpi.Comm, procDims []int, periods []bool, g *Grid3D[T], corners bool, algo cart.Algorithm) (*Exchanger3D, error) {
	if len(procDims) != 3 {
		return nil, fmt.Errorf("stencil: 3-D exchanger needs 3 process dimensions, got %v", procDims)
	}
	if g.Halo < 1 {
		return nil, fmt.Errorf("stencil: halo exchange needs halo >= 1")
	}
	var nbh vec.Neighborhood
	var sendL, recvL []datatype.Layout
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				nz := 0
				for _, d := range []int{dx, dy, dz} {
					if d != 0 {
						nz++
					}
				}
				if !corners && nz != 1 {
					continue
				}
				nbh = append(nbh, vec.Vec{dx, dy, dz})
				sendL = append(sendL, region3D(g, dx, dy, dz, true))
				recvL = append(recvL, region3D(g, -dx, -dy, -dz, false))
			}
		}
	}
	c, err := cart.NeighborhoodCreate(base, procDims, periods, nbh, nil, cart.WithAlgorithm(algo))
	if err != nil {
		return nil, err
	}
	plan, err := cart.AlltoallwInit(c, sendL, recvL, algo)
	if err != nil {
		return nil, err
	}
	return &Exchanger3D{comm: c, plan: plan}, nil
}

// region3D describes the slab/edge/corner of depth Halo on the
// (dx, dy, dz) side, interior boundary for sends, halo for receives.
func region3D[T any](g *Grid3D[T], dx, dy, dz int, send bool) datatype.Layout {
	x0, xn := sideRange(dx, g.NX, g.Halo, send)
	y0, yn := sideRange(dy, g.NY, g.Halo, send)
	z0, zn := sideRange(dz, g.NZ, g.Halo, send)
	var l datatype.Layout
	for x := x0; x < xn; x++ {
		for y := y0; y < yn; y++ {
			l.Append(g.Idx(x, y, z0), zn-z0)
		}
	}
	return l
}

// ExchangeGrid3D fills g's halo from the neighboring processes'
// boundaries, in place.
func ExchangeGrid3D[T any](e *Exchanger3D, g *Grid3D[T]) error {
	return cart.Run(e.plan, g.Cells, g.Cells)
}
