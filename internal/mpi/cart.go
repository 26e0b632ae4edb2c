package mpi

import (
	"fmt"

	"cartcc/internal/vec"
)

// CartInfo is the Cartesian topology attached to a communicator by
// CartCreate: the grid geometry, exposed through the coordinate helpers.
type CartInfo struct {
	Grid *vec.Grid
}

// CartCreate returns a new communicator with a d-dimensional Cartesian
// topology attached, like MPI_Cart_create. The product of dims must equal
// the communicator size. periods marks the periodic (torus) dimensions; nil
// means fully periodic. reorder is accepted for interface fidelity; like
// the MPI libraries examined in the paper (§1), this implementation keeps
// the identity mapping. Collective.
func CartCreate(c *Comm, dims []int, periods []bool, reorder bool) (*Comm, error) {
	g, err := vec.NewGrid(dims, periods)
	if err != nil {
		return nil, err
	}
	if g.Size() != c.size {
		return nil, fmt.Errorf("mpi: Cartesian grid %v has %d processes, communicator has %d", dims, g.Size(), c.size)
	}
	_ = reorder
	nc, err := c.Dup()
	if err != nil {
		return nil, err
	}
	nc.cart = &CartInfo{Grid: g}
	return nc, nil
}

// Cart returns the Cartesian topology of the communicator, or nil.
func (c *Comm) Cart() *CartInfo { return c.cart }

// CartCoords returns the Cartesian coordinates of the given rank, like
// MPI_Cart_coords.
func (c *Comm) CartCoords(rank int) (vec.Vec, error) {
	if c.cart == nil {
		return nil, fmt.Errorf("mpi: communicator has no Cartesian topology")
	}
	if err := c.checkRank(rank, "cart"); err != nil {
		return nil, err
	}
	return c.cart.Grid.CoordOf(rank), nil
}

// CartRank returns the rank at the given Cartesian coordinates, like
// MPI_Cart_rank. Coordinates along periodic dimensions are wrapped.
func (c *Comm) CartRank(coords vec.Vec) (int, error) {
	if c.cart == nil {
		return -1, fmt.Errorf("mpi: communicator has no Cartesian topology")
	}
	g := c.cart.Grid
	if len(coords) != g.NDims() {
		return -1, fmt.Errorf("mpi: coordinate arity %d, topology has %d dimensions", len(coords), g.NDims())
	}
	// Wrap through Displace from the origin so periodic handling is shared.
	origin := make(vec.Vec, g.NDims())
	dst, ok := g.Displace(origin, coords)
	if !ok {
		return -1, fmt.Errorf("mpi: coordinates %v outside non-periodic grid %v", coords, g.Dims)
	}
	return g.RankOf(dst)
}

// CartShift returns the source and destination ranks for a shift of disp
// steps along dimension dim, like MPI_Cart_shift. ok is false (ProcNull)
// when the shift leaves a non-periodic mesh.
func (c *Comm) CartShift(dim, disp int) (src, dst int, srcOK, dstOK bool, err error) {
	if c.cart == nil {
		return 0, 0, false, false, fmt.Errorf("mpi: communicator has no Cartesian topology")
	}
	g := c.cart.Grid
	if dim < 0 || dim >= g.NDims() {
		return 0, 0, false, false, fmt.Errorf("mpi: shift dimension %d out of range [0,%d)", dim, g.NDims())
	}
	rel := make(vec.Vec, g.NDims())
	rel[dim] = disp
	dst, dstOK = g.RankDisplace(c.rank, rel)
	src, srcOK = g.RankDisplaceNeg(c.rank, rel)
	return src, dst, srcOK, dstOK, nil
}
