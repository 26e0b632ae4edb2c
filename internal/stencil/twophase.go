package stencil

import (
	"fmt"

	"cartcc/internal/cart"
	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// Two-phase halo exchange — the "combined schedule" the paper sketches in
// Section 3.4: for the stencil pattern of Figure 1 the corner blocks
// overlap the row/column blocks, so the plain alltoall schedule sends the
// corner data twice (once inside the row/column, once as its own block
// forwarded over two hops). Combining an irregular alltoall for the
// rows/columns with forwarding for the corners removes the duplication.
//
// The classic realization is dimension-by-dimension exchange with widened
// strips: first exchange the side strips (dimension 1), then exchange the
// top/bottom strips *including the side halos just received* (dimension
// 0). Corners then arrive via two forwarding hops inside data that had to
// travel anyway; no diagonal message and no duplicated corner bytes.
// Rounds match the message-combining Moore schedule (C = 2d for the
// 3^d-point stencil); per-exchange element volume drops from
// 2h(nx+ny) + 2·4h² to 2h(nx+ny) + 4h².

// TwoPhaseExchanger2D is the combined-schedule halo exchanger for 2-D
// grids. It is a drop-in alternative to Exchanger2D with corners=true.
type TwoPhaseExchanger2D struct {
	comm     *cart.Comm // the dimension-0 communicator (owns the grid)
	colComm  *cart.Comm
	colPlan  *cart.Plan // phase 1: left/right interior strips
	rowPlan  *cart.Plan // phase 2: widened top/bottom strips
	elemsCol int
	elemsRow int
}

// Comm returns the Cartesian communicator of the exchanger (dimension-0
// neighborhood).
func (e *TwoPhaseExchanger2D) Comm() *cart.Comm { return e.comm }

// VolumeElements returns the elements sent per process per exchange —
// the quantity the Section 3.4 optimization reduces.
func (e *TwoPhaseExchanger2D) VolumeElements() int { return e.elemsCol + e.elemsRow }

// NewTwoPhaseExchanger2D builds the combined-schedule exchanger for g over
// the process torus procDims.
func NewTwoPhaseExchanger2D[T any](base *mpi.Comm, procDims []int, g *Grid2D[T], algo cart.Algorithm) (*TwoPhaseExchanger2D, error) {
	if len(procDims) != 2 {
		return nil, fmt.Errorf("stencil: 2-D exchanger needs 2 process dimensions, got %v", procDims)
	}
	if g.Halo < 1 {
		return nil, fmt.Errorf("stencil: halo exchange needs halo >= 1")
	}
	h := g.Halo

	// Phase 1: columns (dimension 1). Interior strips only: nx rows × h.
	colNbh := vec.Neighborhood{{0, -1}, {0, 1}}
	colSend := []datatype.Layout{
		strip2D(g, 0, g.NX, 0, h),         // left interior strip to (0,-1)
		strip2D(g, 0, g.NX, g.NY-h, g.NY), // right interior strip to (0,1)
	}
	colRecv := []datatype.Layout{
		strip2D(g, 0, g.NX, g.NY, g.NY+h), // from (0,1) side: right halo
		strip2D(g, 0, g.NX, -h, 0),        // left halo
	}
	colComm, err := cart.NeighborhoodCreate(base, procDims, nil, colNbh, nil, cart.WithAlgorithm(algo))
	if err != nil {
		return nil, err
	}
	colPlan, err := cart.AlltoallwInit(colComm, colSend, colRecv, algo)
	if err != nil {
		return nil, err
	}

	// Phase 2: rows (dimension 0), widened to include the side halos the
	// first phase just filled — this is what forwards the corners.
	rowNbh := vec.Neighborhood{{-1, 0}, {1, 0}}
	rowSend := []datatype.Layout{
		strip2D(g, 0, h, -h, g.NY+h),         // widened top strip to (-1,0)
		strip2D(g, g.NX-h, g.NX, -h, g.NY+h), // widened bottom strip to (1,0)
	}
	rowRecv := []datatype.Layout{
		strip2D(g, g.NX, g.NX+h, -h, g.NY+h), // from (1,0): bottom halo (widened)
		strip2D(g, -h, 0, -h, g.NY+h),        // top halo (widened)
	}
	rowComm, err := cart.NeighborhoodCreate(base, procDims, nil, rowNbh, nil, cart.WithAlgorithm(algo))
	if err != nil {
		return nil, err
	}
	rowPlan, err := cart.AlltoallwInit(rowComm, rowSend, rowRecv, algo)
	if err != nil {
		return nil, err
	}

	return &TwoPhaseExchanger2D{
		comm:     rowComm,
		colComm:  colComm,
		colPlan:  colPlan,
		rowPlan:  rowPlan,
		elemsCol: colSend[0].Size() + colSend[1].Size(),
		elemsRow: rowSend[0].Size() + rowSend[1].Size(),
	}, nil
}

// strip2D is the layout of rows [r0, rn) × cols [c0, cn) in interior
// coordinates (negative = halo).
func strip2D[T any](g *Grid2D[T], r0, rn, c0, cn int) datatype.Layout {
	var l datatype.Layout
	for r := r0; r < rn; r++ {
		l.Append(g.Idx(r, c0), cn-c0)
	}
	return l
}

// ExchangeTwoPhase2D runs both phases, filling g's full halo including the
// corners.
func ExchangeTwoPhase2D[T any](e *TwoPhaseExchanger2D, g *Grid2D[T]) error {
	if err := cart.Run(e.colPlan, g.Cells, g.Cells); err != nil {
		return err
	}
	return cart.Run(e.rowPlan, g.Cells, g.Cells)
}

// MooreVolumeElements2D returns the per-process element volume of the
// plain Moore (8-neighbor) combining exchange for the same grid — the
// comparison baseline for the Section 3.4 optimization: rows/columns plus
// corners forwarded over two hops (2·h² per corner).
func MooreVolumeElements2D[T any](g *Grid2D[T]) int {
	h := g.Halo
	return 2*h*g.NX + 2*h*g.NY + 4*2*h*h
}

// TwoPhaseExchanger3D is the 3-D combined-schedule exchanger: three
// dimension-by-dimension phases with progressively widened slabs, filling
// the full 26-neighbor halo (faces, edges and corners) without any
// diagonal message.
type TwoPhaseExchanger3D struct {
	plans []*cart.Plan
	// elems is the per-exchange send volume in elements, summed over the
	// phases (the Section 3.4 volume the tests check against Moore's).
	elems int
}

// NewTwoPhaseExchanger3D builds the three-phase exchanger for g over the
// process torus procDims.
func NewTwoPhaseExchanger3D[T any](base *mpi.Comm, procDims []int, g *Grid3D[T], algo cart.Algorithm) (*TwoPhaseExchanger3D, error) {
	if len(procDims) != 3 {
		return nil, fmt.Errorf("stencil: 3-D exchanger needs 3 process dimensions, got %v", procDims)
	}
	if g.Halo < 1 {
		return nil, fmt.Errorf("stencil: halo exchange needs halo >= 1")
	}
	h := g.Halo
	e := &TwoPhaseExchanger3D{}

	// Phase ranges per dimension: how far the slab extends in the other
	// dimensions grows as earlier phases fill their halos.
	type phase struct {
		dim        int
		xr, yr, zr [2]int // extents of the slab in the non-dim axes
	}
	phases := []phase{
		{dim: 2, xr: [2]int{0, g.NX}, yr: [2]int{0, g.NY}},
		{dim: 1, xr: [2]int{0, g.NX}, zr: [2]int{-h, g.NZ + h}},
		{dim: 0, yr: [2]int{-h, g.NY + h}, zr: [2]int{-h, g.NZ + h}},
	}
	for _, ph := range phases {
		var nbh vec.Neighborhood
		var sendL, recvL []datatype.Layout
		for _, dir := range []int{-1, 1} {
			rel := make(vec.Vec, 3)
			rel[ph.dim] = dir
			nbh = append(nbh, rel)
			sendL = append(sendL, slab3D(g, ph.dim, dir, true, ph.xr, ph.yr, ph.zr))
			recvL = append(recvL, slab3D(g, ph.dim, -dir, false, ph.xr, ph.yr, ph.zr))
		}
		c, err := cart.NeighborhoodCreate(base, procDims, nil, nbh, nil, cart.WithAlgorithm(algo))
		if err != nil {
			return nil, err
		}
		plan, err := cart.AlltoallwInit(c, sendL, recvL, algo)
		if err != nil {
			return nil, err
		}
		e.plans = append(e.plans, plan)
		e.elems += sendL[0].Size() + sendL[1].Size()
	}
	return e, nil
}

// slab3D builds the layout of a halo-depth slab on the dir side of
// dimension dim, bounded by the given ranges in the other dimensions
// (zero-valued ranges default to the dimension's interior).
func slab3D[T any](g *Grid3D[T], dim, dir int, send bool, xr, yr, zr [2]int) datatype.Layout {
	ranges := [3][2]int{xr, yr, zr}
	dims := [3]int{g.NX, g.NY, g.NZ}
	for i := range ranges {
		if ranges[i] == ([2]int{}) {
			ranges[i] = [2]int{0, dims[i]}
		}
	}
	lo, hi := sideRange(dir, dims[dim], g.Halo, send)
	ranges[dim] = [2]int{lo, hi}
	var l datatype.Layout
	for x := ranges[0][0]; x < ranges[0][1]; x++ {
		for y := ranges[1][0]; y < ranges[1][1]; y++ {
			l.Append(g.Idx(x, y, ranges[2][0]), ranges[2][1]-ranges[2][0])
		}
	}
	return l
}

// ExchangeTwoPhase3D runs all three phases, filling g's full halo.
func ExchangeTwoPhase3D[T any](e *TwoPhaseExchanger3D, g *Grid3D[T]) error {
	for _, p := range e.plans {
		if err := cart.Run(p, g.Cells, g.Cells); err != nil {
			return err
		}
	}
	return nil
}

// MooreVolumeElements3D returns the per-process element volume of the
// plain 26-neighbor combining exchange for the same grid: faces once,
// edges twice, corners three times (one copy per hop).
func MooreVolumeElements3D[T any](g *Grid3D[T]) int {
	h := g.Halo
	faces := 2 * (g.NX*g.NY + g.NY*g.NZ + g.NX*g.NZ) * h
	edges := 4 * (g.NX + g.NY + g.NZ) * h * h * 2
	corners := 8 * h * h * h * 3
	return faces + edges + corners
}
