package cart

import "cartcc/internal/vec"

// Message combining on grids with a boundary: non-periodic meshes and
// mixed grids, the case the paper leaves open ("details for non-periodic
// meshes are not discussed further here", Section 2). The torus builders
// take the grid's boundary predicate as a parameter; on a torus it is
// always true and never evaluated.
//
// Two observations make it work:
//
//  1. A block set staged at position o + P, where o is its origin and P
//     the shared coordinate prefix of its members over the dimensions
//     routed so far, lies component-wise between o and o + N[i] for every
//     member i (each coordinate is o_j or o_j + n_j). If the origin and
//     some member's target are on the grid, so is every hop; no rerouting
//     is ever needed.
//  2. Although boundary processes relay different block sets (the
//     neighborhoods are no longer effectively isomorphic), every process
//     can decide purely locally, in O(td), which sets it holds, sends and
//     receives: set s is at rank r iff its origin r − P(s) is on the grid
//     and some member's target is. Sender and receiver evaluate the same
//     predicate, so the per-round pairing, and with it deadlock freedom,
//     is preserved even though schedules now differ between processes.
//
// Each rank's schedule keeps every round of the global phase structure,
// so round tags agree across ranks; a round can be empty at a rank, and
// compile drops it there. The round count C and the volume V a schedule
// records are the interior bounds, identical on every rank.

// boundary is a grid's boundary predicate seen from one rank. The zero
// value is the torus: every displacement stays on the grid.
type boundary struct {
	grid *vec.Grid
	rank int
}

// boundary returns the communicator's boundary predicate, the zero value
// on a fully periodic grid.
func (c *Comm) boundary() boundary {
	if c.IsPeriodic() {
		return boundary{}
	}
	return boundary{grid: c.grid, rank: c.comm.Rank()}
}

// mesh reports whether the grid has a boundary at all.
func (b boundary) mesh() bool { return b.grid != nil }

// holds reports whether the block set of the members, staged at offset
// prefix from its origin, is at rank r: the origin r − prefix is on the
// grid and so is some member's target. reverse evaluates the adjoint for
// the reduction, whose partial sums flow from sources to a destination:
// the destination r + prefix is on the grid and so is some member's
// source.
func (b boundary) holds(r int, prefix vec.Vec, nbh vec.Neighborhood, members []int, reverse bool) bool {
	var o int
	var ok bool
	if reverse {
		o, ok = b.grid.RankDisplace(r, prefix)
	} else {
		o, ok = b.grid.RankDisplaceNeg(r, prefix)
	}
	if !ok {
		return false
	}
	for _, m := range members {
		if reverse {
			_, ok = b.grid.RankDisplaceNeg(o, nbh[m])
		} else {
			_, ok = b.grid.RankDisplace(o, nbh[m])
		}
		if ok {
			return true
		}
	}
	return false
}

// prefixBefore returns the relative position of a block with offset rel
// at the start of phase k: the components of rel for dimensions < k, zero
// after.
func prefixBefore(rel vec.Vec, k int) vec.Vec {
	p := make(vec.Vec, len(rel))
	copy(p[:k], rel[:k])
	return p
}

// treePrefixes returns P(s) for every node of an allgather tree: the
// members' shared offset over the dimensions routed down to s.
func treePrefixes(tr *AllgatherTree) map[*TreeNode]vec.Vec {
	out := map[*TreeNode]vec.Vec{}
	var walk func(n *TreeNode, acc vec.Vec)
	walk = func(n *TreeNode, acc vec.Vec) {
		p := acc.Clone()
		if n.Level >= 0 {
			p[tr.DimOrder[n.Level]] += n.Coord
		}
		out[n] = p
		for _, ch := range n.Children {
			walk(ch, p)
		}
	}
	walk(tr.Root, make(vec.Vec, len(tr.DimOrder)))
	return out
}
