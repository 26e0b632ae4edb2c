package cart

import (
	"sort"

	"cartcc/internal/vec"
)

// AllgatherTree is the routing tree of Algorithm 2 of the paper: the
// communication pattern along which one process's block reaches all of its
// target neighbors, built by recursive stable bucket sorting over the
// dimensions. All processes use the same tree simultaneously, so the tree
// also describes, symmetrically, everything a process forwards on behalf
// of others.
type AllgatherTree struct {
	// Root is the tree root (the originating process).
	Root *TreeNode
	// DimOrder is the dimension processing order used for construction.
	DimOrder []int
	// Edges is the number of tree edges, the per-process communication
	// volume V of the allgather schedule (Proposition 3.3).
	Edges int
}

// TreeNode is a subtree of an allgather routing tree. Each non-root node
// with Coord != 0 corresponds to one hop: the subtree's block steps Coord
// along dimension DimOrder[Level]; nodes with Coord == 0 are pass-throughs
// and cost no communication. Members are the neighbor indices the subtree
// serves, in stable bucket-sorted order.
type TreeNode struct {
	Members []int
	// Level indexes into DimOrder; the root has level -1.
	Level int
	// Coord is the node's step along dimension DimOrder[Level]; 0 for the
	// root and for pass-through nodes.
	Coord    int
	Children []*TreeNode
	// Parent is nil at the root.
	Parent *TreeNode

	// Staging bookkeeping filled in by the schedule construction: where
	// this subtree's block is read from (the parent's staging) and where it
	// lands after this node's hop.
	fromBuf  BufKind
	fromSlot int
	landBuf  BufKind
	landSlot int
}

// Rep returns the node's representative neighbor index (the first member
// in stable sorted order), the block index attributed to the node's moves.
func (n *TreeNode) Rep() int { return n.Members[0] }

// ckOrder returns the dimensions sorted by increasing C_k (number of
// distinct non-zero k-th coordinates), ties by dimension index — the
// paper's heuristic order that keeps the tree volume small (Figure 2).
func ckOrder(nbh vec.Neighborhood) []int {
	d := nbh.Dims()
	ck := make([]int, d)
	for k := 0; k < d; k++ {
		ck[k] = vec.CountDistinctNonZero(nbh, k)
	}
	order := identityOrder(d)
	sort.SliceStable(order, func(a, b int) bool { return ck[order[a]] < ck[order[b]] })
	return order
}

// BuildAllgatherTree constructs the allgather routing tree for the
// neighborhood in the given dimension order (nil for the paper's
// increasing-C_k order). O(td) time via stable bucket sorts.
func BuildAllgatherTree(nbh vec.Neighborhood, dimOrder []int) *AllgatherTree {
	if dimOrder == nil {
		dimOrder = ckOrder(nbh)
	}
	tr := &AllgatherTree{DimOrder: dimOrder}
	all := make([]int, len(nbh))
	for i := range all {
		all[i] = i
	}
	tr.Root = buildTreeNode(nbh, dimOrder, all, -1, 0, tr)
	return tr
}

// buildTreeNode recursively buckets members by the coordinate of the next
// dimension (Algorithm 2's AllgatherTree function).
func buildTreeNode(nbh vec.Neighborhood, dimOrder []int, members []int, level, coord int, tr *AllgatherTree) *TreeNode {
	n := &TreeNode{Members: members, Level: level, Coord: coord}
	if coord != 0 {
		tr.Edges++
	}
	next := level + 1
	if next >= len(dimOrder) {
		return n
	}
	k := dimOrder[next]
	// Stable bucket sort of members by their k-th coordinate.
	sub := make(vec.Neighborhood, len(members))
	for i, m := range members {
		sub[i] = nbh[m]
	}
	order := vec.BucketSortByCoord(sub, k)
	sorted := make([]int, len(members))
	for i, o := range order {
		sorted[i] = members[o]
	}
	// Split into runs of equal k-th coordinate.
	s := 0
	for i := 0; i < len(sorted); i++ {
		if i == len(sorted)-1 || nbh[sorted[i]][k] != nbh[sorted[i+1]][k] {
			group := sorted[s : i+1]
			child := buildTreeNode(nbh, dimOrder, group, next, nbh[group[0]][k], tr)
			child.Parent = n
			n.Children = append(n.Children, child)
			s = i + 1
		}
	}
	return n
}

// AllgatherSchedule computes the message-combining allgather schedule of
// Algorithm 2 in O(td) time, purely locally: build the routing tree in
// increasing-C_k dimension order, then traverse it breadth-first, emitting
// one round per level and distinct non-zero coordinate. In a round every
// process sends, for each subtree stepping by that coordinate, the block
// staged at the subtree's parent (its own send buffer at the root), and
// symmetrically receives the corresponding blocks into the subtrees'
// staging locations.
//
// Staging discipline: when a subtree contains a member whose remaining
// coordinates are all zero (the hop is that member's final one), the block
// lands directly at that member's position in the receive buffer — it is
// final there and, because deeper subtrees stage elsewhere, is never
// overwritten, so later phases may forward it from that position
// (zero-copy). Otherwise the block lands in a staging slot of the
// temporary buffer unique to the tree node. This is a safe refinement of
// the paper's two-buffer alternation: identical round and volume counts,
// but no transient staging location is ever rewritten while a slower
// sibling subtree still needs to read it.
//
// The schedule has C = Σ_k C_k rounds and volume V = Edges(T)
// (Proposition 3.3). Zero-offset neighbors and duplicated offsets become
// local copies.
func AllgatherSchedule(nbh vec.Neighborhood) *Schedule {
	return allgatherSchedule(nbh, boundary{})
}

// allgatherSchedule is AllgatherSchedule as seen from the rank of b. On a
// grid with a boundary (boundary.go) subtrees whose origin or targets all
// fall off the grid do not exist: the rank receives subtree s iff s is at
// the rank, and sends it iff s is at the round's target. If s is at the
// target its parent is at the sender (same origin, more members), so the
// staging it forwards from exists. Members resting at a node have their
// target at the node's own position, so the landing rule carries over;
// the rank numbers temp slots only for the subtrees it receives.
func allgatherSchedule(nbh vec.Neighborhood, b boundary) *Schedule {
	tr := BuildAllgatherTree(nbh, nil)
	d := nbh.Dims()
	s := &Schedule{Op: OpAllgather, Algo: Combining, DimOrder: tr.DimOrder}
	var prefix map[*TreeNode]vec.Vec
	if b.mesh() {
		prefix = treePrefixes(tr)
	}

	// lastHopLevel[i] is the last level (in tree dimension order) at which
	// neighbor i has a non-zero coordinate; -1 for the zero offset. A
	// member m "rests" in a subtree formed at level L iff
	// lastHopLevel[m] <= L.
	lastHopLevel := make([]int, len(nbh))
	for i, rel := range nbh {
		lastHopLevel[i] = -1
		for l := 0; l < d; l++ {
			if rel[tr.DimOrder[l]] != 0 {
				lastHopLevel[i] = l
			}
		}
	}

	tr.Root.landBuf, tr.Root.landSlot = BufSend, 0
	frontier := []*TreeNode{tr.Root}
	for level := 0; level < d; level++ {
		k := tr.DimOrder[level]
		var next []*TreeNode
		var hopping []*TreeNode
		for _, parent := range frontier {
			for _, ch := range parent.Children {
				next = append(next, ch)
				if ch.Coord == 0 {
					// Pass-through: no communication, inherit staging.
					ch.landBuf, ch.landSlot = parent.landBuf, parent.landSlot
					continue
				}
				hopping = append(hopping, ch)
				ch.fromBuf, ch.fromSlot = parent.landBuf, parent.landSlot
				if b.mesh() && !b.holds(b.rank, prefix[ch], nbh, ch.Members, false) {
					continue // never received here: no landing
				}
				resting := -1
				for _, m := range ch.Members {
					if lastHopLevel[m] <= level {
						resting = m
						break
					}
				}
				if resting >= 0 {
					ch.landBuf, ch.landSlot = BufRecv, resting
				} else {
					ch.landBuf, ch.landSlot = BufTemp, s.TempSlots
					s.TempSlots++
					s.NeedTemp = true
				}
			}
		}
		rounds := groupRounds(hopping, k, d, nbh, b, prefix)
		s.Phases = append(s.Phases, Phase{Dim: k, Rounds: rounds})
		s.Rounds += len(rounds)
		s.Volume += len(hopping)
		frontier = next
	}

	// Leaves: every member not already final at its own receive position —
	// duplicated offsets and the zero offset — is served by a local copy
	// from the leaf's staging. A leaf is at this rank iff its members'
	// common source is on the grid.
	for _, leaf := range frontier {
		if b.mesh() && !b.holds(b.rank, prefix[leaf], nbh, leaf.Members, false) {
			continue
		}
		for _, m := range leaf.Members {
			if leaf.landBuf == BufRecv && m == leaf.landSlot {
				continue
			}
			s.Copies = append(s.Copies, LocalCopy{From: leaf.landBuf, FromSlot: leaf.landSlot, ToSlot: m})
		}
	}
	return s
}

// groupRounds buckets the hopping nodes of one level by coordinate and
// emits one round per distinct value, moves in stable node order. On a
// grid with a boundary a node's move is sent only if the node is at the
// round's target and received only if it is at this rank.
func groupRounds(hopping []*TreeNode, k, d int, nbh vec.Neighborhood, b boundary, prefix map[*TreeNode]vec.Vec) []Round {
	if len(hopping) == 0 {
		return nil
	}
	sorted := append([]*TreeNode(nil), hopping...)
	sortNodesByCoord(sorted)
	var rounds []Round
	var cur *Round
	curCoord := 0
	dst, dstOK := 0, false
	for _, n := range sorted {
		if cur == nil || n.Coord != curCoord {
			rel := make(vec.Vec, d)
			rel[k] = n.Coord
			rounds = append(rounds, Round{Rel: rel})
			cur = &rounds[len(rounds)-1]
			curCoord = n.Coord
			if b.mesh() {
				cur.RecvMoves = []Move{}
				dst, dstOK = b.grid.RankDisplace(b.rank, rel)
			}
		}
		mv := Move{
			Block:    n.Rep(),
			From:     n.fromBuf,
			FromSlot: n.fromSlot,
			To:       n.landBuf,
			ToSlot:   n.landSlot,
		}
		if !b.mesh() {
			cur.Moves = append(cur.Moves, mv)
			continue
		}
		if dstOK && b.holds(dst, prefix[n], nbh, n.Members, false) {
			cur.Moves = append(cur.Moves, mv)
		}
		if b.holds(b.rank, prefix[n], nbh, n.Members, false) {
			cur.RecvMoves = append(cur.RecvMoves, mv)
		}
	}
	return rounds
}

// sortNodesByCoord stable-sorts tree nodes by their hop coordinate
// (insertion sort; per-level node counts are small).
func sortNodesByCoord(nodes []*TreeNode) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].Coord < nodes[j-1].Coord; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}
