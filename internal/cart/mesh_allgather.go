package cart

import (
	"fmt"

	"cartcc/internal/vec"
)

// Message-combining allgather on non-periodic meshes, completing the mesh
// extension (mesh.go) for the second collective family.
//
// The torus allgather routes every origin's block along one shared tree.
// On a mesh, subtrees whose origins or targets fall off the grid simply do
// not exist — and, as with the alltoall, every process can decide purely
// locally which subtree blocks it holds, sends, and receives:
//
//   - The staging position of subtree s for origin o is o + P(s), where
//     P(s) is the shared coordinate prefix of s's members over the
//     processed dimensions. Each component of P(s) equals the members'
//     common offset component, so o + P(s) lies in the bounding box of
//     (o, o + N[i]) for every member i: if any member's target exists,
//     every staging hop of the subtree exists.
//   - Process r holds subtree s iff the origin o = r − P(s) is on the
//     mesh and at least one member target o + N[i] is. Sender (parent
//     position) and receiver (child position) evaluate the same
//     predicate, so round pairing is deadlock-free.
//
// Members resting at a node always have their target at the node's own
// staging position, so the torus landing rule (receive buffer for the
// first resting member, unique temp slot otherwise) carries over
// unchanged; only move existence is predicated.

// meshTreeInfo precomputes per-node data shared by sender/receiver logic.
type meshTreeInfo struct {
	tree    *AllgatherTree
	nbh     vec.Neighborhood
	grid    *vec.Grid
	prefix  map[*TreeNode]vec.Vec // P(s)
	lastHop []int                 // per member, last non-zero level
}

func newMeshTreeInfo(g *vec.Grid, nbh vec.Neighborhood) *meshTreeInfo {
	tr := BuildAllgatherTree(nbh, nil)
	info := &meshTreeInfo{tree: tr, nbh: nbh, grid: g, prefix: map[*TreeNode]vec.Vec{}}
	d := nbh.Dims()
	info.lastHop = make([]int, len(nbh))
	for i, rel := range nbh {
		info.lastHop[i] = -1
		for l := 0; l < d; l++ {
			if rel[tr.DimOrder[l]] != 0 {
				info.lastHop[i] = l
			}
		}
	}
	var walk func(n *TreeNode, acc vec.Vec)
	walk = func(n *TreeNode, acc vec.Vec) {
		p := acc.Clone()
		if n.Level >= 0 {
			p[tr.DimOrder[n.Level]] += n.Coord
		}
		info.prefix[n] = p
		for _, ch := range n.Children {
			walk(ch, p)
		}
	}
	walk(tr.Root, make(vec.Vec, d))
	return info
}

// activeAt reports whether process r holds subtree s: the origin exists
// and some member's target does. It also returns the origin's rank.
func (mi *meshTreeInfo) activeAt(r int, s *TreeNode) (origin int, ok bool) {
	o, ok := mi.grid.RankDisplaceNeg(r, mi.prefix[s])
	if !ok {
		return -1, false
	}
	for _, m := range s.Members {
		if _, ok := mi.grid.RankDisplace(o, mi.nbh[m]); ok {
			return o, true
		}
	}
	return -1, false
}

// landing picks the staging location of node s: the receive-buffer slot of
// the first resting member, else a fresh temp slot (allocated by the
// caller).
func (mi *meshTreeInfo) restingMember(s *TreeNode) (int, bool) {
	for _, m := range s.Members {
		if mi.lastHop[m] <= s.Level {
			return m, true
		}
	}
	return -1, false
}

// compileMeshAllgather builds the executable mesh allgather plan for this
// process.
func (c *Comm) compileMeshAllgather(geom BlockGeometry) (*Plan, error) {
	mi := newMeshTreeInfo(c.grid, c.nbh)
	tr := mi.tree
	d := c.nbh.Dims()
	rank := c.comm.Rank()
	p := &Plan{comm: c, op: OpAllgather, algo: Combining, cmet: c.cmet}

	// Per-node landing bookkeeping for THIS process (as receiver/holder).
	type landing struct {
		buf  BufKind
		slot int
	}
	land := map[*TreeNode]landing{tr.Root: {BufSend, 0}}
	tempSeq := 0

	frontier := []*TreeNode{tr.Root}
	for level := 0; level < d; level++ {
		k := tr.DimOrder[level]
		var next []*TreeNode
		var hops []*TreeNode
		for _, parent := range frontier {
			for _, ch := range parent.Children {
				if ch.Coord == 0 {
					// Pass-throughs share the parent's staging; an
					// inactive parent simply has no entry to propagate.
					if pl, ok := land[parent]; ok {
						land[ch] = pl
					}
				} else {
					hops = append(hops, ch)
				}
				next = append(next, ch)
			}
		}
		// Stable-sort hops by coordinate to form rounds. The hop list and
		// its coordinate grouping derive from the shared tree, identical on
		// every rank; slot counts distinct coordinates (rounds of the
		// global phase structure) so tags agree across ranks even when
		// flush drops a round that is empty here but not at a peer.
		sortNodesByCoord(hops)
		var rounds []execRound
		var cur *execRound
		curCoord := 0
		have := false
		slot := -1
		flush := func() {
			if cur != nil && (cur.sendTo != ProcNull && cur.send.Size() > 0 || cur.recvFrom != ProcNull && cur.recv.Size() > 0) {
				// Normalize: drop the send or recv side if it carries
				// nothing.
				if cur.send.Size() == 0 {
					cur.sendTo = ProcNull
				}
				if cur.recv.Size() == 0 {
					cur.recvFrom = ProcNull
				}
				rounds = append(rounds, *cur)
				p.rounds++
			}
			cur = nil
		}
		for _, s := range hops {
			if !have || s.Coord != curCoord {
				flush()
				slot++
				rel := make(vec.Vec, d)
				rel[k] = s.Coord
				er := execRound{sendTo: ProcNull, recvFrom: ProcNull, tag: roundTag(level, slot, len(c.nbh))}
				if dst, ok := c.grid.RankDisplace(rank, rel); ok {
					er.sendTo = dst
				}
				if src, ok := c.grid.RankDisplaceNeg(rank, rel); ok {
					er.recvFrom = src
				}
				cur = &er
				curCoord = s.Coord
				have = true
			}
			// Sender side: r is the parent position of s, forwarding from
			// wherever it staged the parent subtree. If s is active at
			// the target, the parent must be active here (same origin,
			// superset members), so the staging exists.
			if cur.sendTo != ProcNull {
				if _, ok := mi.activeAt(cur.sendTo, s); ok {
					pl, ok := land[s.Parent]
					if !ok {
						return nil, errMeshStaging(rank, s)
					}
					cur.send.Append(bufIndex(pl.buf), layoutFor(pl.buf, pl.slot, geom))
					p.volume++
				}
			}
			// Receiver side: r is the position of s itself. When s is
			// active here, the sender position r − c·e_k lies on the path
			// inside the origin–target bounding box, so it is always on
			// the mesh.
			if _, ok := mi.activeAt(rank, s); ok {
				if cur.recvFrom == ProcNull {
					return nil, errMeshStaging(rank, s)
				}
				var l landing
				if rest, ok := mi.restingMember(s); ok {
					l = landing{BufRecv, rest}
				} else {
					l = landing{BufTemp, tempSeq}
					tempSeq++
				}
				land[s] = l
				cur.recv.Append(bufIndex(l.buf), layoutFor(l.buf, l.slot, geom))
				if hi := tempHigh(geom, l.buf, l.slot); hi > p.tempLen {
					p.tempLen = hi
				}
			}
		}
		flush()
		p.phases = append(p.phases, rounds)
		frontier = next
	}

	// Local copies: each member whose origin exists rests at the node of
	// its last non-zero level (the root for the zero offset); copy from
	// that node's staging unless it already landed in place.
	for i := range c.nbh {
		if _, ok := c.grid.RankDisplaceNeg(rank, c.nbh[i]); !ok {
			continue // no source: the receive block stays untouched
		}
		target := mi.restingNodeOf(i)
		l, ok := land[target]
		if !ok {
			return nil, errMeshStaging(rank, target)
		}
		if l.buf == BufRecv && l.slot == i {
			continue // already in place
		}
		p.copies = append(p.copies, execCopy{
			fromBuf: bufIndex(l.buf),
			from:    layoutFor(l.buf, l.slot, geom),
			to:      geom.RecvAt(i),
		})
	}
	buildDAG(p)
	return p, nil
}

// errMeshStaging reports a violated mesh-allgather invariant (a bug, not a
// user error).
func errMeshStaging(rank int, s *TreeNode) error {
	return fmt.Errorf("cart: internal: mesh allgather staging missing at rank %d for subtree members %v", rank, s.Members)
}

// tempHigh returns the temp extent needed for a landing.
func tempHigh(geom BlockGeometry, b BufKind, slot int) int {
	if b != BufTemp {
		return 0
	}
	_, hi := geom.TempAt(slot).Bounds()
	return hi
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

// restingNodeOf returns the node where member i's block comes to rest:
// the hopping node at its last non-zero level, or the root for the zero
// offset.
func (mi *meshTreeInfo) restingNodeOf(i int) *TreeNode {
	target := mi.tree.Root
	node := mi.tree.Root
	for {
		nxt := childContaining(node, i)
		if nxt == nil {
			break
		}
		node = nxt
		if nxt.Coord != 0 && nxt.Level == mi.lastHop[i] {
			target = nxt
		}
	}
	return target
}

// childContaining returns the child of n whose member set contains i.
func childContaining(n *TreeNode, i int) *TreeNode {
	for _, ch := range n.Children {
		for _, m := range ch.Members {
			if m == i {
				return ch
			}
		}
	}
	return nil
}

// MeshAllgatherInit precomputes the mesh-aware message-combining allgather
// plan for blocks of m elements. On a torus it matches AllgatherInit with
// Combining in rounds and volume.
func MeshAllgatherInit(c *Comm, m int) (*Plan, error) {
	p, err := c.compileMeshAllgather(uniformGeometry(OpAllgather, m))
	if err != nil {
		return nil, err
	}
	t := len(c.nbh)
	p.setLens(m, t*m)
	return p, nil
}
