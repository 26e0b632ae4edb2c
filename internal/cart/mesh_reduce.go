package cart

import "cartcc/internal/vec"

// Message-combining neighborhood reduction on non-periodic meshes — the
// reversed mesh allgather. A contribution from process q destined for
// dest = q + N[m] climbs the (pruned) routing tree toward dest, combined
// at intermediates; positions along the climb stay inside the bounding
// box of (q, dest), and the activity of an accumulator is decidable
// locally on both sides of every hop:
//
//	acc(s) at r is live  iff  dest = r + P(s) is on the mesh and some
//	member m of s has its source dest − N[m] on the mesh.
//
// Contributions whose destination falls off the mesh are dropped at the
// source; a process with no sources leaves its result untouched, exactly
// like the trivial algorithm.

// meshCombiningReducePlan builds the per-process reversed-tree reduction
// plan for a (possibly partially) non-periodic mesh.
func meshCombiningReducePlan(c *Comm, m int) *ReducePlan {
	mi := newMeshTreeInfo(c.grid, c.nbh)
	tr := mi.tree
	d := c.nbh.Dims()
	rank := c.comm.Rank()
	p := &ReducePlan{comm: c, algo: Combining, m: m}

	// Accumulator slots: one per tree node; pass-throughs share their
	// parent's slot (set during the forward level walk below).
	slotOf := map[*TreeNode]int{}
	var assign func(n *TreeNode)
	assign = func(n *TreeNode) {
		slotOf[n] = p.accSlots
		p.accSlots++
		for _, ch := range n.Children {
			assign(ch)
		}
	}
	assign(tr.Root)
	p.rootSlot = slotOf[tr.Root]

	// liveAt: the reduction-side activity predicate.
	liveAt := func(s *TreeNode, r int) bool {
		dest, ok := c.grid.RankDisplace(r, mi.prefix[s])
		if !ok {
			return false
		}
		return hasAnySource(c.grid, dest, mi.nbh, s.Members)
	}

	// Seeds: member i's own contribution enters at its resting node iff
	// the destination rank + N[i] exists. Count one seed per occurrence
	// (duplicates).
	seedTimes := map[*TreeNode]int{}
	for i := range c.nbh {
		if _, ok := c.grid.RankDisplace(rank, c.nbh[i]); !ok {
			continue // destination off-mesh: contribution dropped
		}
		seedTimes[mi.restingNodeOf(i)]++
	}

	// Forward walk to collect hopping nodes per level and propagate the
	// pass-through slot sharing.
	frontier := []*TreeNode{tr.Root}
	levels := make([][]*TreeNode, d)
	for level := 0; level < d; level++ {
		var next []*TreeNode
		for _, parent := range frontier {
			for _, ch := range parent.Children {
				if ch.Coord == 0 {
					slotOf[ch] = slotOf[parent]
				} else {
					levels[level] = append(levels[level], ch)
				}
				next = append(next, ch)
			}
		}
		frontier = next
	}
	// Seeds map to slots after sharing is resolved.
	for node, times := range seedTimes {
		p.inits = append(p.inits, accInit{slot: slotOf[node], times: times})
	}

	// Reverse levels: one round per distinct coordinate, moves predicated
	// on liveness at the sender position.
	for level := d - 1; level >= 0; level-- {
		k := tr.DimOrder[level]
		nodes := append([]*TreeNode(nil), levels[level]...)
		sortNodesByCoord(nodes)
		var rounds []reduceRound
		var cur *reduceRound
		curCoord := 0
		have := false
		flush := func() {
			if cur != nil && (len(cur.sendSlots) > 0 || len(cur.recvSlots) > 0) {
				if len(cur.sendSlots) == 0 {
					cur.sendTo = ProcNull
				}
				if len(cur.recvSlots) == 0 {
					cur.recvFrom = ProcNull
				}
				rounds = append(rounds, *cur)
				p.rounds++
			}
			cur = nil
		}
		for _, s := range nodes {
			if !have || s.Coord != curCoord {
				flush()
				rel := make(vec.Vec, d)
				rel[k] = s.Coord
				r := reduceRound{sendTo: ProcNull, recvFrom: ProcNull}
				if dst, ok := c.grid.RankDisplace(rank, rel); ok {
					r.sendTo = dst
				}
				if src, ok := c.grid.RankDisplaceNeg(rank, rel); ok {
					r.recvFrom = src
				}
				cur = &r
				curCoord = s.Coord
				have = true
			}
			// Sender: this process forwards acc(s) toward the root when
			// live here (the hop target is then on the mesh by the
			// bounding-box argument).
			if cur.sendTo != ProcNull && liveAt(s, rank) {
				cur.sendSlots = append(cur.sendSlots, slotOf[s])
				p.volume++
			}
			// Receiver: the peer at −c·e_k forwards when live THERE.
			if cur.recvFrom != ProcNull && liveAt(s, cur.recvFrom) {
				cur.recvSlots = append(cur.recvSlots, slotOf[s.Parent])
			}
		}
		flush()
		p.phases = append(p.phases, rounds)
	}
	return p
}

// hasAnySource reports whether any member's source exists for dest.
func hasAnySource(g *vec.Grid, dest int, nbh vec.Neighborhood, members []int) bool {
	for _, m := range members {
		if _, ok := g.RankDisplaceNeg(dest, nbh[m]); ok {
			return true
		}
	}
	return false
}
