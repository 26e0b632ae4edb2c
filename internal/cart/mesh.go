package cart

import (
	"cartcc/internal/vec"
)

// Message-combining alltoall on non-periodic meshes — the case the paper
// leaves open ("details for non-periodic meshes are not discussed further
// here", Section 2).
//
// Two observations make it work:
//
//  1. Every intermediate position of the dimension-wise path expansion
//     lies component-wise between the origin o and the target o + N[i]
//     (each coordinate is either o_j or o_j + n_j), so if both endpoints
//     are on the mesh, so is every hop — no rerouting is ever needed.
//  2. Although boundary processes relay different block sets (the
//     neighborhoods are no longer effectively isomorphic), each process
//     can compute, purely locally and in O(td) time, both the set of
//     blocks it must send in a round and the set its partner will send to
//     it: block i is at position r when phase k starts iff its origin
//     o = r − prefix_k(N[i]) is on the mesh and o's target o + N[i] is
//     too. Sender and receiver evaluate the same predicate, so the
//     per-round pairing — and hence deadlock freedom — is preserved
//     even though schedules now differ between processes.
//
// Rounds at a process can be empty (nothing to relay in that direction);
// both sides skip them consistently. The round count C and the volume V
// become upper bounds attained in the interior.

// prefixBefore returns the relative position of block i's path at the
// start of phase k: the components of rel for dimensions < k, zero after.
func prefixBefore(rel vec.Vec, k int) vec.Vec {
	p := make(vec.Vec, len(rel))
	for j := 0; j < k; j++ {
		p[j] = rel[j]
	}
	return p
}

// meshBlockAt reports whether block i (relative offset rel, origin
// validity included) is held by process r at the start of phase k on the
// given mesh: the origin exists and its target exists.
func meshBlockAt(g *vec.Grid, r int, rel vec.Vec, k int) bool {
	o, ok := g.RankDisplaceNeg(r, prefixBefore(rel, k))
	if !ok {
		return false
	}
	_, ok = g.RankDisplace(o, rel)
	return ok
}

// MeshAlltoallSchedule computes the per-process message-combining alltoall
// schedule on a (possibly partially) non-periodic mesh. Unlike the torus
// schedule, the result depends on the calling process's position, so it is
// parameterized by rank. On a fully periodic grid it degenerates to
// AlltoallSchedule's structure. O(td) per process.
func MeshAlltoallSchedule(g *vec.Grid, rank int, nbh vec.Neighborhood) *Schedule {
	d := nbh.Dims()
	t := len(nbh)
	s := &Schedule{Op: OpAlltoall, Algo: Combining, DimOrder: identityOrder(d), TempSlots: t}

	zi := make([]int, t)
	hops := make([]int, t)
	for i, rel := range nbh {
		zi[i] = rel.NonZeros()
		hops[i] = zi[i]
		if zi[i] == 0 {
			// The self block always exists (the origin is the target).
			s.Copies = append(s.Copies, LocalCopy{From: BufSend, FromSlot: i, ToSlot: i})
		}
	}

	for k := 0; k < d; k++ {
		order := vec.BucketSortByCoord(nbh, k)
		var rounds []Round
		var cur *Round
		curCoord := 0
		flush := func() {
			if cur != nil && len(cur.Moves) > 0 {
				rounds = append(rounds, *cur)
			}
			cur = nil
		}
		for _, i := range order {
			ck := nbh[i][k]
			if ck == 0 {
				continue
			}
			if cur == nil || ck != curCoord {
				flush()
				rel := make(vec.Vec, d)
				rel[k] = ck
				cur = &Round{Rel: rel}
				curCoord = ck
			}
			// The move happens at this process only if it holds the block
			// when phase k starts. Unlike the torus schedule's two-buffer
			// parity, intermediates always stage in the temp buffer: on a
			// mesh a transit block may pass through a process that never
			// receives its own block i, and staging in the receive buffer
			// would leave transit data visible in an untouched slot.
			h := hops[i]
			if meshBlockAt(g, rank, nbh[i], k) {
				mv := meshMove(i, h, zi[i])
				if mv.To == BufTemp {
					s.NeedTemp = true
				}
				// Sender-side only: the receive side is derived in
				// compileMesh from the partner's predicate.
				cur.Moves = append(cur.Moves, mv)
				s.Volume++
			}
			hops[i]--
		}
		flush()
		s.Phases = append(s.Phases, Phase{Dim: k, Rounds: rounds})
		s.Rounds += len(rounds)
	}
	return s
}

// meshRecvMoves computes the moves process r receives from src in a round
// of phase k with step coordinate c: exactly the moves src sends, with
// the landing buffers as r will store them. Both sides compute this from
// the shared grid and neighborhood, preserving pairing.
func meshRecvMoves(g *vec.Grid, src int, nbh vec.Neighborhood, k, c int) []Move {
	var moves []Move
	order := vec.BucketSortByCoord(nbh, k)
	// Recompute src's remaining-hop counters up to phase k.
	t := len(nbh)
	zi := make([]int, t)
	hops := make([]int, t)
	for i, rel := range nbh {
		zi[i] = rel.NonZeros()
		hops[i] = zi[i]
	}
	for kk := 0; kk < k; kk++ {
		for i, rel := range nbh {
			if rel[kk] != 0 {
				hops[i]--
			}
		}
	}
	for _, i := range order {
		if nbh[i][k] != c {
			continue
		}
		if !meshBlockAt(g, src, nbh[i], k) {
			continue
		}
		moves = append(moves, meshMove(i, hops[i], zi[i]))
	}
	return moves
}

// meshMove builds the move of block i at a hop with h remaining hops out
// of zi total: first hop reads the user send buffer, intermediates stage
// in temp slot i, and only the final hop writes the receive buffer.
func meshMove(i, h, zi int) Move {
	mv := Move{Block: i, FromSlot: i, ToSlot: i}
	if h == zi {
		mv.From = BufSend
	} else {
		mv.From = BufTemp
	}
	if h == 1 {
		mv.To = BufRecv
	} else {
		mv.To = BufTemp
	}
	return mv
}

// compileMesh builds the executable plan for the mesh combining alltoall:
// per round, the send composite from this process's schedule and the
// receive composite from the partner's derived move set.
func (c *Comm) compileMesh(geom BlockGeometry) (*Plan, error) {
	rank := c.comm.Rank()
	sched := MeshAlltoallSchedule(c.grid, rank, c.nbh)
	p := &Plan{
		comm:   c,
		op:     sched.Op,
		algo:   Combining,
		rounds: sched.Rounds,
		volume: sched.Volume,
		cmet:   c.cmet,
	}
	d := c.nbh.Dims()
	t := len(c.nbh)
	for k := 0; k < d; k++ {
		// Collect the distinct non-zero coordinates of dimension k in
		// sorted order — the global round structure of the phase; rounds
		// with nothing to send *and* nothing to receive are dropped. Tags
		// are assigned from the position in this global structure, BEFORE
		// dropping, so two ranks that skip different rounds of the phase
		// still agree on every surviving round's tag.
		coords := distinctNonZeroSorted(c.nbh, k)
		var rounds []execRound
		for slot, coord := range coords {
			rel := make(vec.Vec, d)
			rel[k] = coord
			er := execRound{sendTo: ProcNull, recvFrom: ProcNull, tag: roundTag(k, slot, t)}
			if dst, ok := c.grid.RankDisplace(rank, rel); ok {
				// Send only the blocks this process holds.
				var sendMoves []Move
				for _, ph := range sched.Phases {
					if ph.Dim != k {
						continue
					}
					for _, r := range ph.Rounds {
						if r.Rel[k] == coord {
							sendMoves = r.Moves
						}
					}
				}
				if len(sendMoves) > 0 {
					er.sendTo = dst
					for _, mv := range sendMoves {
						l := layoutFor(mv.From, mv.FromSlot, geom)
						er.send.Append(bufIndex(mv.From), l)
						if mv.From == BufTemp || mv.To == BufTemp {
							if hi := geomTempHigh(geom, mv); hi > p.tempLen {
								p.tempLen = hi
							}
						}
					}
				}
			}
			if src, ok := c.grid.RankDisplaceNeg(rank, rel); ok {
				recvMoves := meshRecvMoves(c.grid, src, c.nbh, k, coord)
				if len(recvMoves) > 0 {
					er.recvFrom = src
					for _, mv := range recvMoves {
						l := layoutFor(mv.To, mv.ToSlot, geom)
						er.recv.Append(bufIndex(mv.To), l)
						if mv.To == BufTemp {
							if hi := geomTempHigh(geom, mv); hi > p.tempLen {
								p.tempLen = hi
							}
						}
					}
				}
			}
			if er.sendTo != ProcNull || er.recvFrom != ProcNull {
				rounds = append(rounds, er)
			}
		}
		p.phases = append(p.phases, rounds)
	}
	for _, cp := range sched.Copies {
		p.copies = append(p.copies, execCopy{
			fromBuf: bufIndex(cp.From),
			from:    layoutFor(cp.From, cp.FromSlot, geom),
			to:      geom.RecvAt(cp.ToSlot),
		})
	}
	buildDAG(p)
	return p, nil
}

// distinctNonZeroSorted returns the distinct non-zero k-th coordinates in
// ascending order.
func distinctNonZeroSorted(nbh vec.Neighborhood, k int) []int {
	var out []int
	order := vec.BucketSortByCoord(nbh, k)
	last := 0
	have := false
	for _, i := range order {
		ck := nbh[i][k]
		if ck == 0 {
			continue
		}
		if !have || ck != last {
			out = append(out, ck)
			last, have = ck, true
		}
	}
	return out
}

// MeshAlltoallInit precomputes the mesh-aware message-combining alltoall
// plan for blocks of m elements. On a fully periodic torus it is
// equivalent to AlltoallInit with Combining.
func MeshAlltoallInit(c *Comm, m int) (*Plan, error) {
	p, err := c.compileMesh(uniformGeometry(OpAlltoall, m))
	if err != nil {
		return nil, err
	}
	t := len(c.nbh)
	p.setLens(t*m, t*m)
	return p, nil
}
