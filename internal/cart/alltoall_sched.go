package cart

import "cartcc/internal/vec"

// identityOrder returns [0, 1, ..., d-1].
func identityOrder(d int) []int {
	o := make([]int, d)
	for i := range o {
		o[i] = i
	}
	return o
}

// AlltoallSchedule computes the message-combining alltoall schedule of
// Algorithm 1 of the paper in O(td) time, purely locally.
//
// Dimension-wise path expansion: the block for neighbor N[i] travels one
// hop per non-zero coordinate of N[i], via the intermediate relative
// processes (n0,0,...,0), (n0,n1,0,...,0), .... Phase k bundles, into one
// round per distinct non-zero k-th coordinate, all blocks whose k-th
// coordinate equals that value (found by a stable bucket sort). Between
// hops a block alternates between the temporary buffer and its final
// position in the receive buffer, with the parity arranged so the last hop
// lands in the receive buffer — no block is ever copied between buffers
// explicitly. Blocks for the zero offset become a local copy phase.
//
// The resulting schedule has C = Σ_k C_k rounds and per-process volume
// V = Σ_i z_i blocks (Proposition 3.2).
func AlltoallSchedule(nbh vec.Neighborhood) *Schedule {
	return alltoallSchedule(nbh, boundary{})
}

// alltoallSchedule is AlltoallSchedule as seen from the rank of b. On a
// grid with a boundary (boundary.go) a block moves in a round at this rank
// only if the rank holds it when the phase starts (block i is at r then
// iff its origin r − prefix_k(N[i]) and target are on the grid), and the
// round's receive list is what the partner at −Rel holds by the same
// test. Intermediates then always stage in the temp buffer: a transit
// block may pass through a process that never receives its own block i,
// and staging it in the receive buffer would leave transit data in a slot
// that must stay untouched.
func alltoallSchedule(nbh vec.Neighborhood, b boundary) *Schedule {
	d := nbh.Dims()
	t := len(nbh)
	s := &Schedule{Op: OpAlltoall, Algo: Combining, DimOrder: identityOrder(d), TempSlots: t}

	// hops[i] counts the remaining hops of block i, initialized to z_i.
	hops := make([]int, t)
	zi := make([]int, t)
	for i, rel := range nbh {
		zi[i] = rel.NonZeros()
		hops[i] = zi[i]
		if zi[i] == 0 {
			s.Copies = append(s.Copies, LocalCopy{From: BufSend, FromSlot: i, ToSlot: i})
		}
	}

	for k := 0; k < d; k++ {
		order := vec.BucketSortByCoord(nbh, k)
		var rounds []Round
		var cur *Round
		curCoord := 0
		src, srcOK := 0, false
		for j, i := range order {
			ck := nbh[i][k]
			if ck == 0 {
				continue
			}
			if cur == nil || ck != curCoord {
				rel := make(vec.Vec, d)
				rel[k] = ck
				rounds = append(rounds, Round{Rel: rel})
				cur = &rounds[len(rounds)-1]
				curCoord = ck
				if b.mesh() {
					cur.RecvMoves = []Move{}
					src, srcOK = b.grid.RankDisplaceNeg(b.rank, rel)
				}
			}
			mv := alltoallMove(i, hops[i], zi[i], b.mesh())
			if mv.To == BufTemp {
				s.NeedTemp = true
			}
			if !b.mesh() {
				cur.Moves = append(cur.Moves, mv)
			} else {
				prefix := prefixBefore(nbh[i], k)
				if b.holds(b.rank, prefix, nbh, order[j:j+1], false) {
					cur.Moves = append(cur.Moves, mv)
				}
				if srcOK && b.holds(src, prefix, nbh, order[j:j+1], false) {
					cur.RecvMoves = append(cur.RecvMoves, mv)
				}
			}
			hops[i]--
			s.Volume++
		}
		s.Phases = append(s.Phases, Phase{Dim: k, Rounds: rounds})
		s.Rounds += len(rounds)
	}
	return s
}

// alltoallMove is block i's move at the hop with h of its zi hops left:
// the first hop reads the user send buffer and the last lands in the
// receive buffer. In between, the torus alternates receive and temp
// buffer by parity; tempOnly stages every intermediate in temp slot i.
func alltoallMove(i, h, zi int, tempOnly bool) Move {
	mv := Move{Block: i, FromSlot: i, ToSlot: i}
	switch {
	case h == zi:
		mv.From = BufSend
	case h%2 == 0 && !tempOnly:
		mv.From = BufRecv
	default:
		mv.From = BufTemp
	}
	if h == 1 || (h%2 == 1 && !tempOnly) {
		mv.To = BufRecv
	} else {
		mv.To = BufTemp
	}
	return mv
}
