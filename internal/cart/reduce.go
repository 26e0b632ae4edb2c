package cart

import (
	"fmt"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// Cartesian neighborhood reduction — the extension the paper's Section 2.2
// points to ("Cartesian reduction operations could also be considered as
// discussed in [16]"). Every process contributes one block of m elements;
// the result at process R is the op-combination of the contributions of
// all of its source neighbors R − N[i] (one combination per occurrence for
// duplicated offsets, so the operation is the exact adjoint of the
// Cartesian allgather: whoever would receive my block in the allgather
// contributes to my reduction here... and vice versa).
//
// The message-combining algorithm is the reversed allgather tree
// (Algorithm 2 run backwards): partial combinations flow from the leaves
// toward the root, one phase per dimension in reverse tree order, with
// intermediate processes combining incoming partials. It runs in the same
// C = Σ_k C_k rounds and tree-edge volume as the allgather
// (Proposition 3.3 transfers verbatim), against t rounds for the trivial
// algorithm — and since the allgather volume of stencil families equals
// the trivial volume, combining wins at every block size here too.

// ReducePlan is a precomputed Cartesian neighborhood reduction plan.
type ReducePlan struct {
	comm     *Comm
	algo     Algorithm
	m        int
	phases   [][]reduceRound
	inits    []accInit
	accSlots int
	rootSlot int
	rounds   int
	volume   int
}

// reduceRound is one exchange: the process sends the accumulators in
// sendSlots (gathered in order) to sendTo and combines the symmetric
// incoming partials into recvSlots.
type reduceRound struct {
	sendTo    int
	recvFrom  int
	sendSlots []int
	recvSlots []int
}

// accInit seeds an accumulator slot with the process's own contribution,
// folded `times` times (duplicated offsets contribute once per
// occurrence).
type accInit struct {
	slot  int
	times int
}

// Rounds returns the number of communication rounds C of the plan.
func (p *ReducePlan) Rounds() int { return p.rounds }

// Volume returns the per-process communication volume in blocks.
func (p *ReducePlan) Volume() int { return p.volume }

// NeighborReduceInit precomputes a reduction plan for blocks of m
// elements. Auto picks Combining (like the allgather, its volume matches
// the trivial algorithm's on stencil families, so it wins at every block
// size); on non-periodic meshes the Combining plan uses the pruned
// reversed trees of mesh_reduce.go.
func NeighborReduceInit(c *Comm, m int, algo Algorithm) (*ReducePlan, error) {
	if m < 0 {
		return nil, fmt.Errorf("cart: negative block size %d", m)
	}
	if algo == Auto {
		algo = Combining
	}
	switch algo {
	case Trivial:
		return trivialReducePlan(c, m), nil
	case Combining:
		if !c.IsPeriodic() {
			// The mesh-aware reversed-tree reduction (mesh_reduce.go).
			return meshCombiningReducePlan(c, m), nil
		}
		return combiningReducePlan(c, m), nil
	default:
		return nil, fmt.Errorf("cart: unknown algorithm %v", algo)
	}
}

// trivialReducePlan: one round per non-zero offset (Listing 4 adapted),
// own contribution folded once per zero offset.
func trivialReducePlan(c *Comm, m int) *ReducePlan {
	p := &ReducePlan{comm: c, algo: Trivial, m: m, accSlots: 1, rootSlot: 0}
	rank := c.comm.Rank()
	zero := 0
	for _, rel := range c.nbh {
		if rel.IsZero() {
			zero++
			continue
		}
		r := reduceRound{sendTo: ProcNull, recvFrom: ProcNull, sendSlots: []int{ownBlockSlot}, recvSlots: []int{0}}
		if dst, ok := c.grid.RankDisplace(rank, rel); ok {
			r.sendTo = dst
		}
		if src, ok := c.grid.RankDisplaceNeg(rank, rel); ok {
			r.recvFrom = src
		}
		p.phases = append(p.phases, []reduceRound{r})
		p.rounds++
		p.volume++
	}
	if zero > 0 {
		p.inits = append(p.inits, accInit{slot: 0, times: zero})
	}
	return p
}

// ownBlockSlot marks "the user's send block" in sendSlots.
const ownBlockSlot = -1

// reduceTag is the tag of all Cartesian reduction traffic, kept below
// tagBase so it never collides with the per-round tags of the collective
// plans (dag.go). The reduction executor is phase-barriered, so one tag
// with FIFO matching suffices, as it did for the collectives before the
// pipelined executor.
const reduceTag = tagBase - 1

// combiningReducePlan reverses the allgather tree: contributions start at
// the nodes where the allgather data would have come to rest, and each
// node's accumulator is sent toward the root one dimension at a time, in
// reverse level order, combined at the receiver.
func combiningReducePlan(c *Comm, m int) *ReducePlan {
	tr := BuildAllgatherTree(c.nbh, nil)
	d := c.nbh.Dims()
	p := &ReducePlan{comm: c, algo: Combining, m: m}
	rank := c.comm.Rank()

	// lastHopLevel as in the allgather schedule: member i rests in the
	// subtree formed at its last non-zero level.
	lastHop := make([]int, len(c.nbh))
	for i, rel := range c.nbh {
		lastHop[i] = -1
		for l := 0; l < d; l++ {
			if rel[tr.DimOrder[l]] != 0 {
				lastHop[i] = l
			}
		}
	}

	// Assign accumulator slots (one per tree node, root included) and
	// record contribution inits: member i's contribution enters at the
	// hopping node of its last non-zero level (the node where its
	// allgather copy would come to rest), and at the root for the zero
	// offset. Pass-through nodes never seed contributions of their own —
	// their resting members were seeded at the hopping ancestor whose
	// slot they share.
	slotOf := map[*TreeNode]int{}
	var assign func(n *TreeNode)
	assign = func(n *TreeNode) {
		slotOf[n] = p.accSlots
		p.accSlots++
		if n.Coord != 0 || n.Level == -1 {
			resting := 0
			for _, mIdx := range n.Members {
				if lastHop[mIdx] == n.Level {
					resting++
				}
			}
			if resting > 0 {
				p.inits = append(p.inits, accInit{slot: slotOf[n], times: resting})
			}
		}
		for _, ch := range n.Children {
			assign(ch)
		}
	}
	assign(tr.Root)
	p.rootSlot = slotOf[tr.Root]

	// Walk levels forward to collect hopping nodes per level, then emit
	// phases in reverse order. Pass-through (coord 0) children share their
	// parent's accumulator: remap their slots.
	frontier := []*TreeNode{tr.Root}
	levels := make([][]*TreeNode, d)
	for level := 0; level < d; level++ {
		var next []*TreeNode
		for _, parent := range frontier {
			for _, ch := range parent.Children {
				if ch.Coord == 0 {
					// Pass-through: share the parent's accumulator.
					slotOf[ch] = slotOf[parent]
				} else {
					levels[level] = append(levels[level], ch)
				}
				next = append(next, ch)
			}
		}
		frontier = next
	}

	for level := d - 1; level >= 0; level-- {
		k := tr.DimOrder[level]
		rounds := buildReduceRounds(c, rank, levels[level], slotOf, k, d)
		p.phases = append(p.phases, rounds)
		p.rounds += len(rounds)
		for _, r := range rounds {
			p.volume += len(r.sendSlots)
		}
	}
	return p
}

// buildReduceRounds groups the hopping nodes of one level by coordinate,
// exactly like the allgather schedule but with reversed data flow: the
// node's accumulator is sent along +c·e_k and the incoming partial is
// combined into the parent's accumulator.
func buildReduceRounds(c *Comm, rank int, nodes []*TreeNode, slotOf map[*TreeNode]int, k, d int) []reduceRound {
	if len(nodes) == 0 {
		return nil
	}
	sorted := append([]*TreeNode(nil), nodes...)
	sortNodesByCoord(sorted)
	parentSlot := func(n *TreeNode) int { return slotOf[n.Parent] }
	var rounds []reduceRound
	var cur *reduceRound
	curCoord := 0
	for _, n := range sorted {
		if cur == nil || n.Coord != curCoord {
			rel := make(vec.Vec, d)
			rel[k] = n.Coord
			r := reduceRound{sendTo: ProcNull, recvFrom: ProcNull}
			if dst, ok := c.grid.RankDisplace(rank, rel); ok {
				r.sendTo = dst
			}
			if src, ok := c.grid.RankDisplaceNeg(rank, rel); ok {
				r.recvFrom = src
			}
			rounds = append(rounds, r)
			cur = &rounds[len(rounds)-1]
			curCoord = n.Coord
		}
		cur.sendSlots = append(cur.sendSlots, slotOf[n])
		cur.recvSlots = append(cur.recvSlots, parentSlot(n))
	}
	return rounds
}

// RunReduce executes the plan: send holds the process's contribution (m
// elements), recv receives the combined result (m elements). op must be
// associative and commutative.
func RunReduce[T any](p *ReducePlan, send, recv []T, op func(a, b T) T) error {
	m := p.m
	if len(send) < m || len(recv) < m {
		return fmt.Errorf("cart: RunReduce buffers need %d elements, got %d/%d", m, len(send), len(recv))
	}
	acc := make([]T, p.accSlots*m)
	has := make([]bool, p.accSlots)
	combineInto := func(slot int, data []T) {
		dst := acc[slot*m : (slot+1)*m]
		if !has[slot] {
			copy(dst, data)
			has[slot] = true
			return
		}
		for e := 0; e < m; e++ {
			dst[e] = op(dst[e], data[e])
		}
	}
	for _, init := range p.inits {
		for i := 0; i < init.times; i++ {
			combineInto(init.slot, send[:m])
		}
	}
	comm := p.comm.comm
	for _, rounds := range p.phases {
		scratch := make([][]T, len(rounds))
		reqs := make([]*mpi.Request, 0, 2*len(rounds))
		for i := range rounds {
			r := &rounds[i]
			if r.recvFrom == ProcNull {
				continue
			}
			scratch[i] = make([]T, len(r.recvSlots)*m)
			req, err := mpi.Irecv(comm, scratch[i], datatype.Contiguous(0, len(scratch[i])), r.recvFrom, reduceTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		for i := range rounds {
			r := &rounds[i]
			if r.sendTo == ProcNull {
				continue
			}
			wire := make([]T, len(r.sendSlots)*m)
			for j, slot := range r.sendSlots {
				var src []T
				if slot == ownBlockSlot {
					src = send[:m]
				} else {
					if !has[slot] {
						return fmt.Errorf("cart: reduce schedule sends empty accumulator %d", slot)
					}
					src = acc[slot*m : (slot+1)*m]
				}
				copy(wire[j*m:(j+1)*m], src)
			}
			req, err := mpi.Isend(comm, wire, datatype.Contiguous(0, len(wire)), r.sendTo, reduceTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if err := mpi.Waitall(reqs...); err != nil {
			return err
		}
		for i := range rounds {
			r := &rounds[i]
			if r.recvFrom == ProcNull {
				continue
			}
			for j, slot := range r.recvSlots {
				combineInto(slot, scratch[i][j*m:(j+1)*m])
			}
		}
	}
	if !has[p.rootSlot] {
		// A mesh-boundary process with no sources at all: the reduction
		// has no value here; recv is left untouched (mirroring how the
		// sparse alltoall leaves blocks without a source untouched).
		return nil
	}
	copy(recv[:m], acc[p.rootSlot*m:(p.rootSlot+1)*m])
	return nil
}

// NeighborReduce performs the blocking Cartesian neighborhood reduction
// with the communicator's default algorithm.
func NeighborReduce[T any](c *Comm, send, recv []T, op func(a, b T) T) error {
	p, err := NeighborReduceInit(c, len(send), c.algo)
	if err != nil {
		return err
	}
	return RunReduce(p, send, recv, op)
}
