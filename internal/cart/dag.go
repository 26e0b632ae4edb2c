package cart

import (
	"sort"

	"cartcc/internal/datatype"
)

// Block-level dependency DAG over the rounds of a compiled plan — the
// structure every execution policy runs on (pipeline.go). The barriered
// executor orders rounds by the coarsest possible relation: every round of
// phase k happens-before every round of phase k+1. Most of those orderings
// are incidental; the data only requires that each round's send wait for
// the rounds that *produce* the blocks it forwards, and that each round's
// scatter wait for the operations that still *read* or *write* the extents
// it lands on. buildDAG computes exactly those edges at compile time, so
// execution can overlap rounds of different phases whenever the block flow
// allows it.
//
// Three hazard classes, derived from extent overlap in the shared
// (send, recv, temp) buffer space:
//
//   - RAW (x.recv ∩ y.send, phase(x) < phase(y)): round y forwards a block
//     that round x's receive delivers. y's send must wait for x's receive
//     to complete. This is the producer edge of the ISSUE: rounds whose
//     sends read only the user send buffer have no producers and are
//     barrier-free — they post immediately.
//   - WAR (y.send ∩ x.recv, phase(y) ≤ phase(x), y == x included): round
//     y's send reads extents that round x's receive overwrites. x's
//     scatter must wait until y's send has been posted — posting gathers
//     (or detaches) the payload, after which the source extents are free.
//     Same-phase overlap is WAR, never RAW: the barriered executor's
//     deferred-scatter semantics read the pre-phase state.
//   - WAW (x'.recv ∩ x.recv, x' before x in phase-major order): two
//     receives land on the same extent; the later scatter must follow the
//     earlier, preserving the barriered executor's final contents.
//
// The graph is acyclic by construction: RAW edges point phase-forward,
// WAR and WAW edges gate only the *scatter* event of a round, never its
// send, and a scatter depends only on send posts and phase-earlier (or
// same-phase-earlier) scatters. Within the earliest unfinished phase there
// is always a send with zero producers still pending or a receive whose
// gates have all fired, so the pipelined executor makes progress whenever
// a message can arrive (see pipeline.go for the window argument).

// roundDep is the compiled dependency record of one flat round.
type roundDep struct {
	// phase and idx locate the round in p.phases for error attribution.
	phase, idx int
	// sendDeps is the RAW in-degree of the round's send event: the number
	// of distinct earlier rounds whose receives produce blocks this send
	// forwards. Zero means the send is barrier-free.
	sendDeps int32
	// scatDeps is the WAR+WAW in-degree of the round's scatter event: the
	// number of distinct operations (send posts, earlier scatters) that
	// must happen before the received payload may land in the buffers.
	scatDeps int32
	// rawSucc / wawSucc fire when this round's receive completes: flat
	// indices of sends (rawSucc) and scatters (wawSucc) it unblocks.
	rawSucc []int32
	wawSucc []int32
	// warSucc fires when this round's send is posted: flat indices of
	// scatters it unblocks.
	warSucc []int32
}

// tagBase offsets the per-round Cartesian collective tags away from user
// tag space (the paper's single CARTTAG becomes a tag per (phase, round)
// so out-of-phase messages of the pipelined executor match their own
// receives; the runtime's per-(src,tag) FIFO keeps successive executions
// of one plan apart exactly as it kept successive phases apart before).
const tagBase = 1 << 20

// roundTag returns the tag of round slot `slot` of phase `phase` for a
// neighborhood of t offsets. Slots are positions in the *global* round
// structure of the phase (shared by every rank), assigned before any
// per-rank round dropping, so sender and receiver of a round always agree
// on the tag even when one of them skips other rounds of the phase.
func roundTag(phase, slot, t int) int {
	return tagBase + phase*(t+1) + slot
}

// buildDAG is the shared post-pass of the plan compilers: it flattens the
// phases, computes the hazard edges, and fills p.flat and p.deps. It also
// derives the default receive pre-post window (the largest adjacent-phase
// round sum, so the executor can keep the whole live frontier pre-posted).
// Hazard pairs are found by a bounding-interval sweep (hazardCandidates)
// and confirmed on sorted coalesced extents, so cost scales with the
// candidate count, not the square of the round count — compile-time only.
func buildDAG(p *Plan) {
	total := 0
	for _, rounds := range p.phases {
		total += len(rounds)
	}
	p.flat = make([]*execRound, 0, total)
	p.deps = make([]roundDep, 0, total)
	for pi := range p.phases {
		for ri := range p.phases[pi] {
			p.flat = append(p.flat, &p.phases[pi][ri])
			p.deps = append(p.deps, roundDep{phase: pi, idx: ri})
		}
	}
	// Flatten every round's composites into sorted, coalesced extent lists
	// and per-buffer bounding summaries once: candidate discovery works on
	// the summaries, confirmation on the extent lists (d≥5 combining
	// rounds carry thousands of blocks; all-pairs block comparison
	// dominated whole benchmark runs).
	recvExt := make([][]bufExtent, total)
	sendExt := make([][]bufExtent, total)
	recvSum := make([]extSummary, total)
	sendSum := make([]extSummary, total)
	for i, r := range p.flat {
		if r.recvFrom != ProcNull {
			recvExt[i] = flattenExtents(&r.recv, nil)
			recvSum[i] = summarizeExtents(recvExt[i])
		}
		if r.sendTo != ProcNull {
			sendExt[i] = flattenExtents(&r.send, nil)
			sendSum[i] = summarizeExtents(sendExt[i])
		}
	}
	// Candidate hazard pairs come from a bounding-interval sweep per
	// buffer rather than an all-pairs scan: a direct d=5 n=5 plan has
	// thousands of rounds whose receives land on pairwise-disjoint slots
	// and whose sends read only the user send buffer — the sweep emits
	// zero candidates for it, where the quadratic scan burned seconds per
	// compile. Only candidates take the exact extent check.
	sendCands, wawCands := hazardCandidates(recvSum, sendSum)
	for _, c := range sendCands {
		x, y := int(c.x), int(c.y)
		if !extentsOverlap(recvExt[x], sendExt[y]) {
			continue
		}
		if p.deps[x].phase < p.deps[y].phase {
			// RAW: x produces a block y forwards.
			p.deps[y].sendDeps++
			p.deps[x].rawSucc = append(p.deps[x].rawSucc, int32(y))
		} else {
			// WAR (y == x included): y reads what x overwrites.
			p.deps[x].scatDeps++
			p.deps[y].warSucc = append(p.deps[y].warSucc, int32(x))
		}
	}
	for _, c := range wawCands {
		// x is the later receive in flat (phase-major) order, y the
		// earlier: the later scatter must follow the earlier.
		x, y := int(c.x), int(c.y)
		if extentsOverlap(recvExt[x], recvExt[y]) {
			p.deps[x].scatDeps++
			p.deps[y].wawSucc = append(p.deps[y].wawSucc, int32(x))
		}
	}
	p.window = defaultWindow(p)
}

// defaultWindow sizes the receive pre-post window to cover the largest
// sum of two adjacent phases' rounds (minimum 4): deep enough that while
// one phase drains, every receive of the next is already posted and PR 2's
// match-time-consume single-copy path keeps hitting; bounded so a plan
// with thousands of rounds does not pin thousands of posted receives.
func defaultWindow(p *Plan) int {
	w := 4
	for i := range p.phases {
		sum := len(p.phases[i])
		if i+1 < len(p.phases) {
			sum += len(p.phases[i+1])
		}
		if sum > w {
			w = sum
		}
	}
	return w
}

// bufExtent is a flattened, buffer-qualified half-open element interval
// [off, end) — the unit of the compile-time overlap passes.
type bufExtent struct {
	buf, off, end int
}

// extSummary is a per-buffer bounding range of an extent list (the
// schedule executor's buffer selectors are 0 = send, 1 = recv, 2 = temp).
// Ranges are half-open; an untouched buffer has off > end. Pairs whose
// summaries are disjoint — the vast majority in direct schedules, where
// sends read only the send buffer and receives land on distinct recv
// slots — skip the extent sweep entirely.
type extSummary [3]struct{ off, end int }

// summarizeExtents computes the per-buffer bounding ranges of a
// normalized extent list.
func summarizeExtents(exts []bufExtent) extSummary {
	var s extSummary
	for k := range s {
		s[k].off = 1<<63 - 1
	}
	for _, e := range exts {
		if e.off < s[e.buf].off {
			s[e.buf].off = e.off
		}
		if e.end > s[e.buf].end {
			s[e.buf].end = e.end
		}
	}
	return s
}

// hazardCand is a candidate hazard pair of flat round indices.
type hazardCand struct{ x, y int32 }

// hazardCandidates sweeps the per-buffer bounding ranges of every round's
// receive and send extents and returns the pairs whose ranges intersect:
// (receive x, send y) candidates for RAW/WAR classification and (later
// receive x, earlier receive y) candidates for WAW. Bounding disjointness
// proves extent disjointness, so non-candidates need no exact check, and
// the sweep emits nothing at all for a direct schedule (sends read only
// the send buffer, receives land on disjoint slots) — where an all-pairs
// scan over its thousands of rounds burned seconds per plan compile.
// Both lists are deduplicated (a pair can intersect on more than one
// buffer) and sorted by (x, y) so edge appends are deterministic and
// match the order the quadratic scan produced.
func hazardCandidates(recvSum, sendSum []extSummary) (sendCands, wawCands []hazardCand) {
	type item struct {
		off, end int
		idx      int32
		recv     bool
	}
	var perBuf [3][]item
	for i := range recvSum {
		for k := 0; k < 3; k++ {
			if s := recvSum[i][k]; s.off < s.end {
				perBuf[k] = append(perBuf[k], item{s.off, s.end, int32(i), true})
			}
			if s := sendSum[i][k]; s.off < s.end {
				perBuf[k] = append(perBuf[k], item{s.off, s.end, int32(i), false})
			}
		}
	}
	for k := 0; k < 3; k++ {
		items := perBuf[k]
		sort.Slice(items, func(i, j int) bool { return items[i].off < items[j].off })
		var actR, actS []item
		for _, it := range items {
			// Expire actives ending at or before this range's start: with
			// items sorted by off, a surviving active overlaps it.
			nr := actR[:0]
			for _, a := range actR {
				if a.end > it.off {
					nr = append(nr, a)
				}
			}
			actR = nr
			ns := actS[:0]
			for _, a := range actS {
				if a.end > it.off {
					ns = append(ns, a)
				}
			}
			actS = ns
			if it.recv {
				for _, a := range actS {
					sendCands = append(sendCands, hazardCand{it.idx, a.idx})
				}
				for _, a := range actR {
					x, y := it.idx, a.idx
					if x < y {
						x, y = y, x
					}
					wawCands = append(wawCands, hazardCand{x, y})
				}
				actR = append(actR, it)
			} else {
				for _, a := range actR {
					sendCands = append(sendCands, hazardCand{a.idx, it.idx})
				}
				actS = append(actS, it)
			}
		}
	}
	return dedupeCands(sendCands), dedupeCands(wawCands)
}

// dedupeCands sorts candidate pairs by (x, y) and removes duplicates.
func dedupeCands(cs []hazardCand) []hazardCand {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].x != cs[j].x {
			return cs[i].x < cs[j].x
		}
		return cs[i].y < cs[j].y
	})
	out := cs[:0]
	for _, c := range cs {
		if n := len(out); n > 0 && out[n-1] == c {
			continue
		}
		out = append(out, c)
	}
	return out
}

// appendExtents appends every (buffer, block) of the composite to out as
// raw extents. Callers normalize before sweeping.
func appendExtents(out []bufExtent, c *datatype.Composite) []bufExtent {
	for _, p := range c.Parts() {
		for _, b := range p.L.Blocks() {
			out = append(out, bufExtent{buf: p.Buf, off: b.Off, end: b.Off + b.Count})
		}
	}
	return out
}

// normalizeExtents sorts by (buf, off) and coalesces touching or
// overlapping runs in place. Coalescing never changes any overlap answer
// and shrinks combining-schedule lists drastically (packed blocks are
// mostly contiguous).
func normalizeExtents(out []bufExtent) []bufExtent {
	sort.Slice(out, func(i, j int) bool {
		if out[i].buf != out[j].buf {
			return out[i].buf < out[j].buf
		}
		return out[i].off < out[j].off
	})
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].buf == e.buf && e.off <= merged[n-1].end {
			if e.end > merged[n-1].end {
				merged[n-1].end = e.end
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// flattenExtents collapses a composite into a sorted, coalesced extent
// list, reusing out's backing storage when it can.
func flattenExtents(c *datatype.Composite, out []bufExtent) []bufExtent {
	return normalizeExtents(appendExtents(out[:0], c))
}

// extentsOverlap reports whether two normalized extent lists share any
// element of any buffer: a linear two-pointer sweep.
func extentsOverlap(a, b []bufExtent) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ea, eb := &a[i], &b[j]
		if ea.buf != eb.buf {
			if ea.buf < eb.buf {
				i++
			} else {
				j++
			}
			continue
		}
		if ea.off < eb.end && eb.off < ea.end {
			return true
		}
		if ea.end <= eb.end {
			i++
		} else {
			j++
		}
	}
	return false
}
