package cart

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// compiledCase is one topology of the compiled-plan oracles: every rank
// compiles the combining alltoall, allgather, their v-variants and the
// combining reduction over it.
type compiledCase struct {
	name    string
	dims    []int
	periods []bool
	nbh     vec.Neighborhood
	m       int
}

// compiledCases returns the golden's topologies: the mesh boundary table,
// mixed periodicity, the seeded random neighborhoods of the mesh
// differential tests, and a set of tori.
func compiledCases(t *testing.T) []compiledCase {
	t.Helper()
	stencil := func(d, n, f int) vec.Neighborhood { return mustStencil(t, d, n, f) }
	must := func(n vec.Neighborhood, err error) vec.Neighborhood {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	asym2 := vec.Neighborhood{{0, 0}, {1, 0}, {2, 0}, {0, -1}, {-1, 2}}
	mesh := func(d int) []bool { return make([]bool, d) }
	cases := []compiledCase{
		{"mesh 1d line r1", []int{5}, mesh(1), stencil(1, 3, -1), 2},
		{"mesh 1d line r2", []int{4}, mesh(1), stencil(1, 5, -2), 1},
		{"mesh 2d moore", []int{3, 4}, mesh(2), stencil(2, 3, -1), 2},
		{"mesh 2d wide reach", []int{4, 3}, mesh(2), stencil(2, 5, -2), 1},
		{"mesh 2d asymmetric", []int{3, 3}, mesh(2), asym2, 3},
		{"mesh 3d moore", []int{3, 2, 3}, mesh(3), stencil(3, 3, -1), 1},
		{"mesh 3d von neumann", []int{2, 3, 2}, mesh(3), must(vec.VonNeumann(3, 1)), 2},
		{"mesh 4x4 moore", []int{4, 4}, mesh(2), must(vec.Moore(2, 1)), 1},
		{"mixed 3x4 moore", []int{3, 4}, []bool{true, false}, stencil(2, 3, -1), 1},
		{"mixed 3x3x3 star", []int{3, 3, 3}, []bool{false, true, false}, must(vec.Star(3, 1)), 2},
		{"torus 3x3 moore", []int{3, 3}, nil, must(vec.Moore(2, 1)), 2},
		{"torus 3x3x3 moore", []int{3, 3, 3}, nil, must(vec.Moore(3, 1)), 1},
		{"torus 5x5 star r=2", []int{5, 5}, nil, must(vec.Star(2, 2)), 1},
		{"torus 3x3x3 star", []int{3, 3, 3}, nil, must(vec.Star(3, 1)), 2},
		{"torus 4x3 asymmetric", []int{4, 3}, nil, asym2, 2},
	}
	// The draws of TestMeshCombiningRandom (seed 55) and
	// TestMeshCombiningAllgatherRandom (seed 66), full trial count.
	for _, seed := range []int64{55, 66} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 15; trial++ {
			nbh := randomNeighborhood(rng)
			d := nbh.Dims()
			dims := make([]int, d)
			periods := make([]bool, d)
			for i := range dims {
				dims[i] = rng.Intn(4) + 2
				periods[i] = rng.Intn(2) == 0
			}
			if gridSize(dims) > 150 {
				continue
			}
			m := rng.Intn(3) + 1
			cases = append(cases, compiledCase{fmt.Sprintf("random seed %d trial %d", seed, trial), dims, periods, nbh, m})
		}
	}
	return cases
}

// slotStarts lists, per buffer (send, recv, temp), the start offsets of
// the geometry's block slots, so a compiled composite can be cut back
// into the schedule blocks its coalesced extents merged.
type slotStarts [3][]int

// compiledGeom is one compiled op: its name and its slot starts.
type compiledGeom struct {
	name  string
	slots slotStarts
}

// compiledRank holds everything one rank compiled for a case.
type compiledRank struct {
	plans  []*Plan // in compileAllRanks' op order
	reduce *ReducePlan
}

// compileAllRanks compiles every rank's combining plans for one case and
// returns them, with each op's slot starts, once the world has exited. The
// ops are the regular alltoall and allgather, an alltoallv with uneven
// counts and reversed receive displacements, and an allgatherv with
// reversed receive displacements.
func compileAllRanks(t *testing.T, tc compiledCase) ([]compiledGeom, []compiledRank) {
	t.Helper()
	tn, m := len(tc.nbh), tc.m
	seq := func(n, step int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * step
		}
		return out
	}
	sorted := func(xs []int) []int {
		out := append([]int(nil), xs...)
		sort.Ints(out)
		return out
	}
	counts := make([]int, tn)
	gCounts := make([]int, tn)
	for i := range counts {
		counts[i], gCounts[i] = m+i%3, m
	}
	sendDispls := prefixSums(counts)
	recvDispls := make([]int, tn)
	off := 0
	for i := tn - 1; i >= 0; i-- {
		recvDispls[i] = off
		off += counts[i]
	}
	gRecv := make([]int, tn)
	for i := range gRecv {
		gRecv[i] = (tn - 1 - i) * m
	}
	// Temp slots of the regular ops and of allgatherv are m-strided, one
	// per tree edge at most: t·d ≤ 4t of them for every case here.
	geoms := []compiledGeom{
		{"alltoall", slotStarts{seq(tn, m), seq(tn, m), seq(4*tn+1, m)}},
		{"allgather", slotStarts{{0}, seq(tn, m), seq(4*tn+1, m)}},
		{"alltoallv", slotStarts{sendDispls, sorted(recvDispls), prefixSums(counts)}},
		{"allgatherv", slotStarts{{0}, sorted(gRecv), seq(4*tn+1, m)}},
	}
	out := make([]compiledRank, gridSize(tc.dims))
	runWorld(t, gridSize(tc.dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, tc.dims, tc.periods, tc.nbh, nil)
		if err != nil {
			return err
		}
		builders := []func() (*Plan, error){
			func() (*Plan, error) { return AlltoallInit(c, m, Combining) },
			func() (*Plan, error) { return AllgatherInit(c, m, Combining) },
			func() (*Plan, error) {
				return AlltoallvInit(c, counts, sendDispls, counts, recvDispls, Combining)
			},
			func() (*Plan, error) { return AllgathervInit(c, m, gCounts, gRecv, Combining) },
		}
		var r compiledRank
		for _, b := range builders {
			p, err := b()
			if err != nil {
				return err
			}
			r.plans = append(r.plans, p)
		}
		if r.reduce, err = NeighborReduceInit(c, m, Combining); err != nil {
			return err
		}
		out[w.Rank()] = r
		return nil
	})
	return geoms, out
}

// piece is one schedule block of a compiled composite: its buffer and
// element extent.
type piece struct{ buf, off, len int }

// compositePieces cuts a composite's coalesced extents at the geometry's
// slot starts, recovering one piece per schedule block, in wire order.
func compositePieces(c *datatype.Composite, slots slotStarts) []piece {
	var out []piece
	for _, part := range c.Parts() {
		out = append(out, layoutPieces(part.Buf, part.L, slots)...)
	}
	return out
}

// layoutPieces cuts one buffer's layout at that buffer's slot starts.
func layoutPieces(buf int, l datatype.Layout, slots slotStarts) []piece {
	var out []piece
	starts := slots[buf]
	for _, b := range l.Blocks() {
		off, end := b.Off, b.Off+b.Count
		for off < end {
			cut := end
			if i := sort.SearchInts(starts, off+1); i < len(starts) && starts[i] < end {
				cut = starts[i]
			}
			out = append(out, piece{buf, off, cut - off})
			off = cut
		}
	}
	return out
}

// canonicalPlan renders a compiled plan with its temp-slot references
// renumbered in first-use order (sends before receives within a round,
// rounds in flat order): the builders may number staging slots
// differently, and only the permutation-invariant structure is pinned. Peers, tags, pieces, copies, DAG edges and tempLen are all
// recorded; the C and V counters are not.
func canonicalPlan(p *Plan, slots slotStarts) string {
	temp := map[int]int{}
	var b strings.Builder
	writePieces := func(ps []piece) {
		for _, pc := range ps {
			if pc.buf == bufIndex(BufTemp) {
				id, ok := temp[pc.off]
				if !ok {
					id = len(temp)
					temp[pc.off] = id
				}
				fmt.Fprintf(&b, " T%d:%d", id, pc.len)
			} else {
				fmt.Fprintf(&b, " %c%d:%d", "sr"[pc.buf], pc.off, pc.len)
			}
		}
	}
	for pi, rounds := range p.phases {
		for ri := range rounds {
			r := &rounds[ri]
			fmt.Fprintf(&b, "round %d/%d tag %d send->%d", pi, ri, r.tag, r.sendTo)
			writePieces(compositePieces(&r.send, slots))
			fmt.Fprintf(&b, " | recv<-%d", r.recvFrom)
			writePieces(compositePieces(&r.recv, slots))
			b.WriteByte('\n')
		}
	}
	// Local copies write distinct receive slots, so their order is not
	// part of the plan: render them by destination.
	copies := append([]execCopy(nil), p.copies...)
	sort.Slice(copies, func(i, j int) bool {
		lo, _ := copies[i].to.Bounds()
		lo2, _ := copies[j].to.Bounds()
		return lo < lo2
	})
	for _, cp := range copies {
		b.WriteString("copy")
		writePieces(layoutPieces(cp.fromBuf, cp.from, slots))
		b.WriteString(" ->")
		writePieces(layoutPieces(bufIndex(BufRecv), cp.to, slots))
		b.WriteByte('\n')
	}
	for i, d := range p.deps {
		fmt.Fprintf(&b, "dep %d at %d/%d send %d scat %d raw %v waw %v war %v\n",
			i, d.phase, d.idx, d.sendDeps, d.scatDeps, d.rawSucc, d.wawSucc, d.warSucc)
	}
	fmt.Fprintf(&b, "tempLen %d window %d\n", p.tempLen, p.window)
	return b.String()
}

// canonicalReduce renders a reduction plan, inits sorted by slot.
func canonicalReduce(p *ReducePlan) string {
	var b strings.Builder
	for pi, rounds := range p.phases {
		for ri, r := range rounds {
			fmt.Fprintf(&b, "round %d/%d send->%d %v | recv<-%d %v\n", pi, ri, r.sendTo, r.sendSlots, r.recvFrom, r.recvSlots)
		}
	}
	inits := append([]accInit(nil), p.inits...)
	sort.Slice(inits, func(i, j int) bool { return inits[i].slot < inits[j].slot })
	fmt.Fprintf(&b, "inits %v accSlots %d rootSlot %d\n", inits, p.accSlots, p.rootSlot)
	return b.String()
}

// digest is a 64-bit FNV-1a of a canonical rendering.
func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestCompiledPlanGolden pins every rank's compiled combining plan — both
// families, their v-variants and the reduction — on tori, meshes and
// mixed grids. The golden file records, per rank, the flat round count
// and a digest of the canonical rendering (canonicalPlan,
// canonicalReduce). It was recorded from the separate torus and mesh
// compilers; the unified builders must keep reproducing their plans up to
// a renumbering of temp slots. On a mismatch the test prints the current
// rendering of the first differing plan. Regenerate with -update only for
// a deliberate change of what a plan sends where.
func TestCompiledPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	renders := map[string]string{}
	for _, tc := range compiledCases(t) {
		geoms, ranks := compileAllRanks(t, tc)
		fmt.Fprintf(&buf, "%s dims %v periods %v t %d m %d\n", tc.name, tc.dims, tc.periods, len(tc.nbh), tc.m)
		for gi, g := range geoms {
			for r, cr := range ranks {
				s := canonicalPlan(cr.plans[gi], g.slots)
				line := fmt.Sprintf("  %-10s rank %3d rounds %3d digest %016x", g.name, r, len(cr.plans[gi].flat), digest(s))
				renders[tc.name+line] = s
				buf.WriteString(line + "\n")
			}
		}
		for r, cr := range ranks {
			s := canonicalReduce(cr.reduce)
			line := fmt.Sprintf("  %-10s rank %3d digest %016x", "reduce", r, digest(s))
			renders[tc.name+line] = s
			buf.WriteString(line + "\n")
		}
	}
	golden := filepath.Join("testdata", "compiled_plans.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -run TestCompiledPlanGolden -update)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := range got {
		if !strings.HasPrefix(got[i], " ") {
			section = got[i]
		}
		if i >= len(wl) || got[i] != wl[i] {
			w := "<eof>"
			if i < len(wl) {
				w = wl[i]
			}
			name, _, _ := strings.Cut(section, " dims ")
			t.Fatalf("compiled plans drifted from %s at line %d (%s):\n got %s\nwant %s\ncurrent plan:\n%s",
				golden, i+1, section, got[i], w, renders[name+got[i]])
		}
	}
	t.Fatalf("compiled plans drifted from %s: %d lines, want %d", golden, len(got), len(wl))
}

// TestCompiledPairingAllRanks is the static pairing oracle: it compiles
// every rank's plans for the golden's topologies and checks, without
// running anything, that every send has exactly one matching receive —
// the peer holds a round receiving from this rank under the same tag,
// and the send's schedule blocks match the receive's, size for size and
// in order — and that no receive is left without a sender. This is the
// deadlock-freedom argument of the boundary predicate, checked
// exhaustively.
func TestCompiledPairingAllRanks(t *testing.T) {
	for _, tc := range compiledCases(t) {
		geoms, ranks := compileAllRanks(t, tc)
		for gi, g := range geoms {
			type end struct{ from, to, tag int }
			sends := map[end][]int{}
			recvs := map[end][]int{}
			sizes := func(c *datatype.Composite) []int {
				var out []int
				for _, pc := range compositePieces(c, g.slots) {
					out = append(out, pc.len)
				}
				return out
			}
			for rank, cr := range ranks {
				for _, r := range cr.plans[gi].flat {
					if r.sendTo != ProcNull {
						k := end{rank, r.sendTo, r.tag}
						if _, dup := sends[k]; dup {
							t.Fatalf("%s %s: rank %d sends twice to %d under tag %d", tc.name, g.name, rank, r.sendTo, r.tag)
						}
						sends[k] = sizes(&r.send)
					}
					if r.recvFrom != ProcNull {
						k := end{r.recvFrom, rank, r.tag}
						if _, dup := recvs[k]; dup {
							t.Fatalf("%s %s: rank %d receives twice from %d under tag %d", tc.name, g.name, rank, r.recvFrom, r.tag)
						}
						recvs[k] = sizes(&r.recv)
					}
				}
			}
			for k, s := range sends {
				rs, ok := recvs[k]
				if !ok {
					t.Fatalf("%s %s: rank %d sends to %d under tag %d, which posts no matching receive", tc.name, g.name, k.from, k.to, k.tag)
				}
				if fmt.Sprint(s) != fmt.Sprint(rs) {
					t.Fatalf("%s %s: rank %d -> %d tag %d: send blocks %v, receive blocks %v", tc.name, g.name, k.from, k.to, k.tag, s, rs)
				}
			}
			for k := range recvs {
				if _, ok := sends[k]; !ok {
					t.Fatalf("%s %s: rank %d receives from %d under tag %d, which never sends it", tc.name, g.name, k.to, k.from, k.tag)
				}
			}
		}
	}
}
