package cart

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

// planFor compiles one plan per rank for (dims, periods, nbh, op) with the
// combining algorithm and returns them, indexed by rank. The plans are
// only inspected/simulated after mpi.Run joins, which provides the
// happens-before edge.
func plansFor(t *testing.T, dims []int, periods []bool, nbh vec.Neighborhood, op OpKind, m int) []*Plan {
	t.Helper()
	plans := make([]*Plan, gridSize(dims))
	err := mpi.Run(mpi.Config{Procs: len(plans), Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, periods, nbh, nil, WithAlgorithm(Combining))
		if err != nil {
			return err
		}
		var p *Plan
		if op == OpAlltoall {
			p, err = AlltoallInit(c, m, Combining)
		} else {
			p, err = AllgatherInit(c, m, Combining)
		}
		if err != nil {
			return err
		}
		plans[w.Rank()] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestDAGInDegrees pins the compiled dependency structure of the torus
// combining alltoall against hand-computed expectations: per phase, the
// RAW in-degree (producer count) of every round's send, and the resulting
// barrier-free round set. On a torus every rank compiles the same
// schedule, so rank 0 stands for all.
func TestDAGInDegrees(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		d, r int
		m    int
		// sendDeps[k][i] is the expected RAW in-degree of round i of
		// phase k. A phase-k round forwards blocks with any combination
		// of earlier-dimension coordinates, so its producers are exactly
		// the rounds of every earlier phase: 2r per phase for a full
		// Moore stencil.
		sendDeps [][]int32
	}{
		{name: "1d-3pt", dims: []int{4}, d: 1, r: 1, m: 2,
			sendDeps: [][]int32{{0, 0}}},
		{name: "2d-9pt", dims: []int{4, 4}, d: 2, r: 1, m: 2,
			sendDeps: [][]int32{{0, 0}, {2, 2}}},
		{name: "3d-27pt", dims: []int{3, 3, 3}, d: 3, r: 1, m: 1,
			sendDeps: [][]int32{{0, 0}, {2, 2}, {4, 4}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nbh, err := vec.Moore(tc.d, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			p := plansFor(t, tc.dims, nil, nbh, OpAlltoall, tc.m)[0]
			got := make([][]int32, len(p.phases))
			var barrierFree, wantFree []int
			for fi, dep := range p.deps {
				for len(got) <= dep.phase {
					got = append(got, nil)
				}
				got[dep.phase] = append(got[dep.phase], dep.sendDeps)
				if p.flat[fi].sendTo != ProcNull && dep.sendDeps == 0 {
					barrierFree = append(barrierFree, fi)
				}
				if tc.sendDeps[dep.phase][dep.idx] == 0 {
					wantFree = append(wantFree, fi)
				}
			}
			if !reflect.DeepEqual(got, tc.sendDeps) {
				t.Errorf("send in-degrees = %v, want %v", got, tc.sendDeps)
			}
			if !reflect.DeepEqual(barrierFree, wantFree) {
				t.Errorf("barrier-free rounds = %v, want %v", barrierFree, wantFree)
			}
		})
	}
}

// TestDAGStarStencilAllBarrierFree: every offset of a Star (axis) stencil
// has exactly one non-zero coordinate, so every block travels one hop and
// every send reads only the user send buffer — the whole plan must be
// barrier-free, the configuration with maximal pipelining headroom.
func TestDAGStarStencilAllBarrierFree(t *testing.T) {
	nbh, err := vec.Star(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := plansFor(t, []int{5, 5}, nil, nbh, OpAlltoall, 2)[0]
	for i, dep := range p.deps {
		if p.flat[i].sendTo != ProcNull && dep.sendDeps != 0 {
			t.Errorf("round %d (phase %d idx %d): sendDeps = %d, want 0", i, dep.phase, dep.idx, dep.sendDeps)
		}
	}
}

// TestDAGTagsUniqueAndPaired checks the per-round tag discipline on a
// non-periodic mesh, where ranks drop different rounds: tags are unique
// within a rank's plan, and for every round with a live receive, the
// source rank has a round with the matching send and the same tag.
func TestDAGTagsUniqueAndPaired(t *testing.T) {
	for _, op := range []OpKind{OpAlltoall, OpAllgather} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			nbh, err := vec.Moore(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			plans := plansFor(t, []int{3, 4}, []bool{false, false}, nbh, op, 2)
			for rank, p := range plans {
				seen := map[int]int{}
				for i, r := range p.flat {
					if prev, dup := seen[r.tag]; dup {
						t.Fatalf("rank %d: rounds %d and %d share tag %d", rank, prev, i, r.tag)
					}
					seen[r.tag] = i
				}
			}
			for rank, p := range plans {
				for _, r := range p.flat {
					if r.recvFrom == ProcNull {
						continue
					}
					src := plans[r.recvFrom]
					found := false
					for _, sr := range src.flat {
						if sr.tag == r.tag && sr.sendTo == rank {
							if sr.send.Size() != r.recv.Size() {
								t.Fatalf("rank %d tag %d: send %d elements, recv %d", rank, r.tag, sr.send.Size(), r.recv.Size())
							}
							found = true
						}
					}
					if !found {
						t.Fatalf("rank %d: no send at rank %d matches recv tag %d", rank, r.recvFrom, r.tag)
					}
				}
			}
		})
	}
}

// simMsg keys one in-flight simulated message.
type simKey struct {
	src, tag int
}

// simRank is one rank's state in the single-threaded DAG simulation.
type simRank struct {
	p        *Plan
	bufs     [][]int
	sendLeft []int32
	scatLeft []int32
	sent     []bool
	retired  []bool
	inbox    map[simKey][]int
}

// simEvent is one enabled execution step: rank r posts round i's send
// (kind 0) or retires round i's receive (kind 1).
type simEvent struct {
	rank, round int
	kind        int
}

// newSim builds per-rank simulation state with encode()-filled send
// buffers and zeroed receive/temp buffers.
func newSim(plans []*Plan, nbh vec.Neighborhood, m int, op OpKind) []*simRank {
	ranks := make([]*simRank, len(plans))
	for r, p := range plans {
		n := len(p.flat)
		sendN := len(nbh) * m
		if op == OpAllgather {
			sendN = m
		}
		send := make([]int, sendN)
		for i := range send {
			send[i] = encode(r, i/m, i%m)
		}
		sr := &simRank{
			p:        p,
			bufs:     [][]int{send, make([]int, len(nbh)*m), make([]int, p.tempLen)},
			sendLeft: make([]int32, n),
			scatLeft: make([]int32, n),
			sent:     make([]bool, n),
			retired:  make([]bool, n),
			inbox:    map[simKey][]int{},
		}
		for i, dep := range p.deps {
			sr.sendLeft[i] = dep.sendDeps
			sr.scatLeft[i] = dep.scatDeps
		}
		ranks[r] = sr
	}
	return ranks
}

// enabled lists every event the DAG permits right now.
func enabled(ranks []*simRank) []simEvent {
	var evs []simEvent
	for r, sr := range ranks {
		for i, round := range sr.p.flat {
			if round.sendTo != ProcNull && !sr.sent[i] && sr.sendLeft[i] == 0 {
				evs = append(evs, simEvent{r, i, 0})
			}
			if round.recvFrom != ProcNull && !sr.retired[i] && sr.scatLeft[i] == 0 {
				if len(sr.inbox[simKey{round.recvFrom, round.tag}]) > 0 {
					evs = append(evs, simEvent{r, i, 1})
				}
			}
		}
	}
	return evs
}

// step executes one event: a send gathers its composite into a wire and
// delivers it (decrementing WAR gates), a retirement scatters the wire and
// decrements RAW and WAW gates — exactly the pipelined executor's cascade,
// in whatever order the caller picked.
func step(ranks []*simRank, ev simEvent) {
	sr := ranks[ev.rank]
	round := sr.p.flat[ev.round]
	dep := &sr.p.deps[ev.round]
	if ev.kind == 0 {
		wire := make([]int, round.send.Size())
		datatype.GatherComposite(wire, sr.bufs, &round.send)
		dst := ranks[round.sendTo]
		key := simKey{ev.rank, round.tag}
		dst.inbox[key] = wire
		sr.sent[ev.round] = true
		for _, s := range dep.warSucc {
			sr.scatLeft[s]--
		}
		return
	}
	key := simKey{round.recvFrom, round.tag}
	wire := sr.inbox[key]
	delete(sr.inbox, key)
	datatype.ScatterComposite(sr.bufs, wire, &round.recv)
	sr.retired[ev.round] = true
	for _, s := range dep.rawSucc {
		sr.sendLeft[s]--
	}
	for _, s := range dep.wawSucc {
		sr.scatLeft[s]--
	}
}

// finish applies the plan's local copies and returns the receive buffer.
func (sr *simRank) finish() []int {
	recv := sr.bufs[1]
	for _, cp := range sr.p.copies {
		datatype.Copy(recv, cp.to, sr.bufs[cp.fromBuf], cp.from)
	}
	return recv
}

// runSim drives the simulation to completion with pick choosing among
// enabled events, and fails if the DAG wedges before every round ran.
func runSim(t *testing.T, plans []*Plan, nbh vec.Neighborhood, m int, op OpKind, pick func([]simEvent) simEvent) [][]int {
	t.Helper()
	ranks := newSim(plans, nbh, m, op)
	for {
		evs := enabled(ranks)
		if len(evs) == 0 {
			break
		}
		step(ranks, pick(evs))
	}
	out := make([][]int, len(ranks))
	for r, sr := range ranks {
		for i, round := range sr.p.flat {
			if round.sendTo != ProcNull && !sr.sent[i] {
				t.Fatalf("rank %d: send of flat round %d never enabled (DAG wedged)", r, i)
			}
			if round.recvFrom != ProcNull && !sr.retired[i] {
				t.Fatalf("rank %d: receive of flat round %d never retired (DAG wedged)", r, i)
			}
		}
		out[r] = sr.finish()
	}
	return out
}

// TestDAGTopologicalOrdersByteIdentical is the DAG sufficiency property
// test: executing the rounds of every rank in ANY dependency-respecting
// order — simulated single-threaded, with adversarially random
// interleavings across ranks and phases — must produce receive buffers
// byte-identical to the phase-ordered reference. A missing WAR/WAW/RAW
// edge shows up as a corrupted block under some interleaving; a spurious
// cycle shows up as a wedged simulation.
func TestDAGTopologicalOrdersByteIdentical(t *testing.T) {
	cases := []struct {
		name    string
		dims    []int
		periods []bool
		d, r    int
		op      OpKind
	}{
		{name: "torus-2d-alltoall", dims: []int{4, 4}, d: 2, r: 1, op: OpAlltoall},
		{name: "torus-2d-allgather", dims: []int{4, 4}, d: 2, r: 1, op: OpAllgather},
		{name: "torus-3d-alltoall", dims: []int{3, 3, 3}, d: 3, r: 1, op: OpAlltoall},
		{name: "mesh-2d-alltoall", dims: []int{3, 4}, periods: []bool{false, false}, d: 2, r: 1, op: OpAlltoall},
		{name: "mesh-2d-allgather", dims: []int{3, 3}, periods: []bool{false, false}, d: 2, r: 1, op: OpAllgather},
		{name: "mesh-mixed-alltoall", dims: []int{4, 3}, periods: []bool{true, false}, d: 2, r: 1, op: OpAlltoall},
	}
	const m = 2
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nbh, err := vec.Moore(tc.d, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			plans := plansFor(t, tc.dims, tc.periods, nbh, tc.op, m)
			// Reference: phase-major, rank-major — the barriered order.
			ref := runSim(t, plans, nbh, m, tc.op, func(evs []simEvent) simEvent {
				best := 0
				for i := 1; i < len(evs); i++ {
					a, b := evs[i], evs[best]
					da, db := plans[a.rank].deps[a.round], plans[b.rank].deps[b.round]
					// Earlier phase first; within a phase all sends before
					// any retirement; then by rank and round.
					ka := [4]int{da.phase, a.kind, a.rank, a.round}
					kb := [4]int{db.phase, b.kind, b.rank, b.round}
					for j := 0; j < 4; j++ {
						if ka[j] != kb[j] {
							if ka[j] < kb[j] {
								best = i
							}
							break
						}
					}
				}
				return evs[best]
			})
			for trial := 0; trial < 25; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*trial + 7)))
				got := runSim(t, plans, nbh, m, tc.op, func(evs []simEvent) simEvent {
					return evs[rng.Intn(len(evs))]
				})
				for r := range got {
					if !reflect.DeepEqual(got[r], ref[r]) {
						t.Fatalf("trial %d rank %d: random topological order diverged:\n got %v\nwant %v", trial, r, got[r], ref[r])
					}
				}
			}
		})
	}
}

// TestPipelinedMatchesBarriered runs the real executors both ways on the
// same inputs — pipelined (default) vs WithBarrieredPhases — across torus
// and mesh topologies and both families, repeating each plan three times
// to exercise the plan-owned scratch reuse (WaitSet Reset included).
func TestPipelinedMatchesBarriered(t *testing.T) {
	cases := []struct {
		name    string
		dims    []int
		periods []bool
		d, r    int
		op      OpKind
	}{
		{name: "torus-2d-alltoall", dims: []int{4, 4}, d: 2, r: 1, op: OpAlltoall},
		{name: "torus-2d-allgather", dims: []int{4, 4}, d: 2, r: 1, op: OpAllgather},
		{name: "torus-3d-alltoall", dims: []int{3, 3, 3}, d: 3, r: 1, op: OpAlltoall},
		{name: "mesh-2d-alltoall", dims: []int{3, 4}, periods: []bool{false, false}, d: 2, r: 1, op: OpAlltoall},
		{name: "mesh-2d-allgather", dims: []int{3, 3}, periods: []bool{false, false}, d: 2, r: 1, op: OpAllgather},
	}
	const m = 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nbh, err := vec.Moore(tc.d, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			runWorld(t, gridSize(tc.dims), func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, tc.dims, tc.periods, nbh, nil, WithAlgorithm(Combining))
				if err != nil {
					return err
				}
				mk := func(opts ...PlanOption) (*Plan, error) {
					if tc.op == OpAlltoall {
						return AlltoallInit(c, m, Combining, opts...)
					}
					return AllgatherInit(c, m, Combining, opts...)
				}
				piped, err := mk()
				if err != nil {
					return err
				}
				barr, err := mk(WithBarrieredPhases())
				if err != nil {
					return err
				}
				sendN := len(nbh) * m
				if tc.op == OpAllgather {
					sendN = m
				}
				send := make([]int, sendN)
				for i := range send {
					send[i] = encode(w.Rank(), i/m, i%m)
				}
				for iter := 0; iter < 3; iter++ {
					got := make([]int, len(nbh)*m)
					want := make([]int, len(nbh)*m)
					if err := Run(piped, send, got); err != nil {
						return fmt.Errorf("pipelined: %w", err)
					}
					if err := Run(barr, send, want); err != nil {
						return fmt.Errorf("barriered: %w", err)
					}
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("rank %d iter %d: pipelined %v != barriered %v", w.Rank(), iter, got, want)
					}
				}
				return nil
			})
		})
	}
}

// modelNsPerOp times iters back-to-back executions of one plan on a world
// priced by the hydra cost model and returns the slowest rank's virtual
// nanoseconds per operation, plus the family the plan ran (Auto's pick).
// A warm-up execution resolves Auto and fills plan scratch; a barrier then
// synchronizes the virtual clocks before the timed window. The clock is
// deterministic, so one measurement is the answer. faults may be nil.
func modelNsPerOp(t *testing.T, dims []int, nbh vec.Neighborhood, op OpKind, m, iters int,
	faults *mpi.FaultPlan, algo Algorithm, opts ...PlanOption) (float64, Algorithm) {
	t.Helper()
	procs := gridSize(dims)
	elapsed := make([]float64, procs)
	var ran Algorithm
	err := mpi.Run(mpi.Config{Procs: procs, Model: netmodel.Hydra(), Seed: 1, DeadlockPoll: -1, Faults: faults, Timeout: 5 * time.Minute}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil)
		if err != nil {
			return err
		}
		var plan *Plan
		sendN := len(nbh) * m
		if op == OpAllgather {
			sendN = m
			plan, err = AllgatherInit(c, m, algo, opts...)
		} else {
			plan, err = AlltoallInit(c, m, algo, opts...)
		}
		if err != nil {
			return err
		}
		send := make([]int32, sendN)
		recv := make([]int32, len(nbh)*m)
		if err := Run(plan, send, recv); err != nil {
			return err
		}
		if w.Rank() == 0 {
			ran = plan.Effective()
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		v0 := w.VTime()
		for i := 0; i < iters; i++ {
			if err := Run(plan, send, recv); err != nil {
				return err
			}
		}
		elapsed[w.Rank()] = w.VTime() - v0
		return nil
	})
	if err != nil {
		t.Fatalf("%v %v d=%d m=%d: %v", op, algo, len(dims), m, err)
	}
	worst := 0.0
	for _, e := range elapsed {
		worst = max(worst, e)
	}
	return worst * 1e9 / float64(iters), ran
}

// TestPipelinedBeatsBarrieredUnderModel is the pipelining gate, priced on
// the hydra model's virtual clock. The dependency-DAG executor may never
// be slower than the per-phase Waitall one (WithBarrieredPhases). On full
// Moore stencils every round forwards blocks from every earlier receive,
// so the DAG is the phase barrier and the two must tie exactly. On Star
// stencils nothing is forwarded, every round is barrier-free, and the d
// stacked per-phase latency terms collapse toward one: at d=3, m=1 that
// must be worth 1.5x (1.63x measured). The straggler leg holds back every
// message of rank 1 by 5 µs (about 3α); on the Star r=2 torus the
// pipelined executor must hide at least 20 % of the barriered run time
// (23 % measured) by running the unaffected rounds meanwhile. Run with -v
// to print the tables.
func TestPipelinedBeatsBarrieredUnderModel(t *testing.T) {
	const iters = 5
	cases := []struct {
		label   string
		dims    []int
		dense   bool // full Moore: the DAG equals the phase barrier
		stencil func() (vec.Neighborhood, error)
	}{
		{"moore r=1", []int{4, 4}, true, func() (vec.Neighborhood, error) { return vec.Stencil(2, 3, -1) }},
		{"star r=2", []int{5, 5}, false, func() (vec.Neighborhood, error) { return vec.Star(2, 2) }},
		{"star r=1", []int{3, 3, 3}, false, func() (vec.Neighborhood, error) { return vec.Star(3, 1) }},
	}
	t.Logf("%-10s %-10s %2s %9s %16s %16s %8s", "op", "stencil", "d", "m(elems)", "barriered ns/op", "pipelined ns/op", "speedup")
	for _, tc := range cases {
		nbh, err := tc.stencil()
		if err != nil {
			t.Fatal(err)
		}
		d := len(tc.dims)
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, m := range []int{1, 16, 256, 4096} {
				barr, _ := modelNsPerOp(t, tc.dims, nbh, op, m, iters, nil, Combining, WithBarrieredPhases())
				pipe, _ := modelNsPerOp(t, tc.dims, nbh, op, m, iters, nil, Combining)
				t.Logf("%-10v %-10s %2d %9d %16.0f %16.0f %8.2f", op, tc.label, d, m, barr, pipe, barr/pipe)
				switch {
				case pipe > barr:
					t.Errorf("%v %s m=%d: pipelined %.0f ns/op is slower than barriered %.0f", op, tc.label, m, pipe, barr)
				case tc.dense && pipe != barr:
					t.Errorf("%v %s m=%d: pipelined %.0f ns/op should tie barriered %.0f on a dense-forwarding stencil", op, tc.label, m, pipe, barr)
				case !tc.dense && d == 3 && m == 1 && barr/pipe < 1.5:
					t.Errorf("%v %s m=1: speedup %.2fx, want >= 1.5x from barrier-free rounds", op, tc.label, barr/pipe)
				}
			}
		}
	}

	const delay = 5 * time.Microsecond
	faults := &mpi.FaultPlan{Delays: []mpi.MsgDelay{{From: 1, To: -1, DelayV: delay.Seconds()}}}
	t.Logf("straggler: every message of rank 1 held back %v (virtual)", delay)
	t.Logf("%-10s %-10s %16s %16s %7s", "op", "stencil", "barriered ns/op", "pipelined ns/op", "hidden")
	for _, tc := range cases {
		if len(tc.dims) != 2 {
			continue
		}
		nbh, err := tc.stencil()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			barr, _ := modelNsPerOp(t, tc.dims, nbh, op, 1, iters, faults, Combining, WithBarrieredPhases())
			pipe, _ := modelNsPerOp(t, tc.dims, nbh, op, 1, iters, faults, Combining)
			hidden := (barr - pipe) / barr
			t.Logf("%-10v %-10s %16.0f %16.0f %6.0f%%", op, tc.label, barr, pipe, 100*hidden)
			if pipe > barr {
				t.Errorf("straggler %v %s: pipelined %.0f ns/op is slower than barriered %.0f", op, tc.label, pipe, barr)
			}
			if !tc.dense && hidden < 0.20 {
				t.Errorf("straggler %v %s: pipelined hides %.0f%% of the delay-inflated run time, want >= 20%%", op, tc.label, 100*hidden)
			}
		}
	}
}

// TestStarStencilSendsBeforeFirstRecvDone pins the pipelining behavior
// the DAG exists to unlock: on a Star stencil every send is barrier-free
// (TestDAGStarStencilAllBarrierFree), and the default window covers all
// receives, so the executor must post every send before it retires a
// single receive — deterministically, not just under lucky timing. The
// barriered executor can only do this within one phase; here the round
// log proves it across all phases.
func TestStarStencilSendsBeforeFirstRecvDone(t *testing.T) {
	nbh, err := vec.Star(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{5, 5}
	const m = 2
	runWorld(t, gridSize(dims), func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil, WithAlgorithm(Combining))
		if err != nil {
			return err
		}
		p, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		log := trace.NewRoundLog()
		p.SetRoundLog(log)
		send := make([]int, len(nbh)*m)
		recv := make([]int, len(nbh)*m)
		for i := range send {
			send[i] = encode(w.Rank(), i/m, i%m)
		}
		if err := Run(p, send, recv); err != nil {
			return err
		}
		sends, dones := 0, 0
		for _, ev := range log.Events() {
			switch ev.Kind {
			case trace.RoundSendPost:
				if dones > 0 {
					return fmt.Errorf("rank %d: send post of phase %d round %d after %d receive(s) completed",
						w.Rank(), ev.Phase, ev.Round, dones)
				}
				sends++
			case trace.RoundRecvDone:
				dones++
			}
		}
		if wantS := p.Messages(); sends != wantS {
			return fmt.Errorf("rank %d: logged %d send posts, want %d", w.Rank(), sends, wantS)
		}
		if dones == 0 {
			return fmt.Errorf("rank %d: no receive completions logged", w.Rank())
		}
		return nil
	})
}
