package cart

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// policyShape is one topology of the executor-policy tables.
type policyShape struct {
	label   string
	dims    []int
	periods []bool
	nbh     func() (vec.Neighborhood, error)
}

var policyShapes = []policyShape{
	{"torus 4x4 moore r=1", []int{4, 4}, nil, func() (vec.Neighborhood, error) { return vec.Moore(2, 1) }},
	{"torus 5x5 star r=2", []int{5, 5}, nil, func() (vec.Neighborhood, error) { return vec.Star(2, 2) }},
	{"torus 3x3x3 star r=1", []int{3, 3, 3}, nil, func() (vec.Neighborhood, error) { return vec.Star(3, 1) }},
	{"mesh 3x4 moore r=1", []int{3, 4}, []bool{false, false}, func() (vec.Neighborhood, error) { return vec.Moore(2, 1) }},
}

// executorPolicy is one way of running a schedule: the algorithm plus the
// execution-style options.
type executorPolicy struct {
	name string
	algo Algorithm
	opts []PlanOption
}

var executorPolicies = []executorPolicy{
	{"default", Combining, nil},
	{"barriered", Combining, []PlanOption{WithBarrieredPhases()}},
	{"blocking", Combining, []PlanOption{WithBlockingRounds()}},
	{"trivial", Trivial, nil},
}

// policySendLen returns the send buffer length of a regular op.
func policySendLen(op OpKind, t, m int) int {
	if op == OpAllgather {
		return m
	}
	return t * m
}

// writePolicyVirtualTime runs one (shape, op, policy, m) case twice on a
// hydra-priced world with a straggler and a delayed sender, and writes
// every rank's final virtual time, operation count and a digest of its
// recorded communication events. All three depend on the order in which
// the executor posts and waits its operations: the straggler charges every
// post, and the delayed sender moves arrival times.
func writePolicyVirtualTime(t *testing.T, buf *bytes.Buffer, sh policyShape, op OpKind, pol executorPolicy, m int) {
	t.Helper()
	nbh, err := sh.nbh()
	if err != nil {
		t.Fatal(err)
	}
	procs := gridSize(sh.dims)
	rec := trace.NewRecorder(procs)
	vtimes := make([]netmodel.Time, procs)
	opCounts := make([]int, procs)
	faults := &mpi.FaultPlan{
		Stragglers: []mpi.Straggler{{Rank: 1, PerOpV: 0.7e-6}},
		Delays:     []mpi.MsgDelay{{From: 2, To: -1, Every: 2, DelayV: 3e-6}},
	}
	cfg := mpi.Config{Procs: procs, Model: netmodel.Hydra(), Seed: 1, DeadlockPoll: -1, Faults: faults, Recorder: rec, Timeout: time.Minute}
	err = mpi.Run(cfg, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, sh.dims, sh.periods, nbh, nil)
		if err != nil {
			return err
		}
		p, err := initPlan(c, op, pol.algo, m, pol.opts...)
		if err != nil {
			return err
		}
		send := make([]int32, policySendLen(op, len(nbh), m))
		recv := make([]int32, len(nbh)*m)
		for iter := 0; iter < 2; iter++ {
			if err := Run(p, send, recv); err != nil {
				return err
			}
		}
		vtimes[w.Rank()] = w.VTime()
		opCounts[w.Rank()] = w.OpCount()
		return nil
	})
	if err != nil {
		t.Fatalf("%s %v %s m=%d: %v", sh.label, op, pol.name, m, err)
	}
	fmt.Fprintf(buf, "%s %v %s m=%d\n", sh.label, op, pol.name, m)
	for r := 0; r < procs; r++ {
		h := fnv.New64a()
		evs := rec.RankEvents(r)
		for _, ev := range evs {
			fmt.Fprintf(h, "%+v\n", ev)
		}
		fmt.Fprintf(buf, "  rank %2d vtime %v ops %d events %d digest %016x\n", r, vtimes[r], opCounts[r], len(evs), h.Sum64())
	}
}

// TestExecutorPolicyVirtualTimeGolden pins the virtual-time behaviour of
// every execution policy — pipelined default, per-phase barrier, blocking
// rounds and the trivial schedule — on tori and a mesh, both families and
// two block sizes. The golden file was recorded from the separate
// per-policy executors that preceded the shared step machine; the policies
// must keep reproducing their post and wait sequences exactly. Regenerate
// with -update only for a deliberate change of executor order.
func TestExecutorPolicyVirtualTimeGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, sh := range policyShapes {
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, pol := range executorPolicies {
				for _, m := range []int{1, 256} {
					writePolicyVirtualTime(t, &buf, sh, op, pol, m)
				}
			}
		}
	}
	golden := filepath.Join("testdata", "executor_vtime.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -run TestExecutorPolicyVirtualTimeGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wl) || !bytes.Equal(got[i], wl[i]) {
				w := []byte("<eof>")
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("virtual-time behaviour drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, got[i], w)
			}
		}
		t.Fatalf("virtual-time behaviour drifted from %s: %d lines, want %d", golden, len(got), len(wl))
	}
}

// wantFencedOrder derives from the plan's rounds the event sequence a
// fenced execution must log: under the phase fence, per phase, every
// receive post, then every send post, then every receive completion, each
// in round order; under the round fence, per round, its receive post, send
// post and receive completion. ProcNull halves log nothing.
func wantFencedOrder(p *Plan, f fence) []trace.RoundEvent {
	var out []trace.RoundEvent
	add := func(pi, ri int, kind trace.RoundKind) {
		r := &p.phases[pi][ri]
		peer := r.recvFrom
		if kind == trace.RoundSendPost {
			peer = r.sendTo
		}
		if peer != ProcNull {
			out = append(out, trace.RoundEvent{Phase: pi, Round: ri, Peer: peer, Kind: kind})
		}
	}
	kinds := []trace.RoundKind{trace.RoundRecvPost, trace.RoundSendPost, trace.RoundRecvDone}
	for pi, rounds := range p.phases {
		if f == fenceRound {
			for ri := range rounds {
				for _, k := range kinds {
					add(pi, ri, k)
				}
			}
			continue
		}
		for _, k := range kinds {
			for ri := range rounds {
				add(pi, ri, k)
			}
		}
	}
	return out
}

// TestFencedPoliciesPostOrder pins the order in which the fenced policies
// post and retire: the barriered plan phase by phase (all receive posts,
// all sends, all waits), the blocking and trivial plans round by round
// (receive post, send, wait). The 3x4 mesh puts ProcNull halves into the
// rounds of its boundary ranks, which must be skipped, not logged.
func TestFencedPoliciesPostOrder(t *testing.T) {
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pols := []struct {
		executorPolicy
		fence fence
	}{
		{executorPolicies[1], fencePhase},
		{executorPolicies[2], fenceRound},
		{executorPolicies[3], fenceRound},
	}
	for _, sh := range []struct {
		label   string
		dims    []int
		periods []bool
	}{
		{"torus-3x3", []int{3, 3}, nil},
		{"mesh-3x4", []int{3, 4}, []bool{false, false}},
	} {
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, pol := range pols {
				t.Run(fmt.Sprintf("%s/%v/%s", sh.label, op, pol.name), func(t *testing.T) {
					halves := make([]int, gridSize(sh.dims))
					runWorld(t, gridSize(sh.dims), func(w *mpi.Comm) error {
						c, err := NeighborhoodCreate(w, sh.dims, sh.periods, nbh, nil)
						if err != nil {
							return err
						}
						p, err := initPlan(c, op, pol.algo, 2, pol.opts...)
						if err != nil {
							return err
						}
						if p.fence != pol.fence {
							return fmt.Errorf("plan fence %d, want %d", p.fence, pol.fence)
						}
						for _, r := range p.flat {
							if (r.sendTo == ProcNull) != (r.recvFrom == ProcNull) {
								halves[w.Rank()]++
							}
						}
						want := wantFencedOrder(p, pol.fence)
						log := trace.NewRoundLog()
						p.SetRoundLog(log)
						send := make([]int, policySendLen(op, len(nbh), 2))
						recv := make([]int, len(nbh)*2)
						for iter := 0; iter < 2; iter++ {
							if err := Run(p, send, recv); err != nil {
								return err
							}
							got := append([]trace.RoundEvent(nil), log.Events()...)
							for i := range got {
								got[i].At = 0
							}
							if !reflect.DeepEqual(got, want) {
								return fmt.Errorf("rank %d run %d: logged\n%v\nwant\n%v", w.Rank(), iter, got, want)
							}
						}
						return nil
					})
					total := 0
					for _, n := range halves {
						total += n
					}
					if sh.periods != nil && total == 0 {
						t.Fatal("no rank has a round with a ProcNull half: the mesh leg is vacuous")
					}
				})
			}
		}
	}
}

// TestRetireLatencyAccounting pins which retirements feed the
// cart.retire.ns histogram: every receive of a wall-clock pipelined Run,
// none of a fenced Run, and only the non-leaf receives of a Start — the
// engine's coalesced leaf tail counts its retirements without timing them.
func TestRetireLatencyAccounting(t *testing.T) {
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const procs, runs = 9, 2
	for _, tc := range []struct {
		name  string
		pol   executorPolicy
		start bool
	}{
		{"run-default", executorPolicies[0], false},
		{"run-barriered", executorPolicies[1], false},
		{"run-blocking", executorPolicies[2], false},
		{"run-trivial", executorPolicies[3], false},
		{"start-default", executorPolicies[0], true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry(procs)
			var recvs, live atomic.Int64
			err := mpi.Run(mpi.Config{Procs: procs, Metrics: reg, Timeout: time.Minute}, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
				if err != nil {
					return err
				}
				p, err := initPlan(c, OpAlltoall, tc.pol.algo, 2, tc.pol.opts...)
				if err != nil {
					return err
				}
				for i, r := range p.flat {
					if r.recvFrom == ProcNull {
						continue
					}
					recvs.Add(runs)
					if len(p.deps[i].rawSucc) > 0 || len(p.deps[i].wawSucc) > 0 {
						live.Add(runs)
					}
				}
				send := make([]int, len(nbh)*2)
				recv := make([]int, len(nbh)*2)
				for iter := 0; iter < runs; iter++ {
					if !tc.start {
						err = Run(p, send, recv)
					} else if f, serr := Start(p, send, recv); serr != nil {
						err = serr
					} else {
						err = f.Wait()
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			h, ok := reg.Merged().Get("cart.retire.ns")
			if !ok {
				t.Fatal("cart.retire.ns not registered")
			}
			var want int64
			switch {
			case tc.start:
				want = live.Load()
				if want == recvs.Load() {
					t.Fatal("no leaf receive in the plan: the engine leg is vacuous")
				}
			case tc.pol.name == "default":
				want = recvs.Load()
			}
			if h.Count != want {
				t.Errorf("cart.retire.ns observed %d retirements, want %d (of %d receives)", h.Count, want, recvs.Load())
			}
		})
	}
}

// TestNoForwardSamePhaseWAR checks the compile invariant the round fence
// relies on: no WAR edge runs from a round's send to the receive of an
// earlier round of the same phase. Under the round fence that receive is
// waited before the send that gates its scatter is posted, so such an edge
// would stall the execution. Every rank's plan is checked, for both
// families and both schedule kinds, on tori, meshes, and seeded random
// neighborhoods with duplicate, zero and multi-wrap offsets.
func TestNoForwardSamePhaseWAR(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type shape struct {
		dims    []int
		periods []bool
		nbh     vec.Neighborhood
	}
	var shapes []shape
	for _, d := range []struct {
		dims []int
		n, f int
	}{
		{[]int{4, 4}, 3, -1}, {[]int{5, 4}, 5, -2}, {[]int{3, 3, 3}, 3, -1}, {[]int{6}, 5, -2}, {[]int{3, 4}, 4, -1},
	} {
		nbh := mustStencil(t, len(d.dims), d.n, d.f)
		shapes = append(shapes, shape{d.dims, nil, nbh}, shape{d.dims, make([]bool, len(d.dims)), nbh})
	}
	for i := 0; i < 12; i++ {
		dims := [][]int{{3, 4}, {4, 2}, {2, 3, 2}, {3, 3}}[i%4]
		var periods []bool
		if i%3 == 2 {
			periods = make([]bool, len(dims))
		}
		shapes = append(shapes, shape{dims, periods, wrappingNeighborhood(rng, dims)})
	}
	plans, conflicted := 0, 0
	for _, sh := range shapes {
		for _, op := range []OpKind{OpAlltoall, OpAllgather} {
			for _, algo := range []Algorithm{Trivial, Combining} {
				var mu sync.Mutex
				runWorld(t, gridSize(sh.dims), func(w *mpi.Comm) error {
					c, err := NeighborhoodCreate(w, sh.dims, sh.periods, sh.nbh, nil)
					if err != nil {
						return err
					}
					p, err := initPlan(c, op, algo, 2)
					if err != nil {
						return err
					}
					phases := map[int]bool{}
					for y, dep := range p.deps {
						for _, x := range dep.warSucc {
							if int(x) < y {
								return fmt.Errorf("dims %v periods %v nbh %v %v(%v) rank %d: send of flat round %d gates the scatter of earlier round %d (phase %d)",
									sh.dims, sh.periods, sh.nbh, op, algo, w.Rank(), y, x, dep.phase)
							}
							phases[dep.phase] = true
						}
					}
					mu.Lock()
					plans++
					conflicted += len(phases)
					mu.Unlock()
					return nil
				})
			}
		}
	}
	t.Logf("%d per-rank plans, %d phases with WAR edges", plans, conflicted)
	if conflicted == 0 {
		t.Fatal("no plan has a WAR edge: the property is vacuous")
	}
}

// TestRoundFenceViolationIsInternalError plants the edge the compile
// invariant rules out — the second round's send gating the first round's
// scatter, in one phase — and runs the plan under both fences. The round
// fence reaches the first round's wait with its scatter still gated and
// must fail with an internal error instead of hanging; the phase fence
// posts both sends before any wait and completes.
func TestRoundFenceViolationIsInternalError(t *testing.T) {
	runWorld(t, 1, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{1}, {2}}
		c, err := NeighborhoodCreate(w, []int{1}, nil, nbh, nil)
		if err != nil {
			return err
		}
		for _, tc := range []struct {
			opt     PlanOption
			wantErr bool
		}{{WithBlockingRounds(), true}, {WithBarrieredPhases(), false}} {
			// A transformed compile bypasses the plan cache, so the planted
			// edge stays private to this plan.
			p, err := AlltoallInit(c, 1, Combining, WithScheduleTransform(func(*Schedule) {}), tc.opt)
			if err != nil {
				return err
			}
			if len(p.flat) != 2 || p.deps[0].phase != p.deps[1].phase {
				return fmt.Errorf("want one phase of two rounds, got %d rounds", len(p.flat))
			}
			p.deps[1].warSucc = append(p.deps[1].warSucc, 0)
			p.deps[0].scatDeps++
			err = Run(p, []int{1, 2}, make([]int, 2))
			switch {
			case tc.wantErr && (err == nil || !strings.Contains(err.Error(), "internal: round 0 scatter-gated")):
				return fmt.Errorf("fence %d: Run error %v, want the flat-order internal error", p.fence, err)
			case !tc.wantErr && err != nil:
				return fmt.Errorf("fence %d: %w", p.fence, err)
			}
		}
		return nil
	})
}
