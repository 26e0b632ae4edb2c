package cart

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// initPlan builds the regular plan for (op, algo) with m-element blocks
// through the public *Init entry points.
func initPlan(c *Comm, op OpKind, algo Algorithm, m int, opts ...PlanOption) (*Plan, error) {
	if op == OpAlltoall {
		return AlltoallInit(c, m, algo, opts...)
	}
	return AllgatherInit(c, m, algo, opts...)
}

// checkPayload executes p once with encoded blocks and compares the
// receive buffer with the definition of the operation (refAlltoall,
// refAllgather).
func checkPayload(c *Comm, p *Plan, m int) error {
	t := len(c.nbh)
	var send, want []int
	if p.op == OpAlltoall {
		send = make([]int, t*m)
		for i := 0; i < t; i++ {
			for e := 0; e < m; e++ {
				send[i*m+e] = encode(c.Rank(), i, e)
			}
		}
		want = refAlltoall(c.grid, c.nbh, c.Rank(), m)
	} else {
		send = make([]int, m)
		for e := 0; e < m; e++ {
			send[e] = encode(c.Rank(), 0, e)
		}
		want = refAllgather(c.grid, c.nbh, c.Rank(), m)
	}
	recv := make([]int, t*m)
	if err := Run(p, send, recv); err != nil {
		return err
	}
	if !reflect.DeepEqual(recv, want) {
		return fmt.Errorf("rank %d %v(%v): recv=%v want=%v", c.Rank(), p.op, p.algo, recv, want)
	}
	return nil
}

// samePlan compares two plans' compile products field by field: every
// round's peers, tag, composites and volume, the local copies, the temp
// length, the dependency DAG and the pre-post window. It also checks that each plan's flat round pointers address its
// own phase arrays in phase-major order.
func samePlan(got, want *Plan) error {
	if got.op != want.op || got.algo != want.algo {
		return fmt.Errorf("op/algo %v/%v, want %v/%v", got.op, got.algo, want.op, want.algo)
	}
	if got.rounds != want.rounds || got.volume != want.volume || got.tempLen != want.tempLen || got.window != want.window {
		return fmt.Errorf("rounds/volume/tempLen/window %d/%d/%d/%d, want %d/%d/%d/%d",
			got.rounds, got.volume, got.tempLen, got.window, want.rounds, want.volume, want.tempLen, want.window)
	}
	if len(got.phases) != len(want.phases) {
		return fmt.Errorf("%d phases, want %d", len(got.phases), len(want.phases))
	}
	for pi := range want.phases {
		if len(got.phases[pi]) != len(want.phases[pi]) {
			return fmt.Errorf("phase %d: %d rounds, want %d", pi, len(got.phases[pi]), len(want.phases[pi]))
		}
		for ri := range want.phases[pi] {
			g, w := &got.phases[pi][ri], &want.phases[pi][ri]
			if g.sendTo != w.sendTo || g.recvFrom != w.recvFrom || g.tag != w.tag {
				return fmt.Errorf("phase %d round %d: send to %d, recv from %d, tag %d; want %d, %d, %d",
					pi, ri, g.sendTo, g.recvFrom, g.tag, w.sendTo, w.recvFrom, w.tag)
			}
			if g.blocks != w.blocks || g.sendElems != w.sendElems {
				return fmt.Errorf("phase %d round %d: volume %d/%d, want %d/%d", pi, ri, g.blocks, g.sendElems, w.blocks, w.sendElems)
			}
			if !reflect.DeepEqual(g.send, w.send) || !reflect.DeepEqual(g.recv, w.recv) {
				return fmt.Errorf("phase %d round %d: composites differ", pi, ri)
			}
		}
	}
	if !reflect.DeepEqual(got.copies, want.copies) {
		return fmt.Errorf("copies %v, want %v", got.copies, want.copies)
	}
	if !reflect.DeepEqual(got.deps, want.deps) {
		return fmt.Errorf("dependency DAGs differ")
	}
	if len(got.flat) != len(got.deps) {
		return fmt.Errorf("%d flat rounds for %d DAG nodes", len(got.flat), len(got.deps))
	}
	for i, d := range got.deps {
		if got.flat[i] != &got.phases[d.phase][d.idx] {
			return fmt.Errorf("flat round %d does not address phase %d round %d", i, d.phase, d.idx)
		}
	}
	return nil
}

// wrappingNeighborhood draws t offsets for the dims torus with coordinates
// up to twice an extent either way (several wraps), then repeats one of
// them: duplicates, wrap-around and occasional zero offsets together.
func wrappingNeighborhood(rng *rand.Rand, dims []int) vec.Neighborhood {
	t := 3 + rng.Intn(6)
	nbh := make(vec.Neighborhood, t)
	for i := range nbh {
		v := make(vec.Vec, len(dims))
		for k, n := range dims {
			v[k] = rng.Intn(4*n+1) - 2*n
		}
		nbh[i] = v
	}
	return append(nbh, nbh[rng.Intn(t)].Clone())
}

// TestSharedMasterMatchesPerRankCompile is the equivalence oracle of the
// rank-free torus masters: on every rank of 2-d and 3-d tori, for both
// operations and both schedule families, the plan bound from the one
// shared master equals, field by field, the plan this rank compiles for
// itself with the cache out of the loop — and moves payloads correctly.
// One compile per (op, algo) world-wide proves the other ranks bound.
// The mesh leg checks that meshes still key per rank.
func TestSharedMasterMatchesPerRankCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	must := func(n vec.Neighborhood, err error) vec.Neighborhood {
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cases := []struct {
		name    string
		dims    []int
		periods []bool
		nbh     vec.Neighborhood
	}{
		{"2d-moore", []int{3, 4}, nil, must(vec.Moore(2, 1))},
		{"2d-vonneumann", []int{3, 4}, nil, must(vec.VonNeumann(2, 1))},
		{"2d-asymmetric", []int{3, 4}, nil, must(vec.Stencil(2, 4, -1))},
		{"2d-random-a", []int{3, 4}, nil, wrappingNeighborhood(rng, []int{3, 4})},
		{"2d-random-b", []int{4, 2}, nil, wrappingNeighborhood(rng, []int{4, 2})},
		{"3d-moore", []int{2, 3, 3}, nil, must(vec.Moore(3, 1))},
		{"3d-vonneumann", []int{2, 3, 3}, nil, must(vec.VonNeumann(3, 1))},
		{"3d-asymmetric", []int{2, 2, 3}, nil, must(vec.Stencil(3, 3, 0))},
		{"3d-random", []int{2, 3, 2}, nil, wrappingNeighborhood(rng, []int{2, 3, 2})},
		{"mesh-moore", []int{3, 3}, []bool{false, false}, must(vec.Moore(2, 1))},
		{"mesh-mixed", []int{3, 2}, []bool{true, false}, must(vec.VonNeumann(2, 1))},
	}
	const m = 3
	ops := []OpKind{OpAlltoall, OpAllgather}
	algos := []Algorithm{Trivial, Combining}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withFreshPlanCache(t, DefaultPlanCacheCapacity)
			size := gridSize(tc.dims)
			mesh := tc.periods != nil
			runWorld(t, size, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, tc.dims, tc.periods, tc.nbh, nil)
				if err != nil {
					return err
				}
				for _, op := range ops {
					for _, algo := range algos {
						// The first Init compiles on one rank and binds on
						// the rest; the second binds on every rank.
						first, err := initPlan(c, op, algo, m)
						if err != nil {
							return err
						}
						bound, err := initPlan(c, op, algo, m)
						if err != nil {
							return err
						}
						if !bound.FromCache() {
							return fmt.Errorf("rank %d %v(%v): repeat Init missed", c.Rank(), op, algo)
						}
						fresh, _, err := c.compilePlan(op, algo, uniformGeometry(op, m), nil)
						if err != nil {
							return err
						}
						for _, p := range []*Plan{first, bound} {
							if err := samePlan(p, fresh); err != nil {
								return fmt.Errorf("rank %d %v(%v): bound plan differs from a fresh compile: %w", c.Rank(), op, algo, err)
							}
						}
						if len(bound.flat) > 0 && bound.flat[0] == first.flat[0] && !mesh {
							return fmt.Errorf("rank %d %v(%v): two binds share round records", c.Rank(), op, algo)
						}
						for _, p := range []*Plan{first, bound} {
							if err := checkPayload(c, p, m); err != nil {
								return err
							}
						}
					}
				}
				return nil
			})
			// One compile per (op, algo) on a torus; one per rank on a mesh.
			perKey := 1
			if mesh {
				perKey = size
			}
			keys := len(ops) * len(algos)
			st := SnapshotPlanCache()
			if st.Misses != int64(keys*perKey) || st.Entries != keys*perKey {
				t.Errorf("%d misses, %d entries; want %d of each (%d per key)", st.Misses, st.Entries, keys*perKey, perKey)
			}
			if want := int64(2*keys*size) - st.Misses; st.Hits != want {
				t.Errorf("%d hits, want %d", st.Hits, want)
			}
		})
	}
}

// planSetupOp is one op of the benchmark's plan_setup workload: rank 0
// drops the shared plan cache between two barriers, then every rank
// creates the 3x3x3 Moore torus and both of its combining plans with
// m = 8, and a barrier closes the op.
func planSetupOp(w *mpi.Comm, nbh vec.Neighborhood, reset bool) (c *Comm, a2a, ag *Plan, err error) {
	if err = mpi.Barrier(w); err != nil {
		return
	}
	if reset && w.Rank() == 0 {
		ResetPlanCache()
	}
	if err = mpi.Barrier(w); err != nil {
		return
	}
	if c, err = NeighborhoodCreate(w, []int{3, 3, 3}, nil, nbh, nil); err != nil {
		return
	}
	if a2a, err = AlltoallInit(c, 8, Combining); err != nil {
		return
	}
	if ag, err = AllgatherInit(c, 8, Combining); err != nil {
		return
	}
	err = mpi.Barrier(w)
	return
}

// TestColdInitCompilesOncePerShape runs the benchmark's plan_setup loop on
// 27 ranks. With the cache dropped before every op, each op must compile
// each of its two plans exactly once — 2 misses and 52 hits — and,
// without the race detector, stay under 4 000 allocations world-wide
// (27 per-rank compiles made it about 36 000). With capacity 0 nothing is
// shared (54 misses), and with a goroutine resetting the cache
// continuously no rank hangs or binds a wrong plan.
func TestColdInitCompilesOncePerShape(t *testing.T) {
	const (
		ranks = 27
		ops   = 20
	)
	nbh, err := vec.Moore(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpi.Config{Procs: ranks, Timeout: -1, DeadlockPoll: -1}

	t.Run("counts", func(t *testing.T) {
		withFreshPlanCache(t, DefaultPlanCacheCapacity)
		var allocs float64
		err := mpi.Run(cfg, func(w *mpi.Comm) error {
			// Warm-up op: the world's first collectives fill free lists.
			if _, _, _, err := planSetupOp(w, nbh, true); err != nil {
				return err
			}
			var before runtime.MemStats
			if w.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < ops; i++ {
				if _, _, _, err := planSetupOp(w, nbh, true); err != nil {
					return err
				}
				if w.Rank() == 0 {
					// Every rank has passed the op's closing barrier, so the
					// counters are final until rank 0 resets them.
					if st := SnapshotPlanCache(); st.Misses != 2 || st.Hits != 2*ranks-2 {
						return fmt.Errorf("op %d: %d misses, %d hits; want 2 and %d", i, st.Misses, st.Hits, 2*ranks-2)
					}
				}
			}
			if w.Rank() == 0 {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				allocs = float64(after.Mallocs-before.Mallocs) / ops
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("plan_setup op: %.0f allocations world-wide (%d ranks)", allocs, ranks)
		if gate := !raceEnabled && !mpi.TransportEnvActive(); gate && allocs > 4000 {
			t.Errorf("plan_setup op allocates %.0f objects world-wide; want <= 4000 (one compile per shape)", allocs)
		}
	})

	t.Run("capacity-0", func(t *testing.T) {
		withFreshPlanCache(t, 0)
		err := mpi.Run(cfg, func(w *mpi.Comm) error {
			for i := 0; i < 3; i++ {
				c, a2a, ag, err := planSetupOp(w, nbh, true)
				if err != nil {
					return err
				}
				if w.Rank() == 0 {
					if st := SnapshotPlanCache(); st.Misses != 2*ranks || st.Hits != 0 || st.Entries != 0 {
						return fmt.Errorf("op %d with caching off: %+v; want %d misses, no hits, no entries", i, st, 2*ranks)
					}
				}
				for _, p := range []*Plan{a2a, ag} {
					if err := checkPayload(c, p, 8); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("reset-hammer", func(t *testing.T) {
		withFreshPlanCache(t, DefaultPlanCacheCapacity)
		var stop atomic.Bool
		var hammer sync.WaitGroup
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for i := 0; !stop.Load(); i++ {
				ResetPlanCache()
				if i%8 == 0 {
					// Flip capacity through 0 as well: waiters must still get
					// the master their flight carries.
					prev := SetPlanCacheCapacity(0)
					SetPlanCacheCapacity(prev)
				}
				runtime.Gosched()
			}
		}()
		done := make(chan error, 1)
		go func() {
			done <- mpi.Run(mpi.Config{Procs: ranks, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
				for i := 0; i < 5; i++ {
					c, a2a, ag, err := planSetupOp(w, nbh, false)
					if err != nil {
						return err
					}
					for _, p := range []*Plan{a2a, ag} {
						if err := checkPayload(c, p, 8); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			stop.Store(true)
			hammer.Wait()
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(90 * time.Second):
			stop.Store(true)
			t.Fatal("plan_setup loop hung under a concurrent ResetPlanCache")
		}
	})
}

// TestFailureAttributionText pins the exact text of a failed round's
// attribution — formatted from the round's peer on the error path only —
// on a plan bound from a rank-free master, for a barriered combining plan
// and a trivial one. Rank 2 of a 3-rank ring crashes as it enters the
// exchange; rank 0, which receives from it, must report the phase, round
// and peer exactly as DESIGN.md §7 quotes them.
func TestFailureAttributionText(t *testing.T) {
	const victim = 2
	for _, leg := range []struct {
		algo Algorithm
		opts []PlanOption
	}{
		{Combining, []PlanOption{WithBarrieredPhases()}},
		{Trivial, nil},
	} {
		t.Run(leg.algo.String(), func(t *testing.T) {
			withFreshPlanCache(t, DefaultPlanCacheCapacity)
			var (
				atOp   int   // the victim's first exchange operation
				bound  bool  // rank 0's plan came from the warm cache
				runErr error // rank 0's Run error
			)
			body := func(exchange bool) func(w *mpi.Comm) error {
				return func(w *mpi.Comm) error {
					c, err := NeighborhoodCreate(w, []int{3}, nil, vec.Neighborhood{{1}}, nil)
					if err != nil {
						return err
					}
					p, err := AlltoallInit(c, 2, leg.algo, leg.opts...)
					if err != nil {
						return err
					}
					switch {
					case !exchange && w.Rank() == victim:
						atOp = w.OpCount() + 1
					case exchange && w.Rank() == 0:
						bound = p.FromCache()
						runErr = Run(p, make([]int, 2), make([]int, 2))
					case exchange:
						_ = Run(p, make([]int, 2), make([]int, 2))
					}
					return nil
				}
			}
			// Calibrate the victim's first exchange operation; this run also
			// leaves the master in the cache.
			runWorld(t, 3, body(false))
			err := mpi.Run(mpi.Config{
				Procs:   3,
				Timeout: 20 * time.Second,
				Faults:  &mpi.FaultPlan{Crashes: []mpi.Crash{{Rank: victim, AtOp: atOp}}},
			}, body(true))
			if !mpi.IsRankFailed(err) {
				t.Fatalf("run error = %v, want only the injected crash", err)
			}
			if !bound {
				t.Error("rank 0 compiled its plan; want it bound from the warm cache")
			}
			// The cart layer's text is pinned byte for byte; the runtime's
			// cause after it names the operation that observed the crash (the
			// receive's post or its wait), so it is checked by type and rank.
			var cause *mpi.RankFailedError
			if !errors.As(runErr, &cause) || cause.Rank != victim || errors.Unwrap(runErr) != error(cause) {
				t.Fatalf("rank 0 error %v does not wrap rank %d's failure", runErr, victim)
			}
			want := "cart: alltoall(" + leg.algo.String() + "): phase 1/1 round 0: recv from rank 2: " + cause.Error()
			if runErr.Error() != want {
				t.Errorf("rank 0 error:\n got %s\nwant %s", runErr, want)
			}
		})
	}
}
