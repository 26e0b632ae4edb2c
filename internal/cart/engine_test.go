package cart

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// startAlltoallFuture fills a fresh send buffer for iteration it and
// commits one future of the plan.
func startAlltoallFuture(w *mpi.Comm, p *Plan, t, m, it int) (*Future, []int, error) {
	send := make([]int, t*m)
	for i := 0; i < t; i++ {
		for e := 0; e < m; e++ {
			send[i*m+e] = encode(w.Rank(), i, e) + it
		}
	}
	recv := make([]int, t*m)
	f, err := Start(p, send, recv)
	return f, recv, err
}

// Several futures of one plan in flight at once on every rank: each owns a
// private tag block, so completions interleave without cross-matching,
// and waits in reverse commit order must not deadlock (completion happens
// on the engine, not in Wait). Also pins the scratch-pool bound: the pool
// never outgrows the peak in-flight depth, so steady-state batches reuse
// scratch instead of allocating.
func TestFuturesManyInFlightInterleave(t *testing.T) {
	const K, m, iters = 4, 2, 3
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		for it := 0; it < iters; it++ {
			futs := make([]*Future, K)
			recvs := make([][]int, K)
			for k := 0; k < K; k++ {
				futs[k], recvs[k], err = startAlltoallFuture(w, plan, tn, m, it*K+k)
				if err != nil {
					return err
				}
			}
			for k := K - 1; k >= 0; k-- {
				if err := futs[k].Wait(); err != nil {
					return fmt.Errorf("rank %d future %d: %w", w.Rank(), k, err)
				}
				if !futs[k].settled() {
					return fmt.Errorf("rank %d future %d: unsettled after Wait", w.Rank(), k)
				}
				if werr := futs[k].Wait(); werr != nil {
					return fmt.Errorf("rank %d future %d: second Wait = %v", w.Rank(), k, werr)
				}
			}
			base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
			for k := 0; k < K; k++ {
				want := make([]int, len(base))
				for i := range base {
					want[i] = base[i] + it*K + k
				}
				if !reflect.DeepEqual(recvs[k], want) {
					return fmt.Errorf("rank %d iter %d future %d: %v != %v", w.Rank(), it, k, recvs[k], want)
				}
			}
		}
		plan.asyncMu.Lock()
		pool := len(plan.asyncFree)
		plan.asyncMu.Unlock()
		if pool > K {
			return fmt.Errorf("rank %d: scratch pool grew to %d for %d in-flight futures", w.Rank(), pool, K)
		}
		return nil
	})
}

// Regression for the commit/driver publication race: register() must
// publish the pending entry before it bumps the committedTo watermark
// (mirrored by admit()'s fast path loading ctA before pendingN) — the old
// order let a driver mid-batch pair a fresh watermark with a
// not-yet-visible registration and drop that execution's completion
// tokens as stale, hanging the future until the fallback watchdog failed
// the run. A sliding-window Start storm keeps the resident continuously
// driving while the committer registers, maximizing the window; a dropped
// token surfaces as a Wait error (suspected deadlock) here.
func TestStartStormCommitRace(t *testing.T) {
	const K, m = 5, 1
	iters := 60
	if testing.Short() {
		iters = 15
	}
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		type inflight struct {
			f    *Future
			recv []int
			it   int
		}
		window := make([]inflight, 0, K)
		retire := func(fl inflight) error {
			if err := fl.f.Wait(); err != nil {
				return fmt.Errorf("rank %d future it=%d: %w", w.Rank(), fl.it, err)
			}
			for i := range base {
				if fl.recv[i] != base[i]+fl.it {
					return fmt.Errorf("rank %d future it=%d: recv[%d] = %d, want %d", w.Rank(), fl.it, i, fl.recv[i], base[i]+fl.it)
				}
			}
			return nil
		}
		for it := 0; it < iters; it++ {
			f, recv, err := startAlltoallFuture(w, plan, tn, m, it)
			if err != nil {
				return err
			}
			window = append(window, inflight{f, recv, it})
			if len(window) == K {
				// Retire only the oldest: the rest stay in flight, so the
				// next Start always races an actively driving engine.
				if err := retire(window[0]); err != nil {
					return err
				}
				window = append(window[:0], window[1:]...)
			}
		}
		for _, fl := range window {
			if err := retire(fl); err != nil {
				return err
			}
		}
		return nil
	})
}

// Futures of two different plans (alltoall and allgather) interleave on
// one communicator; waits complete in a shuffled order.
func TestFuturesInterleaveTwoPlans(t *testing.T) {
	const m = 3
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		a2a, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		ag, err := AllgatherInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		fa, recvA, err := startAlltoallFuture(w, a2a, tn, m, 0)
		if err != nil {
			return err
		}
		sendG := make([]int, m)
		for e := 0; e < m; e++ {
			sendG[e] = encode(w.Rank(), 0, e)
		}
		recvG := make([]int, tn*m)
		fg, err := Start(ag, sendG, recvG)
		if err != nil {
			return err
		}
		fa2, recvA2, err := startAlltoallFuture(w, a2a, tn, m, 7)
		if err != nil {
			return err
		}
		order := []*Future{fg, fa2, fa}
		rnd := rand.New(rand.NewSource(int64(w.Rank())))
		rnd.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, f := range order {
			if err := f.Wait(); err != nil {
				return err
			}
		}
		wantA := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		if !reflect.DeepEqual(recvA, wantA) {
			return fmt.Errorf("rank %d alltoall#0: %v != %v", w.Rank(), recvA, wantA)
		}
		wantA2 := make([]int, len(wantA))
		for i := range wantA {
			wantA2[i] = wantA[i] + 7
		}
		if !reflect.DeepEqual(recvA2, wantA2) {
			return fmt.Errorf("rank %d alltoall#1: %v != %v", w.Rank(), recvA2, wantA2)
		}
		wantG := refAllgather(c.Grid(), nbh, w.Rank(), m)
		if !reflect.DeepEqual(recvG, wantG) {
			return fmt.Errorf("rank %d allgather: %v != %v", w.Rank(), recvG, wantG)
		}
		return nil
	})
}

// The Icart facade: plan from the communicator cache, commit, wait.
func TestIcartCollectives(t *testing.T) {
	const m = 2
	nbh := mustStencil(t, 1, 4, -1)
	runWorld(t, 4, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{4}, nil, nbh, nil)
		if err != nil {
			return err
		}
		tn := len(nbh)
		for it := 0; it < 3; it++ {
			send := make([]int, tn*m)
			for i := 0; i < tn; i++ {
				for e := 0; e < m; e++ {
					send[i*m+e] = encode(w.Rank(), i, e)
				}
			}
			recv := make([]int, tn*m)
			f, err := IcartAlltoall(c, send, recv)
			if err != nil {
				return err
			}
			sendG := make([]int, m)
			for e := 0; e < m; e++ {
				sendG[e] = encode(w.Rank(), 0, e)
			}
			recvG := make([]int, tn*m)
			fg, err := IcartAllgather(c, sendG, recvG)
			if err != nil {
				return err
			}
			if err := f.Wait(); err != nil {
				return err
			}
			if err := fg.Wait(); err != nil {
				return err
			}
			if want := refAlltoall(c.Grid(), nbh, w.Rank(), m); !reflect.DeepEqual(recv, want) {
				return fmt.Errorf("rank %d alltoall: %v != %v", w.Rank(), recv, want)
			}
			if want := refAllgather(c.Grid(), nbh, w.Rank(), m); !reflect.DeepEqual(recvG, want) {
				return fmt.Errorf("rank %d allgather: %v != %v", w.Rank(), recvG, want)
			}
		}
		return nil
	})
}

// A peer crash mid-storm fails in-flight futures with typed errors (rank
// failure or cancellation poison) instead of deadlocking the engine. The
// crash point is calibrated by a fault-free first run: rank 2's op count
// after setup plus a small delta lands the crash inside the concurrent
// collectives.
func TestFutureCrashFailsTyped(t *testing.T) {
	nbh := mustStencil(t, 1, 4, -1)
	const K, m = 3, 2

	// Calibration pass: count rank 2's point-to-point ops through setup.
	setupOps := make([]int, 4)
	runWorld(t, 4, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{4}, nil, nbh, nil)
		if err != nil {
			return err
		}
		if _, err := AlltoallInit(c, m, Trivial); err != nil {
			return err
		}
		setupOps[w.Rank()] = w.OpCount()
		return nil
	})

	err := mpi.Run(mpi.Config{
		Procs:   4,
		Timeout: 10 * time.Second,
		Faults:  &mpi.FaultPlan{Crashes: []mpi.Crash{{Rank: 2, AtOp: setupOps[2] + 3}}},
	}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{4}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Trivial)
		if err != nil {
			return err
		}
		tn := len(nbh)
		futs := make([]*Future, K)
		for k := 0; k < K; k++ {
			futs[k], _, err = startAlltoallFuture(w, plan, tn, m, k)
			if err != nil {
				// The crashing rank can fail at commit-time posting.
				break
			}
		}
		for _, f := range futs {
			if f == nil {
				continue
			}
			if werr := f.Wait(); werr != nil {
				if !mpi.IsRankFailed(werr) && !errors.Is(werr, mpi.ErrCancelled) && !errors.Is(werr, mpi.ErrAborted) {
					return fmt.Errorf("rank %d: future failed with untyped error %v", w.Rank(), werr)
				}
			}
		}
		return nil
	})
	// The run reports rank 2's injected crash; what matters above is that
	// every future completed with a typed error rather than hanging.
	if err == nil {
		t.Fatal("fault run returned nil error, crash was not injected")
	}
	if !strings.Contains(err.Error(), "injected crash") && !mpi.IsRankFailed(err) && !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("fault run returned unexpected error class: %v", err)
	}
}

// Satellite: many goroutines hammer the shared plan cache with *Init
// while their worlds run concurrent futures, under an eviction-heavy
// capacity, so verify-on-hit, detach/bind and eviction race real Start
// traffic (run under -race in CI).
func TestPlanCacheConcurrentStartEviction(t *testing.T) {
	old := SetPlanCacheCapacity(2)
	defer SetPlanCacheCapacity(old)

	const worlds = 6
	var wg sync.WaitGroup
	errs := make(chan error, worlds)
	for g := 0; g < worlds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nbh, err := vec.Stencil(1, 4, -1)
			if err != nil {
				errs <- err
				return
			}
			errs <- mpi.Run(mpi.Config{Procs: 4, Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, []int{4}, nil, nbh, nil)
				if err != nil {
					return err
				}
				tn := len(nbh)
				for it := 0; it < 8; it++ {
					// Rotate block sizes so cache keys churn and evict.
					m := 1 + (g+it)%3
					plan, err := AlltoallInit(c, m, Combining)
					if err != nil {
						return err
					}
					f, recv, err := startAlltoallFuture(w, plan, tn, m, it)
					if err != nil {
						return err
					}
					if err := f.Wait(); err != nil {
						return err
					}
					base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
					for i := range base {
						base[i] += it
					}
					if !reflect.DeepEqual(recv, base) {
						return fmt.Errorf("world %d rank %d iter %d: %v != %v", g, w.Rank(), it, recv, base)
					}
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Bounded multi-tenant stress: independent worlds each keep several
// futures in flight; engines share nothing, so worlds neither serialize
// nor interfere. CI runs this under -race at GOMAXPROCS 2 and 8.
func TestManyWorldsConcurrentFutures(t *testing.T) {
	worlds, iters := 12, 6
	if testing.Short() {
		worlds, iters = 4, 3
	}
	const K, m = 3, 2
	var wg sync.WaitGroup
	errs := make(chan error, worlds)
	for g := 0; g < worlds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nbh, err := vec.Stencil(1, 4, -1)
			if err != nil {
				errs <- err
				return
			}
			errs <- mpi.Run(mpi.Config{Procs: 4, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, []int{4}, nil, nbh, nil)
				if err != nil {
					return err
				}
				plan, err := AlltoallInit(c, m, Combining)
				if err != nil {
					return err
				}
				tn := len(nbh)
				for it := 0; it < iters; it++ {
					futs := make([]*Future, K)
					recvs := make([][]int, K)
					for k := 0; k < K; k++ {
						futs[k], recvs[k], err = startAlltoallFuture(w, plan, tn, m, it*K+k)
						if err != nil {
							return err
						}
					}
					for k := 0; k < K; k++ {
						if err := futs[k].Wait(); err != nil {
							return err
						}
					}
					base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
					for k := 0; k < K; k++ {
						want := make([]int, len(base))
						for i := range base {
							want[i] = base[i] + it*K + k
						}
						if !reflect.DeepEqual(recvs[k], want) {
							return fmt.Errorf("world %d rank %d: future %d payload mismatch", g, w.Rank(), k)
						}
					}
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
