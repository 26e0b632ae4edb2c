package cart

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// withFreshPlanCache isolates a test from cache state left by other tests
// and restores the default configuration afterwards.
func withFreshPlanCache(t *testing.T, capacity int) {
	t.Helper()
	ResetPlanCache()
	prev := SetPlanCacheCapacity(capacity)
	t.Cleanup(func() {
		SetPlanCacheCapacity(prev)
		ResetPlanCache()
	})
}

// runStencilWorld runs a 3-rank 1D periodic world with the ±1 stencil —
// the smallest topology where trivial and combining both do real
// communication — and hands the body a ready communicator.
func runStencilWorld(body func(c *Comm) error) error {
	return mpi.Run(mpi.Config{Procs: 3, Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
		nbh := vec.Neighborhood{{1}, {-1}}
		c, err := NeighborhoodCreate(w, []int{3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		return body(c)
	})
}

// checkAlltoall runs the plan and verifies every received block against
// the known pattern sent by its source rank — payload proof that a cached
// (possibly cross-world-shared) plan routes blocks exactly like a fresh
// compile.
func checkAlltoall(c *Comm, p *Plan, m int) error {
	t := len(c.Neighborhood())
	send := make([]int64, t*m)
	recv := make([]int64, t*m)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			send[i*m+j] = int64(c.Rank()*1_000_000 + i*1000 + j)
		}
	}
	if err := Run(p, send, recv); err != nil {
		return err
	}
	for i, src := range c.Sources() {
		if src == ProcNull {
			continue
		}
		for j := 0; j < m; j++ {
			want := int64(src*1_000_000 + i*1000 + j)
			if recv[i*m+j] != want {
				return fmt.Errorf("rank %d block %d elem %d: got %d, want %d (from rank %d)",
					c.Rank(), i, j, recv[i*m+j], want, src)
			}
		}
	}
	return nil
}

// TestRepeatInitBindsFromCache: the tentpole behavior — a second *Init on
// an identical (shape, neighborhood, op, geometry, algorithm) key binds
// the cached master instead of recompiling, for both legs of an Auto
// plan, and the cached plan produces byte-identical collective results.
func TestRepeatInitBindsFromCache(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	err := runStencilWorld(func(c *Comm) error {
		first, err := AlltoallInit(c, 5, Auto)
		if err != nil {
			return err
		}
		if first.FromCache() || first.alt.FromCache() {
			return fmt.Errorf("first Init reported a cache hit on an empty cache")
		}
		second, err := AlltoallInit(c, 5, Auto)
		if err != nil {
			return err
		}
		if !second.FromCache() || !second.alt.FromCache() {
			return fmt.Errorf("second identical Init did not bind from cache (main=%v alt=%v)",
				second.FromCache(), second.alt.FromCache())
		}
		if second.rounds != first.rounds || second.volume != first.volume || second.tempLen != first.tempLen {
			return fmt.Errorf("cached plan shape differs from fresh compile")
		}
		// Different m is a different geometry fingerprint: must miss.
		other, err := AlltoallInit(c, 6, Auto)
		if err != nil {
			return err
		}
		if other.FromCache() {
			return fmt.Errorf("Init with a different block size bound a cached plan")
		}
		// Both the fresh and the cached plan must move real payloads
		// correctly.
		if err := checkAlltoall(c, first, 5); err != nil {
			return fmt.Errorf("fresh plan: %w", err)
		}
		return checkAlltoall(c, second, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := SnapshotPlanCache()
	// 3 ranks × 2 legs hit on the second Init.
	if st.Hits < 6 {
		t.Errorf("cache hits = %d, want >= 6", st.Hits)
	}
	if st.Entries == 0 || st.Bytes <= 0 {
		t.Errorf("cache empty after compiles: %+v", st)
	}
}

// TestPlanCacheSharedAcrossWorlds: two sequential worlds with the same
// topology share entries — the second world's very first Init is a hit
// (plans are pure functions of the fingerprint, not of the world that
// compiled them) and still delivers correct payloads.
func TestPlanCacheSharedAcrossWorlds(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	seed := func(c *Comm) error {
		_, err := AlltoallInit(c, 9, Trivial)
		return err
	}
	if err := runStencilWorld(seed); err != nil {
		t.Fatal(err)
	}
	err := runStencilWorld(func(c *Comm) error {
		p, err := AlltoallInit(c, 9, Trivial)
		if err != nil {
			return err
		}
		if !p.FromCache() {
			return fmt.Errorf("fresh world with identical topology missed the cache")
		}
		return checkAlltoall(c, p, 9)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheOrderSensitive: the neighborhood hash is order-preserving
// — block i travels to offset i, so a permuted offset list is a different
// collective and must not share plans.
func TestPlanCacheOrderSensitive(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	build := func(nbh vec.Neighborhood, wantHit bool) error {
		return mpi.Run(mpi.Config{Procs: 3, Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
			c, err := NeighborhoodCreate(w, []int{3}, nil, nbh, nil)
			if err != nil {
				return err
			}
			p, err := AlltoallInit(c, 4, Trivial)
			if err != nil {
				return err
			}
			if p.FromCache() != wantHit {
				return fmt.Errorf("FromCache = %v, want %v", p.FromCache(), wantHit)
			}
			return nil
		})
	}
	if err := build(vec.Neighborhood{{1}, {-1}}, false); err != nil {
		t.Fatal(err)
	}
	if err := build(vec.Neighborhood{{-1}, {1}}, false); err != nil {
		t.Fatalf("permuted neighborhood shared a cache entry: %v", err)
	}
	if err := build(vec.Neighborhood{{1}, {-1}}, true); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheStyleOptionsNotInKey: execution-style options select a
// fence, not a compilation, so a barriered or blocking Init after a plain
// one is still a hit — and each instance carries the requested fence while
// the plain instance does not.
func TestPlanCacheStyleOptionsNotInKey(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	err := runStencilWorld(func(c *Comm) error {
		plain, err := AlltoallInit(c, 3, Combining)
		if err != nil {
			return err
		}
		if plain.fence != fenceNone {
			return fmt.Errorf("plain plan compiled with fence %d", plain.fence)
		}
		barriered, err := AlltoallInit(c, 3, Combining, WithBarrieredPhases())
		if err != nil {
			return err
		}
		if !barriered.FromCache() {
			return fmt.Errorf("barriered Init missed despite identical compile key")
		}
		if barriered.fence != fencePhase {
			return fmt.Errorf("style option lost on the cache-hit path")
		}
		blocking, err := AlltoallInit(c, 3, Combining, WithBlockingRounds())
		if err != nil {
			return err
		}
		if !blocking.FromCache() || blocking.fence != fenceRound {
			return fmt.Errorf("blocking option on hit path: fromCache=%v fence=%d", blocking.FromCache(), blocking.fence)
		}
		if err := checkAlltoall(c, blocking, 3); err != nil {
			return err
		}
		return checkAlltoall(c, barriered, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheTransformBypasses: WithScheduleTransform changes the
// compile itself (the sim mutation smoke plants bugs through it), so such
// plans never read or write the cache — a planted mutation can neither be
// served from cache nor poison it.
func TestPlanCacheTransformBypasses(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	err := runStencilWorld(func(c *Comm) error {
		if _, err := AlltoallInit(c, 4, Combining); err != nil {
			return err
		}
		noop := func(*Schedule) {}
		p, err := AlltoallInit(c, 4, Combining, WithScheduleTransform(noop))
		if err != nil {
			return err
		}
		if p.FromCache() {
			return fmt.Errorf("transformed Init bound a cached plan")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	before := SnapshotPlanCache()
	err = runStencilWorld(func(c *Comm) error {
		p, err := AlltoallInit(c, 4, Combining, WithScheduleTransform(func(*Schedule) {}))
		if err != nil {
			return err
		}
		if p.FromCache() {
			return fmt.Errorf("transformed Init bound a cached plan")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := SnapshotPlanCache()
	if after.Entries != before.Entries {
		t.Errorf("transformed compile was published to the cache: %d -> %d entries", before.Entries, after.Entries)
	}
}

// TestPlanCacheEvictionAtCapacity: a single-rank world sweeps more
// distinct block sizes than the capacity holds; the LRU must evict the
// oldest entries (deterministically, with one rank) and a re-Init of an
// evicted size must recompile while the newest sizes still hit.
func TestPlanCacheEvictionAtCapacity(t *testing.T) {
	const capacity = 4
	withFreshPlanCache(t, capacity)
	err := mpi.Run(mpi.Config{Procs: 1, Timeout: 30 * time.Second}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{1}, nil, vec.Neighborhood{{1}}, nil)
		if err != nil {
			return err
		}
		for m := 1; m <= 10; m++ {
			if _, err := AlltoallInit(c, m, Trivial); err != nil {
				return err
			}
		}
		st := SnapshotPlanCache()
		if st.Entries != capacity {
			return fmt.Errorf("entries = %d, want exactly capacity %d", st.Entries, capacity)
		}
		if st.Evictions != 10-capacity {
			return fmt.Errorf("evictions = %d, want %d", st.Evictions, 10-capacity)
		}
		evicted, err := AlltoallInit(c, 1, Trivial)
		if err != nil {
			return err
		}
		if evicted.FromCache() {
			return fmt.Errorf("evicted entry (m=1) served a hit")
		}
		kept, err := AlltoallInit(c, 10, Trivial)
		if err != nil {
			return err
		}
		if !kept.FromCache() {
			return fmt.Errorf("most-recent entry (m=10) missed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := SnapshotPlanCache()
	if st.Bytes <= 0 {
		t.Errorf("bytes gauge non-positive after evictions: %d", st.Bytes)
	}
}

// TestPlanCacheCapacityZeroDisables: capacity 0 must drop everything and
// stop caching without breaking Init.
func TestPlanCacheCapacityZeroDisables(t *testing.T) {
	withFreshPlanCache(t, 0)
	err := runStencilWorld(func(c *Comm) error {
		for i := 0; i < 2; i++ {
			p, err := AlltoallInit(c, 4, Trivial)
			if err != nil {
				return err
			}
			if p.FromCache() {
				return fmt.Errorf("hit with caching disabled")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := SnapshotPlanCache(); st.Entries != 0 {
		t.Errorf("entries = %d with capacity 0", st.Entries)
	}
}

// TestPlanCacheConcurrentWorldsRace is the -race coverage: many worlds
// run concurrently, half sharing one fingerprint (contending on the same
// entries, binding one shared master from many goroutines) and half on
// distinct fingerprints (churning inserts), every rank doing *Init + Run
// with full payload verification. Any shared mutable state on the hit
// path — in the cache, the masters, or the bound plans — is a detector
// hit or a payload mismatch here.
func TestPlanCacheConcurrentWorldsRace(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	const worlds = 8
	var wg sync.WaitGroup
	errs := make([]error, worlds)
	for wi := 0; wi < worlds; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Even worlds share block size 4 (same key); odd worlds get a
			// world-distinct size (insert churn).
			m := 4
			if wi%2 == 1 {
				m = 16 + wi
			}
			errs[wi] = runStencilWorld(func(c *Comm) error {
				for iter := 0; iter < 3; iter++ {
					p, err := AlltoallInit(c, m, Auto)
					if err != nil {
						return err
					}
					if err := checkAlltoall(c, p, m); err != nil {
						return fmt.Errorf("world %d iter %d: %w", wi, iter, err)
					}
				}
				return nil
			})
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", wi, err)
		}
	}
	st := SnapshotPlanCache()
	if st.Hits == 0 {
		t.Error("concurrent worlds never hit the shared cache")
	}
}

// TestPlanCacheRecoveryEpochMisses: post-recovery invalidation. A fresh
// 3-rank world seeds entries at epoch 0; a 4-rank world then loses a rank,
// shrinks via consensus recovery, and re-embeds into the *identical*
// 3-rank topology — but at a bumped epoch, so its Init must recompile
// rather than serve the pre-recovery plan, while repeats within the
// recovered generation hit normally.
func TestPlanCacheRecoveryEpochMisses(t *testing.T) {
	withFreshPlanCache(t, DefaultPlanCacheCapacity)
	const m = 7
	nbh := vec.Neighborhood{{1}, {-1}}
	if err := runStencilWorld(func(c *Comm) error {
		p, err := AlltoallInit(c, m, Trivial)
		if err != nil {
			return err
		}
		if p.FromCache() {
			return fmt.Errorf("seed Init hit an empty cache")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	err := mpi.Run(mpi.Config{
		Procs:   4,
		Timeout: 30 * time.Second,
		Faults:  &mpi.FaultPlan{Crashes: []mpi.Crash{{Rank: 3, AtOp: 3}}},
	}, func(w *mpi.Comm) error {
		// Ring traffic until the crash surfaces, then consensus-shrink.
		p := w.Size()
		next, prev := (w.Rank()+1)%p, (w.Rank()-1+p)%p
		var ringErr error
		for i := 0; i < 10; i++ {
			out, in := []int{w.Rank()}, make([]int, 1)
			if _, err := mpi.Sendrecv(w, out, datatype.Contiguous(0, 1), next, 0, in, datatype.Contiguous(0, 1), prev, 0); err != nil {
				ringErr = err
				break
			}
		}
		if ringErr == nil {
			return fmt.Errorf("rank %d never observed the crash", w.Rank())
		}
		w.Revoke()
		nw, info, err := w.RecoverShrink()
		if err != nil {
			return fmt.Errorf("rank %d: RecoverShrink: %w", w.Rank(), err)
		}
		if info.Epoch < 1 {
			return fmt.Errorf("recovered into epoch %d, want >= 1", info.Epoch)
		}
		if nw.Size() != 3 {
			return fmt.Errorf("shrunk size = %d, want 3", nw.Size())
		}
		c, err := NeighborhoodCreate(nw, []int{3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		stale, err := AlltoallInit(c, m, Trivial)
		if err != nil {
			return err
		}
		if stale.FromCache() {
			return fmt.Errorf("post-recovery Init served the pre-recovery (epoch-0) plan")
		}
		repeat, err := AlltoallInit(c, m, Trivial)
		if err != nil {
			return err
		}
		if !repeat.FromCache() {
			return fmt.Errorf("repeat Init within the recovered generation missed")
		}
		return checkAlltoall(c, repeat, m)
	})
	// The injected crash is the run's only acceptable primary error.
	if !mpi.IsRankFailed(err) {
		t.Fatalf("run error = %v, want RankFailedError from the injected crash", err)
	}
}
