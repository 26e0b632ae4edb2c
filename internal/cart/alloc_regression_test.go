package cart

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

// runProfile is the allocation profile of repeated Run executions, with
// the share of it the counted wire-pool misses account for.
type runProfile struct {
	testing.BenchmarkResult
	// missBytes is the per-op byte count of the fresh wires behind the
	// final run's mpi.wirepool.miss count: each miss allocates one
	// bucket-sized wire and its holder, priced at the mean over the plan's
	// gathered sends (a lossy pool drops puts uniformly at random).
	missBytes int64
}

// netBytesPerOp is the allocated bytes per op net of wire-pool misses.
func (r runProfile) netBytesPerOp() int64 { return r.AllocedBytesPerOp() - r.missBytes }

// measureRunAllocs benchmarks repeated executions of an op-family plan on a
// 3x3 torus with the Moore neighborhood and returns the allocation
// profile. All nine ranks execute b.N collectives, so the per-op numbers
// aggregate the whole world. logged attaches a RoundLog to the plan.
func measureRunAllocs(t *testing.T, op OpKind, algo Algorithm, m int, logged bool) runProfile {
	t.Helper()
	var prof runProfile
	prof.BenchmarkResult = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		reg := metrics.NewRegistry(9)
		var wireBytes float64
		err := mpi.Run(mpi.Config{Procs: 9, Timeout: 60 * time.Second, Metrics: reg}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(algo))
			if err != nil {
				return err
			}
			var plan *Plan
			send := make([]int64, m)
			if op == OpAllgather {
				plan, err = AllgatherInit(c, m, algo)
			} else {
				plan, err = AlltoallInit(c, m, algo)
				send = make([]int64, len(nbh)*m)
			}
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				wireBytes = meanWireBytes(plan, 8)
			}
			var log *trace.RoundLog
			if logged {
				log = trace.NewRoundLog()
				plan.SetRoundLog(log)
			}
			recv := make([]int64, len(nbh)*m)
			for i := range send {
				send[i] = int64(w.Rank()*1000 + i)
			}
			for i := 0; i < b.N; i++ {
				if err := Run(plan, send, recv); err != nil {
					return err
				}
				if logged && len(log.Events()) == 0 {
					return fmt.Errorf("logged run recorded no round events")
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		prof.missBytes = int64(float64(reg.Merged().Value("mpi.wirepool.miss")) * wireBytes / float64(b.N))
	})
	return prof
}

// meanWireBytes is the mean allocation of a fresh wire over the plan's
// gathered (non-contiguous) sends: the power-of-two bucket of elemSize-byte
// elements the wire pool rounds up to, plus its 32-byte holder and the
// 8-byte weak handle the pool's registry keeps for it.
func meanWireBytes(p *Plan, elemSize int) float64 {
	total, n := 0, 0
	for _, r := range p.flat {
		if r.sendTo == ProcNull {
			continue
		}
		if _, _, _, contig := r.send.Contiguous(); contig {
			continue
		}
		elems := r.send.Size()
		total += elemSize<<bits.Len(uint(elems-1)) + 40
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// checkSizeIndependent is the allocation regression gate of one op family:
// with the zero-copy fast path and pooled wire buffers, the heap
// allocations per collective must not scale with the block size — growing
// m 32-fold may not even double the allocs/op. Before pooling, every
// message gathered into a fresh wire and every receive staged through
// another, so allocs/op grew with message count x size class and B/op
// grew linearly in m. The bytes gate is stated net of the counted
// wire-pool misses: the race detector drops a quarter of all sync.Pool
// puts, so a race build refills buckets with fresh, m-sized wires that say
// nothing about the executor.
func checkSizeIndependent(t *testing.T, op OpKind) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	for _, algo := range []Algorithm{Trivial, Combining} {
		t.Run(algoName(algo), func(t *testing.T) {
			small := measureRunAllocs(t, op, algo, 16, false)
			large := measureRunAllocs(t, op, algo, 512, false)
			sa, la := small.AllocsPerOp(), large.AllocsPerOp()
			sb, lb := small.netBytesPerOp(), large.netBytesPerOp()
			t.Logf("m=16: %d allocs/op %d B/op (%d net of wire-pool misses); m=512: %d allocs/op %d B/op (%d net)",
				sa, small.AllocedBytesPerOp(), sb, la, large.AllocedBytesPerOp(), lb)
			if sa == 0 {
				t.Fatal("benchmark measured zero allocations; harness broken")
			}
			if la > sa*2 {
				t.Errorf("allocs/op scaled with block size: m=16 -> %d, m=512 -> %d (> 2x)", sa, la)
			}
			// Payload bytes grow 32x; pooled wires and zero-copy payloads
			// must keep allocated bytes far below proportional growth.
			if sb > 0 && lb > sb*16 {
				t.Errorf("net B/op scaled near-linearly with block size: m=16 -> %d, m=512 -> %d", sb, lb)
			}
		})
	}
}

// TestAlltoallAllocsSizeIndependent gates the alltoall family.
func TestAlltoallAllocsSizeIndependent(t *testing.T) { checkSizeIndependent(t, OpAlltoall) }

// TestAllgatherAllocsSizeIndependent extends the gate to the allgather
// family, exercising the routing-tree schedule (and its pipelined
// execution) instead of the per-block alltoall paths.
func TestAllgatherAllocsSizeIndependent(t *testing.T) { checkSizeIndependent(t, OpAllgather) }

// measureSteadyAllocs returns the world-wide heap allocations per
// collective in steady state on the 9-rank 3x3 Moore torus: setup builds
// each rank's operation, every rank warms it up (round slots, wire pool and
// mailbox free lists fill on first use), and only the barrier-fenced loop
// after that is counted. The watchdog timer and the deadlock monitor are
// off, as in the benchmark, so no background goroutine allocates into the
// window and a blocking wait registers nothing.
func measureSteadyAllocs(t *testing.T, setup func(c *Comm, nbhLen int) (func() error, error)) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		err := mpi.Run(mpi.Config{Procs: 9, Timeout: -1, DeadlockPoll: -1}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
			if err != nil {
				return err
			}
			op, err := setup(c, len(nbh))
			if err != nil {
				return err
			}
			for i := 0; i < 50; i++ {
				if err := op(); err != nil {
					return err
				}
			}
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			if w.Rank() == 0 {
				b.ResetTimer()
			}
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					return err
				}
			}
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			if w.Rank() == 0 {
				b.StopTimer()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	return float64(res.MemAllocs) / float64(res.N)
}

// lossyPool reports whether sync.Pool loses entries without a GC cycle, as
// it does by design under the race detector (a quarter of all Puts, to
// shake out reuse races). The wire pool then misses at random and an
// absolute allocation count means nothing.
func lossyPool() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 200; i++ {
		p.Put(x)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestCollectiveAllocsAreOnePerRank is the absolute allocation gate: a
// schedule round's send and receive are persistent slots restarted per
// execution (mpi/persistent.go), and Run executes on a pooled execution
// record whose typed shell holds the (send, recv, temp) buffer triple, so
// a blocking collective allocates nothing at all — every Run case may read
// at most the 2 objects of background allowance world-wide, against 36
// messages per combining alltoall and 72 per trivial one. A single
// per-message allocation reintroduced anywhere on the path adds at least
// 36. Start's Future is the one object left: the start-wait case reads one
// per rank, at least 9 and at most 9+2, which also proves the harness
// counts. The m=1024 (8 KiB block) cases hold the count flat in the block
// size: the zero-copy detach and pooled wires carry large payloads without
// fresh buffers.
func TestCollectiveAllocsAreOnePerRank(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	if lossyPool() {
		t.Skip("sync.Pool drops entries in this build (race detector): gathered sends miss the wire pool at random")
	}
	if mpi.TransportEnvActive() {
		t.Skip("loopback property: a socket backend frames and decodes every message")
	}
	const ranks = 9
	runOf := func(init func(c *Comm, m int) (*Plan, error), sendBlocks func(t int) int) func(c *Comm, t, m int) (func() error, error) {
		return func(c *Comm, t, m int) (func() error, error) {
			plan, err := init(c, m)
			if err != nil {
				return nil, err
			}
			send := make([]int64, sendBlocks(t)*m)
			recv := make([]int64, t*m)
			return func() error { return Run(plan, send, recv) }, nil
		}
	}
	alltoall := func(algo Algorithm, opts ...PlanOption) func(c *Comm, m int) (*Plan, error) {
		return func(c *Comm, m int) (*Plan, error) { return AlltoallInit(c, m, algo, opts...) }
	}
	perNeighbor := func(t int) int { return t }
	// Run cases allocate nothing but background; start-wait allocates one
	// Future per rank.
	const background = 2
	cases := []struct {
		name     string
		m        int
		min, max float64
		setup    func(c *Comm, t, m int) (func() error, error)
	}{
		{"alltoall-combining-run", 16, 0, background, runOf(alltoall(Combining), perNeighbor)},
		{"alltoall-combining-run-m1024", 1024, 0, background, runOf(alltoall(Combining), perNeighbor)},
		{"allgather-combining-run", 16, 0, background, runOf(func(c *Comm, m int) (*Plan, error) { return AllgatherInit(c, m, Combining) }, func(int) int { return 1 })},
		{"alltoall-trivial-run", 16, 0, background, runOf(alltoall(Trivial), perNeighbor)},
		{"alltoall-trivial-run-m1024", 1024, 0, background, runOf(alltoall(Trivial), perNeighbor)},
		{"alltoall-combining-barriered-run", 16, 0, background, runOf(alltoall(Combining, WithBarrieredPhases()), perNeighbor)},
		{"alltoall-combining-start-wait", 16, ranks, ranks + background, func(c *Comm, t, m int) (func() error, error) {
			plan, err := AlltoallInit(c, m, Combining)
			if err != nil {
				return nil, err
			}
			send := make([]int64, t*m)
			recv := make([]int64, t*m)
			return func() error {
				f, err := Start(plan, send, recv)
				if err != nil {
					return err
				}
				return f.Wait()
			}, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := measureSteadyAllocs(t, func(c *Comm, nbhLen int) (func() error, error) { return tc.setup(c, nbhLen, tc.m) })
			t.Logf("%.2f allocs per collective at m=%d, world-wide (%d ranks)", allocs, tc.m, ranks)
			if allocs < tc.min {
				t.Fatalf("%.2f allocs per collective, want at least %.0f (one Future per rank); harness broken", allocs, tc.min)
			}
			if allocs > tc.max {
				t.Errorf("%.2f allocs per collective on %d ranks; want at most %.0f", allocs, ranks, tc.max)
			}
		})
	}
}

// TestLoggedRunStaysAllocationFree is the RoundLog-reuse regression gate:
// before the Reserve/Reset-per-epoch fix, an attached log grew without
// bound across executions (every Run appended a fresh epoch of events)
// and each growth step reallocated the backing array. With the fix, a
// logged re-execution allocates no more than an unlogged one.
func TestLoggedRunStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	const m = 16
	plain := measureRunAllocs(t, OpAlltoall, Combining, m, false)
	logged := measureRunAllocs(t, OpAlltoall, Combining, m, true)
	pa, la := plain.AllocsPerOp(), logged.AllocsPerOp()
	t.Logf("plain: %d allocs/op %d B/op; logged: %d allocs/op %d B/op",
		pa, plain.AllocedBytesPerOp(), la, logged.AllocedBytesPerOp())
	// Identical budget modulo benchmark jitter: the reserved log adds no
	// steady-state allocations.
	slack := pa / 4
	if slack < 4 {
		slack = 4
	}
	if la > pa+slack {
		t.Errorf("round logging allocates per operation: %d allocs/op logged vs %d plain", la, pa)
	}
}

// TestRepeatInitIsCacheHit is the plan-cache allocation gate: after one
// warm-up *Init, every further identical *Init must bind from the shared
// plan cache — no schedule recompilation, no DAG rebuild. The hit path is
// a key probe plus one Plan bind plus the geometry closures: a fixed
// handful of small allocations, orders of magnitude below a compile
// (thousands of allocs on this stencil: the benchmark's plan_setup
// workload drops the cache every op and reads them in allocs_per_op).
// Only rank 0 measures, bracketed by barriers; the peers sit blocked and
// the world is created with the watchdog and deadlock monitor off so no
// background goroutine allocates into the measurement.
func TestRepeatInitIsCacheHit(t *testing.T) {
	ResetPlanCache()
	t.Cleanup(ResetPlanCache)
	err := mpi.Run(mpi.Config{
		Procs:        9,
		Timeout:      -1,
		DeadlockPoll: -1,
	}, func(w *mpi.Comm) error {
		nbh, err := vec.Stencil(2, 3, -1)
		if err != nil {
			return err
		}
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		// Warm-up: compile and publish both Auto legs for this rank.
		if _, err := AlltoallInit(c, 32, Auto); err != nil {
			return err
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		if w.Rank() == 0 {
			before := SnapshotPlanCache()
			var initErr error
			var last *Plan
			allocs := testing.AllocsPerRun(100, func() {
				p, err := AlltoallInit(c, 32, Auto)
				if err != nil {
					initErr = err
					return
				}
				last = p
			})
			if initErr != nil {
				return initErr
			}
			if last == nil || !last.FromCache() || !last.alt.FromCache() {
				return fmt.Errorf("measured Inits did not bind from cache")
			}
			after := SnapshotPlanCache()
			if after.Hits <= before.Hits {
				return fmt.Errorf("cart.plancache hits did not increment: %d -> %d", before.Hits, after.Hits)
			}
			if after.Misses != before.Misses {
				return fmt.Errorf("measured Inits recompiled: misses %d -> %d", before.Misses, after.Misses)
			}
			t.Logf("cache-hit *Init (Auto, both legs): %.1f allocs/op; %d hits recorded", allocs, after.Hits-before.Hits)
			// Compiling this plan costs thousands of allocations; the hit
			// path is two binds plus the geometry closures. The bound is
			// deliberately loose against Go-version drift while still
			// catching any reintroduced compile work.
			if allocs > 24 {
				return fmt.Errorf("cache-hit Init allocates like a compile: %.1f allocs/op (want <= 24)", allocs)
			}
		}
		return mpi.Barrier(w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTorusCompileAllocs: the boundary predicate is a parameter of the
// schedule builders, and on a torus they must not pay for it. A from-
// scratch combining compile on the 3x3x3 Moore torus (m = 8) may allocate
// no more than it did when tori and meshes had separate compilers: 477
// objects for the alltoall, 449 for the allgather.
func TestTorusCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	nbh, err := vec.Moore(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	runWorld(t, 27, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3, 3}, nil, nbh, nil)
		if err != nil || w.Rank() != 0 {
			return err
		}
		for _, tc := range []struct {
			op    OpKind
			bound float64
		}{{OpAlltoall, 477}, {OpAllgather, 449}} {
			geom := uniformGeometry(tc.op, 8)
			var compileErr error
			allocs := testing.AllocsPerRun(20, func() {
				c.alltoallSched, c.allgatherSched = nil, nil
				if _, _, err := c.compilePlan(tc.op, Combining, geom, nil); err != nil {
					compileErr = err
				}
			})
			if compileErr != nil {
				return compileErr
			}
			t.Logf("%v torus compile: %.0f allocs (bound %.0f)", tc.op, allocs, tc.bound)
			if allocs > tc.bound {
				return fmt.Errorf("%v torus compile allocates %.0f objects, want <= %.0f", tc.op, allocs, tc.bound)
			}
		}
		return nil
	})
}

// algoName renders the algorithm for subtest names.
func algoName(a Algorithm) string {
	switch a {
	case Trivial:
		return "trivial"
	case Combining:
		return "combining"
	default:
		return "unknown"
	}
}
