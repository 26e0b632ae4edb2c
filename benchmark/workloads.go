package main

import (
	"fmt"
	"math"

	"cartcc"
	"cartcc/internal/cart"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// A workload is one closed-loop program over a world of goroutine ranks:
// every rank issues its next operation when the previous one completed.
// The ranks are the program under test; the harness adds no threads of its
// own. All inputs (payloads, hot-spot positions, compute filler) derive
// from the seed; the runtime sees only the generated buffers.
type workload struct {
	name  string
	procs int
	// network is "" for the in-process loopback world or "tcp" to route
	// every message through a real socket on the host's loopback interface.
	network string
	// batch is the number of ops between two fencing barriers of the timed
	// window; warmup the number of verified ops that precede timing. Both
	// are constants of the benchmark, identical on every commit.
	batch, warmup int
	// blockBytes is the mean block size the α-β prediction is evaluated at.
	blockBytes float64
	// build constructs one rank's communicator, plans and buffers.
	build buildFunc
}

// rankOp is one rank's share of a workload.
type rankOp struct {
	// op runs one operation; every rank calls it the same number of times.
	op func() error
	// reset clears the receive side so verify cannot pass on stale data.
	reset func()
	// verify checks the outputs of the most recent op. It may communicate,
	// so every rank calls it at the same point.
	verify func() error
	// model is the op as executed under the virtual-time cost model, where
	// it differs from op (nil means op).
	model func() error
	// plans are the plans op executes, for the predicted-vs-observed check
	// and the planned C and V.
	plans []*cart.Plan
}

// buildFunc constructs one rank's share of a workload.
type buildFunc func(w *mpi.Comm, sp *spanRec) (*rankOp, error)

// workloadNames is the fixed order of the round-robin interleaving.
var workloadNames = []string{"a2a_small", "a2a_large", "a2a_small_tcp", "allgather_async", "stencil2d", "plan_setup"}

// fullRunOnly names the workloads that BENCHMARK.json leaves out, so the PR
// driver does not judge them; the full run and -compare still do. The TCP
// workload's times follow the host more than the program: its messages are
// handed from core to core through the kernel, the cores idle 40 % of the
// window, and ten runs of the same code spread 7 % in one set and 39 % in
// the next, past any bound the driver allows.
var fullRunOnly = map[string]bool{"a2a_small_tcp": true}

// workloadSpecs holds each workload's constants and how to make its build
// function from the seed and the (scaled) warm-up count.
var workloadSpecs = map[string]struct {
	workload
	mk func(seed int64, warmup int) buildFunc
}{
	"a2a_small":       {workload{procs: 9, batch: 3000, warmup: 200, blockBytes: 128}, func(seed int64, _ int) buildFunc { return buildAlltoall(seed, 16) }},
	"a2a_large":       {workload{procs: 9, batch: 250, warmup: 50, blockBytes: 128 << 10}, func(seed int64, _ int) buildFunc { return buildAlltoall(seed, 16384) }},
	"a2a_small_tcp":   {workload{procs: 9, network: "tcp", batch: 1500, warmup: 200, blockBytes: 128}, func(seed int64, _ int) buildFunc { return buildAlltoall(seed, 16) }},
	"allgather_async": {workload{procs: 27, batch: 600, warmup: 100, blockBytes: 512}, func(seed int64, _ int) buildFunc { return buildAllgatherAsync(seed, 64) }},
	"stencil2d":       {workload{procs: 9, batch: 1250, warmup: 200, blockBytes: stencilBlockBytes}, func(seed int64, warmup int) buildFunc { return newStencilField(seed, warmup).build }},
	"plan_setup":      {workload{procs: 27, batch: 75, warmup: 50, blockBytes: 64}, func(seed int64, _ int) buildFunc { return buildPlanSetup(seed, true) }},
}

// newWorkload builds the named workload for a seed. scale divides the op
// counts (1 for measurement; the smoke test passes more).
func newWorkload(name string, seed int64, scale int) (*workload, error) {
	spec, ok := workloadSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	wl := spec.workload
	wl.name = name
	wl.batch = max(wl.batch/scale, 2)
	wl.warmup = max(wl.warmup/scale, 2)
	wl.build = spec.mk(seed, wl.warmup)
	return &wl, nil
}

// payload is the seeded content of element i of rank's send buffer
// (splitmix64 of the triple), so a receiver can recompute what any sender
// sent without communicating.
func payload(seed int64, rank, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rank)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// checkBlocks compares a receive buffer block by block (m elements each)
// against the expected contents.
func checkBlocks(got, want []int64, m int) error {
	if len(got) != len(want) {
		return fmt.Errorf("receive buffer has %d elements, want %d", len(got), len(want))
	}
	for b := 0; b*m < len(want); b++ {
		for k := b * m; k < (b+1)*m; k++ {
			if got[k] != want[k] {
				return fmt.Errorf("block %d element %d: got %d, want %d", b, k-b*m, got[k], want[k])
			}
		}
	}
	return nil
}

// mooreComm creates the d-dimensional 3^d torus with the Moore r=1
// neighborhood.
func mooreComm(w *mpi.Comm, d int) (*cart.Comm, error) {
	nbh, err := vec.Moore(d, 1)
	if err != nil {
		return nil, err
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 3
	}
	return cart.NeighborhoodCreate(w, dims, nil, nbh, nil)
}

// alltoallBuffers returns the seeded send buffer, a receive buffer and the
// expected receive contents of a regular alltoall with m-element blocks:
// block i arrives from source neighbor i, which sent its own block i.
func alltoallBuffers(c *cart.Comm, seed int64, m int) (send, recv, want []int64) {
	t := c.NeighborCount()
	send, recv, want = make([]int64, t*m), make([]int64, t*m), make([]int64, t*m)
	for i := range send {
		send[i] = payload(seed, c.Rank(), i)
	}
	for b, src := range c.Sources() {
		for k := b * m; k < (b+1)*m; k++ {
			want[k] = payload(seed, src, k)
		}
	}
	return send, recv, want
}

// allgatherBuffers is alltoallBuffers for a regular allgather: block i of
// the receive buffer is source neighbor i's whole m-element send buffer.
func allgatherBuffers(c *cart.Comm, seed int64, m int) (send, recv, want []int64) {
	t := c.NeighborCount()
	send, recv, want = make([]int64, m), make([]int64, t*m), make([]int64, t*m)
	for i := range send {
		send[i] = payload(seed, c.Rank(), i)
	}
	for b, src := range c.Sources() {
		for k := 0; k < m; k++ {
			want[b*m+k] = payload(seed, src, k)
		}
	}
	return send, recv, want
}

// buildAlltoall is the blocking executor path: cart.Run of a Combining
// alltoall plan on the 3×3 Moore torus (t=8, C=4, V=12).
func buildAlltoall(seed int64, m int) buildFunc {
	return func(w *mpi.Comm, sp *spanRec) (*rankOp, error) {
		c, err := mooreComm(w, 2)
		if err != nil {
			return nil, err
		}
		plan, err := cart.AlltoallInit(c, m, cart.Combining)
		if err != nil {
			return nil, err
		}
		send, recv, want := alltoallBuffers(c, seed, m)
		return &rankOp{
			op: func() error {
				s := sp.begin("cart.exec.run")
				err := cart.Run(plan, send, recv)
				sp.end(s)
				return err
			},
			reset:  func() { clear(recv) },
			verify: func() error { return checkBlocks(recv, want, m) },
			plans:  []*cart.Plan{plan},
		}, nil
	}
}

// computeLen is the length of the compute filler overlapped with the
// asynchronous allgather.
const computeLen = 4096

// fmaPass is the fixed compute filler: one fused-multiply-add sweep.
func fmaPass(x []float64, a float64) float64 {
	acc := 0.0
	for i, v := range x {
		v = math.FMA(v, a, 1e-9)
		x[i] = v
		acc += v
	}
	return acc
}

// computeSink keeps the filler's result observable so the compiler cannot
// drop the loop. Each rank writes its own slot.
var computeSink [32]float64

// buildAllgatherAsync is the progress-engine path: cart.Start of a
// Combining allgather plan on the 3×3×3 Moore torus (t=26, C=6, V=26), a
// seeded compute pass, then Future.Wait.
func buildAllgatherAsync(seed int64, m int) buildFunc {
	return func(w *mpi.Comm, sp *spanRec) (*rankOp, error) {
		c, err := mooreComm(w, 3)
		if err != nil {
			return nil, err
		}
		plan, err := cart.AllgatherInit(c, m, cart.Combining)
		if err != nil {
			return nil, err
		}
		send, recv, want := allgatherBuffers(c, seed, m)
		filler := make([]float64, computeLen)
		for i := range filler {
			filler[i] = float64(payload(seed, c.Rank(), i)%1000) / 1000
		}
		rank := c.Rank()
		return &rankOp{
			op: func() error {
				s := sp.begin("cart.engine.start")
				f, err := cart.Start(plan, send, recv)
				sp.end(s)
				if err != nil {
					return err
				}
				s = sp.begin("compute")
				computeSink[rank] = fmaPass(filler, 0.999999)
				sp.end(s)
				s = sp.begin("cart.engine.wait")
				err = f.Wait()
				sp.end(s)
				return err
			},
			// Start needs a wall-clock world; virtual time prices the same
			// plan through the blocking executor.
			model:  func() error { return cart.Run(plan, send, recv) },
			reset:  func() { clear(recv) },
			verify: func() error { return checkBlocks(recv, want, m) },
			plans:  []*cart.Plan{plan},
		}, nil
	}
}

// buildPlanSetup makes schedule computation the operation: every op drops
// the shared plan cache and rebuilds the d=3 Moore communicator and both
// of its Combining plans, fenced by barriers so no rank compiles against a
// cache another rank already refilled. With cold false the cache is kept,
// which is the layer table's warm comparison.
func buildPlanSetup(seed int64, cold bool) buildFunc {
	const m = 8
	return func(w *mpi.Comm, sp *spanRec) (*rankOp, error) {
		r := &rankOp{}
		var c *cart.Comm
		var a2aSend, a2aRecv, a2aWant, agSend, agRecv, agWant []int64
		r.op = func() error {
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			if cold && w.Rank() == 0 {
				cart.ResetPlanCache()
			}
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			var err error
			s := sp.begin("cart.comm_create")
			c, err = mooreComm(w, 3)
			sp.end(s)
			if err != nil {
				return err
			}
			s = sp.begin("cart.init.alltoall")
			a2a, err := cart.AlltoallInit(c, m, cart.Combining)
			sp.end(s)
			if err != nil {
				return err
			}
			s = sp.begin("cart.init.allgather")
			ag, err := cart.AllgatherInit(c, m, cart.Combining)
			sp.end(s)
			if err != nil {
				return err
			}
			r.plans = []*cart.Plan{a2a, ag}
			return mpi.Barrier(w)
		}
		// The fresh plans are executed only outside the timed loop: by the
		// model (one execution of each) and by verify.
		r.model = func() error {
			if a2aSend == nil {
				a2aSend, a2aRecv, a2aWant = alltoallBuffers(c, seed, m)
				agSend, agRecv, agWant = allgatherBuffers(c, seed, m)
			}
			if err := cart.Run(r.plans[0], a2aSend, a2aRecv); err != nil {
				return err
			}
			return cart.Run(r.plans[1], agSend, agRecv)
		}
		r.reset = func() { clear(a2aRecv); clear(agRecv) }
		r.verify = func() error {
			if err := r.model(); err != nil {
				return err
			}
			if err := checkBlocks(a2aRecv, a2aWant, m); err != nil {
				return fmt.Errorf("alltoall: %w", err)
			}
			if err := checkBlocks(agRecv, agWant, m); err != nil {
				return fmt.Errorf("allgather: %w", err)
			}
			return nil
		}
		// The communicator must exist before the first model or verify.
		if err := r.op(); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// The stencil application: 3×3 process torus, 64×64 local cells (192²
// global), halo 1.
const (
	stencilProcs  = 3
	stencilLocal  = 64
	stencilGlobal = stencilProcs * stencilLocal
	// stencilBlockBytes is the mean block of the 8-neighbor halo exchange:
	// four 64-element strips and four single-element corners, 8 bytes per
	// float64, over 8 blocks.
	stencilBlockBytes = (4*stencilLocal + 4) * 8 / 8
)

// stencilField holds the seeded initial condition and the serial
// references the distributed field is verified against.
type stencilField struct {
	initial [][]float64
	// ref maps an iteration count to the serial field after that many
	// Jacobi-9 sweeps: one sweep (the first verified op of a cold set-up)
	// and the warm-up count.
	ref map[int][][]float64
	sum float64
}

// newStencilField places seeded hot spots on the global torus and runs the
// plain single-goroutine Jacobi-9 reference, before any timing starts.
func newStencilField(seed int64, warmup int) *stencilField {
	f := &stencilField{initial: make([][]float64, stencilGlobal), ref: map[int][][]float64{}}
	for i := range f.initial {
		f.initial[i] = make([]float64, stencilGlobal)
	}
	for k := 0; k < 8; k++ {
		i := int(uint64(payload(seed, 1, 2*k)) % stencilGlobal)
		j := int(uint64(payload(seed, 1, 2*k+1)) % stencilGlobal)
		v := float64(100 * (k + 1))
		if k%2 == 1 {
			v = -v / 2
		}
		f.initial[i][j] += v
		f.sum += v
	}
	cur := f.initial
	for it := 1; it <= warmup; it++ {
		cur = serialJacobi9(cur)
		if it == 1 || it == warmup {
			f.ref[it] = cur
		}
	}
	return f
}

// serialJacobi9 is one sweep of the same relaxation on the full periodic
// grid, the reference implementation for verification and the baseline of
// stencil.serial_iter_us.
func serialJacobi9(cur [][]float64) [][]float64 {
	n := len(cur)
	next := make([][]float64, n)
	for i := range next {
		next[i] = make([]float64, n)
		up, row, down := cur[(i+n-1)%n], cur[i], cur[(i+1)%n]
		for j := range next[i] {
			l, r := (j+n-1)%n, (j+1)%n
			edge := up[j] + down[j] + row[l] + row[r]
			corner := up[l] + up[r] + down[l] + down[r]
			next[i][j] = (4*edge + corner) / 20
		}
	}
	return next
}

// build is the application as users write it (examples/stencil2d): facade
// entry points, Auto selection, one alltoallw halo plan, real compute
// between exchanges.
func (f *stencilField) build(w *mpi.Comm, sp *spanRec) (*rankOp, error) {
	const n = stencilLocal
	src, err := cartcc.NewGrid2D[float64](n, n, 1)
	if err != nil {
		return nil, err
	}
	dst, err := cartcc.NewGrid2D[float64](n, n, 1)
	if err != nil {
		return nil, err
	}
	ex, err := cartcc.NewExchanger2D(w, []int{stencilProcs, stencilProcs}, src, true, cartcc.AlgorithmAuto)
	if err != nil {
		return nil, err
	}
	co := ex.Comm().Coords()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src.Set(i, j, f.initial[co[0]*n+i][co[1]*n+j])
		}
	}
	iters := 0
	return &rankOp{
		op: func() error {
			s := sp.begin("stencil.exchange")
			err := cartcc.Exchange2D(ex, src)
			sp.end(s)
			if err != nil {
				return err
			}
			s = sp.begin("stencil.kernel")
			cartcc.Jacobi9(dst, src)
			sp.end(s)
			src, dst = dst, src
			iters++
			return nil
		},
		reset: func() {},
		verify: func() error {
			if ref, ok := f.ref[iters]; ok {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						want := ref[co[0]*n+i][co[1]*n+j]
						if got := src.At(i, j); math.Abs(got-want) > 1e-12 {
							return fmt.Errorf("cell (%d,%d) after %d iterations: got %g, serial reference %g", i, j, iters, got, want)
						}
					}
				}
				return nil
			}
			// Past the reference horizon the relaxation's invariant stands
			// in: the weights sum to one, so the torus conserves its total.
			local := 0.0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					local += src.At(i, j)
				}
			}
			total := []float64{local}
			if err := mpi.Allreduce(w, total, total, mpi.SumOp[float64]); err != nil {
				return err
			}
			if math.Abs(total[0]-f.sum) > 1e-6*math.Abs(f.sum) {
				return fmt.Errorf("field total after %d iterations: got %g, want %g", iters, total[0], f.sum)
			}
			return nil
		},
		plans: []*cart.Plan{ex.Plan()},
	}, nil
}
