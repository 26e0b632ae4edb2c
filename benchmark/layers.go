package main

import (
	"reflect"
	"runtime"
	"time"

	"cartcc"
	"cartcc/internal/cart"
	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/stats"
	"cartcc/internal/tune"
	"cartcc/internal/vec"
	"cartcc/internal/wire"
)

// The layer table: every module measured in isolation, from outside, by
// timing calls into its exported functions. Each micro-run warms up with
// one batch, then repeats batches for its budget and reports the median
// batch; world-based ones fence batches with barriers and read the
// world-wide allocation delta on rank 0. README.md says which end-to-end
// metric each of these is expected to move, and where.

// perCall is one micro-run's result per call: median wall time and
// world-wide allocations.
type perCall struct{ us, allocs float64 }

// layerTable collects the isolated measurements by metric name.
type layerTable struct {
	values map[string]float64
	budget time.Duration // per micro-run
	cfg    config        // seed of the buffers; scale divides the batch sizes
}

func (l *layerTable) set(name string, v float64) { l.values[name] = v }

// loop times a single-goroutine call: batches of n until the budget is
// spent.
func (l *layerTable) loop(n int, f func()) perCall {
	n = max(n/l.cfg.scale, 1)
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var per []float64
	start := time.Now()
	for len(per) == 0 || time.Since(start) < l.budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	runtime.ReadMemStats(&m1)
	return perCall{us: stats.Median(per), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n*len(per))}
}

// phaseFunc times one operation inside a running world: every rank calls
// it with the same n and its own share of the operation; rank 0's return
// value is the measurement.
type phaseFunc func(n int, op func() error) (perCall, error)

// maxPhases bounds the micro-runs one world hosts.
const maxPhases = 8

// world launches a world for a sequence of micro-runs. Each phase gets its
// own pacer, shared by the ranks, which all walk the phases in order.
func (l *layerTable) world(procs int, network string, body func(w *mpi.Comm, phase phaseFunc) error) error {
	resetGlobals()
	var pacers [maxPhases]*pacer
	for i := range pacers {
		pacers[i] = newPacer()
	}
	return runWorld(procs, network, nil, nil, func(w *mpi.Comm) error {
		next := 0
		return body(w, func(n int, op func() error) (perCall, error) {
			n = max(n/l.cfg.scale, 1)
			pace := pacers[next]
			next++
			batch := func() error {
				for i := 0; i < n; i++ {
					if err := op(); err != nil {
						return err
					}
				}
				return nil
			}
			if err := batch(); err != nil {
				return perCall{}, err
			}
			if err := mpi.Barrier(w); err != nil {
				return perCall{}, err
			}
			var m0, m1 runtime.MemStats
			if w.Rank() == 0 {
				runtime.ReadMemStats(&m0)
			}
			if err := mpi.Barrier(w); err != nil {
				return perCall{}, err
			}
			durs, err := pace.run(w, l.budget, batch)
			if err != nil || w.Rank() != 0 {
				return perCall{}, err
			}
			runtime.ReadMemStats(&m1)
			per := make([]float64, len(durs))
			for i, d := range durs {
				per[i] = float64(d.Nanoseconds()) / 1e3 / float64(n)
			}
			return perCall{us: stats.Median(per), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n*len(durs))}, nil
		})
	})
}

// measureLayers fills the table. budget is the time each micro-run
// measures for.
func measureLayers(cfg config, budget time.Duration) (map[string]float64, error) {
	l := &layerTable{values: map[string]float64{}, budget: budget, cfg: cfg}
	l.pure()
	for _, run := range []func() error{l.p2p, func() error { return l.link("tcp") }, func() error { return l.link("unix") }, l.planInit, l.exec, l.engine, l.stencil} {
		if err := run(); err != nil {
			return nil, err
		}
	}
	return l.values, nil
}

// pure measures the layers that need no world: vec, datatype, wire, the
// schedule compilers, the serial stencil baseline and the tuner's decision.
func (l *layerTable) pure() {
	l.set("vec.neighborhood_us", l.loop(20, func() {
		nbh, err := vec.Stencil(3, 3, -1)
		g, gerr := vec.NewGrid([]int{3, 3, 3}, nil)
		if err != nil || gerr != nil || len(nbh) != 27 || g.Size() != 27 {
			panic("vec: d=3 Moore neighborhood")
		}
	}).us)

	// 128 KiB contiguous, the a2a_large block.
	const big = 16384
	src, dst := make([]int64, big), make([]int64, big)
	for i := range src {
		src[i] = payload(l.cfg.seed, 0, i)
	}
	whole := datatype.Contiguous(0, big)
	c := l.loop(50, func() { datatype.Copy(dst, whole, src, whole) })
	l.set("datatype.copy_contig_gbps", big*8/(c.us*1e3))

	// A halo column of the 64×64 stencil grid: 64 blocks of 1, stride 66.
	const col = stencilLocal
	grid, grid2, strip := make([]int64, 66*66), make([]int64, 66*66), make([]int64, col)
	west, east := datatype.Vector(col, 1, 66, 66+1), datatype.Vector(col, 1, 66, 66+64)
	l.set("datatype.copy_strided_ns_per_elem", l.loop(2000, func() { datatype.Copy(grid2, east, grid, west) }).us*1e3/col)
	l.set("datatype.gather_ns_per_elem", l.loop(2000, func() { datatype.Gather(strip, grid, west) }).us*1e3/col)
	l.set("datatype.scatter_ns_per_elem", l.loop(2000, func() { datatype.Scatter(grid, strip, east) }).us*1e3/col)

	// One data frame with the a2a_small block as payload.
	int64ID, err := wire.ElemIDOf(reflect.TypeOf(int64(0)))
	if err != nil {
		panic(err)
	}
	hdr := wire.Header{Kind: wire.KindData, Dst: 3, Ctx: 7, Epoch: 1, Src: 5, Tag: 1 << 20, SrcWorld: 5, Sseq: 123456, Elem: int64ID, Elems: 16, PayloadLen: 128}
	body := make([]byte, 128)
	frame := make([]byte, 0, 256)
	enc := l.loop(5000, func() {
		b, err := wire.AppendHeader(frame[:0], hdr)
		if err != nil {
			panic(err)
		}
		frame = append(b, body...)
	})
	dec := l.loop(5000, func() {
		h, p, _, err := wire.DecodeFrame(frame)
		if err != nil || h.Tag != hdr.Tag || len(p) != 128 {
			panic("wire: frame did not round-trip")
		}
	})
	l.set("wire.encode_ns_per_frame", enc.us*1e3)
	l.set("wire.decode_ns_per_frame", dec.us*1e3)
	l.set("wire.allocs_per_frame", enc.allocs+dec.allocs)

	nbh, err := vec.Moore(3, 1)
	if err != nil {
		panic(err)
	}
	l.set("cart.compile.alltoall_us", l.loop(5, func() { cart.AlltoallSchedule(nbh) }).us)
	l.set("cart.compile.allgather_us", l.loop(5, func() { cart.AllgatherSchedule(nbh) }).us)

	field := newStencilField(l.cfg.seed, 1).initial
	l.set("stencil.serial_iter_us", l.loop(5, func() { field = serialJacobi9(field) }).us)

	// The stencil2d decision: t=8, C=4, V=12, d=2, 260 B mean block.
	prof := tune.Default()
	l.set("tune.decide_ns", l.loop(5000, func() {
		if cart.Decide(cart.OpAlltoall, 8, 4, 12, 2, stencilBlockBytes, prof).T != 8 {
			panic("tune: decision lost its input")
		}
	}).us*1e3)
}

// p2p measures mpi point-to-point on the loopback world with the a2a_small
// block: blocking ping-pong, Sendrecv, a window of 8 nonblocking pairs, and
// the WaitSet add/collect cycle on already-matched receives.
func (l *layerTable) p2p() error {
	const m = 16
	var cycleNs, cycles float64
	return l.world(2, "", func(w *mpi.Comm, phase phaseFunc) error {
		rank, peer := w.Rank(), 1-w.Rank()
		sbuf, rbuf := make([]int64, m), make([]int64, m)
		block := datatype.Contiguous(0, m)
		pp, err := phase(2000, func() error { return pingPong(w, sbuf, rank, peer) })
		if err != nil {
			return err
		}
		sr, err := phase(2000, func() error {
			_, err := mpi.Sendrecv(w, sbuf, block, peer, 1, rbuf, block, peer, 1)
			return err
		})
		if err != nil {
			return err
		}
		win := newNBWindow(w, peer, m)
		nb, err := phase(500, win.exchange)
		if err != nil {
			return err
		}
		// The cycle is timed on its own: the barrier guarantees every
		// receive is matched, so Add and Waitsome never wait for the peer.
		ws := mpi.NewWaitSet(w, nbPairs)
		_, err = phase(200, func() error {
			if err := win.post(); err != nil {
				return err
			}
			if err := mpi.Waitall(win.reqs[nbPairs:]...); err != nil {
				return err
			}
			if err := mpi.Barrier(w); err != nil {
				return err
			}
			t0 := time.Now()
			ws.Reset()
			for i := 0; i < nbPairs; i++ {
				ws.Add(win.reqs[i], i)
			}
			for got := 0; got < nbPairs; {
				ready, err := ws.Waitsome()
				if err != nil {
					return err
				}
				got += len(ready)
			}
			if rank == 0 {
				cycleNs += float64(time.Since(t0).Nanoseconds())
				cycles += nbPairs
			}
			return mpi.Waitall(win.reqs[:nbPairs]...)
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			l.set("mpi.p2p.pingpong_us", pp.us)
			l.set("mpi.p2p.pingpong_allocs", pp.allocs)
			l.set("mpi.p2p.sendrecv_us", sr.us)
			l.set("mpi.p2p.nb_pair_us", nb.us/nbPairs)
			l.set("mpi.p2p.nb_pair_allocs", nb.allocs/(2*nbPairs))
			l.set("mpi.waitset.cycle_ns", cycleNs/cycles)
		}
		return nil
	})
}

// nbPairs is the window of the nonblocking micro-run: per call each rank
// posts nbPairs receives and nbPairs sends, so the call's time over nbPairs
// is one rank's cost per Irecv+Isend pair and the world moves 2·nbPairs
// messages.
const nbPairs = 8

// nbWindow is one rank's side of a window of nonblocking pairs with a peer.
type nbWindow struct {
	w     *mpi.Comm
	peer  int
	block datatype.Layout
	sbuf  []int64
	rbufs [][]int64
	reqs  []*mpi.Request // receives first, then sends
}

func newNBWindow(w *mpi.Comm, peer, m int) *nbWindow {
	n := &nbWindow{w: w, peer: peer, block: datatype.Contiguous(0, m), sbuf: make([]int64, m), rbufs: make([][]int64, nbPairs), reqs: make([]*mpi.Request, 2*nbPairs)}
	for i := range n.rbufs {
		n.rbufs[i] = make([]int64, m)
	}
	return n
}

func (n *nbWindow) post() error {
	for i := 0; i < nbPairs; i++ {
		r, err := mpi.Irecv(n.w, n.rbufs[i], n.block, n.peer, i)
		if err != nil {
			return err
		}
		n.reqs[i] = r
	}
	for i := 0; i < nbPairs; i++ {
		r, err := mpi.Isend(n.w, n.sbuf, n.block, n.peer, i)
		if err != nil {
			return err
		}
		n.reqs[nbPairs+i] = r
	}
	return nil
}

func (n *nbWindow) exchange() error {
	if err := n.post(); err != nil {
		return err
	}
	return mpi.Waitall(n.reqs...)
}

// pingPong is one round trip of buf between ranks 0 and 1.
func pingPong(w *mpi.Comm, buf []int64, rank, peer int) error {
	if rank == 0 {
		if err := mpi.SendSlice(w, buf, peer, 0); err != nil {
			return err
		}
		_, err := mpi.RecvSlice(w, buf, peer, 0)
		return err
	}
	if _, err := mpi.RecvSlice(w, buf, peer, 0); err != nil {
		return err
	}
	return mpi.SendSlice(w, buf, peer, 0)
}

// link measures the transport link: the same ping-pong with every message
// crossing a socket on this host (wire encode → socket → decode), and over
// TCP the window of nonblocking pairs and a one-way stream of 128 KiB
// messages. No wire latency is involved:
// the socket never leaves the host.
func (l *layerTable) link(network string) error {
	const m, big, burst = 16, 16384, 16
	return l.world(2, network, func(w *mpi.Comm, phase phaseFunc) error {
		rank, peer := w.Rank(), 1-w.Rank()
		buf := make([]int64, m)
		rtt, err := phase(500, func() error { return pingPong(w, buf, rank, peer) })
		if err != nil {
			return err
		}
		if rank == 0 {
			l.set("mpi.link.rtt_us."+network, rtt.us)
		}
		if network != "tcp" {
			return nil
		}
		nb, err := phase(200, newNBWindow(w, peer, m).exchange)
		if err != nil {
			return err
		}
		payload, ack := make([]int64, big), make([]int64, 1)
		stream, err := phase(4, func() error {
			if rank == 0 {
				for i := 0; i < burst; i++ {
					if err := mpi.SendSlice(w, payload, peer, 1); err != nil {
						return err
					}
				}
				_, err := mpi.RecvSlice(w, ack, peer, 2)
				return err
			}
			for i := 0; i < burst; i++ {
				if _, err := mpi.RecvSlice(w, payload, peer, 1); err != nil {
					return err
				}
			}
			return mpi.SendSlice(w, ack, peer, 2)
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			l.set("mpi.link.rtt_allocs.tcp", rtt.allocs)
			l.set("mpi.link.nb_pair_us.tcp", nb.us/nbPairs)
			l.set("mpi.link.stream_mbps.tcp", burst*big*8/stream.us)
		}
		return nil
	})
}

// planInit measures plan construction on the 27-rank d=3 world: the
// plan_setup op with the shared plan cache dropped before every op (cold)
// and left in place (warm).
func (l *layerTable) planInit() error {
	return l.world(27, "", func(w *mpi.Comm, phase phaseFunc) error {
		coldOp, err := buildPlanSetup(l.cfg.seed, true)(w, nil)
		if err != nil {
			return err
		}
		cold, err := phase(10, coldOp.op)
		if err != nil {
			return err
		}
		warmOp, err := buildPlanSetup(l.cfg.seed, false)(w, nil)
		if err != nil {
			return err
		}
		warm, err := phase(20, warmOp.op)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			l.set("cart.init.cold_us", cold.us)
			l.set("cart.init.warm_us", warm.us)
			l.set("cart.init.warm_allocs", warm.allocs)
		}
		return nil
	})
}

// exec runs the a2a_small exchange through every executor that can carry
// it: the default pipelined executor, the two ablations, the trivial
// schedule, and the dist-graph neighborhood collective the paper compares
// against.
func (l *layerTable) exec() error {
	const m = 16
	return l.world(9, "", func(w *mpi.Comm, phase phaseFunc) error {
		c, err := mooreComm(w, 2)
		if err != nil {
			return err
		}
		send, recv, _ := alltoallBuffers(c, l.cfg.seed, m)
		variants := []struct {
			name string
			algo cart.Algorithm
			opts []cart.PlanOption
		}{
			{"pipelined", cart.Combining, nil},
			{"barriered", cart.Combining, []cart.PlanOption{cart.WithBarrieredPhases()}},
			{"blocking", cart.Combining, []cart.PlanOption{cart.WithBlockingRounds()}},
			{"trivial", cart.Trivial, nil},
		}
		res := map[string]perCall{}
		for _, v := range variants {
			plan, err := cart.AlltoallInit(c, m, v.algo, v.opts...)
			if err != nil {
				return err
			}
			if res[v.name], err = phase(500, func() error { return cart.Run(plan, send, recv) }); err != nil {
				return err
			}
		}
		g, err := c.DistGraph()
		if err != nil {
			return err
		}
		nb, err := phase(500, func() error { return mpi.NeighborAlltoall(g, send, recv) })
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for name, r := range res {
				l.set("cart.exec."+name+"_us", r.us)
			}
			l.set("cart.exec.trivial_allocs", res["trivial"].allocs)
			l.set("cart.exec.neighbor_us", nb.us)
			l.set("cart.exec.speedup_vs_neighbor", nb.us/res["pipelined"].us)
		}
		return nil
	})
}

// engine prices the progress-engine path on the allgather_async shape:
// Start+Wait against the blocking Run of the same plan, and how much of the
// compute pass the engine hides.
func (l *layerTable) engine() error {
	const m = 64
	return l.world(27, "", func(w *mpi.Comm, phase phaseFunc) error {
		c, err := mooreComm(w, 3)
		if err != nil {
			return err
		}
		plan, err := cart.AllgatherInit(c, m, cart.Combining)
		if err != nil {
			return err
		}
		send, recv, _ := allgatherBuffers(c, l.cfg.seed, m)
		filler := make([]float64, computeLen)
		rank := w.Rank()
		compute := func() { computeSink[rank] = fmaPass(filler, 0.999999) }
		startWait := func(between func()) func() error {
			return func() error {
				f, err := cart.Start(plan, send, recv)
				if err != nil {
					return err
				}
				between()
				return f.Wait()
			}
		}
		run, err := phase(200, func() error { return cart.Run(plan, send, recv) })
		if err != nil {
			return err
		}
		sw, err := phase(200, startWait(func() {}))
		if err != nil {
			return err
		}
		comp, err := phase(200, func() error { compute(); return nil })
		if err != nil {
			return err
		}
		both, err := phase(200, startWait(compute))
		if err != nil {
			return err
		}
		if rank == 0 {
			l.set("cart.engine.start_wait_us", sw.us)
			l.set("cart.engine.overhead_us", sw.us-run.us)
			// The share of the shorter of the two that ran hidden behind
			// the other: 1 is perfect overlap, 0 none, below 0 interference.
			l.set("cart.engine.overlap_ratio", (sw.us+comp.us-both.us)/min(sw.us, comp.us))
		}
		return nil
	})
}

// stencil splits the stencil2d iteration into its halo exchange and its
// kernel, each run alone by all 9 ranks, and records what Auto picked.
func (l *layerTable) stencil() error {
	return l.world(9, "", func(w *mpi.Comm, phase phaseFunc) error {
		const n = stencilLocal
		src, err := cartcc.NewGrid2D[float64](n, n, 1)
		if err != nil {
			return err
		}
		dst, err := cartcc.NewGrid2D[float64](n, n, 1)
		if err != nil {
			return err
		}
		ex, err := cartcc.NewExchanger2D(w, []int{stencilProcs, stencilProcs}, src, true, cartcc.AlgorithmAuto)
		if err != nil {
			return err
		}
		xch, err := phase(500, func() error { return cartcc.Exchange2D(ex, src) })
		if err != nil {
			return err
		}
		krn, err := phase(500, func() error { cartcc.Jacobi9(dst, src); return nil })
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			l.set("stencil.exchange_us", xch.us)
			l.set("stencil.kernel_us", krn.us)
			l.set("stencil.exchange_share", xch.us/(xch.us+krn.us))
			pick := 0.0
			if ex.Plan().Effective() == cart.Combining {
				pick = 1
			}
			l.set("tune.pick_combining", pick)
		}
		return nil
	})
}
