package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/stats"
	"cartcc/internal/tune"
)

// config is one invocation's settings.
type config struct {
	seed int64
	// seconds is the length of one timed window.
	seconds float64
	// scale divides op counts, set-up repetitions and micro-run budgets
	// (1 for measurement).
	scale int
}

// Cold set-ups are repeated for setupBudget, and at least minColdSetups
// times; setup_s is their median. One set-up lasts 1 to 15 ms, and the
// median of a few dozen still follows the machine's jitter (spread 17 %
// over ten runs at 75 set-ups, 4 % at 600), so the cheap ones are repeated
// by the hundred.
const (
	setupBudget   = 1500 * time.Millisecond
	minColdSetups = 25
)

// modelReps is the number of ops the virtual-time run executes.
const modelReps = 100

// sampleCap pre-sizes rank 0's per-op sample buffer, so that a 60 s window
// at the fastest workload's rate fills it without growing.
const sampleCap = 1 << 20

// outDir receives result.json, the trace files and the unix-socket micro-run's
// socket. It is relative to the package directory, where run.sh, go run and
// go test all start the program; being relative also keeps the socket path
// under the 108-byte limit wherever the checkout lives.
const outDir = "out"

// runWorld launches a world of procs ranks over the named network: "" is
// the in-process loopback world; "tcp" (127.0.0.1, an ephemeral port) and
// "unix" are force-remote self-worlds in which every message crosses a real
// socket on this host. Virtual time ignores the transport, so a model run
// always takes the plain world. The wait-for-graph monitor is off so its
// sampling goroutine neither allocates nor takes CPU inside a timed window;
// the fallback timeout still turns a hang into an error.
func runWorld(procs int, network string, reg *metrics.Registry, model *netmodel.Model, f func(w *mpi.Comm) error) error {
	cfg := mpi.Config{Procs: procs, DeadlockPoll: -1, Timeout: 2 * time.Minute, Metrics: reg, Model: model, Seed: 1}
	if network == "" || model != nil {
		return mpi.Run(cfg, f)
	}
	addr := "127.0.0.1:0"
	if network == "unix" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		addr = filepath.Join(outDir, "bench.sock")
		defer os.Remove(addr) // the listener unlinks it on a clean close; this covers an abort
	}
	ranks := make([]int, procs)
	for i := range ranks {
		ranks[i] = i
	}
	return mpi.RunTransport(cfg, mpi.TransportConfig{
		Network:     network,
		Procs:       []mpi.ProcSpec{{Addr: addr, Ranks: ranks}},
		ForceRemote: true,
	}, f)
}

// pacer paces one barrier-fenced measurement loop across the ranks of a
// world. It is shared by all of them, so it is created outside the world.
type pacer struct {
	// stopAt is the index of the batch after which every rank leaves the
	// loop. Rank 0 stores it before entering that batch's barrier; the
	// others compare after leaving it, so a rank that reads late sees a
	// later index, never a match it should have missed.
	stopAt atomic.Int64
}

func newPacer() *pacer {
	p := &pacer{}
	p.stopAt.Store(-1)
	return p
}

// run calls batch on every rank, a barrier after each call, until rank 0
// has spent the budget, and returns rank 0's per-batch durations (barrier
// included). Every rank runs the same number of batches.
func (p *pacer) run(w *mpi.Comm, budget time.Duration, batch func() error) ([]time.Duration, error) {
	root := w.Rank() == 0
	var durs []time.Duration
	start := time.Now()
	for b := int64(0); ; b++ {
		t0 := time.Now()
		if err := batch(); err != nil {
			return nil, err
		}
		if root && time.Since(start) >= budget {
			p.stopAt.Store(b)
		}
		if err := mpi.Barrier(w); err != nil {
			return nil, err
		}
		if root {
			durs = append(durs, time.Since(t0))
		}
		if p.stopAt.Load() == b {
			return durs, nil
		}
	}
}

// resetGlobals puts the process-wide state back to its default before each
// repetition: the plan cache and machine profile that every plan build and
// Auto decision depend on, and the goroutines of earlier worlds. A world's
// progress-engine residents outlive mpi.Run by a linger tick; while they
// live they take CPU and keep their world's buffers reachable.
func resetGlobals() {
	cart.ResetPlanCache()
	tune.ClearMachine()
	if idleGoroutines == 0 {
		idleGoroutines = runtime.NumGoroutine()
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > idleGoroutines; i++ {
		time.Sleep(time.Millisecond)
	}
}

// idleGoroutines is the goroutine count before the first world, recorded
// by the first resetGlobals.
var idleGoroutines int

// verifiedOp runs one op on cleared receive buffers and checks its output.
// wrong is a verification failure, which is counted; err is an op that
// could not run, which ends the world.
func verifiedOp(r *rankOp) (wrong, err error) {
	r.reset()
	if err := r.op(); err != nil {
		return nil, err
	}
	return r.verify(), nil
}

// measureSetup is setup_s: the median of cold set-ups, each from an empty
// plan cache through world launch (and dial, over TCP), communicator, plan
// or exchanger and the first verified op to teardown.
func measureSetup(wl *workload, scale int) (float64, error) {
	var times []float64
	for start := time.Now(); len(times) < max(minColdSetups/scale, 2) || time.Since(start) < setupBudget/time.Duration(scale); {
		resetGlobals()
		// Start every set-up from a collected heap: a set-up allocates about
		// as much as the runtime's minimum GC trigger, so otherwise every
		// second or third one pays for a collection and the median falls
		// between the two modes.
		runtime.GC()
		t0 := time.Now()
		err := runWorld(wl.procs, wl.network, nil, nil, func(w *mpi.Comm) error {
			r, err := wl.build(w, nil)
			if err != nil {
				return err
			}
			wrong, err := verifiedOp(r)
			return errors.Join(wrong, err)
		})
		if err != nil {
			return 0, fmt.Errorf("cold set-up %d: %w", len(times), err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return stats.Median(times), nil
}

// window is what one timed world measured.
type window struct {
	opUs        []float64 // per-op wall times on rank 0, µs
	batchRate   []float64 // per-batch ops/s
	ops         int
	allocsPerOp float64
	bytesPerOp  float64
	liveHeapMB  float64
	attempted   int
	failed      int
	// before and after are the merged registry snapshots fencing the timed
	// window (traced runs only); plans is rank 0's view of the op's plans.
	before, after metrics.Snapshot
	plans         []planInfo
}

// planInfo is rank 0's view of one plan an op executes: the
// predicted-vs-observed accounting, and the C and V of the schedule family
// that actually ran (an Auto plan that picked the trivial schedule runs t
// rounds of one block each).
type planInfo struct {
	stats          cart.ExecStats
	rounds, volume int
}

func describePlans(plans []*cart.Plan) []planInfo {
	infos := make([]planInfo, len(plans))
	for i, p := range plans {
		infos[i] = planInfo{stats: p.Stats(), rounds: p.Rounds(), volume: p.Volume()}
		if dec, ok := p.Decision(); ok && dec.Chosen == cart.Trivial {
			infos[i].rounds, infos[i].volume = dec.T, dec.T
		}
	}
	return infos
}

// liveHeap is the heap in use after two forced collections. The second one
// frees what the first only moved to the sync.Pool victim caches, so what
// earlier worlds left in pools does not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// failures collects the numbers of the verified ops that failed on any
// rank, so an op that fails on several ranks counts once.
type failures struct {
	mu  sync.Mutex
	ops map[int]error
}

func (f *failures) add(op int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ops == nil {
		f.ops = map[int]error{}
	}
	if _, ok := f.ops[op]; !ok {
		f.ops[op] = err
	}
}

// first returns one recorded failure for the report.
func (f *failures) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for op, err := range f.ops {
		return fmt.Errorf("op %d: %w", op, err)
	}
	return nil
}

// measureWindow runs the workload in a fresh world: verified warm-up, then
// a timed window of barrier-fenced batches that lasts cfg.seconds, then one
// more verified op. With a registry and tracers it is the traced run.
func measureWindow(wl *workload, cfg config, reg *metrics.Registry, tracers []*spanRec) (*window, error) {
	resetGlobals()
	res := &window{opUs: make([]float64, 0, sampleCap/cfg.scale)}
	var fails failures
	heap0 := liveHeap()
	pace := newPacer()

	err := runWorld(wl.procs, wl.network, reg, nil, func(w *mpi.Comm) error {
		var sp *spanRec
		if tracers != nil {
			sp = tracers[w.Rank()]
		}
		r, err := wl.build(w, sp)
		if err != nil {
			return err
		}
		// Verified ops are numbered 1..warmup, and warmup+1 for the one that
		// follows the window, the same on every rank.
		for i := 1; i <= wl.warmup; i++ {
			wrong, err := verifiedOp(r)
			if err != nil {
				return err
			}
			if wrong != nil {
				fails.add(i, wrong)
			}
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		sp.enable(true)
		root := w.Rank() == 0
		var m0, m1 runtime.MemStats
		if root {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if reg != nil {
				res.before = reg.Merged()
			}
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		durs, err := pace.run(w, time.Duration(cfg.seconds*float64(time.Second)), func() error {
			for i := 0; i < wl.batch; i++ {
				id := sp.beginOp()
				var t time.Time
				if root {
					t = time.Now()
				}
				err := r.op()
				if root {
					res.opUs = append(res.opUs, float64(time.Since(t).Nanoseconds())/1e3)
				}
				sp.end(id)
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if root {
			runtime.ReadMemStats(&m1)
			res.ops = len(durs) * wl.batch
			res.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.ops)
			res.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.ops)
			for _, d := range durs {
				res.batchRate = append(res.batchRate, float64(wl.batch)/d.Seconds())
			}
			res.liveHeapMB = (float64(liveHeap()) - float64(heap0)) / 1e6
			if reg != nil {
				res.after = reg.Merged()
			}
		}
		sp.enable(false)
		// Fence the counters above from the other ranks' final verified op.
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		wrong, err := verifiedOp(r)
		if err != nil {
			return err
		}
		if wrong != nil {
			fails.add(wl.warmup+1, wrong)
		}
		if root {
			res.attempted = wl.warmup + res.ops + 1
			res.plans = describePlans(r.plans)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.failed = len(fails.ops)
	if res.failed > 0 {
		return res, fmt.Errorf("%s: %d of %d ops failed verification, first: %w", wl.name, res.failed, res.attempted, fails.first())
	}
	return res, nil
}

// measureModel is model_us_per_op: the op executed modelReps times in a
// separate world under the Hydra α-β model with a fixed seed and no noise;
// the largest per-rank virtual-time delta, per op, in virtual µs. The
// transport does not enter virtual time, so the TCP workload runs on the
// plain world and reads the same as its loopback twin.
func measureModel(wl *workload, reps int) (us float64, plans []planInfo, err error) {
	resetGlobals()
	deltas := make([]float64, wl.procs)
	err = runWorld(wl.procs, wl.network, nil, netmodel.Hydra(), func(w *mpi.Comm) error {
		r, err := wl.build(w, nil)
		if err != nil {
			return err
		}
		op := r.model
		if op == nil {
			op = r.op
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		t0 := w.VTime()
		for i := 0; i < reps; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		deltas[w.Rank()] = w.VTime() - t0
		if w.Rank() == 0 {
			plans = describePlans(r.plans)
		}
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("%s: model run: %w", wl.name, err)
	}
	worst := 0.0
	for _, d := range deltas {
		worst = max(worst, d)
	}
	return worst / float64(reps) * 1e6, plans, nil
}

// endToEnd is one repetition of a workload: every end-to-end metric.
type endToEnd struct {
	values    map[string]float64
	samples   int
	attempted int
	failed    int
}

// measureEndToEnd runs the cold set-ups and then the timed world, tracing
// off. When ops failed verification it returns the measurement and the
// error.
func measureEndToEnd(wl *workload, cfg config) (*endToEnd, error) {
	setup, err := measureSetup(wl, cfg.scale)
	if err != nil {
		return nil, err
	}
	win, err := measureWindow(wl, cfg, nil, nil)
	if win == nil {
		return nil, err
	}
	e := &endToEnd{samples: len(win.opUs), attempted: win.attempted, failed: win.failed, values: map[string]float64{
		"setup_s":       setup,
		"op_us_p50":     stats.Quantile(win.opUs, 0.5),
		"op_us_p90":     stats.Quantile(win.opUs, 0.9),
		"iters_per_s":   stats.Median(win.batchRate),
		"allocs_per_op": win.allocsPerOp,
		"bytes_per_op":  win.bytesPerOp,
		"live_heap_mb":  win.liveHeapMB,
	}}
	return e, err
}
