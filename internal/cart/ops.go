package cart

import (
	"fmt"

	"cartcc/internal/datatype"
)

// PlanOption configures plan construction.
type PlanOption func(*planOptions)

type planOptions struct {
	blocking  bool
	barriered bool
	transform func(*Schedule)
}

// WithBlockingRounds compiles the plan to execute every round as a
// sequential blocking exchange instead of phase-concurrent nonblocking
// rounds. The trivial schedules use this by default (Listing 4 of the
// paper); applying it to a combining schedule is the execution-style
// ablation of DESIGN.md. Like WithBarrieredPhases it applies to Run only:
// Start always executes pipelined.
func WithBlockingRounds() PlanOption {
	return func(o *planOptions) { o.blocking = true }
}

// WithBarrieredPhases compiles the plan to execute one phase at a time —
// every receive and send of a phase posted, then all of its receives
// waited, before the next phase posts anything — instead of pipelining
// rounds across phases: the classic per-phase Waitall, the executor
// ablation of DESIGN.md §9 and the baseline of the pipelining benchmarks.
// The order holds under a virtual-time cost model too, so the model prices
// the barrier. It applies to Run only: Start always executes pipelined.
// WithBlockingRounds takes precedence.
func WithBarrieredPhases() PlanOption {
	return func(o *planOptions) { o.barriered = true }
}

// WithScheduleTransform applies f to a deep clone of the symbolic schedule
// before the plan is compiled. It exists for the simulation harness's
// mutation smoke checks: f plants a controlled defect (say, skewing one
// move's destination slot) and the differential oracles must catch it. The
// clone keeps the communicator's cached schedules pristine, so plans built
// without the option are unaffected. On a grid with a boundary f sees
// the calling rank's own combining schedule, whose rounds carry separate
// receive lists (Round.RecvMoves).
func WithScheduleTransform(f func(*Schedule)) PlanOption {
	return func(o *planOptions) { o.transform = f }
}

// fence returns the posting policy the options select for a plan of the
// concrete algorithm algo: trivial plans always run blocking rounds.
func (po *planOptions) fence(algo Algorithm) fence {
	switch {
	case po.blocking || algo == Trivial:
		return fenceRound
	case po.barriered:
		return fencePhase
	}
	return fenceNone
}

// scheduleFor returns the symbolic schedule for (op, algo), cached on the
// communicator since it depends only on the neighborhood (Section 3.3) —
// and, on a grid with a boundary, on the communicator's rank.
func (c *Comm) scheduleFor(op OpKind, algo Algorithm) (*Schedule, error) {
	switch algo {
	case Trivial:
		return TrivialSchedule(c.nbh, op), nil
	case Combining:
		if op == OpAlltoall {
			if c.alltoallSched == nil {
				c.alltoallSched = alltoallSchedule(c.nbh, c.boundary())
			}
			return c.alltoallSched, nil
		}
		if c.allgatherSched == nil {
			c.allgatherSched = allgatherSchedule(c.nbh, c.boundary())
		}
		return c.allgatherSched, nil
	default:
		return nil, fmt.Errorf("cart: schedule requires a concrete algorithm, got %v", algo)
	}
}

// newPlan compiles (op, algo, geometry) for this communicator. Auto
// compiles both families and defers the choice to execution time, when the
// element size is known (the executor-consistent cut-off of select.go).
// Fingerprintable geometries go through the shared plan cache
// (plancache.go): a hit, or a wait on another rank's concurrent compile of
// the same key, binds the master instead of recompiling.
func (c *Comm) newPlan(op OpKind, algo Algorithm, geom BlockGeometry, avgBlockElems float64, opts ...PlanOption) (*Plan, error) {
	var po planOptions
	for _, o := range opts {
		o(&po)
	}
	if algo == Auto {
		main, err := c.newPlan(op, Combining, geom, avgBlockElems, opts...)
		if err != nil {
			return nil, err
		}
		alt, err := c.newPlan(op, Trivial, geom, avgBlockElems, opts...)
		if err != nil {
			return nil, err
		}
		main.algo = Auto
		main.alt = alt
		main.avgBlockElems = avgBlockElems
		return main, nil
	}

	// Execution-style plan options select the instance's fence, not a
	// compilation, so they stay out of the cache key; schedule transforms
	// (mutation smoke) change the compile itself and bypass the cache, as
	// do geometries the cache cannot fingerprint.
	var p *Plan
	if po.transform == nil && geom.sig.kind != geomNone {
		master, reused, fl, err := sharedPlanCache.lookup(c.cacheKey(op, algo, geom.sig), c, geom.sig)
		switch {
		case err != nil:
			return nil, err
		case master != nil:
			p = master.bind(c)
			p.fromCache = reused
		case fl != nil:
			if p, err = c.compileAndLand(fl, op, algo, geom); err != nil {
				return nil, err
			}
		}
	}
	if p == nil {
		var err error
		if p, _, err = c.compilePlan(op, algo, geom, po.transform); err != nil {
			return nil, err
		}
	}
	p.avgBlockElems = avgBlockElems
	p.fence = po.fence(algo)
	return p, nil
}

// compileAndLand is the compiling side of a shared miss: it compiles the
// plan, detaches its master and lands fl with it — deferred, so the ranks
// waiting on fl are released with an error even if compilation panics.
func (c *Comm) compileAndLand(fl *planFlight, op OpKind, algo Algorithm, geom BlockGeometry) (p *Plan, err error) {
	var master *Plan
	defer func() { sharedPlanCache.land(fl, c, master, err) }()
	p, sched, err := c.compilePlan(op, algo, geom, nil)
	if err == nil {
		master = p.detach(sched)
	}
	return p, err
}

// compilePlan compiles (op, algo, geometry) for this communicator from
// scratch, returning the symbolic schedule it compiled.
func (c *Comm) compilePlan(op OpKind, algo Algorithm, geom BlockGeometry, transform func(*Schedule)) (*Plan, *Schedule, error) {
	sched, err := c.scheduleFor(op, algo)
	if err != nil {
		return nil, nil, err
	}
	if transform != nil {
		sched = sched.Clone()
		transform(sched)
	}
	p, err := c.compile(sched, geom)
	if err != nil {
		return nil, nil, err
	}
	return p, sched, nil
}

// regularPlan returns the cached plan for a regular operation with block
// size m.
func (c *Comm) regularPlan(op OpKind, algo Algorithm, m int) (*Plan, error) {
	key := planKey{op: op, algo: algo, m: m}
	if p, ok := c.plans[key]; ok {
		return p, nil
	}
	t := len(c.nbh)
	p, err := c.newPlan(op, algo, uniformGeometry(op, m), float64(m))
	if err != nil {
		return nil, err
	}
	if op == OpAllgather {
		p.setLens(m, t*m)
		if p.alt != nil {
			p.alt.setLens(m, t*m)
		}
	} else {
		p.setLens(t*m, t*m)
		if p.alt != nil {
			p.alt.setLens(t*m, t*m)
		}
	}
	c.plans[key] = p
	return p, nil
}

// setLens records required buffer lengths.
func (p *Plan) setLens(sendLen, recvLen int) {
	p.sendLen, p.recvLen = sendLen, recvLen
}

// AlltoallInit precomputes a reusable plan for the regular Cartesian
// alltoall with blocks of m elements (the paper's Cart_alltoall_init).
func AlltoallInit(c *Comm, m int, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	if m < 0 {
		return nil, fmt.Errorf("cart: negative block size %d", m)
	}
	t := len(c.nbh)
	p, err := c.newPlan(OpAlltoall, algo, uniformGeometry(OpAlltoall, m), float64(m), opts...)
	if err != nil {
		return nil, err
	}
	p.setLens(t*m, t*m)
	if p.alt != nil {
		p.alt.setLens(t*m, t*m)
	}
	return p, nil
}

// AllgatherInit precomputes a reusable plan for the regular Cartesian
// allgather with blocks of m elements (Cart_allgather_init).
func AllgatherInit(c *Comm, m int, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	if m < 0 {
		return nil, fmt.Errorf("cart: negative block size %d", m)
	}
	t := len(c.nbh)
	p, err := c.newPlan(OpAllgather, algo, uniformGeometry(OpAllgather, m), float64(m), opts...)
	if err != nil {
		return nil, err
	}
	p.setLens(m, t*m)
	if p.alt != nil {
		p.alt.setLens(m, t*m)
	}
	return p, nil
}

// AlltoallvInit precomputes a plan for the irregular Cartesian alltoall:
// block i of sendCounts[i] elements at sendDispls[i] goes to target i; the
// block from source i lands at recvDispls[i]. The Cartesian (isomorphism)
// requirement forces recvCounts[i] == sendCounts[i]: the block received at
// index i was sent as block i by the source, which passed the same arrays.
func AlltoallvInit(c *Comm, sendCounts, sendDispls, recvCounts, recvDispls []int, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	t := len(c.nbh)
	if err := checkVArgs(t, sendCounts, sendDispls, "send"); err != nil {
		return nil, err
	}
	if err := checkVArgs(t, recvCounts, recvDispls, "recv"); err != nil {
		return nil, err
	}
	total := 0
	for i := range sendCounts {
		if sendCounts[i] != recvCounts[i] {
			return nil, fmt.Errorf("cart: Alltoallv block %d: sendCounts %d != recvCounts %d (isomorphic neighborhoods exchange matching blocks)", i, sendCounts[i], recvCounts[i])
		}
		total += sendCounts[i]
	}
	tempOff := prefixSums(sendCounts)
	geom := BlockGeometry{
		SendAt: func(i int) datatype.Layout { return datatype.Contiguous(sendDispls[i], sendCounts[i]) },
		RecvAt: func(i int) datatype.Layout { return datatype.Contiguous(recvDispls[i], recvCounts[i]) },
		TempAt: func(i int) datatype.Layout { return datatype.Contiguous(tempOff[i], sendCounts[i]) },
		sig:    vectorSig(sendCounts, sendDispls, recvDispls),
	}
	p, err := c.newPlan(OpAlltoall, algo, geom, float64(total)/float64(max(t, 1)), opts...)
	if err != nil {
		return nil, err
	}
	p.setLens(extent(sendCounts, sendDispls), extent(recvCounts, recvDispls))
	if p.alt != nil {
		p.alt.setLens(p.sendLen, p.recvLen)
	}
	return p, nil
}

// AllgathervInit precomputes a plan for the irregular Cartesian allgather:
// every process sends the same sendCount elements; the block from source i
// lands at recvDispls[i]. Isomorphism forces recvCounts[i] == sendCount.
func AllgathervInit(c *Comm, sendCount int, recvCounts, recvDispls []int, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	t := len(c.nbh)
	if err := checkVArgs(t, recvCounts, recvDispls, "recv"); err != nil {
		return nil, err
	}
	for i, rc := range recvCounts {
		if rc != sendCount {
			return nil, fmt.Errorf("cart: Allgatherv block %d: recvCounts %d != sendCount %d (every isomorphic source sends the same block)", i, rc, sendCount)
		}
	}
	geom := BlockGeometry{
		SendAt: func(int) datatype.Layout { return datatype.Contiguous(0, sendCount) },
		RecvAt: func(i int) datatype.Layout { return datatype.Contiguous(recvDispls[i], recvCounts[i]) },
		TempAt: func(i int) datatype.Layout { return datatype.Contiguous(i*sendCount, sendCount) },
		sig:    vectorSig([]int{sendCount}, recvCounts, recvDispls),
	}
	p, err := c.newPlan(OpAllgather, algo, geom, float64(sendCount), opts...)
	if err != nil {
		return nil, err
	}
	p.setLens(sendCount, extent(recvCounts, recvDispls))
	if p.alt != nil {
		p.alt.setLens(p.sendLen, p.recvLen)
	}
	return p, nil
}

// AlltoallwInit precomputes a plan for the fully general Cartesian
// alltoall: an arbitrary element layout per block on both sides (the
// paper's Cart_alltoallw, needed to communicate rows, columns and corners
// of a matrix in place — Listing 3). Layout i's send and receive sizes
// must match.
func AlltoallwInit(c *Comm, sendLayouts, recvLayouts []datatype.Layout, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	t := len(c.nbh)
	if len(sendLayouts) != t || len(recvLayouts) != t {
		return nil, fmt.Errorf("cart: Alltoallw: %d send / %d recv layouts for %d neighbors", len(sendLayouts), len(recvLayouts), t)
	}
	sizes := make([]int, t)
	total := 0
	for i := range sendLayouts {
		if sendLayouts[i].Size() != recvLayouts[i].Size() {
			return nil, fmt.Errorf("cart: Alltoallw block %d: send layout %d elements, recv layout %d", i, sendLayouts[i].Size(), recvLayouts[i].Size())
		}
		sizes[i] = sendLayouts[i].Size()
		total += sizes[i]
	}
	tempOff := prefixSums(sizes)
	geom := BlockGeometry{
		SendAt: func(i int) datatype.Layout { return sendLayouts[i] },
		RecvAt: func(i int) datatype.Layout { return recvLayouts[i] },
		TempAt: func(i int) datatype.Layout { return datatype.Contiguous(tempOff[i], sizes[i]) },
	}
	p, err := c.newPlan(OpAlltoall, algo, geom, float64(total)/float64(max(t, 1)), opts...)
	if err != nil {
		return nil, err
	}
	p.setLens(layoutExtent(sendLayouts), layoutExtent(recvLayouts))
	if p.alt != nil {
		p.alt.setLens(p.sendLen, p.recvLen)
	}
	return p, nil
}

// AllgatherwInit precomputes a plan for the typed Cartesian allgather the
// paper proposes as an addition to MPI: one send layout (the same block to
// everyone) and a distinct receive layout per source block. All receive
// layouts must have the send layout's size.
func AllgatherwInit(c *Comm, sendLayout datatype.Layout, recvLayouts []datatype.Layout, algo Algorithm, opts ...PlanOption) (*Plan, error) {
	t := len(c.nbh)
	if len(recvLayouts) != t {
		return nil, fmt.Errorf("cart: Allgatherw: %d recv layouts for %d neighbors", len(recvLayouts), t)
	}
	m := sendLayout.Size()
	for i := range recvLayouts {
		if recvLayouts[i].Size() != m {
			return nil, fmt.Errorf("cart: Allgatherw block %d: recv layout %d elements, send layout %d", i, recvLayouts[i].Size(), m)
		}
	}
	geom := BlockGeometry{
		SendAt: func(int) datatype.Layout { return sendLayout },
		RecvAt: func(i int) datatype.Layout { return recvLayouts[i] },
		TempAt: func(i int) datatype.Layout { return datatype.Contiguous(i*m, m) },
	}
	p, err := c.newPlan(OpAllgather, algo, geom, float64(m), opts...)
	if err != nil {
		return nil, err
	}
	_, sHi := sendLayout.Bounds()
	p.setLens(sHi, layoutExtent(recvLayouts))
	if p.alt != nil {
		p.alt.setLens(p.sendLen, p.recvLen)
	}
	return p, nil
}

// Alltoall performs the blocking regular Cartesian alltoall: block i of m
// elements of send goes to target neighbor i, block i of recv arrives from
// source neighbor i, with m = len(send)/t. Uses the communicator's default
// algorithm.
func Alltoall[T any](c *Comm, send, recv []T) error {
	t := len(c.nbh)
	if t == 0 || len(send)%t != 0 {
		return fmt.Errorf("cart: Alltoall send length %d not divisible into %d blocks", len(send), t)
	}
	p, err := c.regularPlan(OpAlltoall, c.algo, len(send)/t)
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// Allgather performs the blocking regular Cartesian allgather: all of send
// goes to every target neighbor; block i of recv arrives from source
// neighbor i.
func Allgather[T any](c *Comm, send, recv []T) error {
	p, err := c.regularPlan(OpAllgather, c.algo, len(send))
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// Alltoallv performs the blocking irregular Cartesian alltoall (see
// AlltoallvInit for the argument conventions).
func Alltoallv[T any](c *Comm, send []T, sendCounts, sendDispls []int, recv []T, recvCounts, recvDispls []int) error {
	p, err := AlltoallvInit(c, sendCounts, sendDispls, recvCounts, recvDispls, c.algo)
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// Allgatherv performs the blocking irregular Cartesian allgather (see
// AllgathervInit).
func Allgatherv[T any](c *Comm, send []T, recv []T, recvCounts, recvDispls []int) error {
	p, err := AllgathervInit(c, len(send), recvCounts, recvDispls, c.algo)
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// Alltoallw performs the blocking typed Cartesian alltoall (see
// AlltoallwInit).
func Alltoallw[T any](c *Comm, send []T, sendLayouts []datatype.Layout, recv []T, recvLayouts []datatype.Layout) error {
	p, err := AlltoallwInit(c, sendLayouts, recvLayouts, c.algo)
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// Allgatherw performs the blocking typed Cartesian allgather (see
// AllgatherwInit).
func Allgatherw[T any](c *Comm, send []T, sendLayout datatype.Layout, recv []T, recvLayouts []datatype.Layout) error {
	p, err := AllgatherwInit(c, sendLayout, recvLayouts, c.algo)
	if err != nil {
		return err
	}
	return Run(p, send, recv)
}

// checkVArgs validates count/displacement arrays of the irregular ops.
func checkVArgs(t int, counts, displs []int, side string) error {
	if len(counts) != t || len(displs) != t {
		return fmt.Errorf("cart: %d %s counts / %d displs for %d neighbors", len(counts), side, len(displs), t)
	}
	for i := range counts {
		if counts[i] < 0 || displs[i] < 0 {
			return fmt.Errorf("cart: negative %s count/displacement at block %d", side, i)
		}
	}
	return nil
}

// prefixSums returns exclusive prefix sums of xs.
func prefixSums(xs []int) []int {
	out := make([]int, len(xs))
	run := 0
	for i, x := range xs {
		out[i] = run
		run += x
	}
	return out
}

// extent returns the buffer length implied by count/displacement arrays.
func extent(counts, displs []int) int {
	hi := 0
	for i := range counts {
		if end := displs[i] + counts[i]; end > hi {
			hi = end
		}
	}
	return hi
}

// layoutExtent returns the buffer length implied by a set of layouts.
func layoutExtent(ls []datatype.Layout) int {
	hi := 0
	for _, l := range ls {
		if _, h := l.Bounds(); h > hi {
			hi = h
		}
	}
	return hi
}
