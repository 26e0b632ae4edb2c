package cart

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

// reflectSize returns the size in bytes of type T.
func reflectSize[T any]() uintptr {
	var z T
	return reflect.TypeOf(&z).Elem().Size()
}

// OpKind distinguishes the two Cartesian collective families.
type OpKind uint8

const (
	// OpAlltoall: a personalized block per target neighbor.
	OpAlltoall OpKind = iota
	// OpAllgather: the same block to every target neighbor.
	OpAllgather
)

// String returns the operation name.
func (k OpKind) String() string {
	if k == OpAllgather {
		return "allgather"
	}
	return "alltoall"
}

// BufKind identifies which buffer a schedule move reads from or writes to.
// The message-combining algorithms alternate blocks between the temporary
// and the receive buffer so that no block ever needs an extra copy
// (Algorithm 1's parity trick).
type BufKind uint8

const (
	// BufSend is the user's send buffer (first hop of a block).
	BufSend BufKind = iota
	// BufRecv is the user's receive buffer.
	BufRecv
	// BufTemp is the library's temporary staging buffer.
	BufTemp
)

// String returns the buffer name.
func (b BufKind) String() string {
	switch b {
	case BufSend:
		return "send"
	case BufRecv:
		return "recv"
	default:
		return "temp"
	}
}

// Move describes one data block's participation in one communication
// round: the sender gathers block FromSlot from buffer From; the receiver
// scatters it to ToSlot in buffer To. Block is the neighbor index the move
// serves (equal to the slots for alltoall; the subtree representative for
// allgather).
type Move struct {
	Block    int
	From     BufKind
	FromSlot int
	To       BufKind
	ToSlot   int
}

// Round is one send-receive exchange: every process sends the gathered
// moves to the process at relative offset Rel and receives the same
// pattern from the process at −Rel.
type Round struct {
	// Rel is the relative coordinate step of this round (c·e_k for the
	// message-combining schedules, N[i] for the trivial schedule).
	Rel   vec.Vec
	Moves []Move
}

// Phase groups the independent rounds executed with concurrent
// nonblocking operations (one dimension of the combining schedules).
type Phase struct {
	// Dim is the dimension this phase routes along (−1 for the trivial
	// schedule's single phase).
	Dim    int
	Rounds []Round
}

// LocalCopy is a block movement that needs no communication: blocks for
// the zero-offset neighbor (the process itself), and duplicated allgather
// neighbors.
type LocalCopy struct {
	From     BufKind
	FromSlot int
	ToSlot   int // always in the receive buffer
}

// Schedule is the block-size-independent structure of a Cartesian
// collective: which blocks travel together in which rounds, and through
// which buffers. Per Section 3.3 of the paper the same schedule drives the
// regular, irregular (v) and typed (w) variants.
type Schedule struct {
	Op     OpKind
	Algo   Algorithm
	Phases []Phase
	Copies []LocalCopy
	// Rounds is the total number of communication rounds C.
	Rounds int
	// Volume is the per-process communication volume V in blocks.
	Volume int
	// DimOrder is the order in which dimensions are routed (identity for
	// alltoall; increasing C_k for allgather).
	DimOrder []int
	// NeedTemp reports whether any move stages through the temporary
	// buffer.
	NeedTemp bool
	// TempSlots is the number of temporary staging slots the schedule
	// uses: block indices for alltoall (slot i holds block i), sequential
	// tree-node slots for allgather.
	TempSlots int
}

// TrivialSchedule builds the t-round direct schedule of Listing 4 of the
// paper: one send-receive round per non-zero neighbor, blocks for the
// zero offset copied locally. Works for alltoall and (with every block
// read from the same send block) allgather.
func TrivialSchedule(nbh vec.Neighborhood, op OpKind) *Schedule {
	s := &Schedule{Op: op, Algo: Trivial}
	var rounds []Round
	for i, rel := range nbh {
		if rel.IsZero() {
			s.Copies = append(s.Copies, LocalCopy{From: BufSend, FromSlot: i, ToSlot: i})
			continue
		}
		rounds = append(rounds, Round{
			Rel:   rel.Clone(),
			Moves: []Move{{Block: i, From: BufSend, FromSlot: i, To: BufRecv, ToSlot: i}},
		})
		s.Volume++
	}
	s.Phases = []Phase{{Dim: -1, Rounds: rounds}}
	s.Rounds = len(rounds)
	s.DimOrder = identityOrder(nbh.Dims())
	return s
}

// Clone returns a deep copy sharing no mutable state with the receiver:
// phases, rounds, moves, copies, relative steps and the dimension order
// are all fresh. WithScheduleTransform mutates a clone so the schedules
// cached on the communicator stay pristine.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Phases = make([]Phase, len(s.Phases))
	for i, ph := range s.Phases {
		cp := ph
		cp.Rounds = make([]Round, len(ph.Rounds))
		for j, r := range ph.Rounds {
			cr := r
			cr.Rel = r.Rel.Clone()
			cr.Moves = append([]Move(nil), r.Moves...)
			cp.Rounds[j] = cr
		}
		c.Phases[i] = cp
	}
	c.Copies = append([]LocalCopy(nil), s.Copies...)
	c.DimOrder = append([]int(nil), s.DimOrder...)
	return &c
}

// flatRels packs the relative step of every round, phase-major — the flat
// round order of a plan compiled from s — into one slice, d ints per
// round. The result is non-nil even for a schedule without rounds.
func (s *Schedule) flatRels() []int {
	n := 0
	for _, ph := range s.Phases {
		for _, r := range ph.Rounds {
			n += len(r.Rel)
		}
	}
	rels := make([]int, 0, n)
	for _, ph := range s.Phases {
		for _, r := range ph.Rounds {
			rels = append(rels, r.Rel...)
		}
	}
	return rels
}

// Validate checks internal schedule invariants; it is used by the property
// tests and when loading externally-constructed schedules.
func (s *Schedule) Validate(t int) error {
	rounds, volume := 0, 0
	for _, ph := range s.Phases {
		rounds += len(ph.Rounds)
		for _, r := range ph.Rounds {
			if len(r.Moves) == 0 {
				return fmt.Errorf("cart: empty round in phase dim %d", ph.Dim)
			}
			if r.Rel.IsZero() {
				return fmt.Errorf("cart: zero relative step in a communication round")
			}
			for _, mv := range r.Moves {
				if mv.Block < 0 || mv.Block >= t {
					return fmt.Errorf("cart: move block out of range: %+v (t=%d)", mv, t)
				}
				if err := s.checkSlot(mv.From, mv.FromSlot, t); err != nil {
					return err
				}
				if err := s.checkSlot(mv.To, mv.ToSlot, t); err != nil {
					return err
				}
				if mv.To == BufSend {
					return fmt.Errorf("cart: move writes into the send buffer: %+v", mv)
				}
			}
			volume += len(r.Moves)
		}
	}
	if rounds != s.Rounds {
		return fmt.Errorf("cart: recorded rounds %d != actual %d", s.Rounds, rounds)
	}
	if volume != s.Volume {
		return fmt.Errorf("cart: recorded volume %d != actual %d", s.Volume, volume)
	}
	return nil
}

// checkSlot validates a slot index against its buffer's slot space: the
// neighborhood size for send/receive slots, TempSlots for temp slots (the
// alltoall schedule also uses block indices as temp slots).
func (s *Schedule) checkSlot(b BufKind, slot, t int) error {
	limit := t
	if b == BufTemp && s.TempSlots > limit {
		limit = s.TempSlots
	}
	if slot < 0 || slot >= limit {
		return fmt.Errorf("cart: %s slot %d out of range [0,%d)", b, slot, limit)
	}
	return nil
}

// BlockGeometry resolves the element layout of every block slot in the
// three buffers for one concrete operation instance: it is the bridge from
// the symbolic schedule to an executable plan. SendAt/RecvAt return the
// layout of slot i in the user send/receive buffers; TempAt returns the
// layout of staging slot i in the temporary buffer (block indices for
// alltoall, tree-node slots for allgather). The plan compiler derives the
// temporary buffer length from the layouts actually referenced.
type BlockGeometry struct {
	SendAt func(i int) datatype.Layout
	RecvAt func(i int) datatype.Layout
	TempAt func(i int) datatype.Layout

	// sig is the geometry's canonical fingerprint for the shared plan
	// cache (plancache.go). The zero value (geomNone) marks a geometry the
	// cache cannot fingerprint — caller-supplied Layout closures of the
	// w-variants — and disables caching for the plan.
	sig geomSig
}

// uniformGeometry is the geometry of the regular operations: block i of m
// elements at offset i·m in each buffer. For allgather the send buffer is
// a single block (slot-independent).
func uniformGeometry(op OpKind, m int) BlockGeometry {
	g := BlockGeometry{
		RecvAt: func(i int) datatype.Layout { return datatype.Contiguous(i*m, m) },
		TempAt: func(i int) datatype.Layout { return datatype.Contiguous(i*m, m) },
		sig:    geomSig{kind: geomUniform, m: m},
	}
	if op == OpAllgather {
		g.SendAt = func(int) datatype.Layout { return datatype.Contiguous(0, m) }
	} else {
		g.SendAt = func(i int) datatype.Layout { return datatype.Contiguous(i*m, m) }
	}
	return g
}

// bufIndex maps BufKind to the executor's buffer array position.
func bufIndex(b BufKind) int {
	switch b {
	case BufSend:
		return 0
	case BufRecv:
		return 1
	default:
		return 2
	}
}

// execRound is one compiled communication round: concrete peer ranks and
// the gathered send/recv composites over (send, recv, temp) buffers.
type execRound struct {
	sendTo   int
	recvFrom int
	// tag is the round's message tag, shared by sender and receiver (see
	// roundTag): distinct per (phase, global round slot) so the pipelined
	// executor's out-of-phase traffic matches the right receives.
	tag  int
	send datatype.Composite
	recv datatype.Composite
	// blocks and sendElems are the round's forwarded volume in schedule
	// blocks and in elements, counted at compile time (the composites merge
	// adjacent extents, so Parts() cannot recover the block count).
	blocks    int
	sendElems int
}

// execCopy is a compiled local copy.
type execCopy struct {
	fromBuf int
	from    datatype.Layout
	to      datatype.Layout
}

// Plan is an executable, reusable communication plan: the result of the
// paper's Cart_*_init operations. A Plan is bound to a communicator and a
// concrete block geometry but not to buffers or an element type; it can be
// executed many times (persistent-collective style).
type Plan struct {
	comm    *Comm
	op      OpKind
	algo    Algorithm
	phases  [][]execRound
	copies  []execCopy
	tempLen int
	rounds  int
	volume  int
	sendLen int // required send buffer length in elements (0 = unchecked)
	recvLen int // required recv buffer length in elements
	temp    any // cached temporary buffer ([]T of the last element type)

	// flat and deps are the block-level dependency DAG over all rounds in
	// phase-major order (dag.go); pipe is the executor's plan-owned scratch
	// (pipeline.go), and ops the persistent send and receive of every
	// round (a *roundOps[T] of the last element type), which Run restarts.
	// fence is Run's posting policy (the execution-style options); window
	// bounds the pipelined policy's receive pre-post depth.
	flat   []*execRound
	deps   []roundDep
	pipe   *pipeState
	ops    any
	fence  fence
	window int

	// Progress-engine scratch pool (future.go): detached pipeStates and
	// temp buffers for committed executions, so several futures of one
	// plan can be in flight at once and steady-state Start/Wait cycles
	// stay allocation-free. The mutex also guards asyncMaxTag, the
	// memoized tag-span bound (commits happen on the caller's goroutine,
	// releases on engine workers).
	asyncMu     sync.Mutex
	asyncFree   []*asyncScratch
	asyncMaxTag int
	// tagFit memoizes asyncTagFits lock-free: 0 unknown, 1 fits, 2 not.
	tagFit atomic.Int32
	// engWkr is the 1-based engine-worker index this plan's executions are
	// pinned to (0 = not yet pinned); all executions of one plan share its
	// scratch pool, so they must stay under one drive lock. Commit-side
	// state, touched only by the communicator's owning goroutine — keeping
	// it on the plan spares the engine a per-Start map lookup.
	engWkr int
	// rlog, when set, records wall-clock per-round post/complete events
	// from the executors (trace.RoundLog).
	rlog *trace.RoundLog

	// Observed accounting (accounting.go), accumulated across executions
	// at the executors' post and retire sites. Atomic because an inline
	// async commit (Start posts the first window on the caller) counts
	// concurrently with the engine driver retiring an earlier execution of
	// the same plan. cmet mirrors a subset into the rank's metrics
	// registry when one is attached to the runtime (nil otherwise).
	obsRuns   atomic.Int64
	obsRounds atomic.Int64
	obsMsgs   atomic.Int64
	obsRecvs  atomic.Int64
	obsBlocks atomic.Int64
	obsElems  atomic.Int64
	cmet      *cartMetrics

	// Auto plans carry the trivial alternative and the mean block size in
	// elements; Run applies the executor-consistent cut-off (select.go)
	// once the element size is known, memoized in decided/decidedElem and
	// recorded in decision.
	alt           *Plan
	avgBlockElems float64
	decided       *Plan
	decidedElem   int
	decision      *Decision

	// fromCache marks a plan bound from a shared-plan-cache master
	// (plancache.go) rather than freshly compiled.
	fromCache bool
	// rels is set on torus masters of the plan cache only: each flat
	// round's relative step, d ints per round, which bind resolves to the
	// binding rank's peers. Non-nil marks a rank-free master.
	rels []int
}

// Rounds returns the number of communication rounds C of the plan.
func (p *Plan) Rounds() int { return p.rounds }

// Volume returns the per-process communication volume V in blocks.
func (p *Plan) Volume() int { return p.volume }

// Algorithm returns the schedule family the plan was compiled from.
func (p *Plan) Algorithm() Algorithm { return p.algo }

// Messages returns the number of point-to-point messages this process
// posts per execution (its non-skipped send rounds) — on meshes this can
// be below Rounds(), whose count is the interior upper bound.
func (p *Plan) Messages() int {
	n := 0
	for _, rounds := range p.phases {
		for i := range rounds {
			if rounds[i].sendTo != ProcNull {
				n++
			}
		}
	}
	return n
}

// SendElements returns the total number of elements this process sends
// per execution — volume in concrete units rather than blocks, the
// quantity behind the β·V·m term of the paper's analysis.
func (p *Plan) SendElements() int {
	n := 0
	for _, rounds := range p.phases {
		for i := range rounds {
			if rounds[i].sendTo != ProcNull {
				n += rounds[i].send.Size()
			}
		}
	}
	return n
}

// compile turns a symbolic schedule plus block geometry into an executable
// plan for this process: relative round steps resolve to concrete ranks,
// move lists resolve to gather/scatter composites. Purely local, O(td).
func (c *Comm) compile(s *Schedule, geom BlockGeometry) (*Plan, error) {
	p := &Plan{
		comm:   c,
		op:     s.Op,
		algo:   s.Algo,
		rounds: s.Rounds,
		volume: s.Volume,
		cmet:   c.cmet,
	}
	rank := c.comm.Rank()
	t := len(c.nbh)
	for pi, ph := range s.Phases {
		var rounds []execRound
		for ri, r := range ph.Rounds {
			// Shared schedule: every rank holds the same rounds in the same
			// order, so the in-phase index is the global tag slot.
			er := execRound{sendTo: ProcNull, recvFrom: ProcNull, tag: roundTag(pi, ri, t)}
			if dst, ok := c.grid.RankDisplace(rank, r.Rel); ok {
				er.sendTo = dst
			}
			if src, ok := c.grid.RankDisplaceNeg(rank, r.Rel); ok {
				er.recvFrom = src
			}
			for _, mv := range r.Moves {
				sendL := layoutFor(mv.From, mv.FromSlot, geom)
				recvL := layoutFor(mv.To, mv.ToSlot, geom)
				if sendL.Size() != recvL.Size() {
					return nil, fmt.Errorf("cart: block %d: send layout has %d elements, receive layout %d — the Cartesian collectives require matching block signatures",
						mv.Block, sendL.Size(), recvL.Size())
				}
				er.send.Append(bufIndex(mv.From), sendL)
				er.recv.Append(bufIndex(mv.To), recvL)
				er.blocks++
				if mv.From == BufTemp || mv.To == BufTemp {
					if hi := geomTempHigh(geom, mv); hi > p.tempLen {
						p.tempLen = hi
					}
				}
			}
			er.sendElems = er.send.Size()
			rounds = append(rounds, er)
		}
		p.phases = append(p.phases, rounds)
	}
	for _, cp := range s.Copies {
		ec := execCopy{
			fromBuf: bufIndex(cp.From),
			from:    layoutFor(cp.From, cp.FromSlot, geom),
			to:      geom.RecvAt(cp.ToSlot),
		}
		if ec.from.Size() != ec.to.Size() {
			return nil, fmt.Errorf("cart: local copy slot %d -> %d: %d vs %d elements", cp.FromSlot, cp.ToSlot, ec.from.Size(), ec.to.Size())
		}
		p.copies = append(p.copies, ec)
	}
	buildDAG(p)
	return p, nil
}

// layoutFor resolves a (buffer, slot) pair through the geometry.
func layoutFor(b BufKind, slot int, geom BlockGeometry) datatype.Layout {
	switch b {
	case BufSend:
		return geom.SendAt(slot)
	case BufRecv:
		return geom.RecvAt(slot)
	default:
		return geom.TempAt(slot)
	}
}

// geomTempHigh returns the temp-buffer extent a move needs.
func geomTempHigh(geom BlockGeometry, mv Move) int {
	hi := 0
	if mv.From == BufTemp {
		_, h := geom.TempAt(mv.FromSlot).Bounds()
		if h > hi {
			hi = h
		}
	}
	if mv.To == BufTemp {
		_, h := geom.TempAt(mv.ToSlot).Bounds()
		if h > hi {
			hi = h
		}
	}
	return hi
}

// Run executes the plan: the zero-copy schedule execution of Listing 5 of
// the paper, on the executor core of pipeline.go. A combining plan runs
// pipelined — each round's send posts the moment the receives producing
// its blocks have retired, overlapping rounds across phases — unless it
// was compiled WithBarrieredPhases (one phase at a time, the classic
// per-phase Waitall) or WithBlockingRounds; a trivial plan, like a
// blocking one, executes its rounds as sequential blocking send-receive
// pairs (Listing 4). Under a virtual-time cost model every policy consumes
// completions in flat order, so the accounting does not depend on
// goroutine scheduling, while pipelined sends still post the moment their
// producers retire and the clock prices the DAG's depth rather than the
// phase count. The element type binds at execution time; the temporary
// buffer is cached on the plan across executions.
func Run[T any](p *Plan, send, recv []T) error {
	if p.alt != nil {
		p = p.choose(elemBytesOf[T]())
	}
	if err := p.checkBuffers(len(send), len(recv)); err != nil {
		return err
	}
	if p.rlog != nil {
		// One Run is one logging epoch: timestamps restart at zero and the
		// previous execution's events are dropped in place (capacity kept,
		// so logged re-executions stay allocation-free).
		p.rlog.Reset()
	}
	var temp []T
	if p.tempLen > 0 {
		if cached, ok := p.temp.([]T); ok && len(cached) >= p.tempLen {
			temp = cached
		} else {
			temp = make([]T, p.tempLen)
			p.temp = temp
		}
	}
	bufs := [][]T{send, recv, temp}
	ops, err := roundOpsFor[T](p, &p.ops)
	if err != nil {
		return err
	}
	err = execute(p, ops, bufs)
	if err == nil {
		for _, cp := range p.copies {
			datatype.Copy(recv, cp.to, bufs[cp.fromBuf], cp.from)
		}
		p.countRun()
	}
	// Every round slot is quiescent again, but keeps bufs until its next
	// start: drop the caller's buffers from it so an idle plan does not pin
	// them. (Not deferred: a rank unwinding from an injected crash leaves
	// receives posted, and a late match must still find buffers to scatter
	// into.)
	clear(bufs)
	return err
}

// roundOps is the typed half of a plan's executor scratch: the persistent
// receive and send of every schedule round, indexed like Plan.flat. A
// round's two point-to-point operations are bound to (peer, tag, composite)
// once, when the scratch is built, and restarted with the caller's buffers
// on every execution, so executing a schedule creates no per-message
// object (mpi/persistent.go).
type roundOps[T any] struct {
	recv []mpi.RecvSlot[T]
	send []mpi.SendSlot[T]
}

// req returns the request of round i's receive: the handle of its current
// (or last) start.
func (o *roundOps[T]) req(i int) *mpi.Request { return o.recv[i].Request() }

// roundOpsFor returns the round slots cached in *cache, building and
// binding them on first use — or again if the plan is executed with another
// element type, as the cached temp buffer is.
func roundOpsFor[T any](p *Plan, cache *any) (*roundOps[T], error) {
	if ops, ok := (*cache).(*roundOps[T]); ok {
		return ops, nil
	}
	n := len(p.flat)
	ops := &roundOps[T]{recv: make([]mpi.RecvSlot[T], n), send: make([]mpi.SendSlot[T], n)}
	comm := p.comm.comm
	for i, r := range p.flat {
		if r.recvFrom != ProcNull {
			if err := ops.recv[i].Bind(comm, &r.recv, r.recvFrom, r.tag); err != nil {
				return nil, p.phaseError(p.deps[i].phase, p.deps[i].idx, "recv from", r.recvFrom, err)
			}
		}
		if r.sendTo != ProcNull {
			if err := ops.send[i].Bind(comm, &r.send, r.sendTo, r.tag); err != nil {
				return nil, p.phaseError(p.deps[i].phase, p.deps[i].idx, "send to", r.sendTo, err)
			}
		}
	}
	*cache = ops
	return ops, nil
}

// phaseError attributes a failed schedule operation to its phase, round,
// and peer — dir is "send to" or "recv from" — so an injected fault or
// deadlock report points into the schedule rather than at an anonymous
// request. The peer is formatted here, on the error path only.
func (p *Plan) phaseError(phase, round int, dir string, peer int, err error) error {
	return fmt.Errorf("cart: %s(%s): phase %d/%d round %d: %s rank %d: %w",
		p.op, p.algo, phase+1, len(p.phases), round, dir, peer, err)
}

// elemBytesOf returns the in-memory size of one element of type T.
func elemBytesOf[T any]() int {
	return int(reflectSize[T]())
}

// checkBuffers validates user buffer lengths against the plan's geometry
// requirements when known.
func (p *Plan) checkBuffers(sendLen, recvLen int) error {
	if p.sendLen > 0 && sendLen < p.sendLen {
		return fmt.Errorf("cart: send buffer has %d elements, plan requires %d", sendLen, p.sendLen)
	}
	if p.recvLen > 0 && recvLen < p.recvLen {
		return fmt.Errorf("cart: receive buffer has %d elements, plan requires %d", recvLen, p.recvLen)
	}
	return nil
}
