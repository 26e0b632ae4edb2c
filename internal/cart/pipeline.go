package cart

import (
	"fmt"
	"sync/atomic"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
)

// The executor core: one step machine over the block-level dependency DAG
// of dag.go runs every schedule (DESIGN.md §9). A round's send posts the
// moment its RAW producers have retired; receives post in flat
// (phase-major) order; each retirement decrements its dependents'
// in-degrees, posting newly-ready sends and releasing gated scatters. Run
// drives begin, onArrived, advance and leafTail from one loop (execute),
// the progress engine from completion tokens (engine.go).
//
// The policy is data, not a separate loop. The fence (Plan.fence) gates
// posting: a unit — one phase under fencePhase, one round under
// fenceRound, the whole plan under fenceNone — posts its receives and
// sends only once every earlier unit has retired all its receives and
// posted all its sends, and a fenced unit posts whole. Fenced plans and
// cost-model runs consume completions in flat order (Wait on the earliest
// posted, unretired receive) and post ready sends in ascending flat order,
// so virtual time is deterministic; a cost model posts every receive up
// front. A wall-clock pipelined run posts receives up to a bounded window
// (early messages detach to the wire pool and match later: the window
// bounds memory, not correctness), consumes completions in arrival order
// from a WaitSet, and leaves leaf rounds — no RAW or WAW successors — to a
// bulk tail.
//
// Progress: the earliest unretired receive is always posted, and its
// scatter gates unwind inductively to phase-0 sends, so a stall is a wait
// for a message some peer has posted or will post. The round fence also
// relies on no same-phase WAR edge running from a later send to an earlier
// receive (TestNoForwardSamePhaseWAR); a flat-order wait that finds its
// receive gated, or nothing posted, is an internal error, not a hang. Every
// error carries phaseError's attribution, and abortDrain, the one failure
// path, cancels or drains the remaining posted receives.

// fence is a plan's posting policy. It applies to Run only: the progress
// engine always executes with fenceNone.
type fence uint8

const (
	fenceNone  fence = iota // by the DAG alone: pipelined
	fencePhase              // phase by phase: WithBarrieredPhases
	fenceRound              // round by round: WithBlockingRounds, Trivial
)

// pipeState is the executor's plan-owned scratch: allocated once on first
// use, reset in place on every execution, so repeated runs of one plan stay
// allocation-free (alloc_regression_test.go).
type pipeState struct {
	sendLeft   []int32
	scatLeft   []int32
	deferred   []bool
	arrived    []bool
	retired    []bool
	sendPosted []bool
	recvPosted []bool
	// leaf marks rounds whose retirement unblocks nothing (no RAW or WAW
	// successors); arrival-order executions wait them in bulk (leafTail).
	leaf  []bool
	stack []int32 // ready-to-post send work stack
	// postNs stamps each round's receive-post wall time when a metrics
	// registry is attached, feeding the cart.retire.ns latency histogram.
	postNs []int64
	ws     *mpi.WaitSet
	nRecvs int
	nSends int
	nLive  int // receives with successors: the WaitSet-driven set
}

// newPipeState allocates one execution's worth of scratch for the plan.
// withWS attaches a plan-owned WaitSet for Run; the progress engine's
// executions pass false and attach their worker's multiplexed set per
// execution instead (engine.go).
func newPipeState(p *Plan, withWS bool) *pipeState {
	n := len(p.flat)
	st := &pipeState{
		sendLeft:   make([]int32, n),
		scatLeft:   make([]int32, n),
		deferred:   make([]bool, n),
		arrived:    make([]bool, n),
		retired:    make([]bool, n),
		sendPosted: make([]bool, n),
		recvPosted: make([]bool, n),
		leaf:       make([]bool, n),
		postNs:     make([]int64, n),
		stack:      make([]int32, 0, n),
	}
	for i, r := range p.flat {
		if r.recvFrom != ProcNull {
			st.nRecvs++
			st.leaf[i] = len(p.deps[i].rawSucc) == 0 && len(p.deps[i].wawSucc) == 0
			if !st.leaf[i] {
				st.nLive++
			}
		}
		if r.sendTo != ProcNull {
			st.nSends++
		}
	}
	if withWS {
		st.ws = mpi.NewWaitSet(p.comm.comm, st.nLive)
	}
	return st
}

// pipeScratch returns the plan's executor scratch, allocating it on first
// use.
func (p *Plan) pipeScratch() *pipeState {
	if p.pipe == nil {
		p.pipe = newPipeState(p, true)
	}
	return p.pipe
}

// reset rearms the scratch for one execution of p.
func (st *pipeState) reset(p *Plan) {
	st.stack = st.stack[:0]
	for i := 0; i < len(p.flat); i++ {
		st.sendLeft[i] = p.deps[i].sendDeps
		st.scatLeft[i] = p.deps[i].scatDeps
		st.deferred[i] = false
		st.arrived[i] = false
		st.retired[i] = false
		st.sendPosted[i] = false
		st.recvPosted[i] = false
	}
}

// pipeExec is one execution's live state over a pipeState. Run drives it
// to completion on the caller's goroutine over the plan-owned scratch; the
// progress engine (engine.go) embeds it in an asyncExec and drives the
// same state machine from completion events, with a per-execution tag
// offset (concurrent futures of one communicator must not match each
// other's messages), the worker's shared WaitSet, and an owner base that
// routes completions back to this execution.
type pipeExec[T any] struct {
	p         *Plan
	st        *pipeState
	ops       *roundOps[T] // the rounds' persistent receives and sends
	bufs      [][]T
	ws        *mpi.WaitSet        // completion set receives attach to (synchronous runs)
	sink      *mpi.CompletionSink // engine completion sink (async runs; takes precedence)
	tagOff    int                 // added to every round tag (0 for synchronous runs)
	ownerBase int                 // completion token base (0 for synchronous runs)
	// leafGate, when non-nil (engine executions with leaf rounds),
	// coalesces every leaf receive's completion into one sentinel token —
	// no per-message wakeup, like the synchronous bulk tail — posted once
	// the last leaf (and the attach-time bias) has been accounted.
	leafGate *atomic.Int32
	// rlog is the plan's round log for Run. Async executions leave it nil:
	// the RoundLog is single-goroutine (futures trace through the flight
	// recorder's FlightFutureRetire events).
	rlog *trace.RoundLog
	// fence is the posting policy; inOrder selects flat-order completion
	// and ascending send posting. The engine leaves both zero.
	fence   fence
	inOrder bool
	// timed stamps receive posts and observes cart.retire.ns at retirement
	// (a metrics registry is attached and the plan runs DAG-ordered: fenced
	// runs record no latency, and the engine's leaf tail only counts).
	timed    bool
	posted   int // posted, unretired tracked receives (window occupancy)
	nextPost int // next flat index to consider for receive posting
	open     int // end of the open fence units: nothing at or past it posts
	unitLeft int // receives and sends of the open unit not yet retired or posted
	nextWait int // flat-order completion cursor
	remRecv  int
	remLive  int // unretired receives the driver waits for one by one
	remSend  int
}

// execute runs the plan's rounds over bufs, the (send, recv, temp) buffer
// array, under the plan's fence — the one synchronous driver of the step
// machine. The local copies are the caller's job (they run after every
// round has retired).
func execute[T any](p *Plan, ops *roundOps[T], bufs [][]T) error {
	st := p.pipeScratch()
	e := &pipeExec[T]{p: p, st: st, ops: ops, bufs: bufs, ws: st.ws, rlog: p.rlog,
		fence: p.fence, inOrder: p.fence != fenceNone || p.comm.comm.Model() != nil,
		timed: p.cmet != nil && p.fence == fenceNone}
	if !e.inOrder {
		st.ws.Reset()
	}
	if err := e.begin(); err != nil {
		return e.abortDrain(err)
	}
	for e.remLive > 0 {
		if err := e.next(); err != nil {
			return e.abortDrain(err)
		}
		if err := e.advance(); err != nil {
			return e.abortDrain(err)
		}
	}
	if err := e.leafTail(); err != nil {
		return e.abortDrain(err)
	}
	return nil
}

// next consumes one step of completions: in flat order the Wait on the
// earliest unretired receive — flat-order executions retire in exactly
// that order, so the cursor only moves forward — in arrival order one
// Waitsome batch.
func (e *pipeExec[T]) next() error {
	if !e.inOrder {
		owners, err := e.ws.Waitsome()
		if err != nil {
			return e.attributeWaitErr(err)
		}
		if owners == nil {
			return fmt.Errorf("cart: internal: pipelined executor stalled with %d live receive(s) unretired", e.remLive)
		}
		for _, i := range owners {
			if err := e.onArrived(i); err != nil {
				return err
			}
		}
		return nil
	}
	p, st := e.p, e.st
	for e.nextWait < len(p.flat) && (p.flat[e.nextWait].recvFrom == ProcNull || st.retired[e.nextWait]) {
		e.nextWait++
	}
	switch i := e.nextWait; {
	case i == len(p.flat) || !st.recvPosted[i]:
		return fmt.Errorf("cart: internal: executor stalled with %d receive(s) unretired and none posted", e.remLive)
	case st.scatLeft[i] > 0:
		return fmt.Errorf("cart: internal: round %d scatter-gated at its flat-order wait", i)
	default:
		return e.onArrived(i)
	}
}

// begin rearms the scratch and posts what the policy allows before any
// message has arrived: the first fence unit's receives and its ready
// sends — for the pipelined policy, the first receive window and every
// barrier-free send.
func (e *pipeExec[T]) begin() error {
	e.st.reset(e.p)
	e.posted, e.nextPost, e.nextWait, e.open, e.unitLeft = 0, 0, 0, 0, 0
	e.remRecv, e.remLive, e.remSend = e.st.nRecvs, e.st.nLive, e.st.nSends
	if e.inOrder {
		e.remLive = e.st.nRecvs
	}
	return e.advance()
}

// onArrived marks flat round i's receive complete and retires what the
// DAG allows.
func (e *pipeExec[T]) onArrived(i int) error {
	e.st.arrived[i] = true
	return e.tryRetire(int32(i))
}

// advance posts what the policy allows after completions: it refills the
// receive window, posts the ready sends, and opens the next fence unit
// once the open one has finished — repeatedly, since a unit without
// receives finishes at its last send.
func (e *pipeExec[T]) advance() error {
	for {
		e.fillWindow()
		if err := e.drainSends(); err != nil {
			return err
		}
		if e.unitLeft > 0 || e.open == len(e.p.flat) {
			return nil
		}
		e.openUnit()
	}
}

// openUnit opens the fence unit starting at e.open — one round, one
// phase, or the rest of the plan — and queues its ready sends; fillWindow
// posts its receives. Under a fence every send of the unit is ready here:
// its RAW producers sit in strictly earlier phases, all retired.
func (e *pipeExec[T]) openUnit() {
	p, st := e.p, e.st
	a := e.open
	switch e.fence {
	case fenceRound:
		e.open = a + 1
	case fencePhase:
		e.open = a + len(p.phases[p.deps[a].phase])
	default:
		e.open = len(p.flat)
	}
	for i := a; i < e.open; i++ {
		r := p.flat[i]
		if r.recvFrom != ProcNull {
			e.unitLeft++
		}
		if r.sendTo != ProcNull {
			e.unitLeft++
			if st.sendLeft[i] == 0 {
				st.stack = append(st.stack, int32(i))
			}
		}
	}
}

// fillWindow posts the open units' receives in flat order: all of them in
// flat-order mode, otherwise until the window holds p.window live
// receives. Leaf receives do not count against the window and are not
// added to the WaitSet: a posted receive pins no payload memory (an early
// message detaches to the pooled wire either way), so posting them
// eagerly only widens the match-time-consume fast path, while the window
// bounds the completion-tracked frontier the executor must react to. The
// deferred-scatter decision is frozen at post time: a round whose scatter
// gates are already clear may scatter at match time (single-copy) — its
// gates only ever decrease, so no conflicting send or earlier scatter can
// appear later. A round still gated defers its scatter to retirement
// (Wait), in this goroutine, after the gates clear.
func (e *pipeExec[T]) fillWindow() {
	p, st := e.p, e.st
	for e.nextPost < e.open && (e.inOrder || e.posted < p.window) {
		i := e.nextPost
		r := p.flat[i]
		if r.recvFrom == ProcNull {
			e.nextPost++
			continue
		}
		st.deferred[i] = st.scatLeft[i] > 0
		req := e.ops.recv[i].Start(e.bufs, e.tagOff, st.deferred[i])
		st.recvPosted[i] = true
		e.nextPost++
		logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, r.recvFrom, trace.RoundRecvPost)
		p.countRecvPost()
		if e.timed {
			st.postNs[i] = time.Now().UnixNano()
		}
		switch {
		case e.inOrder:
			// Waited in flat order: no completion tracking.
		case !st.leaf[i]:
			e.posted++
			if m := p.cmet; m != nil {
				m.prepostHWM.SetMax(int64(e.posted))
			}
			if e.sink != nil {
				e.sink.Add(req, e.ownerBase+i)
			} else {
				e.ws.Add(req, e.ownerBase+i)
			}
		case e.leafGate != nil:
			e.sink.AddGated(req, e.ownerBase|ownerMask, e.leafGate)
		}
	}
}

// drainSends posts every send on the ready stack — last pushed first, or
// in ascending flat order in flat-order mode, which gets earlier-phase
// messages, sitting on the recipients' critical paths, onto the wire
// first (the ready set is a handful of rounds, so min-extraction is
// noise). Each post releases its WAR-gated scatters, which can retire
// rounds and push further sends.
func (e *pipeExec[T]) drainSends() error {
	st := e.st
	for len(st.stack) > 0 {
		top := len(st.stack) - 1
		if e.inOrder {
			mi := top
			for j := range st.stack {
				if st.stack[j] < st.stack[mi] {
					mi = j
				}
			}
			st.stack[mi], st.stack[top] = st.stack[top], st.stack[mi]
		}
		i := st.stack[top]
		st.stack = st.stack[:top]
		if err := e.postSend(i); err != nil {
			return err
		}
	}
	return nil
}

// postSend posts round i's send. Sends are buffered (they complete at
// post), so the start's error is the send's whole outcome — a failed peer
// or revoked context as the typed error.
func (e *pipeExec[T]) postSend(i int32) error {
	p, st := e.p, e.st
	r := p.flat[i]
	if err := e.ops.send[i].Start(e.bufs, e.tagOff); err != nil {
		return p.phaseError(p.deps[i].phase, p.deps[i].idx, "send to", r.sendTo, err)
	}
	st.sendPosted[i] = true
	e.remSend--
	e.unitLeft--
	logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, r.sendTo, trace.RoundSendPost)
	p.countSend(r)
	for _, s := range p.deps[i].warSucc {
		st.scatLeft[s]--
		if err := e.tryRetire(s); err != nil {
			return err
		}
	}
	return nil
}

// tryRetire retires round i once its message has arrived and its scatter
// gates are clear: the Wait performs the deferred scatter (or just reports
// the match-time scatter's result), then the retirement cascades — RAW
// successors lose a producer (sends may become ready; under a fence they
// are queued when their unit opens), WAW successors lose a scatter gate
// (later receives on the same extent may retire).
func (e *pipeExec[T]) tryRetire(i int32) error {
	p, st := e.p, e.st
	if !st.recvPosted[i] || st.retired[i] {
		return nil
	}
	if !st.arrived[i] {
		// Not retirable yet, but if the scatter gates just cleared and no
		// message has matched, hand the scatter back to the matcher: the
		// single-copy fast path runs in the sender's goroutine, in parallel
		// with this executor, instead of serially at Wait.
		if st.deferred[i] && st.scatLeft[i] == 0 && e.ops.req(int(i)).UndeferConsume() {
			st.deferred[i] = false
		}
		return nil
	}
	if st.scatLeft[i] > 0 {
		return nil
	}
	if _, err := e.ops.req(int(i)).Wait(); err != nil {
		return p.phaseError(p.deps[i].phase, p.deps[i].idx, "recv from", p.flat[i].recvFrom, err)
	}
	e.posted--
	e.remLive--
	e.unitLeft--
	e.recordRetire(int(i), e.timed)
	for _, s := range p.deps[i].rawSucc {
		st.sendLeft[s]--
		if st.sendLeft[s] == 0 && int(s) < e.open {
			st.stack = append(st.stack, s)
		}
	}
	for _, s := range p.deps[i].wawSucc {
		st.scatLeft[s]--
		if err := e.tryRetire(s); err != nil {
			return err
		}
	}
	return nil
}

// recordRetire records round i's waited receive as retired, with its
// post-to-retire latency when timed.
func (e *pipeExec[T]) recordRetire(i int, timed bool) {
	p, st := e.p, e.st
	st.retired[i] = true
	e.remRecv--
	logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, p.flat[i].recvFrom, trace.RoundRecvDone)
	p.countRetire()
	if timed {
		p.cmet.retireNs.Observe(time.Now().UnixNano() - st.postNs[i])
	}
}

// leafTail finishes an execution whose driven receives have all retired:
// it retires the remaining posted receives — the leaves of an
// arrival-order execution — in flat (phase-major) order, which preserves
// WAW order among deferred leaf scatters. Every live round has retired,
// so all of the leaves' scatter gates have fired.
func (e *pipeExec[T]) leafTail() error {
	p, st := e.p, e.st
	if e.remSend > 0 {
		return fmt.Errorf("cart: internal: executor finished live receives with %d send(s) unposted", e.remSend)
	}
	for i := range p.flat {
		if !st.recvPosted[i] || st.retired[i] {
			continue
		}
		if st.scatLeft[i] > 0 {
			return fmt.Errorf("cart: internal: leaf round %d still scatter-gated after DAG drain", i)
		}
		if _, err := e.ops.req(i).Wait(); err != nil {
			return p.phaseError(p.deps[i].phase, p.deps[i].idx, "recv from", p.flat[i].recvFrom, err)
		}
		e.recordRetire(i, e.timed && e.sink == nil)
	}
	if e.remRecv > 0 {
		return fmt.Errorf("cart: internal: executor finished with %d receive(s) unposted", e.remRecv)
	}
	return nil
}

// attributeWaitErr pins a round attribution on a WaitSet-level error
// (abort or suspected deadlock), which is not tied to a specific receive:
// the earliest posted unretired round is the one the executor was actually
// waiting on.
func (e *pipeExec[T]) attributeWaitErr(err error) error {
	p, st := e.p, e.st
	for i := range p.flat {
		if st.recvPosted[i] && !st.retired[i] {
			return p.phaseError(p.deps[i].phase, p.deps[i].idx, "recv from", p.flat[i].recvFrom, err)
		}
	}
	return fmt.Errorf("cart: %s(%s): %w", p.op, p.algo, err)
}

// abortDrain abandons the execution after attributed, the executor's one
// failure path: posted unretired receives are cancelled — their messages
// may never come — and receives already holding a match (or poison) are
// drained so no pooled wire or in-flight scatter is left dangling. Every
// slot is quiescent again when it returns. Idempotent: a drained receive
// is finished, so Cancel and Wait return at once.
func (e *pipeExec[T]) abortDrain(attributed error) error {
	st := e.st
	for i := range e.p.flat {
		if !st.recvPosted[i] || st.retired[i] {
			continue
		}
		if req := e.ops.req(i); !req.Cancel() {
			_, _ = req.Wait()
		}
	}
	return attributed
}

// logRound emits one executor event to l when a round log is attached;
// async executions pass a nil log.
func logRound(l *trace.RoundLog, phase, round, peer int, kind trace.RoundKind) {
	if l != nil {
		l.Add(phase, round, peer, kind)
	}
}

// SetRoundLog attaches a wall-clock per-round event log to the plan's Run
// executions (nil detaches): every policy records send posts, receive
// posts and receive retirements, in the order the executor performs them.
// Executions through Start are not logged. Single-goroutine, like the
// plan itself.
func (p *Plan) SetRoundLog(l *trace.RoundLog) {
	p.rlog = l
	if l != nil {
		// At most three events per round (send post, receive post, receive
		// done); reserving them up front keeps logged re-executions
		// allocation-free (Run resets the log in place each epoch).
		l.Reserve(3 * len(p.flat))
	}
}
