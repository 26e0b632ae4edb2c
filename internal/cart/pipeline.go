package cart

import (
	"fmt"
	"sync/atomic"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
)

// The pipelined executor: completion-driven schedule execution over the
// block-level dependency DAG of dag.go, replacing the per-phase Waitall
// barrier. Rounds are not executed phase by phase; instead
//
//   - a round's send posts the moment its RAW producers have retired —
//     sends reading only the user send buffer post immediately, before any
//     message has arrived;
//   - receives are pre-posted in phase-major order up to a bounded window,
//     so the runtime's match-time-consume single-copy path keeps hitting
//     (an unexpected early message simply detaches to the wire pool and
//     matches later — the window bounds memory, not correctness);
//   - a completion-channel WaitSet (mpi.Waitsome) retires receives as they
//     land: each retirement decrements its dependents' in-degrees, posting
//     newly-ready sends and releasing gated scatters, with no barrier and
//     no polling.
//
// Progress argument: receives are posted in phase-major order, so the
// earliest unretired receive is always posted (window >= 1). Its scatter
// gates (WAR/WAW) point only at same-or-earlier-phase send posts and
// strictly-earlier scatters, which unwind inductively to phase-0 sends —
// all barrier-free. Any stall is therefore a wait for a message that some
// peer has posted or will post, which is exactly the barriered executor's
// dependency structure; since the barriered schedule is deadlock-free and
// the DAG is a subset of its ordering constraints, the pipelined execution
// terminates whenever the barriered one does.
//
// Failures keep their attribution: every error is wrapped by phaseError
// with the round's phase, index, and peer before it propagates, and the
// remaining posted receives are cancelled (or drained when a match is
// already in flight) exactly as the barriered executor does.

// pipeState is the pipelined executor's plan-owned scratch: allocated once
// on first use, reset in place on every execution, so repeated runs of one
// plan stay allocation-free (alloc_regression_test.go).
type pipeState struct {
	sendLeft   []int32
	scatLeft   []int32
	deferred   []bool
	arrived    []bool
	retired    []bool
	sendPosted []bool
	recvPosted []bool
	// leaf marks rounds whose retirement unblocks nothing (no RAW or WAW
	// successors). Their completions carry no scheduling information, so
	// they skip the WaitSet — no per-message wakeup — and are waited in
	// bulk after the live rounds have driven the DAG dry, like the
	// barriered executor's Waitall tail.
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
// withWS attaches a plan-owned WaitSet for the synchronous executor; the
// progress engine's executions pass false and attach their worker's
// multiplexed set per execution instead (engine.go).
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

// pipeExec is one execution's live state over a pipeState. The
// synchronous executor drives it to completion on the caller's goroutine
// over the plan-owned scratch; the progress engine (engine.go) embeds it
// in an asyncExec and drives the same state machine from completion
// events, with a per-execution tag offset (concurrent futures of one
// communicator must not match each other's messages), the worker's shared
// WaitSet, and an owner base that routes completions back to this
// execution.
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
	// coalesces every leaf receive's completion into one sentinel token:
	// leaves stay out of the window and the completion set — no
	// per-message wakeup, exactly like the synchronous bulk tail — and
	// the gate posts the execution's leaf sentinel once the last leaf
	// (and the attach-time bias) has been accounted.
	leafGate *atomic.Int32
	// rlog is the plan's round log for synchronous runs. Async executions
	// leave it nil: the RoundLog is single-goroutine, and an async
	// execution posts from the committing caller concurrently with the
	// engine driver (AsyncLog is the async trace story).
	rlog     *trace.RoundLog
	posted   int // posted, unretired tracked receives (window occupancy)
	nextPost int // next flat index to consider for receive posting
	remRecv  int
	remLive  int // unretired tracked (WaitSet-driven) receives
	remSend  int
}

// runPipelined executes the plan's rounds in dependency order. bufs is the
// (send, recv, temp) buffer array; local copies are the caller's job (they
// run after every round has retired, as in the barriered executor).
func runPipelined[T any](p *Plan, ops *roundOps[T], bufs [][]T) error {
	st := p.pipeScratch()
	n := len(p.flat)
	st.ws.Reset()
	st.reset(p)
	e := &pipeExec[T]{p: p, st: st, ops: ops, bufs: bufs, ws: st.ws, rlog: p.rlog, remRecv: st.nRecvs, remLive: st.nLive, remSend: st.nSends}

	// Receives first (window depth), then every barrier-free send.
	if err := e.fillWindow(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if p.flat[i].sendTo != ProcNull && st.sendLeft[i] == 0 {
			st.stack = append(st.stack, int32(i))
		}
	}
	if err := e.drainSends(); err != nil {
		return err
	}
	for e.remLive > 0 {
		owners, err := st.ws.Waitsome()
		if err != nil {
			return e.abortDrain(e.attributeWaitErr(err))
		}
		if owners == nil {
			return e.abortDrain(fmt.Errorf("cart: internal: pipelined executor stalled with %d live receive(s) unretired", e.remLive))
		}
		for _, i := range owners {
			e.st.arrived[i] = true
			if err := e.tryRetire(int32(i)); err != nil {
				return e.abortDrain(err)
			}
		}
		if err := e.fillWindow(); err != nil {
			return err
		}
		if err := e.drainSends(); err != nil {
			return err
		}
	}
	if err := e.drainSends(); err != nil {
		return err
	}
	if e.remSend > 0 {
		return e.abortDrain(fmt.Errorf("cart: internal: pipelined executor finished live receives with %d send(s) unposted", e.remSend))
	}
	// Bulk tail: every live round has retired, so all scatter gates of the
	// remaining leaf receives have fired; wait them in flat (phase-major)
	// order, which preserves WAW order among deferred leaf scatters.
	for i := range p.flat {
		if !st.recvPosted[i] || st.retired[i] {
			continue
		}
		if st.scatLeft[i] > 0 {
			return e.abortDrain(fmt.Errorf("cart: internal: leaf round %d still scatter-gated after DAG drain", i))
		}
		if _, err := ops.req(i).Wait(); err != nil {
			return e.abortDrain(p.phaseError(p.deps[i].phase, p.deps[i].idx, "recv from", p.flat[i].recvFrom, err))
		}
		st.retired[i] = true
		e.remRecv--
		logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, p.flat[i].recvFrom, trace.RoundRecvDone)
		p.countRetire()
		if m := p.cmet; m != nil {
			m.retireNs.Observe(time.Now().UnixNano() - st.postNs[i])
		}
	}
	if e.remRecv > 0 {
		return fmt.Errorf("cart: internal: pipelined executor finished with %d receive(s) unposted", e.remRecv)
	}
	return nil
}

// fillWindow pre-posts receives in phase-major order until the window
// holds p.window live receives or none remain. Leaf receives do not count
// against the window and are not added to the WaitSet: a posted receive
// pins no payload memory (an early message detaches to the pooled wire
// either way), so posting them eagerly only widens the match-time-consume
// fast path, while the window bounds the completion-tracked frontier the
// executor must react to. The deferred-scatter decision is frozen at post
// time: a round whose scatter gates are already clear may scatter at match
// time (single-copy) — its gates only ever decrease, so no conflicting
// send or earlier scatter can appear later. A round still gated defers its
// scatter to retirement (Wait), in this goroutine, after the gates clear.
func (e *pipeExec[T]) fillWindow() error {
	p, st := e.p, e.st
	for e.posted < p.window && e.nextPost < len(p.flat) {
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
		if m := p.cmet; m != nil {
			st.postNs[i] = time.Now().UnixNano()
		}
		if !st.leaf[i] {
			e.posted++
			if m := p.cmet; m != nil {
				m.prepostHWM.SetMax(int64(e.posted))
			}
			if e.sink != nil {
				e.sink.Add(req, e.ownerBase+i)
			} else {
				e.ws.Add(req, e.ownerBase+i)
			}
		} else if e.leafGate != nil {
			e.sink.AddGated(req, e.ownerBase|ownerMask, e.leafGate)
		}
	}
	return nil
}

// drainSends posts every send on the ready stack; each post releases its
// WAR-gated scatters, which can retire rounds and push further sends.
func (e *pipeExec[T]) drainSends() error {
	st := e.st
	for len(st.stack) > 0 {
		i := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if err := e.postSend(i); err != nil {
			return e.abortDrain(err)
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
// successors lose a producer (sends may become ready), WAW successors lose
// a scatter gate (later receives on the same extent may retire).
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
	st.retired[i] = true
	e.posted--
	e.remRecv--
	e.remLive--
	logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, p.flat[i].recvFrom, trace.RoundRecvDone)
	p.countRetire()
	if m := p.cmet; m != nil {
		m.retireNs.Observe(time.Now().UnixNano() - st.postNs[i])
	}
	for _, s := range p.deps[i].rawSucc {
		st.sendLeft[s]--
		if st.sendLeft[s] == 0 {
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

// runPipelinedModel executes the plan's rounds in dependency order under a
// virtual-time cost model, where the per-rank clock is charged at send
// posts and receive waits: sends post the moment their RAW producers have
// retired — exactly as in runPipelined — so the clock prices the DAG's
// depth (barrier-free rounds pay the wire latency α once, not once per
// phase), but receives are waited in flat (phase-major) order instead of
// real completion order, so the accounting is deterministic and
// independent of goroutine scheduling.
//
// Flat-order waiting needs no readiness check: the earliest unretired
// receive's WAW gates are earlier receives (already retired) and its WAR
// gates are same-or-earlier-phase sends, whose RAW producers are receives
// of strictly earlier phases (already retired) — so its scatter gates are
// always clear, the invariant the internal-error guard below asserts.
func runPipelinedModel[T any](p *Plan, ops *roundOps[T], bufs [][]T) error {
	st := p.pipeScratch()
	n := len(p.flat)
	st.reset(p)
	e := &pipeExec[T]{p: p, st: st, ops: ops, bufs: bufs, ws: st.ws, rlog: p.rlog, remRecv: st.nRecvs, remLive: st.nRecvs, remSend: st.nSends}

	// Post every receive upfront (posting is free on the virtual clock and
	// keeps the match-time-consume path hitting), then every barrier-free
	// send.
	for i := 0; i < n; i++ {
		r := p.flat[i]
		if r.recvFrom == ProcNull {
			continue
		}
		st.deferred[i] = st.scatLeft[i] > 0
		ops.recv[i].Start(e.bufs, 0, st.deferred[i])
		st.recvPosted[i] = true
		logRound(e.rlog, p.deps[i].phase, p.deps[i].idx, r.recvFrom, trace.RoundRecvPost)
		p.countRecvPost()
		if m := p.cmet; m != nil {
			st.postNs[i] = time.Now().UnixNano()
		}
	}
	for i := 0; i < n; i++ {
		if p.flat[i].sendTo != ProcNull && st.sendLeft[i] == 0 {
			st.stack = append(st.stack, int32(i))
		}
	}
	if err := e.drainSendsOrdered(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if !st.recvPosted[i] || st.retired[i] {
			continue
		}
		if st.scatLeft[i] > 0 {
			return e.abortDrain(fmt.Errorf("cart: internal: round %d scatter-gated at its flat-order wait", i))
		}
		st.arrived[i] = true
		if err := e.tryRetire(int32(i)); err != nil {
			return e.abortDrain(err)
		}
		if err := e.drainSendsOrdered(); err != nil {
			return err
		}
	}
	if e.remSend > 0 {
		return fmt.Errorf("cart: internal: pipelined executor finished receives with %d send(s) unposted", e.remSend)
	}
	return nil
}

// drainSendsOrdered posts every send on the ready stack in ascending flat
// (phase-major) order — the order that gets earlier-phase messages, which
// sit on the recipients' critical paths, onto the wire first. The model
// executor uses it so the virtual clock prices a sensible posting order;
// repeated min-extraction keeps the scratch stack's backing array (the
// ready set is a handful of rounds, so quadratic extraction is noise).
func (e *pipeExec[T]) drainSendsOrdered() error {
	st := e.st
	for len(st.stack) > 0 {
		mi := 0
		for j := range st.stack {
			if st.stack[j] < st.stack[mi] {
				mi = j
			}
		}
		i := st.stack[mi]
		st.stack[mi] = st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if err := e.postSend(i); err != nil {
			return e.abortDrain(err)
		}
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

// abortDrain abandons the execution after attributed: posted unretired
// receives are cancelled — their messages may never come — and receives
// already holding a match (or poison) are drained so no pooled wire or
// in-flight scatter is left dangling. Mirrors the barriered executor's
// failure path.
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

// logRound emits one executor event to l when a round log is attached.
// Both executors log through it; async executions pass a nil log.
func logRound(l *trace.RoundLog, phase, round, peer int, kind trace.RoundKind) {
	if l != nil {
		l.Add(phase, round, peer, kind)
	}
}

// SetRoundLog attaches a wall-clock per-round event log to the plan's
// executions (nil detaches). The pipelined executor records send posts,
// receive posts, and receive retirements; the barriered executor records
// posts. Single-goroutine, like the plan itself.
func (p *Plan) SetRoundLog(l *trace.RoundLog) {
	p.rlog = l
	if l != nil {
		// At most three events per round (send post, receive post, receive
		// done); reserving them up front keeps logged re-executions
		// allocation-free (Run resets the log in place each epoch).
		l.Reserve(3 * len(p.flat))
	}
}
