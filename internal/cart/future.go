package cart

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/trace"
)

// The nonblocking entry point. Start acquires a pooled execution record
// (pipeline.go) — the one Run executes on — begins its typed shell, an
// asyncExec, inline on the caller and commits it to the progress engine
// (engine.go), which drives it to settlement; the Future carries the
// result.

// waitSpinBudget bounds how many voluntary yields a waiter tries between
// progress and a real park. Yields are cheap (no timer, no channel, no
// wake handshake) and each one runs every other runnable goroutine once,
// so on a saturated machine the budget is consumed in a handful of
// scheduler rotations; an uncontended idle waiter burns through it in
// microseconds and parks.
const waitSpinBudget = 64

// Future is one in-flight nonblocking collective started with Start (the
// nonblocking persistent Cartesian collectives the paper anticipates from
// the MPI Forum). It completes on the communicator's progress engine;
// Wait is safe from any goroutine.
type Future struct {
	p   *Plan
	w   *engineWorker
	seq int // commit sequence on the communicator (also the tag block)

	state  atomic.Uint32 // 0 in flight, 1 settled; err is set before
	doneMu sync.Mutex
	done   chan struct{} // lazily made for parkers; closed at settle
	err    error

	commitNs int64 // wall clock at commit (latency histogram)
}

// Wait blocks until the collective completes and returns its error.
// Waiting repeatedly returns the recorded result. A waiter does not just
// park: it takes over driving the progress engine. Registering as a
// waiter sidelines the worker's resident goroutine, so every completion
// wake lands on the goroutine that will consume the result — a
// commit-then-wait cycle finishes without a single scheduler handoff,
// which is what keeps async latency at the synchronous executor's. The
// resident re-takes the set within a linger tick of the last waiter
// leaving.
func (f *Future) Wait() error {
	w := f.w
	if f.settled() {
		return f.err
	}
	// Registering as a waiter sidelines the resident without waking it: a
	// dozing resident stays unscheduled, and a set-parked one that steals
	// this waiter's first completion wake observes waiters > 0, hands the
	// wake level back, and dozes off the set from then on.
	w.waiters.Add(1)
	defer w.waiters.Add(-1)
	// The watchdog timer spans the whole Wait: parks reuse it instead of
	// starting and stopping one each, and a fire only trips the deadlock
	// check — progress since the last check re-arms it.
	wdt, timeoutCh := w.ws.AcquireParkTimer()
	defer w.ws.ReleaseParkTimer(wdt)
	var lastProg uint64
	spins := 0
	for {
		if f.settled() {
			return f.err
		}
		if err := w.eng.crashErr(); err != nil {
			// The engine died to an injected crash: its exit path fails
			// every future. Hand the wake back for other waiters and park
			// on completion alone.
			w.ws.Wake()
			<-f.doneChan()
			return f.err
		}
		if !w.driveMu.TryLock() {
			// Another waiter (or a mid-handoff resident) is driving. Hand
			// back any wake this waiter consumed — the queue may hold
			// tokens the current driver's drain missed — yield, re-check.
			w.ws.Wake()
			runtime.Gosched()
			continue
		}
		prog := w.helpDrive()
		if f.settled() {
			return f.err
		}
		// Yield-poll before parking: a voluntary reschedule lets peers run
		// their sends (whose handovers complete this future's receives) and
		// costs no wake machinery — on a contended CPU the future usually
		// completes within a few yields, without a single park/unpark pair.
		// Between yields the probe is one atomic load; the drive lock is
		// retaken only when tokens actually queued. Progress resets the
		// budget; a dry spell exhausts it and falls through to a real park,
		// so an idle waiter consumes no CPU and the deadlock watchdog still
		// runs.
		if prog != lastProg {
			lastProg = prog
			spins = 0
		}
		for spins < waitSpinBudget && w.ws.Pending() == 0 {
			if f.settled() {
				return f.err
			}
			spins++
			runtime.Gosched()
		}
		if spins < waitSpinBudget {
			continue // tokens queued: drive them
		}
		spins = 0
		woke, timedOut, err := w.ws.ParkOr(f.doneChan(), timeoutCh)
		switch {
		case err != nil:
			// Abort: deliver the failure to every in-flight future (the
			// resident is on standby — this waiter owns failure delivery).
			w.abortAll(err)
		case timedOut:
			w.watchdog(prog)
			w.ws.RearmParkTimer(wdt)
		case !woke:
			return f.err
		}
	}
}

// settled reports completion; a true return makes f.err readable (the
// atomic store in complete orders the error write before it).
func (f *Future) settled() bool { return f.state.Load() != 0 }

// doneChan returns the future's completion channel, creating it on first
// use. Only parkers need a channel — the fast paths poll the settled
// flag — so an inline-completed Start/Wait cycle never allocates one.
func (f *Future) doneChan() <-chan struct{} {
	f.doneMu.Lock()
	ch := f.done
	if ch == nil {
		ch = make(chan struct{})
		if f.state.Load() != 0 {
			close(ch)
		}
		f.done = ch
	}
	f.doneMu.Unlock()
	return ch
}

// complete records the result and releases the waiters. Engine-side only.
func (f *Future) complete(err error) {
	f.err = err
	f.state.Store(1)
	f.doneMu.Lock()
	if f.done != nil && f.done != closedChan {
		close(f.done)
		f.done = closedChan
	}
	f.doneMu.Unlock()
}

// closedChan is the shared already-closed channel completed futures hand
// to late doneChan callers.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// asyncTagFits reports whether every round tag of the plan lands inside
// one engine tag block (memoized). Plans violating it would alias another
// future's tags; no real schedule comes close (the span holds 4M rounds).
func (p *Plan) asyncTagFits() bool {
	if v := p.tagFit.Load(); v != 0 {
		return v == 1
	}
	maxTag := tagBase // empty plans trivially fit
	for _, r := range p.flat {
		maxTag = max(maxTag, r.tag)
	}
	fits := maxTag-tagBase < asyncTagSpan
	if fits {
		p.tagFit.Store(1)
	} else {
		p.tagFit.Store(2)
	}
	return fits
}

// asyncExec is an execution record's typed shell: the executor core's
// step machine (pipeline.go) plus what a committed execution needs — its
// future, worker slot and leaf coalescing. Start begins it inline on the
// committing caller, and engine completion events drive it from there on;
// Run drives only the embedded pipeExec and leaves the rest idle.
type asyncExec[T any] struct {
	pipeExec[T]
	f    *Future
	slot int
	// Leaf coalescing (the async mirror of the synchronous bulk tail):
	// gate counts unaccounted leaf completions plus a bias held while
	// leaves are still being posted; the completion that zeroes it posts
	// the leafToken sentinel. leavesDone records the sentinel (or that
	// the bias drop itself closed the group); finish() then retires the
	// leaves in bulk, scattering deferred ones in flat order.
	gate        atomic.Int32
	leavesDone  bool
	biasDropped bool
}

// leafToken is the sentinel round index of the coalesced leaf-group
// completion. Plans are bounded to ownerMask rounds at Start, so no real
// round index collides with it.
const leafToken = ownerMask

func (e *asyncExec[T]) slotID() int { return e.slot }

// begin posts the execution's first receive window (attached to the
// worker's completion set) and its barrier-free sends. Runs on the
// committing caller's goroutine, before the execution is registered with
// a driver, so it owns the state exclusively; register's lock handoff
// publishes it.
func (e *asyncExec[T]) begin() error {
	if e.st.nLive == e.st.nRecvs {
		// No leaf rounds: nothing to coalesce.
		e.leafGate, e.leavesDone, e.biasDropped = nil, true, true
	} else {
		e.gate.Store(1) // bias: held until every leaf is posted
		e.leafGate = &e.gate
		e.leavesDone, e.biasDropped = false, false
	}
	if err := e.pipeExec.begin(); err != nil {
		return err
	}
	e.maybeDropBias()
	return nil
}

// maybeDropBias releases the attach-time gate bias once every round has
// been posted. When the drop closes the group (all leaves already
// completed), the driver holds the execution right here — set the flag
// directly instead of routing a token through the set, which would cost
// the completion path one more wakeup.
func (e *asyncExec[T]) maybeDropBias() {
	if e.biasDropped || e.nextPost < len(e.p.flat) {
		return
	}
	e.biasDropped = true
	if e.gate.Add(-1) == 0 {
		e.leavesDone = true
	}
}

func (e *asyncExec[T]) onArrived(i int) error {
	if i == leafToken {
		e.leavesDone = true
		return nil
	}
	return e.pipeExec.onArrived(i)
}

func (e *asyncExec[T]) advance() error {
	if err := e.pipeExec.advance(); err != nil {
		return err
	}
	e.maybeDropBias()
	return nil
}

func (e *asyncExec[T]) done() bool {
	return e.remLive == 0 && e.remSend == 0 && e.leavesDone
}

func (e *asyncExec[T]) finish() {
	if err := e.leafTail(); err != nil {
		e.fail(err, false)
		return
	}
	for _, cp := range e.p.copies {
		datatype.Copy(e.bufs[1], cp.to, e.bufs[cp.fromBuf], cp.from)
	}
	e.p.countRun()
	e.settle(nil)
}

func (e *asyncExec[T]) fail(err error, fromWaitSet bool) {
	if fromWaitSet {
		err = e.attributeWaitErr(err)
	}
	// abortDrain is idempotent: receives drained by an earlier internal
	// abort are finished, so Cancel/Wait return immediately.
	e.settle(e.abortDrain(err))
}

// settle returns the execution record (shell included) to the plan's
// pool, records the retirement, and completes the future. Locals are
// captured before the release: once the record is back in the pool a
// concurrent Start may reacquire and rewrite this very shell.
func (e *asyncExec[T]) settle(err error) {
	f, p := e.f, e.p
	e.f = nil
	e.bufs[0], e.bufs[1] = nil, nil
	p.releaseRecord(e.st)
	p.countAsyncRetire(f)
	f.complete(err)
}

// countAsyncRetire updates the engine accounting and trace at future
// completion.
func (p *Plan) countAsyncRetire(f *Future) {
	eng := p.comm.eng
	eng.inflight.Add(-1)
	lat := time.Now().UnixNano() - f.commitNs
	if m := p.cmet; m != nil {
		m.futureNs.Observe(lat)
	}
	mc := p.comm.comm
	mc.World().Flight().Record(mc.WorldRank(mc.Rank()), trace.FlightFutureRetire, -1, 0, lat, int64(f.seq))
}

// Start commits a nonblocking execution of the plan to the communicator's
// progress engine and returns its future. The caller must not touch send
// or recv until Wait returns. Concurrent executions of one plan are
// allowed (each runs on a pooled execution record under a private tag
// block), but a plan with futures in flight must not be Run synchronously,
// and all ranks must start collectives on one communicator in the same order —
// the commit sequence is what keeps their tag blocks aligned (the
// ordering MPI requires of nonblocking collectives).
//
// Start is only available in wall-clock runs: under a virtual-time cost
// model the rank's clock is owned by its goroutine, and overlapping
// communication with the caller's progress has no defined virtual
// semantics (MPI libraries face the same progress-modeling question).
func Start[T any](p *Plan, send, recv []T) (*Future, error) {
	if p.alt != nil {
		p = p.choose(elemBytesOf[T]())
	}
	if p.comm.comm.Model() != nil {
		return nil, fmt.Errorf("cart: Start requires a wall-clock run (no cost model)")
	}
	if err := p.checkBuffers(len(send), len(recv)); err != nil {
		return nil, err
	}
	if len(p.flat) >= 1<<ownerShift {
		return nil, fmt.Errorf("cart: Start: plan has %d rounds, engine supports %d", len(p.flat), 1<<ownerShift)
	}
	if !p.asyncTagFits() {
		return nil, fmt.Errorf("cart: Start: plan tag span exceeds the engine's per-future block")
	}
	eng := p.comm.engine()
	if err := eng.crashErr(); err != nil {
		return nil, err
	}
	w := eng.workerFor(p)
	seq := int(eng.nextSeq.Add(1) - 1)

	rec := p.acquireRecord()
	ex, err := shellFor[T](p, rec)
	if err != nil {
		p.releaseRecord(rec)
		return nil, err
	}
	f := &Future{p: p, w: w, seq: seq, commitNs: time.Now().UnixNano()}
	ex.f = f
	ex.rearm(send, recv, w.ws)
	ex.timed = p.cmet != nil
	ex.tagOff = asyncTagBase + seq*asyncTagSpan - tagBase
	slot := w.commitSlot()
	ex.slot = slot
	ex.ownerBase = slot << ownerShift

	n := eng.inflight.Add(1)
	if m := p.cmet; m != nil {
		m.asyncStarts.Inc()
		m.asyncInflight.SetMax(n)
	}
	mc := p.comm.comm
	mc.World().Flight().Record(mc.WorldRank(mc.Rank()), trace.FlightFutureCommit, -1, 0, 0, int64(seq))
	// Inline commit: the first receive window and every barrier-free send
	// post on this goroutine — the messages are on the wire before Start
	// returns, with no scheduler handoff on the critical path. An injected
	// crash at one of these posts unwinds the caller like a synchronous
	// operation would.
	if err := ex.begin(); err != nil {
		ex.fail(err, false)
		w.settleSlot(slot)
		return nil, err
	}
	if ex.done() {
		// Nothing outstanding (empty neighborhood): complete inline.
		ex.finish()
		w.settleSlot(slot)
		return f, nil
	}
	w.register(ex)
	return f, nil
}

// IcartAlltoall starts the nonblocking regular Cartesian alltoall: block
// i of m = len(send)/t elements goes to target neighbor i, block i of
// recv arrives from source neighbor i. The plan comes from the
// communicator's cache (so repeated calls commit without compiling) and
// runs on the progress engine; complete it with the future's Wait.
func IcartAlltoall[T any](c *Comm, send, recv []T) (*Future, error) {
	t := len(c.nbh)
	if t == 0 || len(send)%t != 0 {
		return nil, fmt.Errorf("cart: IcartAlltoall send length %d not divisible into %d blocks", len(send), t)
	}
	p, err := c.regularPlan(OpAlltoall, c.algo, len(send)/t)
	if err != nil {
		return nil, err
	}
	return Start(p, send, recv)
}

// IcartAllgather starts the nonblocking regular Cartesian allgather: all
// of send goes to every target neighbor, block i of recv arrives from
// source neighbor i.
func IcartAllgather[T any](c *Comm, send, recv []T) (*Future, error) {
	p, err := c.regularPlan(OpAllgather, c.algo, len(send))
	if err != nil {
		return nil, err
	}
	return Start(p, send, recv)
}
