package cart

import (
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/mpi"
)

// The per-world progress engine behind Start/IcartAlltoall/IcartAllgather.
// The hot path is inline: Start posts the execution's first receive window
// and its barrier-free sends on the caller's goroutine — the messages are
// on the wire before Start returns, with no scheduler handoff on the
// critical path — and attaches the receives to the worker's completion set
// (mpi.WaitSet, the same type Run's arrival-order executor waits on, here
// shared between the committing goroutine and the driver). Progress from
// there on is driven by whoever holds the worker's drive lock:
//
//   - a resident worker goroutine parks on the set and drives completion
//     batches while the caller computes (the overlap Start exists for);
//   - Future.Wait helps: a waiter that can take the drive lock drives
//     batches itself, so a commit-then-wait cycle completes without ever
//     switching goroutines, and the latency of an async collective tracks
//     the synchronous executor's.
//
// Multiple collectives on one communicator interleave: each committed
// execution gets a disjoint tag block (future sequence × asyncTagSpan), so
// concurrent executions — even of the same plan — never match each
// other's messages, and one drive batch drains completions of all of them.
// Thousands of worlds run engines independently: all engine state hangs
// off the communicator, there is no global lock, and an idle engine has no
// goroutine at all — workers exit when their last future retires and
// respawn on the next commit, so idle tenants cost two empty structs.
//
// Fairness: a drive batch processes completion events in arrival order and
// refills each touched execution's window once per batch, so a large
// collective cannot monopolize a batch; executions of one plan are pinned
// to one worker (plan records stay on one drive lock), different plans
// spread round-robin across the pool.
//
// Failure: an abort fails every in-flight future of the worker with the
// executor's typed, attributed error; an epoch bump or peer crash poisons
// the engine's posted receives exactly as it poisons synchronous ones
// (same context, same epoch floor), so in-flight futures fail with the
// same typed errors — they never deadlock. The watchdog is engine-side: a
// parked resident whose timeout fires with no progress since it parked
// declares deadlock; one that merely parked through other goroutines'
// progress re-arms.
const (
	// asyncTagBase offsets engine-execution tags above the synchronous
	// executors' round-tag plane (dag.go's tagBase) and user tag space.
	// The async tag plane needs int to hold values ≥ 2^32 (tags thread
	// through the mailbox as int), so the progress engine requires a
	// 64-bit platform; the typed declaration turns what would be a
	// scatter of untyped-constant overflow errors on GOARCH=386/arm into
	// one named compile-time failure at this line.
	asyncTagBase int = 1 << 32
	// asyncTagSpan is the tag block one committed execution owns: round
	// tags live in [tagBase, tagBase+asyncTagSpan) (guarded at Start), so
	// execution seq maps them to a disjoint block.
	asyncTagSpan = 1 << 22
	// ownerShift packs a worker-local slot id above the flat round index
	// in completion tokens; plans are bounded to 1<<ownerShift rounds at
	// Start.
	ownerShift = 20
	ownerMask  = 1<<ownerShift - 1
	// wakeToken is the token the commit and crash paths post to unpark a
	// driver; slot ids start at 1 so no completion token collides.
	wakeToken = 0
	// asyncWorkers is the per-engine worker pool size.
	asyncWorkers = 2
)

// asyncIdleLinger is how long an idle resident parks for the next commit
// before exiting: long enough that a steady Start/Wait stream reuses one
// goroutine instead of respawning per operation, short enough that an
// idle tenant sheds its goroutine promptly after its last future retires.
const asyncIdleLinger = time.Millisecond

// committed is one schedule execution the engine owns, from registration
// to retirement. The concrete type is asyncExec[T] (future.go), which has
// already posted its first window inline at Start; the interface erases T
// so a driver can interleave executions of different element types.
type committed interface {
	// slotID returns the worker slot reserved for this execution at
	// commit.
	slotID() int
	// onArrived marks flat round i's receive complete and retires what
	// the DAG allows.
	onArrived(i int) error
	// advance refills the receive window and posts newly-ready sends
	// after a batch of arrivals.
	advance() error
	// done reports whether every receive retired and every send posted.
	done() bool
	// finish runs the local copies and completes the future successfully.
	finish()
	// fail drains posted receives and completes the future with err;
	// fromWaitSet attributes a set-level error to the earliest in-flight
	// round first.
	fail(err error, fromWaitSet bool)
}

// engine is a communicator's progress engine. Created lazily at the first
// Start; commit-side state (nextSeq, nextWkr) is touched only by the
// communicator's owning goroutine, like every other cart operation.
type engine struct {
	c *Comm
	// nextSeq is the next future sequence (also the tag-block index).
	// Commits allocate from one goroutine; it is atomic only so debug
	// snapshots can read it from foreign goroutines without a race.
	nextSeq atomic.Int64
	nextWkr int
	// inflight counts committed, unretired futures across the pool; the
	// peak feeds the cart.async.inflight gauge.
	inflight atomic.Int64
	// crashed holds the typed error of this rank's injected crash once one
	// fires on an engine goroutine: a crashed rank's engine is dead — every
	// worker loop (including ones spawned by later commits) fails its work
	// and exits instead of posting operations on a dead rank's behalf.
	crashed atomic.Value // error
	workers [asyncWorkers]*engineWorker
}

func (e *engine) setCrashed(err error) { e.crashed.Store(err) }

// crashErr returns the rank's injected-crash error, nil while alive.
func (e *engine) crashErr() error {
	if v := e.crashed.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// wakeOthers nudges every other worker after a crash so parked siblings
// observe the engine's death instead of waiting out the watchdog.
func (e *engine) wakeOthers(self *engineWorker) {
	for _, w := range e.workers {
		if w != self {
			w.wake()
		}
	}
}

func newEngine(c *Comm) *engine {
	e := &engine{c: c}
	for i := range e.workers {
		e.workers[i] = &engineWorker{
			eng:      e,
			ws:       mpi.NewWaitSet(c.comm, 8),
			nextSlot: 1,
		}
	}
	return e
}

// engine returns the communicator's progress engine, creating it on first
// use. Caller-goroutine only.
func (c *Comm) engine() *engine {
	if c.eng == nil {
		c.eng = newEngine(c)
	}
	return c.eng
}

// workerFor pins a plan to a worker: all executions of one plan share its
// record pool, so they stay under one drive lock; distinct plans
// round-robin across the pool. The pinning lives on the plan itself
// (commit-side, single-goroutine like nextWkr), so the steady-state Start
// path costs a field read where it used to cost a map lookup — the last
// per-execution map in the drive loop's bookkeeping.
func (e *engine) workerFor(p *Plan) *engineWorker {
	if p.engWkr == 0 {
		p.engWkr = e.nextWkr%asyncWorkers + 1
		e.nextWkr++
	}
	return e.workers[p.engWkr-1]
}

// engineWorker drives the committed executions assigned to it. Commits are
// inline (Start posts on the caller and registers the begun execution
// here); the driver role — admitting registrations, delivering completion
// tokens, advancing executions — is serialized by driveMu and taken by
// whoever can: the resident loop goroutine (at most one runs per worker,
// the running flag under mu) or a Future.Wait helping out. The resident
// exits when its last execution retires with nothing queued, so an idle
// world carries no goroutine.
type engineWorker struct {
	eng *engine
	ws  *mpi.WaitSet

	// waiters counts Future.Wait calls currently helping on this worker.
	// While any are present the waiters own the set: the resident stays
	// off it (a linger-granularity doze instead of a set park), so
	// completion wakes reach the goroutine that will consume the result —
	// no final-handoff context switch, and no per-operation resident
	// scheduling, on the Wait path.
	waiters atomic.Int32

	// mu guards the commit side: the registration queue, the resident
	// liveness flag, slot reservation, and the committedTo watermark.
	mu       sync.Mutex
	pending  []committed // begun inline, not yet admitted by a driver
	running  bool
	nextSlot int // next slot id to reserve (slot order == commit order)
	// pendingN mirrors len(pending) and ctA mirrors committedTo (both
	// written under mu): the drive-side admit reads them lock-free on its
	// empty fast path, so a batch with no fresh commits — every batch of a
	// steady Start/Wait cycle but the first — skips the commit mutex. A
	// stale ctA only widens the orphan-stash window; orphans are
	// re-delivered by the next batch regardless.
	pendingN atomic.Int32
	ctA      atomic.Int64
	// committedTo is the highest slot id whose commit has concluded —
	// registered in pending, or settled inline (begin failed / nothing to
	// do). Completion tokens for slots above it belong to a commit still
	// in the caller's hands (between attach and register) and are stashed
	// as orphans; tokens at or below it for slots missing from the table
	// are stale (the execution already settled) and are dropped.
	committedTo int

	// driveMu serializes the driver role. Everything below it is
	// driver-only state.
	driveMu  sync.Mutex
	slots    []slotEnt // dense, unordered; linear scan beats hashing at in-flight sizes
	orphans  []int     // completion tokens awaiting their slot's registration
	orphScr  []int
	admitScr []committed
	inbox    []int
	touched  []int
	// progress counts admissions, deliveries and retirements; the
	// resident compares it across a watchdog timeout to distinguish a
	// stalled engine (deadlock) from one whose work was driven by helpers
	// while it parked.
	progress uint64
}

// slotEnt is one live execution in a worker's slot table. touched marks
// the slot as already queued for this batch's advance pass, so deliver
// dedups with a flag write instead of scanning the touched list per token
// — with a deep window, one execution's tokens dominate a batch and the
// scan was quadratic in batch size.
type slotEnt struct {
	id      int
	ex      committed
	touched bool
}

// findSlotIdx resolves a slot id to its table index, -1 when settled.
func (w *engineWorker) findSlotIdx(id int) int {
	for j := range w.slots {
		if w.slots[j].id == id {
			return j
		}
	}
	return -1
}

// dropSlot swap-removes a slot table entry.
func (w *engineWorker) dropSlot(id int) {
	for j := range w.slots {
		if w.slots[j].id == id {
			last := len(w.slots) - 1
			w.slots[j] = w.slots[last]
			w.slots[last] = slotEnt{}
			w.slots = w.slots[:last]
			return
		}
	}
}

// commitSlot reserves the next slot id for an inline commit. The single
// committer (the communicator's owning goroutine) reserves and registers
// in Start order, so slot order equals registration order — the invariant
// behind the orphan-token classification. nextSlot is touched by that one
// goroutine only, so reservation needs no lock.
func (w *engineWorker) commitSlot() int {
	slot := w.nextSlot
	w.nextSlot++
	return slot
}

// register hands a begun execution to the driver side, spawning a
// resident if none is live. A live resident is deliberately NOT woken:
// the execution's first window and barrier-free sends are already on the
// wire (begin ran inline), so nothing is urgent — the pending entry is
// admitted by the next drive batch, which the execution's own completion
// tokens, a waiter, or the resident's linger tick (≤1ms away) trigger.
// Keeping the commit quiet is what keeps the resident unscheduled on the
// Start/Wait hot path.
func (w *engineWorker) register(ex committed) {
	w.mu.Lock()
	// Direct admission: if no driver holds the drive lock right now, the
	// committer installs the execution in the slot table itself — no
	// pending-queue round trip, and the next drive batch keeps its
	// lock-free empty-admit fast path. TryLock under mu is safe (it never
	// blocks, so the mu→driveMu order cannot deadlock with drivers taking
	// mu under driveMu).
	direct := w.driveMu.TryLock()
	if !direct {
		// A driver may be mid-batch: publish the pending entry (and
		// pendingN) BEFORE bumping the ctA watermark, mirrored by admit()'s
		// fast path loading ctA before pendingN. A driver that observes
		// pendingN == 0 is then guaranteed a ctA snapshot predating this
		// registration, so this execution's completion tokens classify as
		// orphans (stashed, redelivered next batch) — never as stale
		// (dropped), which would lose the completion for good.
		w.pending = append(w.pending, ex)
		w.pendingN.Store(int32(len(w.pending)))
	}
	w.committedTo = ex.slotID()
	w.ctA.Store(int64(w.committedTo))
	spawn := !w.running
	w.running = true
	w.mu.Unlock()
	if direct {
		w.slots = append(w.slots, slotEnt{id: ex.slotID(), ex: ex})
		w.progress++
		w.driveMu.Unlock()
	}
	if spawn {
		go w.loop()
	}
}

// settleSlot concludes a commit that never registered: the execution
// settled inline (begin failed, or the plan had nothing to do). The
// watermark bump reclassifies any tokens its drained receives posted from
// orphans to stale, and the wake lets a parked resident drop them.
func (w *engineWorker) settleSlot(slot int) {
	w.mu.Lock()
	w.committedTo = slot
	w.ctA.Store(int64(slot))
	w.mu.Unlock()
	w.ws.Post(wakeToken)
}

// wake nudges the resident (a sibling's crash). A stale token to an exited
// worker is drained and skipped by the next incarnation.
func (w *engineWorker) wake() {
	w.mu.Lock()
	running := w.running
	w.mu.Unlock()
	if running {
		w.ws.Post(wakeToken)
	}
}

// loop is the resident driver: drive a batch, park on the set, repeat;
// exit when idle. An injected rank crash unwinds whatever posting path
// triggered it as a panic (the simulated process death); when that path is
// the resident's, the recovery converts it into typed failures of the
// worker's in-flight futures — driveMu is released by the deferred unlock
// on the way up, so the recovery can retake it and sees consistent state.
func (w *engineWorker) loop() {
	defer func() {
		if r := recover(); r != nil {
			err := w.eng.c.comm.RecoverCrash(r)
			if err == nil {
				panic(r)
			}
			w.eng.setCrashed(err)
			w.crashExit(err)
			w.eng.wakeOthers(w)
		}
	}()
	stole := false // last set park may have consumed a wake level
	for {
		if err := w.eng.crashErr(); err != nil {
			w.crashExit(err)
			return
		}
		if w.waiters.Load() > 0 {
			// A waiter is driving; it owns the set, liveness and failure
			// delivery. If this goroutine's last set park consumed a
			// completion wake the waiter needs (both were parked when the
			// waiter arrived), hand the level back — exactly once, not per
			// doze tick: a perpetual handback would re-wake the waiter's
			// park every tick and mask its watchdog timeout, disabling
			// deadlock detection. No handback signal exists in the other
			// direction, so leaving waiters cost nothing; the resident
			// re-takes the set within one doze tick of the last exit.
			if stole {
				w.ws.Wake()
				stole = false
			}
			time.Sleep(asyncIdleLinger)
			continue
		}
		arm, prog := w.residentBatch()
		if !arm {
			// Idle: linger briefly for the next commit, then exit.
			timedOut, err := w.ws.ParkFor(asyncIdleLinger)
			if err != nil {
				w.abortAll(err)
				if w.tryExit() {
					return
				}
				continue
			}
			stole = !timedOut
			if timedOut && w.tryExit() {
				return
			}
			continue
		}
		timedOut, err := w.ws.Park()
		if err != nil {
			w.abortAll(err)
			if w.tryExit() {
				return
			}
			continue
		}
		stole = !timedOut
		if timedOut {
			w.watchdog(prog)
		}
	}
}

// residentBatch drives one batch and snapshots the park decision inputs:
// whether work is in flight (arm the watchdog) and the progress counter
// to compare against after a timeout.
func (w *engineWorker) residentBatch() (arm bool, prog uint64) {
	w.driveMu.Lock()
	defer w.driveMu.Unlock()
	w.drive()
	arm = len(w.slots) > 0 || len(w.orphans) > 0
	prog = w.progress
	return arm, prog
}

// abortAll fails the worker's work after an abort-level Park error. One
// more drive first: completions that raced the abort carry typed poisons,
// which beat the generic cascade error.
func (w *engineWorker) abortAll(err error) {
	w.driveMu.Lock()
	defer w.driveMu.Unlock()
	w.drive()
	w.failAll(err)
}

// watchdog handles a Park timeout: progress since the resident parked
// means helpers (or a raced batch) moved the engine — re-arm and park
// again; no progress with work in flight is a deadlock.
func (w *engineWorker) watchdog(parkedAt uint64) {
	w.driveMu.Lock()
	defer w.driveMu.Unlock()
	if w.progress != parkedAt || len(w.slots)+len(w.orphans) == 0 {
		return
	}
	err := w.ws.Deadlock(len(w.slots))
	w.failAll(err)
}

// crashExit fails everything the worker owns after an injected crash of
// its rank and retires the loop. Draining posts no further operations
// (Cancel and Wait are not op boundaries), so the dead rank's fault
// trigger cannot re-fire.
func (w *engineWorker) crashExit(err error) {
	w.driveMu.Lock()
	w.failAll(err)
	w.orphans = w.orphans[:0]
	w.driveMu.Unlock()
	for {
		w.mu.Lock()
		w.admitScr = append(w.admitScr[:0], w.pending...)
		clear(w.pending)
		w.pending = w.pending[:0]
		w.pendingN.Store(0)
		done := len(w.admitScr) == 0
		if done {
			w.running = false
		}
		w.mu.Unlock()
		if done {
			return
		}
		for _, ex := range w.admitScr {
			ex.fail(err, false)
		}
	}
}

// helpDrive is the waiter-side entry: drive one batch under the already
// TryLock-ed drive lock and snapshot the progress counter for the
// waiter's watchdog. Never called on a crashed engine (the caller
// checks); the deferred unlock releases the lock even when an injected
// crash unwinds a posting path.
func (w *engineWorker) helpDrive() (prog uint64) {
	defer w.driveMu.Unlock()
	w.drive()
	return w.progress
}

// drive runs one progress batch under driveMu: admit registrations,
// deliver stashed orphans plus everything queued on the set, then advance
// each touched execution once — window refill and newly-ready sends — so
// progress per batch is bounded per execution and arrival order decides
// service order.
func (w *engineWorker) drive() {
	ct := w.admit()
	w.touched = w.touched[:0]
	if len(w.orphans) > 0 {
		w.orphScr = append(w.orphScr[:0], w.orphans...)
		w.orphans = w.orphans[:0]
		for _, tok := range w.orphScr {
			w.deliver(tok, ct)
		}
	}
	// Drain-deliver-advance until the set is momentarily dry: tokens
	// posted while a batch advances (peers matching this execution's
	// receives during its own copies) are served in the same batch, like
	// a Waitsome loop that re-drains before it ever parks. Each pass
	// advances a touched execution at most once, so fairness per pass is
	// preserved, and every pass consumes tokens the previous one could
	// not have seen, so the loop terminates with the in-flight work.
	for {
		w.inbox = w.ws.TryDrain(w.inbox[:0])
		if len(w.inbox) == 0 && len(w.touched) == 0 {
			return
		}
		for _, tok := range w.inbox {
			w.deliver(tok, ct)
		}
		for _, slot := range w.touched {
			j := w.findSlotIdx(slot)
			if j < 0 {
				continue
			}
			w.slots[j].touched = false
			ex := w.slots[j].ex
			if err := ex.advance(); err != nil {
				w.retire(slot, ex, err, false)
				continue
			}
			if ex.done() {
				w.retire(slot, ex, nil, false)
			}
		}
		w.touched = w.touched[:0]
	}
}

// admit installs registered executions in the slot table and returns the
// committedTo watermark for this batch's token classification. Their
// first window was posted inline at commit.
func (w *engineWorker) admit() int {
	// Load ctA BEFORE pendingN (register stores them in the opposite
	// order): pendingN == 0 then proves the ctA snapshot predates any
	// registration not yet visible here, so tokens of such a registration
	// stay above the watermark and stash as orphans. The reverse order
	// could pair a fresh watermark with an unadmitted slot and drop its
	// tokens as stale. A stale ctA is safe — it only widens the orphan
	// window by one batch.
	ct := int(w.ctA.Load())
	if w.pendingN.Load() == 0 {
		// Nothing registered since the last batch: skip the commit mutex.
		return ct
	}
	w.mu.Lock()
	w.admitScr = append(w.admitScr[:0], w.pending...)
	clear(w.pending)
	w.pending = w.pending[:0]
	w.pendingN.Store(0)
	ct = w.committedTo
	w.mu.Unlock()
	for _, ex := range w.admitScr {
		w.slots = append(w.slots, slotEnt{id: ex.slotID(), ex: ex})
		w.progress++
	}
	return ct
}

// deliver routes one completion token: arrivals mark their round and
// retire what the DAG allows; tokens for slots not yet registered are
// stashed as orphans, tokens for settled slots are dropped.
func (w *engineWorker) deliver(tok, committedTo int) {
	if tok == wakeToken {
		return
	}
	slot, i := tok>>ownerShift, tok&ownerMask
	j := w.findSlotIdx(slot)
	if j < 0 {
		if slot > committedTo {
			// Posted between an inline begin and its register; the commit
			// concludes momentarily and the next batch finds the slot.
			w.orphans = append(w.orphans, tok)
		}
		return
	}
	ex := w.slots[j].ex
	w.progress++
	if err := ex.onArrived(i); err != nil {
		w.retire(slot, ex, err, false)
		return
	}
	if !w.slots[j].touched {
		w.slots[j].touched = true
		w.touched = append(w.touched, slot)
	}
}

// tryExit ends the resident when no execution is live and nothing is
// queued. The pending check and the running hand-back share the mutex
// with register, so a commit racing the exit either lands in pending
// (seen by the next drive) or observes running == false and spawns a
// fresh loop. Orphan tokens count as live: their commit is about to
// register.
func (w *engineWorker) tryExit() bool {
	w.driveMu.Lock()
	defer w.driveMu.Unlock()
	if len(w.slots) > 0 || len(w.orphans) > 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) > 0 {
		return false
	}
	w.running = false
	return true
}

// retire removes the execution from the slot table and completes its
// future.
func (w *engineWorker) retire(slot int, ex committed, err error, fromWaitSet bool) {
	w.dropSlot(slot)
	w.progress++
	if err != nil {
		ex.fail(err, fromWaitSet)
	} else {
		ex.finish()
	}
}

// failAll fails every in-flight execution after an engine-level error
// (abort, suspected deadlock, crash): each gets the attributed, typed
// error and its posted receives are drained, so no future is left
// hanging.
func (w *engineWorker) failAll(err error) {
	for len(w.slots) > 0 {
		s := w.slots[len(w.slots)-1]
		w.retire(s.id, s.ex, err, true)
	}
}
