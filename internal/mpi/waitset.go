package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// WaitSet is a completion set over receives: the engine behind
// Waitsome-style progress without polling, and the completion queue of the
// cart progress engine. A receive added to the set attaches a notification
// to its pending receive (mailbox.attachNotify); the moment a message or
// poison is matched, the matcher posts it to the set's queue — before the
// ready handoff — so a waiter blocks on one wake channel and wakes exactly
// when something completed. Requests that cannot notify (sends, which
// complete at post; nil or finished requests; receives whose match already
// happened) are queued as ready at once. Cancellation counts as
// completion: a receive cancelled after being added (Request.Cancel) posts
// like a match would, and its owner token comes back with the request
// completed as ErrCancelled.
//
// Each added request carries a caller-chosen, non-negative owner token,
// and the set returns owner tokens: the schedule executor passes round
// indices. Two kinds of caller share it:
//
//   - a single owner adds and calls Waitsome (a Run executor, the
//     point-to-point benchmark), resetting the set between executions;
//   - a progress engine adds from any goroutine that owns the request being
//     added, concurrently with a driver that drains with TryDrain and parks
//     with Park, ParkFor or ParkOr; Post and Wake inject wakeups and Pending
//     is a lock-free probe.
//
// The queue is unbounded — the construction capacity is a hint — and the
// wake channel is a level trigger (capacity 1): a waiter that drains the
// queue may see one spurious wake afterwards and must re-check. Positions
// of consumed notifications are recycled, so a long-lived set does not
// grow with the number of executions driven through it, and Reset
// reclaims it without allocating.
type WaitSet struct {
	c    *Comm
	wake chan struct{}
	// pend mirrors len(queue) (written under mu): pollers peek it with one
	// atomic load instead of taking the lock to discover emptiness.
	pend atomic.Int32

	// mu guards the queue and the position tables. The queue holds
	// positions (≥ 0) of attached receives and raw tokens encoded as
	// -1-token (Post, gated groups, immediately ready requests). pends[i]
	// is the i-th attached receive, nil once its notification was drained;
	// pendOwner aligns with it, and freePos recycles drained positions so
	// the tables stay sized to the in-flight high-water mark.
	mu          sync.Mutex
	queue       []int
	pends       []*pendingRecv
	pendOwner   []int
	freePos     []int
	outstanding int // attached receives whose notification is not drained

	// scratch is Waitsome's result buffer; timer is the watchdog timer of
	// Waitsome and Park, re-armed per blocking wait.
	scratch []int
	timer   *time.Timer
}

// NewWaitSet creates a set; capacity pre-sizes the completion queue for the
// expected number of in-flight receives (a hint — the set grows as needed).
func NewWaitSet(c *Comm, capacity int) *WaitSet {
	if capacity < 1 {
		capacity = 1
	}
	return &WaitSet{c: c, queue: make([]int, 0, capacity), wake: make(chan struct{}, 1)}
}

// post queues one completion (a position or an encoded token) and wakes
// the waiter. Safe from any goroutine; never blocks.
func (s *WaitSet) post(v int) {
	s.mu.Lock()
	s.queue = append(s.queue, v)
	s.pend.Store(int32(len(s.queue)))
	s.mu.Unlock()
	s.Wake()
}

func checkToken(token int) {
	if token < 0 {
		panic(fmt.Sprintf("mpi: WaitSet token %d is negative", token))
	}
}

// Reset prepares a single-owner set for reuse. Notifications still queued
// from an abandoned execution are dropped; the caller must have completed
// (Wait) or cancelled every previously added receive first, so no late
// post can arrive afterwards — a Wait that returned implies its
// notification was already queued, and a successful Cancel means the
// canceller posted before Cancel returned.
func (s *WaitSet) Reset() {
	s.mu.Lock()
	s.queue = s.queue[:0]
	s.pend.Store(0)
	s.pends = s.pends[:0]
	s.pendOwner = s.pendOwner[:0]
	s.freePos = s.freePos[:0]
	s.outstanding = 0
	s.mu.Unlock()
	select {
	case <-s.wake:
	default:
	}
}

// Add registers a request under the given owner token. A receive attaches
// a notification, or is queued as ready if its match already happened;
// nil and finished requests and sends are queued as ready at once. An
// unfinished aggregate is a caller bug: add its receives one by one. Safe
// to call from the goroutine that posted the request, concurrently with
// matchers and with other goroutines adding their own requests.
func (s *WaitSet) Add(r *Request, owner int) {
	checkToken(owner)
	switch {
	case r == nil || r.finished || r.kind == reqSend:
		s.post(-1 - owner)
		return
	case r.kind == reqAggregate:
		panic("mpi: WaitSet.Add of an unfinished aggregate request")
	}
	// Record the position before attaching: the match may post it at once,
	// and a concurrent drain must find its owner.
	s.mu.Lock()
	var pos int
	if n := len(s.freePos); n > 0 {
		pos = s.freePos[n-1]
		s.freePos = s.freePos[:n-1]
		s.pends[pos], s.pendOwner[pos] = r.pending, owner
	} else {
		pos = len(s.pends)
		s.pends = append(s.pends, r.pending)
		s.pendOwner = append(s.pendOwner, owner)
	}
	s.outstanding++
	s.mu.Unlock()
	if !r.c.rs.box.attachNotify(r.pending, s, pos, nil) {
		s.post(pos)
	}
}

// AddGated registers a receive's completion under a shared countdown gate:
// every constituent receive completion (cancellation included) decrements
// the gate, and only the completion that brings it to zero posts the token
// — one notification for a whole group of receives whose individual
// completions carry no scheduling information (the progress engine's leaf
// rounds). Constituents that already completed are decremented here. The
// caller seeds the gate with a positive bias before the first AddGated and
// drops the bias after the last, so the gate cannot reach zero while the
// group is still being attached; sends and nil/finished requests
// contribute nothing. Gated receives are not counted by Waitsome.
func (s *WaitSet) AddGated(r *Request, token int, gate *atomic.Int32) {
	checkToken(token)
	if r == nil || r.finished || r.kind != reqRecv {
		return
	}
	gate.Add(1)
	if !r.c.rs.box.attachNotify(r.pending, s, -1-token, gate) && gate.Add(-1) == 0 {
		s.post(-1 - token)
	}
}

// Post injects a token from any goroutine: the next drain returns it.
// Progress engines use it to wake a parked driver when new work is
// committed or a cancel is requested.
func (s *WaitSet) Post(token int) {
	checkToken(token)
	s.post(-1 - token)
}

// Wake sets the level-triggered wake slot without queueing a token. A
// parker that consumed a wake but could not drain the queue (the driver
// lock was busy) hands the wake back with this, preserving the invariant
// that a non-empty queue always has a wake pending.
func (s *WaitSet) Wake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Pending peeks the queue length without the lock — a poller's cheap
// emptiness probe between yields. A raced post may be missed for one
// probe; the wake level still guards against losing it across a park.
func (s *WaitSet) Pending() int { return int(s.pend.Load()) }

// TryDrain appends the owner token of every queued completion to buf
// without blocking and returns the extended slice, freeing the drained
// positions. One consumer at a time (the set's owner, or the holder of
// the engine's drive lock).
func (s *WaitSet) TryDrain(buf []int) []int {
	s.mu.Lock()
	for _, v := range s.queue {
		if v < 0 {
			buf = append(buf, -1-v)
			continue
		}
		buf = append(buf, s.pendOwner[v])
		s.pends[v] = nil
		s.freePos = append(s.freePos, v)
		s.outstanding--
	}
	s.queue = s.queue[:0]
	s.pend.Store(0)
	s.mu.Unlock()
	return buf
}

// Waitsome blocks until at least one added request has completed and
// returns the owner tokens of everything complete so far, like a
// completion-channel MPI_Waitsome — no polling, no backoff. A (nil, nil)
// return means nothing is outstanding. Blocking waits register with the
// wait-for-graph deadlock monitor under kind "waitsome" and honor the
// run's abort channel and fallback timer exactly like a blocking receive;
// completions that raced an abort or a timeout win over the error.
// Single-owner; the returned slice is reused by the next call.
func (s *WaitSet) Waitsome() ([]int, error) {
	s.scratch = s.TryDrain(s.scratch[:0])
	if len(s.scratch) > 0 {
		return s.scratch, nil
	}
	if s.outstanding == 0 {
		return nil, nil
	}
	w := s.c.w
	rs := s.c.rs
	defer s.blockEnd(s.blockStart())
	if w.monitoring {
		// A fresh slice per registration: the deadlock monitor reads the
		// blockedOp snapshot concurrently, possibly after this rank has
		// moved on to the next Waitsome, so the backing array must not be
		// reused.
		watch := make([]*pendingRecv, 0, s.outstanding)
		for _, p := range s.pends {
			if p != nil {
				watch = append(watch, p)
			}
		}
		w.setBlocked(rs.rank, &blockedOp{kind: "waitsome", since: time.Now(), pendings: watch})
		defer w.clearBlocked(rs.rank)
	}
	timeoutCh := s.armTimeout()
	defer s.disarmTimeout()
	for {
		res := s.park(nil, timeoutCh)
		s.scratch = s.TryDrain(s.scratch[:0])
		if len(s.scratch) > 0 {
			return s.scratch, nil
		}
		switch res {
		case parkAborted:
			return nil, s.abortErr(fmt.Sprintf("waitsome (%d receive(s) pending)", s.outstanding))
		case parkTimedOut:
			err := fmt.Errorf("mpi: rank %d: deadlock suspected: waitsome over %d receive(s) blocked for %v",
				s.c.rank, s.outstanding, w.timeout)
			w.fail(err)
			return nil, err
		}
		// Spurious wake: the level-triggered wake slot outlived a drain.
	}
}

// parkResult is what ended a park.
type parkResult uint8

const (
	parkWoke parkResult = iota
	parkDone
	parkAborted
	parkTimedOut
)

// park is the set's one blocking select: it returns when the wake level is
// consumed, done closes, the run aborts, or timeout fires (nil channels
// never fire).
func (s *WaitSet) park(done <-chan struct{}, timeout <-chan time.Time) parkResult {
	select {
	case <-s.wake:
		return parkWoke
	case <-done:
		return parkDone
	case <-s.c.w.abort:
		return parkAborted
	case <-timeout:
		return parkTimedOut
	}
}

// abortErr is the error of a park the run's abort released, carrying the
// recorded primary failure (as in awaitMessage) so the cascade error names
// why the run died.
func (s *WaitSet) abortErr(where string) error {
	if cause := s.c.w.abortCause(); cause != nil {
		return fmt.Errorf("mpi: rank %d: %w in %s: %w", s.c.rank, ErrAborted, where, cause)
	}
	return fmt.Errorf("mpi: rank %d: %w in %s", s.c.rank, ErrAborted, where)
}

// blockStart counts one wait that blocks on receives, when metrics are
// attached (as in awaitMessage), and returns its start time for blockEnd
// (zero when not counted).
func (s *WaitSet) blockStart() time.Time {
	if met := s.c.rs.met; met != nil {
		met.waitBlocks.Inc()
		return time.Now()
	}
	return time.Time{}
}

// blockEnd records how long a wait counted by blockStart blocked.
func (s *WaitSet) blockEnd(t0 time.Time) {
	if !t0.IsZero() {
		s.c.rs.met.waitBlockedNs.Add(time.Since(t0).Nanoseconds())
	}
}

// armTimeout returns the set's fallback-watchdog timer channel (nil when
// the timeout is disabled). Go 1.23 timer semantics make Reset-after-fire
// safe without draining.
func (s *WaitSet) armTimeout() <-chan time.Time {
	d := s.c.w.timeout
	if d <= 0 {
		return nil
	}
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	return s.timer.C
}

func (s *WaitSet) disarmTimeout() {
	if s.timer != nil {
		s.timer.Stop()
	}
}

// Park blocks, with receives in flight, until a token is posted, the run
// aborts, or the fallback watchdog fires; it counts as a blocked wait. It
// consumes the wake without draining the queue: the caller drives
// afterwards (or hands the wake back with Wake). A timedOut return is a
// report, not a failure — the caller decides between re-arming (progress
// was made elsewhere) and declaring Deadlock. May return spuriously; the
// caller's next drain finding nothing is the re-check. An idle driver
// parks with ParkFor instead (idle is not deadlock).
func (s *WaitSet) Park() (timedOut bool, err error) {
	defer s.blockEnd(s.blockStart())
	timeoutCh := s.armTimeout()
	defer s.disarmTimeout()
	return s.engineOutcome(s.park(nil, timeoutCh))
}

// ParkFor blocks until a token is posted, the run aborts, or d elapses —
// the idle-linger park of a resident driver with nothing in flight,
// staying alive briefly for the next commit before exiting. No watchdog
// semantics and no blocked-wait metric (idle is not a communication
// wait); the fixed-duration timer is pooled, so it does not disturb an
// armed watchdog.
func (s *WaitSet) ParkFor(d time.Duration) (timedOut bool, err error) {
	t := getParkTimer(d)
	defer putParkTimer(t)
	return s.engineOutcome(s.park(nil, t.C))
}

// engineOutcome maps an engine park's outcome to (timedOut, err).
func (s *WaitSet) engineOutcome(res parkResult) (timedOut bool, err error) {
	switch res {
	case parkAborted:
		return false, s.abortErr("progress engine")
	case parkTimedOut:
		return true, nil
	}
	return false, nil
}

// ParkOr is the waiter-side park: block until a token is posted (woke),
// done is closed, the run aborts, or the caller's watchdog timer (from
// AcquireParkTimer; nil for none) fires. A woke return consumed the wake
// — the caller must either drain the queue or hand the wake back with
// Wake. A timedOut return consumed the timer fire — re-arm with
// RearmParkTimer before parking again.
func (s *WaitSet) ParkOr(done <-chan struct{}, timeoutCh <-chan time.Time) (woke, timedOut bool, err error) {
	defer s.blockEnd(s.blockStart())
	res := s.park(done, timeoutCh)
	timedOut, err = s.engineOutcome(res)
	return res == parkWoke, timedOut, err
}

// parkTimers pools the per-call timers of ParkOr and ParkFor: waiters
// park a few times per operation, and with Go 1.23+ timer semantics a
// stopped timer can be Reset and reused without draining, so a pooled
// timer makes a park allocation-free.
var parkTimers sync.Pool

func getParkTimer(d time.Duration) *time.Timer {
	if t, ok := parkTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putParkTimer(t *time.Timer) {
	t.Stop()
	parkTimers.Put(t)
}

// AcquireParkTimer hands a waiter its watchdog timer for a whole sequence
// of ParkOr calls: acquired once per Wait, reused across its parks, so a
// park costs no timer start/stop. Returns nils when the world runs
// without a timeout. The timer runs across parks — a fire after the
// caller's deadlock check found progress is re-armed with
// RearmParkTimer, so "no progress for a full timeout" is still what
// trips the watchdog. Concurrent waiters each acquire their own.
func (s *WaitSet) AcquireParkTimer() (*time.Timer, <-chan time.Time) {
	if d := s.c.w.timeout; d > 0 {
		t := getParkTimer(d)
		return t, t.C
	}
	return nil, nil
}

// ReleaseParkTimer returns a waiter's watchdog timer to the pool.
func (s *WaitSet) ReleaseParkTimer(t *time.Timer) {
	if t != nil {
		putParkTimer(t)
	}
}

// RearmParkTimer restarts a fired watchdog timer after the caller
// handled a timedOut park (its channel is drained — Reset is safe).
func (s *WaitSet) RearmParkTimer(t *time.Timer) {
	if t != nil {
		t.Reset(s.c.w.timeout)
	}
}

// Deadlock records the watchdog failure for an engine that saw no
// progress across a full timeout with n execution(s) in flight, failing
// the run like a blocked Waitsome would, and returns the error.
func (s *WaitSet) Deadlock(n int) error {
	err := fmt.Errorf("mpi: rank %d: deadlock suspected: progress engine over %d execution(s) blocked for %v",
		s.c.rank, n, s.c.w.timeout)
	s.c.w.fail(err)
	return err
}
