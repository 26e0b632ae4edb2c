package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// notifySink is the completion queue behind a WaitSet: an unbounded
// mutex-guarded token list plus a one-slot wake channel. Matchers (and
// cancel callers) post completion tokens with post, which never blocks —
// the queue grows as needed — so a single sink can multiplex any number of
// in-flight receives: the progress-engine requirement that outgrew the
// fixed-capacity completion channel. The wake channel is a level trigger
// (capacity 1, non-blocking send): a waiter that drains the queue may see
// one spurious wake afterwards and must re-check.
type notifySink struct {
	mu    sync.Mutex
	queue []int
	wake  chan struct{}
	// pend mirrors len(queue) (written under mu): pollers peek it with
	// one atomic load instead of taking the lock to discover emptiness.
	pend atomic.Int32
}

func newNotifySink(capacity int) *notifySink {
	return &notifySink{queue: make([]int, 0, capacity), wake: make(chan struct{}, 1)}
}

// post enqueues one completion token and wakes the waiter. Safe from any
// goroutine; never blocks.
func (s *notifySink) post(tok int) {
	s.mu.Lock()
	s.queue = append(s.queue, tok)
	s.pend.Store(int32(len(s.queue)))
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// WaitSet is a completion multiplexer over requests: the engine behind
// Waitsome-style progress without polling. Receives added to the set attach
// a notification slot to their pending receive (mailbox.attachNotify); the
// moment a message or poison is matched, the matcher posts the slot to the
// set's sink — before the ready handoff — so Waitsome blocks on a single
// wake channel and wakes exactly when something completed. Requests that
// cannot notify (sends, which complete at post; finished requests; receives
// whose match already happened) are reported ready on the next Waitsome
// call. Cancellation counts as completion: a receive cancelled after being
// added (Request.Cancel) posts to the sink like a match would, and its
// owner comes back from Waitsome with the request completed as ErrCancelled
// — a set whose receives were all cancelled drains instead of blocking.
//
// Each added request carries a caller-chosen owner token, and Waitsome
// returns owner tokens: schedule executors pass round indices, Waitany
// passes argument positions, progress engines encode (schedule, round)
// pairs. Owner tokens must be non-negative. A WaitSet is single-goroutine
// (whoever calls Add/Waitsome/Reset); only the sink is written by other
// goroutines.
//
// The sink is unbounded: the construction capacity is a pre-allocation
// hint, not a limit, and positions freed by consumed completions are
// recycled, so a long-lived set (a progress engine's) does not grow with
// the number of collectives driven through it. Reset reclaims the set for
// the next execution without allocating, which keeps repeated plan
// executions allocation-free.
type WaitSet struct {
	c    *Comm
	sink *notifySink

	// pends[i] is the i-th attached pending receive, nil once its
	// notification has been consumed; pendOwner and pendSrc align with it.
	// Notifications carry positions into this slice; freePos recycles
	// consumed positions so the slice stays bounded by the in-flight count.
	pends     []*pendingRecv
	pendOwner []int
	pendSrc   []int
	freePos   []int

	// readyNow holds owners of requests that were already complete when
	// added; scratch is the result buffer returned by Waitsome.
	readyNow []int
	scratch  []int

	// outstanding counts attached notifications not yet consumed.
	outstanding int

	// external marks a set that also receives caller-injected tokens
	// (Notify): Waitsome then blocks even with no receives outstanding —
	// an idle progress engine parking for its next commit — and does not
	// arm the deadlock timer for such pure-external waits (idle is not
	// deadlock).
	external bool

	// monitored selects wait-for-graph deadlock-monitor registration for
	// blocking waits (default true). A progress engine disables it: the
	// monitor has one blocked-op slot per rank, owned by the rank's own
	// goroutine, and an engine blocking concurrently with the rank would
	// clobber it. Engine waits keep the fallback timer as their deadlock
	// defense.
	monitored bool

	// timer is the set's own fallback-watchdog timer. The per-rank
	// blockTimer cannot be shared here: an engine's Waitsome may block
	// concurrently with the rank goroutine's own blocking wait.
	timer *time.Timer
}

// NewWaitSet creates a set; capacity pre-sizes the completion queue for the
// expected number of in-flight receives (a hint — the set grows as needed).
func NewWaitSet(c *Comm, capacity int) *WaitSet {
	if capacity < 1 {
		capacity = 1
	}
	return &WaitSet{c: c, sink: newNotifySink(capacity), monitored: true}
}

// SetMonitored selects whether blocking waits register with the
// wait-for-graph deadlock monitor. Progress engines pass false — see the
// monitored field. Must be called by the set's owner before any Waitsome.
func (s *WaitSet) SetMonitored(on bool) { s.monitored = on }

// AllowExternal marks the set as receiving caller-injected tokens (Notify),
// which makes an empty Waitsome block instead of returning (nil, nil).
// Must be called by the set's owner before any Waitsome.
func (s *WaitSet) AllowExternal() { s.external = true }

// Notify injects a caller-defined completion token from any goroutine: the
// next Waitsome returns it among the ready owners. Progress engines use it
// to wake a parked engine when a new schedule is committed. The token must
// be non-negative (owner tokens and sink positions share the queue;
// external tokens travel bit-complemented).
func (s *WaitSet) Notify(token int) {
	if token < 0 {
		panic(fmt.Sprintf("mpi: WaitSet.Notify token %d is negative", token))
	}
	s.sink.post(^token)
}

// Reset prepares the set for reuse. Notifications still queued from an
// abandoned execution are drained; the caller must have completed (Wait) or
// cancelled every previously added receive first, so no late post can
// arrive afterwards — a Wait that returned implies its notification was
// already queued, and a successful Cancel means the canceller posted before
// Cancel returned.
func (s *WaitSet) Reset() {
	s.sink.mu.Lock()
	s.sink.queue = s.sink.queue[:0]
	s.sink.pend.Store(0)
	s.sink.mu.Unlock()
	select {
	case <-s.sink.wake:
	default:
	}
	s.pends = s.pends[:0]
	s.pendOwner = s.pendOwner[:0]
	s.pendSrc = s.pendSrc[:0]
	s.freePos = s.freePos[:0]
	s.readyNow = s.readyNow[:0]
	s.outstanding = 0
}

// Add registers a request under the given owner token. Already-complete
// requests (nil, finished, sends) become immediately ready; receives attach
// a notification, or become immediately ready if their match already
// happened; aggregates attach every unfinished child receive under the same
// owner, so the owner is reported on each child completion and the caller
// re-tests the aggregate.
func (s *WaitSet) Add(r *Request, owner int) {
	if owner < 0 {
		panic(fmt.Sprintf("mpi: WaitSet owner token %d is negative", owner))
	}
	if r == nil || r.finished {
		s.readyNow = append(s.readyNow, owner)
		return
	}
	switch r.kind {
	case reqRecv:
		s.attach(r, owner)
	case reqAggregate:
		// attach reports the owner once per unfinished child receive — by
		// notification, or immediately when the child is already matched.
		// Only an aggregate with no such child needs a report of its own.
		reported := false
		var walk func(req *Request)
		walk = func(req *Request) {
			if req == nil || req.finished {
				return
			}
			switch req.kind {
			case reqRecv:
				s.attach(req, owner)
				reported = true
			case reqAggregate:
				for _, ch := range req.children {
					walk(ch)
				}
			}
		}
		walk(r)
		if !reported {
			s.readyNow = append(s.readyNow, owner)
		}
	default:
		// Sends complete at post time.
		s.readyNow = append(s.readyNow, owner)
	}
}

// attach wires one receive's completion to the set and reports whether a
// notification is pending (false: the receive is already matched and the
// owner was queued as immediately ready). Freed positions are reused, so
// the position tables stay sized to the in-flight high-water mark.
func (s *WaitSet) attach(r *Request, owner int) bool {
	var pos int
	if n := len(s.freePos); n > 0 {
		pos = s.freePos[n-1]
	} else {
		pos = len(s.pends)
	}
	if !r.c.rs.box.attachNotify(r.pending, s.sink, pos) {
		s.readyNow = append(s.readyNow, owner)
		return false
	}
	if pos < len(s.pends) {
		s.freePos = s.freePos[:len(s.freePos)-1]
		s.pends[pos] = r.pending
		s.pendOwner[pos] = owner
		s.pendSrc[pos] = r.pending.srcWorld
	} else {
		s.pends = append(s.pends, r.pending)
		s.pendOwner = append(s.pendOwner, owner)
		s.pendSrc = append(s.pendSrc, r.pending.srcWorld)
	}
	s.outstanding++
	return true
}

// take consumes one notification, freeing its position for reuse.
func (s *WaitSet) take(pos int) {
	s.pends[pos] = nil
	s.freePos = append(s.freePos, pos)
	s.outstanding--
	s.scratch = append(s.scratch, s.pendOwner[pos])
}

// drain collects every queued token without blocking. Non-negative tokens
// are positions (receive completions); negative tokens are bit-complemented
// external owners injected via Notify.
func (s *WaitSet) drain() {
	s.sink.mu.Lock()
	for _, tok := range s.sink.queue {
		if tok < 0 {
			s.scratch = append(s.scratch, ^tok)
			continue
		}
		s.take(tok)
	}
	s.sink.queue = s.sink.queue[:0]
	s.sink.pend.Store(0)
	s.sink.mu.Unlock()
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

// Waitsome blocks until at least one added request has completed (or an
// external token was injected) and returns the owner tokens of everything
// complete so far, like a completion-channel MPI_Waitsome — no polling, no
// backoff. A (nil, nil) return means nothing is outstanding (unless the
// set AllowExternal-ed, in which case an empty set parks awaiting Notify).
// Blocking waits with receives outstanding register with the
// wait-for-graph deadlock monitor under kind "waitsome" (when monitored)
// and honor the run's abort channel and fallback timer exactly like a
// blocking receive. The returned slice is reused by the next call.
func (s *WaitSet) Waitsome() ([]int, error) {
	s.scratch = s.scratch[:0]
	if len(s.readyNow) > 0 {
		s.scratch = append(s.scratch, s.readyNow...)
		s.readyNow = s.readyNow[:0]
	}
	s.drain()
	if len(s.scratch) > 0 {
		return s.scratch, nil
	}
	if s.outstanding == 0 && !s.external {
		return nil, nil
	}
	w := s.c.w
	rs := s.c.rs
	if met := rs.met; met != nil && s.outstanding > 0 {
		// As in awaitMessage: count and time only waits that actually block
		// on receives. Idle external parks (an engine awaiting its next
		// commit) are not communication waits and stay out of the metric.
		met.waitBlocks.Inc()
		t0 := time.Now()
		defer func() { met.waitBlockedNs.Add(time.Since(t0).Nanoseconds()) }()
	}
	if w.monitoring && s.monitored && s.outstanding > 0 {
		// Fresh slices per registration: the deadlock monitor reads the
		// blockedOp snapshot concurrently, possibly after this rank has
		// moved on to the next Waitsome, so the backing arrays must not be
		// reused.
		watchPends := make([]*pendingRecv, 0, s.outstanding)
		watchSrcs := make([]int, 0, s.outstanding)
		for i, p := range s.pends {
			if p != nil {
				watchPends = append(watchPends, p)
				watchSrcs = append(watchSrcs, s.pendSrc[i])
			}
		}
		w.setBlocked(rs.rank, &blockedOp{
			kind:      "waitsome",
			since:     time.Now(),
			pendings:  watchPends,
			srcWorlds: watchSrcs,
		})
		defer w.clearBlocked(rs.rank)
	}
	// Arm the fallback deadlock timer only when receives are outstanding: a
	// pure-external park (idle engine) can legitimately wait forever.
	var timeoutCh <-chan time.Time
	if s.outstanding > 0 {
		timeoutCh = s.armTimeout()
		defer s.disarmTimeout()
	}
	for {
		select {
		case <-s.sink.wake:
			s.drain()
			if len(s.scratch) > 0 {
				return s.scratch, nil
			}
			// Spurious wake: the level-triggered wake slot outlived a drain.
			continue
		case <-w.abort:
			// Prefer completions that raced with the abort (typed poisons carry
			// the informative error) over the generic cascade error.
			s.drain()
			if len(s.scratch) > 0 {
				return s.scratch, nil
			}
			if cause := w.abortCause(); cause != nil {
				// As in awaitMessage: carry the recorded primary failure so the
				// cascade error names why the run died.
				return nil, fmt.Errorf("mpi: rank %d: %w in waitsome (%d receive(s) pending): %w", s.c.rank, ErrAborted, s.outstanding, cause)
			}
			return nil, fmt.Errorf("mpi: rank %d: %w in waitsome (%d receive(s) pending)", s.c.rank, ErrAborted, s.outstanding)
		case <-timeoutCh:
			s.drain()
			if len(s.scratch) > 0 {
				return s.scratch, nil
			}
			err := fmt.Errorf("mpi: rank %d: deadlock suspected: waitsome over %d receive(s) blocked for %v",
				s.c.rank, s.outstanding, w.timeout)
			w.fail(err)
			return nil, err
		}
	}
}

// Outstanding returns the number of attached receives whose completion has
// not yet been returned by Waitsome.
func (s *WaitSet) Outstanding() int { return s.outstanding }
