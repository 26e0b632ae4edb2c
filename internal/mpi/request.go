package mpi

import (
	"fmt"
	"time"

	"cartcc/internal/trace"
)

// Status describes a completed receive, mirroring MPI_Status.
type Status struct {
	// Source is the communicator rank the message came from.
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the number of elements received.
	Count int
}

type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
	reqAggregate
)

// Request is a handle for a nonblocking operation. Send requests complete
// at posting time (the runtime buffers eagerly), so every successful send
// shares one finished handle (sentRequest); receive requests complete when
// a matching message has arrived — the scatter into the user buffer runs at
// match time (mailbox.finish) and Wait surfaces its result; aggregate
// requests complete when all children have.
//
// A receive request is a field of its receive operation (recvOp), next to
// the pending receive it points at. The ones Irecv and the Ineighbor_*
// collectives return belong to the caller and are never reused: they may be
// waited twice and read long after completion. The ones that stay inside
// the runtime — a schedule round's RecvSlot, the blocking forms — are
// re-armed for the next operation once finished.
type Request struct {
	kind     reqKind
	c        *Comm
	pending  *pendingRecv
	children []*Request
	finished bool
	status   Status
	err      error
}

// Wait blocks until the operation completes and returns its status. Waiting
// twice on the same request returns the recorded result. If the run was
// aborted by another rank's failure, or the deadlock watchdog fires, Wait
// returns an error.
func (r *Request) Wait() (Status, error) {
	if r == nil {
		return Status{}, fmt.Errorf("mpi: Wait on nil request")
	}
	if r.finished {
		return r.status, r.err
	}
	switch r.kind {
	case reqRecv:
		m, err := r.awaitMessage()
		if err != nil {
			r.err = err
			break
		}
		rs := r.c.rs
		if met := rs.met; met != nil {
			met.recvsDone.Inc()
			met.recvBytes.Add(int64(m.bytes))
		}
		if fl := r.c.w.flight; fl != nil {
			fl.Record(rs.rank, trace.FlightRecvDone, r.c.worldRank(m.src), int64(m.tag), int64(m.bytes), fl.Now()-r.pending.postNs)
		}
		if model := r.c.w.model; model != nil {
			start := rs.clock
			if m.arrive > rs.clock {
				rs.clock = m.arrive
			}
			rs.clock += model.RecvOverhead
			if rec := r.c.w.rec; rec != nil {
				rec.Add(trace.Event{
					Rank: rs.rank, Kind: trace.KindRecv, Peer: r.c.worldRank(m.src),
					Bytes: m.bytes, Tag: m.tag, Start: start, End: rs.clock,
				})
			}
		}
		r.status = Status{Source: m.src, Tag: m.tag, Count: m.elems}
		if r.pending.deferConsume {
			// Deferred scatter: unpack here in the receiver's goroutine,
			// then return the pooled wire; finish already detached any
			// zero-copy payload.
			if r.pending.consume != nil {
				r.err = r.pending.consume.consume(&m.payload)
			}
			m.reclaim(r.c.w)
		} else {
			r.err = m.consumeErr
		}
	case reqAggregate:
		for _, ch := range r.children {
			if _, err := ch.Wait(); err != nil && r.err == nil {
				r.err = err
			}
		}
	}
	r.finished = true
	return r.status, r.err
}

// awaitMessage blocks on the pending receive with abort and fallback-timer
// handling. The wait is registered with the deadlock monitor (watchdog.go)
// so a run that can no longer progress is diagnosed in milliseconds.
func (r *Request) awaitMessage() (*message, error) {
	w := r.c.w
	rs := r.c.rs
	// Fast path: the message (or poison) is already handed over — no
	// watchdog registration, no timer.
	select {
	case m := <-r.pending.ready:
		if m.fail != nil {
			return nil, m.fail
		}
		return m, nil
	default:
	}
	if r.pending.delivered.Load() {
		// A matcher has claimed this receive and is between setting
		// delivered and the ready handoff: the handoff is imminent
		// (straight-line code in the matcher), so block on it without
		// watchdog registration or the rank's shared fallback timer. This
		// is the path a progress engine takes after a completion
		// notification — the notification is posted before the ready send —
		// and it must not touch rank-goroutine-owned wait state, which may
		// be in use concurrently. (A successful explicit Cancel also sets
		// delivered, but it finishes the request first, so Wait never
		// reaches here for it.)
		m := <-r.pending.ready
		if m.fail != nil {
			return nil, m.fail
		}
		return m, nil
	}
	if met := rs.met; met != nil {
		// Past the fast path: this wait will block. The closure allocates,
		// but only on the instrumented slow path — the metrics-off and
		// already-completed paths stay allocation-free.
		met.waitBlocks.Inc()
		t0 := time.Now()
		defer func() { met.waitBlockedNs.Add(time.Since(t0).Nanoseconds()) }()
	}
	if w.monitoring {
		w.setBlocked(rs.rank, &blockedOp{
			kind:      "recv",
			src:       r.pending.src,
			tag:       r.pending.tag,
			ctx:       r.pending.ctx,
			since:     time.Now(),
			pendings:  []*pendingRecv{r.pending},
			srcWorlds: []int{r.pending.srcWorld},
		})
		defer w.clearBlocked(rs.rank)
	}
	timeoutCh, ownTimer := rs.armTimeout()
	defer rs.disarmTimeout(ownTimer)
	select {
	case m := <-r.pending.ready:
		if m.fail != nil {
			return nil, m.fail
		}
		return m, nil
	case <-w.abort:
		// Withdraw the receive before giving up: if cancel fails, a match
		// is complete or in flight — a sender may be scattering into our
		// buffer and a pooled wire is bound to this receive — so drain the
		// imminent handoff instead of abandoning it. This also prefers a
		// message (or typed poison) that raced with the abort over the
		// generic cascade error.
		removed, n, idx := rs.box.cancel(r.pending)
		if !removed {
			m := <-r.pending.ready
			if m.fail != nil {
				return nil, m.fail
			}
			return m, nil
		}
		if n != nil {
			n.post(idx)
		}
		if cause := w.abortCause(); cause != nil {
			// Carry the primary failure: a receive released by the abort
			// reports why the run died (e.g. a RankFailedError a peer can
			// type-switch on), still marked ErrAborted so error aggregation
			// files it as cascade, never masking the primary.
			return nil, fmt.Errorf("mpi: rank %d: %w while receiving (src=%d tag=%d): %w", r.c.rank, ErrAborted, r.pending.src, r.pending.tag, cause)
		}
		return nil, fmt.Errorf("mpi: rank %d: %w while receiving (src=%d tag=%d)", r.c.rank, ErrAborted, r.pending.src, r.pending.tag)
	case <-timeoutCh:
		removed, n, idx := rs.box.cancel(r.pending)
		if !removed {
			// The message arrived as the timer fired: deliver it rather
			// than declaring a false deadlock.
			m := <-r.pending.ready
			if m.fail != nil {
				return nil, m.fail
			}
			return m, nil
		}
		if n != nil {
			n.post(idx)
		}
		err := fmt.Errorf("mpi: rank %d: deadlock suspected: receive (src=%d tag=%d ctx=%d) blocked for %v",
			r.c.rank, r.pending.src, r.pending.tag, r.pending.ctx, w.timeout)
		w.fail(err)
		return nil, err
	}
}

// UndeferConsume re-enables the match-time scatter on a deferred receive
// request and reports whether it took effect: true means a future match
// will consume the payload in the matcher's goroutine (the single-copy
// fast path); false means a message has already been matched and the
// scatter stays at Wait time. No-op (false) for non-receive requests.
// Schedule executors call this when the buffer hazards that forced the
// deferral have cleared while the receive is still in flight.
func (r *Request) UndeferConsume() bool {
	if r == nil || r.finished || r.kind != reqRecv || !r.pending.deferConsume {
		return false
	}
	return r.c.rs.box.undefer(r.pending)
}

// Cancel removes a still-unmatched receive request from its rank's
// mailbox, completing it with ErrCancelled, and reports whether it was
// cancelled. A receive whose message has already been handed over is not
// cancellable — complete it with Wait (or Free, which drains it). An
// aggregate (the handle the Ineighbor_* collectives return) cancels every
// unfinished child (sends are finished from the start), and the aggregate
// reports cancelled only if every child ended finished — a
// child whose message already arrived keeps the aggregate alive and must
// still be waited or freed. Mirrors MPI_Cancel; schedule executors use it
// to abandon a failed phase without leaking matchable receives.
func (r *Request) Cancel() bool {
	if r == nil || r.finished {
		return false
	}
	switch r.kind {
	case reqRecv:
		removed, n, idx := r.c.rs.box.cancel(r.pending)
		if !removed {
			return false
		}
		r.finished = true
		r.err = fmt.Errorf("mpi: %w (src=%d tag=%d)", ErrCancelled, r.pending.src, r.pending.tag)
		// Post to any attached WaitSet only now: the sink post publishes the
		// finished/err writes above to the set's owner, so a Cancel from a
		// helper goroutine cannot race the owner's Wait after Waitsome wakes.
		if n != nil {
			n.post(idx)
		}
		return true
	case reqAggregate:
		all := true
		for _, ch := range r.children {
			if ch == nil || ch.finished {
				continue
			}
			if !ch.Cancel() {
				all = false
			}
		}
		if !all {
			return false
		}
		r.finished = true
		r.err = fmt.Errorf("mpi: %w (aggregate)", ErrCancelled)
		return true
	}
	return false
}

// Free releases a nonblocking operation without requiring its completion —
// MPI_Request_free semantics, but deterministic (no finalizer): each
// reachable receive is cancelled if still unmatched, or drained if its
// message has already been handed over (the drain runs the scatter, so the
// caller must not reuse the receive buffers until Free returns). Errors
// are recorded on the request and discarded here; Free never blocks on the
// network — a drain only completes an already-matched handoff.
//
// Free is the leak-free way to abandon an Ineighbor_* aggregate that will
// never be waited on: an abandoned aggregate would otherwise pin its
// unmatched pending receives in the mailbox forever, and a later send with
// the same (source, tag) would match a stale receive and scatter into a
// buffer the application has moved on from.
func (r *Request) Free() {
	if r == nil || r.finished {
		return
	}
	switch r.kind {
	case reqAggregate:
		// Record the first child outcome, as Wait would: a freed aggregate
		// whose messages had all arrived completed successfully; one that
		// was still unmatched carries its children's ErrCancelled.
		for _, ch := range r.children {
			ch.Free()
			if ch != nil && ch.err != nil && r.err == nil {
				r.err = ch.err
			}
		}
		r.finished = true
	case reqRecv:
		if r.Cancel() {
			return
		}
		_, _ = r.Wait()
	default:
		_, _ = r.Wait()
	}
}

// Waitall waits for every request and returns the first error encountered.
func Waitall(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// aggregate bundles several requests into one, the handle returned by the
// nonblocking (Ineighbor_*) collectives.
func aggregate(c *Comm, reqs []*Request) *Request {
	return &Request{kind: reqAggregate, c: c, children: reqs}
}
