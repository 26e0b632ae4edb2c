package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cartcc/internal/netmodel"
)

// message is the envelope of one point-to-point message: the match tuple,
// the payload with its element type erased (wirepool.go) and the accounting
// the receiver's Wait reads. A message with fail set is a poison pill: the
// fault layer hands it to a pending receive that can no longer be satisfied
// (failed peer, revoked context) and Wait surfaces the error instead of a
// payload.
//
// Envelopes are recycled by ownership, never allocated per send: a sender
// fills its rank's scratch envelope under the send lock, and deliver copies
// it either into the receive it matched (pendingRecv.env, read by that
// receive's Wait) or into a node of the mailbox's free list while it waits
// in the unexpected queue. Only poisons, injected duplicates and parked
// handoffs are fresh objects, and those are never recycled.
type message struct {
	ctx   int64
	epoch int64 // recovery epoch the sender's communicator belonged to
	src   int   // communicator rank of the sender within ctx
	tag   int
	payload
	bytes  int
	arrive netmodel.Time
	fail   error
	// srcWorld and sseq identify the physical send for duplicate
	// suppression: srcWorld is the sender's world rank and sseq its
	// per-sender monotonic send sequence number (0 for messages that
	// bypass the send path, e.g. poisons and hand-built test messages,
	// which are exempt from dedup).
	srcWorld int
	sseq     uint64
	// consumeErr is the result of the receiver's consume callback (the
	// scatter into the user buffer), recorded at match time and surfaced
	// by the receiver's Wait.
	consumeErr error
	// Unexpected-queue links, used only while the envelope is a mailbox
	// node: next chains the per-key FIFO (and the free list), prev/succ the
	// arrival-order list.
	next       *message
	prev, succ *message
}

// consumer scatters a matched payload into the receiver's buffers. It is
// an interface over the receive's own typed state (a layout or composite
// target stored beside the pendingRecv), not a closure, so posting a
// receive allocates nothing for it.
type consumer interface {
	consume(p *payload) error
}

// pendingRecv is a posted-but-unmatched receive. The matched message is
// written into env and handed over through the ready channel (buffered,
// capacity 1). srcWorld is the exact source's world rank (AnySource for
// wildcard receives); the fault layer and the deadlock monitor key on it.
//
// A pendingRecv is reusable: once its handover has been received (Wait) or
// a cancel has removed it, no matcher holds a reference — the channel send
// is a matcher's last access — and its owner may post it again.
type pendingRecv struct {
	ctx      int64
	epoch    int64
	src      int // may be AnySource
	tag      int // may be AnyTag
	srcWorld int // world rank of src; AnySource for wildcard
	// seq is the mailbox post sequence number, ordering exact receives
	// against wildcard receives for non-overtaking matching.
	seq uint64
	// consume scatters the matched payload into the receiver's buffer. It
	// normally runs at match time — in the sender's goroutine for a
	// pre-posted receive, in the receiver's for an unexpected message —
	// before the ready handoff, so a zero-copy payload is read exactly
	// once, inside the send call that delivered it. With deferConsume set
	// it runs at Wait time instead, in the receiver's goroutine: schedule
	// executors request this for phases whose receive-target extents
	// overlap their send-source extents, where a match-time scatter could
	// race the receiver's own gathers.
	consume      consumer
	deferConsume bool
	ready        chan *message
	// env receives the envelope of the message matched to this receive;
	// ready carries its address. Wait reads the status fields from it, so it
	// is overwritten only by the next match, after the owner reposted.
	env message
	// next chains the receive in its exact-key FIFO while it is posted.
	next *pendingRecv
	// delivered is set (inside the mailbox lock) the moment a message or
	// poison is matched to this receive, before the channel handoff. The
	// deadlock monitor reads it to tell "never matched" apart from "matched
	// but the receiver hasn't been scheduled yet" — the channel length
	// alone cannot, because the receiver may have consumed the message and
	// then been preempted before deregistering its blocked state.
	delivered atomic.Bool
	// postNs is the flight-recorder clock reading at post time (0 when
	// recording is off); the completion hook turns it into the receive's
	// post→completion latency.
	postNs int64
	// notify, when non-nil, is posted notifyIdx exactly once, immediately
	// before the ready handoff — the completion sink of a WaitSet
	// (Waitsome). It is attached under the mailbox lock (attachNotify) and
	// only while the receive is still undelivered, so the handoff's read is
	// ordered after the attach by the lock; the post-before-ready order
	// guarantees the notification is queued by the time any Wait on the
	// receive returns. The sink is unbounded, so the post never blocks.
	notify    *notifySink
	notifyIdx int
	// notifyGate, when non-nil, coalesces a group of completions into one
	// notification: each member's completion decrements the gate and only
	// the one that reaches zero posts notifyIdx. Attached with the sink
	// (attachNotifyGated); cancellation decrements like a completion.
	notifyGate *atomic.Int32
}

// handover posts to the attached WaitSet sink, if any, then hands the
// matched message (or poison) to the receive's ready channel. Every
// delivery path funnels through here so a completion waiter never misses a
// match.
func (r *pendingRecv) handover(m *message) {
	if n := r.notify; n != nil {
		if g := r.notifyGate; g == nil || g.Add(-1) == 0 {
			n.post(r.notifyIdx)
		}
	}
	r.ready <- m
}

// wildcard reports whether the receive needs envelope-order scanning (any
// wildcard in source or tag) rather than exact-key lookup.
func (r *pendingRecv) wildcard() bool { return r.src == AnySource || r.tag == AnyTag }

// matches reports whether message m satisfies receive r. MPI matching:
// context and recovery epoch must be equal; source and tag match exactly
// or via wildcard. Carrying the epoch in the match tuple is what makes a
// resumed collective immune to pre-failure stragglers: a message stamped
// with an old epoch can never satisfy a receive posted after recovery.
func (r *pendingRecv) matches(m *message) bool {
	if r.ctx != m.ctx || r.epoch != m.epoch {
		return false
	}
	if r.src != AnySource && r.src != m.src {
		return false
	}
	if r.tag != AnyTag && r.tag != m.tag {
		return false
	}
	return true
}

// mkey is the exact-match index key: MPI matching is per (context, epoch,
// source, tag).
type mkey struct {
	ctx      int64
	epoch    int64
	src, tag int
}

func (m *message) key() mkey     { return mkey{m.ctx, m.epoch, m.src, m.tag} }
func (r *pendingRecv) key() mkey { return mkey{r.ctx, r.epoch, r.src, r.tag} }

// msgQ and recvQ are the per-key FIFOs, intrusive through the elements'
// next links so queueing allocates nothing. A key whose queue empties is
// deleted from its map: executions on fresh tag blocks must not grow it.
type msgQ struct{ head, tail *message }
type recvQ struct{ head, tail *pendingRecv }

// maxFreeEnvelopes bounds the mailbox's free list of unexpected-queue
// nodes: enough for any schedule's run-ahead (a few rounds from each
// neighbor), while a one-off burst of thousands of unexpected messages is
// returned to the GC instead of staying pinned for the life of the world.
const maxFreeEnvelopes = 256

// mailbox holds a rank's unexpected-message queue and pending receives.
//
// Exact (no-wildcard) receives and unexpected messages are indexed by
// (ctx, src, tag) in per-key FIFO queues for O(1) matching — the hot path
// of every schedule executor. The ordered structures are kept only for
// what genuinely needs envelope order: wildcard receives (wild), wildcard
// probes and diagnostics (the arrival list). Non-overtaking per (source,
// tag, context) is preserved because each per-key queue is FIFO, each
// sender delivers from a single goroutine, and a post sequence number
// arbitrates between an exact receive and an earlier-posted wildcard.
type mailbox struct {
	mu sync.Mutex
	w  *World
	// met is the owning rank's metric bundle (nil when metrics are off):
	// the mailbox attributes detach-to-pool events and the unexpected-queue
	// high-water mark to the receiving rank.
	met *mpiMetrics

	seq uint64 // receive post sequence

	// The unexpected queue: every queued message sits in the arrival-order
	// list (arrHead..arrTail through prev/succ; wildcard scans and
	// diagnostics) and in its key's FIFO in arrivedIdx. The nodes are the
	// mailbox's own: deliver copies the sender's envelope into one taken
	// from free (chained through next, at most maxFreeEnvelopes), and a
	// match copies it on into the receive and returns the node — all under
	// mu, which deliver and post hold anyway.
	arrHead, arrTail *message
	nArrived         int
	arrivedIdx       map[mkey]msgQ
	free             *message
	nFree            int

	// wild holds wildcard receives in post order; exact holds per-key FIFO
	// queues of fully-specified receives.
	wild  []*pendingRecv
	exact map[mkey]recvQ

	// epochFloor is the oldest recovery epoch this rank still accepts.
	// drainBelowEpoch raises it after a shrink; deliver discards older
	// messages on arrival, which closes the race with delayed senders that
	// were already past their fault checks when the drain ran. The
	// fault-tolerance shadow plane (ftCtxBit contexts) is exempt: recovery
	// protocols deliberately run on old-epoch communicators (ULFM's Agree
	// and Shrink must work on a broken world), and an abandoned generation
	// retries them on the original communicator after the floor has risen.
	epochFloor int64

	// lastSeq records, per sender world rank, the highest send sequence
	// number delivered so far. Each sender delivers in send-sequence order
	// (its posters serialize on rankState.sendMu), so any message whose
	// sseq does not advance the counter is a duplicate and is dropped (its
	// pooled wire released exactly once).
	lastSeq map[int]uint64
}

// probeScanned counts arrival-list entries examined by wildcard matching
// (a test hook: the deep-queue regression test asserts that an exact
// receive examines none of a deep unexpected queue).
var probeScanned atomic.Int64

// finish completes a match outside the mailbox lock, on the envelope
// already written into r.env: the receiver's consumer scatters the payload
// into the user buffer, a pooled wire is released, and the message is
// handed over. Running the consumer here — before the handoff, in whichever
// goroutine completed the match — is what lets a zero-copy send pass a
// subslice of the user buffer: by the time the posting call returns, the
// payload has been read exactly once and the alias is dead. The handover is
// the last access to r: the receiver may repost it the moment it has the
// message.
func (b *mailbox) finish(r *pendingRecv) {
	m := &r.env
	if r.deferConsume && m.fail == nil {
		// The receiver scatters at Wait time. A zero-copy payload must not
		// outlive this send call, so detach it into a pooled wire now (in
		// the sender's goroutine); the wire travels with the message and
		// is released after the deferred scatter.
		b.detach(m)
		r.handover(m)
		return
	}
	if m.fail == nil && r.consume != nil {
		m.consumeErr = r.consume.consume(&m.payload)
	}
	m.reclaim(b.w)
	r.handover(m)
}

// detach copies a payload still aliasing the sender's buffer into a pooled
// wire; a no-op for messages that own their payload.
func (b *mailbox) detach(m *message) {
	if !m.alias {
		return
	}
	m.wt.detach(b.w, &m.payload)
	if b.met != nil {
		b.met.recvDetached.Inc()
	}
}

// attachNotify attaches a completion sink to a still-undelivered pending
// receive and reports whether it attached: false means a message or poison
// has already been matched (its handoff may still be in flight) and the
// caller must treat the receive as already complete. The delivered check and
// the sink store happen under the mailbox lock, the same lock every
// matcher holds when it sets delivered, so a successful attach is visible to
// whichever goroutine later performs the handover.
func (b *mailbox) attachNotify(p *pendingRecv, sink *notifySink, idx int) bool {
	return b.attachNotifyGated(p, sink, idx, nil)
}

// attachNotifyGated is attachNotify with a completion-coalescing gate:
// the receive's completion (or cancellation) decrements gate and posts
// idx only on reaching zero. A false return means the receive already
// completed — the caller owns the decrement for it.
func (b *mailbox) attachNotifyGated(p *pendingRecv, sink *notifySink, idx int, gate *atomic.Int32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.delivered.Load() {
		return false
	}
	p.notify = sink
	p.notifyIdx = idx
	p.notifyGate = gate
	return true
}

// undefer clears a pending receive's deferConsume flag and reports whether
// it did: false means a message (or poison) has already been matched — its
// finish may be reading the flag right now — and the receive stays
// deferred, to be scattered at Wait. The delivered check and the flag write
// happen under the mailbox lock, the same lock every matcher holds when it
// sets delivered, so a successful undefer is visible to whichever matcher
// later completes the receive. Schedule executors use this to re-enable the
// match-time single-copy scatter on a pre-posted receive whose buffer
// hazards have cleared since it was posted.
func (b *mailbox) undefer(p *pendingRecv) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.delivered.Load() {
		return false
	}
	p.deferConsume = false
	return true
}

// takeRecvLocked removes and returns the receive that message m must match
// under MPI ordering: the earliest-posted matching receive, found as the
// head of m's exact-key queue or the first matching wildcard, whichever
// was posted first.
func (b *mailbox) takeRecvLocked(m *message) *pendingRecv {
	k := m.key()
	q := b.exact[k]
	exact := q.head
	var wild *pendingRecv
	wi := -1
	for i, r := range b.wild {
		if r.matches(m) {
			wild, wi = r, i
			break
		}
	}
	switch {
	case exact != nil && (wild == nil || exact.seq < wild.seq):
		if q.head = exact.next; q.head == nil {
			delete(b.exact, k)
		} else {
			b.exact[k] = q
		}
		exact.next = nil
		exact.delivered.Store(true)
		return exact
	case wild != nil:
		b.wild = append(b.wild[:wi], b.wild[wi+1:]...)
		wild.delivered.Store(true)
		return wild
	}
	return nil
}

// deliver hands a message to the mailbox: the earliest matching pending
// receive gets it, otherwise it queues as unexpected. Either way the
// envelope is copied out of *m before deliver returns — into the receive,
// or into a mailbox-owned node — so the caller may reuse m at once. A
// zero-copy payload that finds no waiting receive is detached — copied into
// a pooled wire, outside the lock — before queueing, so the sender's buffer
// is free for reuse the moment the send call returns either way.
//
// Two guards run first: messages below the epoch floor (pre-recovery
// stragglers racing the drain) and messages whose send sequence number
// does not advance the per-sender counter (injected duplicates) are
// dropped: reclaim returns a pooled wire exactly once, and a zero-copy
// alias is simply forgotten (it was never read).
func (b *mailbox) deliver(m *message) {
	b.mu.Lock()
	if m.epoch < b.epochFloor && m.ctx&ftCtxBit == 0 {
		b.mu.Unlock()
		m.reclaim(b.w)
		if b.met != nil {
			b.met.staleDrained.Inc()
		}
		return
	}
	if m.sseq > 0 {
		if last, ok := b.lastSeq[m.srcWorld]; ok && m.sseq <= last {
			b.mu.Unlock()
			m.reclaim(b.w)
			if b.met != nil {
				b.met.dupDropped.Inc()
			}
			return
		}
		if b.lastSeq == nil {
			b.lastSeq = make(map[int]uint64)
		}
		b.lastSeq[m.srcWorld] = m.sseq
	}
	for {
		if r := b.takeRecvLocked(m); r != nil {
			b.mu.Unlock()
			// r left the mailbox marked delivered: nobody else can reach it
			// until the handover, so env is written outside the lock.
			r.env = *m
			b.finish(r)
			return
		}
		if !m.alias {
			break
		}
		b.mu.Unlock()
		b.detach(m)
		// Re-check under the lock: a receive posted during the copy found
		// no message in the queue and pended — it must not be missed. Only
		// this sender can append messages with this key, so per-key FIFO
		// order is unaffected by the unlocked window.
		b.mu.Lock()
	}
	n := b.free
	if n != nil {
		b.free, b.nFree = n.next, b.nFree-1
	} else {
		n = new(message)
	}
	*n = *m
	n.next, n.succ = nil, nil
	if n.prev = b.arrTail; n.prev == nil {
		b.arrHead = n
	} else {
		n.prev.succ = n
	}
	b.arrTail = n
	b.nArrived++
	if b.arrivedIdx == nil {
		b.arrivedIdx = make(map[mkey]msgQ)
	}
	k := n.key()
	q := b.arrivedIdx[k]
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
	b.arrivedIdx[k] = q
	if b.met != nil {
		b.met.unexpectedHWM.SetMax(int64(b.nArrived))
	}
	b.mu.Unlock()
}

// unlinkArrivedLocked removes queued message n — the head of its key's
// FIFO — from both unexpected-queue structures. Every removal is of a key
// head: an exact receive takes its key's head by definition, and a wildcard
// scan or an epoch drain meets the messages of one key in arrival order,
// which is their FIFO order.
func (b *mailbox) unlinkArrivedLocked(n *message) {
	k := n.key()
	q := b.arrivedIdx[k]
	if q.head != n {
		panic("mpi: internal: unexpected-queue removal of a message that is not its key's head")
	}
	if q.head = n.next; q.head == nil {
		delete(b.arrivedIdx, k)
	} else {
		b.arrivedIdx[k] = q
	}
	if n.prev == nil {
		b.arrHead = n.succ
	} else {
		n.prev.succ = n.succ
	}
	if n.succ == nil {
		b.arrTail = n.prev
	} else {
		n.succ.prev = n.prev
	}
	n.next, n.prev, n.succ = nil, nil, nil
	b.nArrived--
}

// takeArrivedLocked matches receive r against the unexpected queue: the
// FIFO head of r's key queue for exact receives (O(1)), the first matching
// entry in arrival order for wildcards. On a match the envelope moves into
// r.env and its node returns to the free list, cleared so it pins nothing.
func (b *mailbox) takeArrivedLocked(r *pendingRecv) bool {
	var n *message
	if !r.wildcard() {
		n = b.arrivedIdx[r.key()].head
	} else {
		for n = b.arrHead; n != nil; n = n.succ {
			probeScanned.Add(1)
			if r.matches(n) {
				break
			}
		}
	}
	if n == nil {
		return false
	}
	b.unlinkArrivedLocked(n)
	r.env = *n
	*n = message{}
	if b.nFree < maxFreeEnvelopes {
		n.next = b.free
		b.free, b.nFree = n, b.nFree+1
	}
	return true
}

// post registers a receive: the earliest matching unexpected message
// satisfies it immediately, otherwise the receive pends — indexed by key
// when fully specified, in the ordered wildcard list otherwise.
func (b *mailbox) post(r *pendingRecv) {
	b.mu.Lock()
	if b.takeArrivedLocked(r) {
		r.delivered.Store(true)
		b.mu.Unlock()
		b.finish(r)
		return
	}
	r.seq = b.seq
	b.seq++
	if r.wildcard() {
		b.wild = append(b.wild, r)
	} else {
		if b.exact == nil {
			b.exact = make(map[mkey]recvQ)
		}
		k := r.key()
		q := b.exact[k]
		if q.tail == nil {
			q.head = r
		} else {
			q.tail.next = r
		}
		q.tail = r
		b.exact[k] = q
	}
	b.mu.Unlock()
}

// poisonMatching fails every pending receive for which cond returns a
// non-nil error: the receive is removed and handed a poison message, so
// its Wait returns the error instead of blocking forever. Used by the
// fault layer when a rank dies or a context is revoked. Poisons are fresh
// messages without a payload — a poisoned receive can never return (or
// double-return) a pooled buffer.
func (b *mailbox) poisonMatching(cond func(*pendingRecv) error) {
	b.mu.Lock()
	var hit []*pendingRecv
	var errs []error
	condemn := func(r *pendingRecv) bool {
		err := cond(r)
		if err == nil {
			return false
		}
		r.delivered.Store(true)
		hit = append(hit, r)
		errs = append(errs, err)
		return true
	}
	kept := b.wild[:0]
	for _, r := range b.wild {
		if !condemn(r) {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(b.wild); i++ {
		b.wild[i] = nil
	}
	b.wild = kept
	for k, q := range b.exact {
		var keep recvQ
		for r := q.head; r != nil; {
			nx := r.next
			r.next = nil
			if !condemn(r) {
				if keep.tail == nil {
					keep.head = r
				} else {
					keep.tail.next = r
				}
				keep.tail = r
			}
			r = nx
		}
		if keep.head == nil {
			delete(b.exact, k)
		} else {
			b.exact[k] = keep
		}
	}
	b.mu.Unlock()
	for i, r := range hit {
		r.handover(&message{ctx: r.ctx, epoch: r.epoch, src: r.src, tag: r.tag, fail: errs[i]})
	}
}

// drainBelowEpoch raises the mailbox's epoch floor and discards every
// unexpected message from an older epoch: pre-failure stragglers that
// arrived before recovery completed. Each discarded message returns its
// pooled wire exactly once, as a normal consume would have. Pending
// receives from old epochs are poisoned with ErrCancelled so no request
// blocks on traffic that can no longer arrive. Fault-tolerance shadow
// contexts are exempt from both sweeps — consensus retries legitimately
// reuse the old epoch (see epochFloor). Returns the number of messages
// drained.
func (b *mailbox) drainBelowEpoch(epoch int64) int {
	b.mu.Lock()
	if epoch <= b.epochFloor {
		b.mu.Unlock()
		return 0
	}
	b.epochFloor = epoch
	// The drained nodes are not recycled (recovery is rare): they chain
	// through next for the discard pass outside the lock, then go to the GC.
	var stale *message
	n := 0
	for m := b.arrHead; m != nil; {
		nx := m.succ
		if m.epoch < epoch && m.ctx&ftCtxBit == 0 {
			b.unlinkArrivedLocked(m)
			m.next, stale = stale, m
			n++
		}
		m = nx
	}
	b.mu.Unlock()
	for m := stale; m != nil; m = m.next {
		m.reclaim(b.w)
	}
	if n > 0 && b.met != nil {
		b.met.staleDrained.Add(int64(n))
	}
	// Defensive: a receive posted under the old epoch can never match
	// again; fail it now instead of waiting for the watchdog.
	b.poisonMatching(func(r *pendingRecv) error {
		if r.epoch < epoch && r.ctx&ftCtxBit == 0 {
			return fmt.Errorf("stale-epoch receive drained during recovery: %w", ErrCancelled)
		}
		return nil
	})
	return n
}

// cancel removes a still-unmatched pending receive and reports whether it
// was removed; false means a message (or poison) has already been handed
// over and the receive must still be waited on. A successful cancel is a
// completion: the receive is marked delivered — so a later attachNotify
// refuses and treats it as already complete — and notify/idx carry any
// attached WaitSet slot the CALLER must post (n.post(idx)), so a Waitsome
// over a set whose receives were all cancelled returns instead of blocking
// until the watchdog. The post is the caller's job, not cancel's, so the
// caller can finish the request (Request.Cancel records ErrCancelled)
// before the notification can wake a Waitsome in another goroutine — the
// sink post is what publishes those writes to the set's owner.
func (b *mailbox) cancel(p *pendingRecv) (removed bool, notify *notifySink, idx int) {
	b.mu.Lock()
	removed = b.removeLocked(p)
	if removed {
		p.delivered.Store(true)
		notify, idx = p.notify, p.notifyIdx
		if g := p.notifyGate; notify != nil && g != nil && g.Add(-1) != 0 {
			// Gated completion that didn't close the group: no post due.
			notify = nil
		}
	}
	b.mu.Unlock()
	return removed, notify, idx
}

// pendingPosted counts posted-and-unmatched receives still registered in
// the mailbox, and unexpected messages still queued — the state an
// abandoned collective would leak. Test/diagnostic introspection.
func (b *mailbox) pendingPosted() (recvs, unexpected int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recvs = len(b.wild)
	for _, q := range b.exact {
		for r := q.head; r != nil; r = r.next {
			recvs++
		}
	}
	return recvs, b.nArrived
}

// removeLocked unlinks a pending receive from the wildcard list or its
// exact-key queue, reporting whether it was still there.
func (b *mailbox) removeLocked(p *pendingRecv) bool {
	if p.wildcard() {
		for i, r := range b.wild {
			if r == p {
				b.wild = append(b.wild[:i], b.wild[i+1:]...)
				return true
			}
		}
		return false
	}
	k := p.key()
	q := b.exact[k]
	var prev *pendingRecv
	for r := q.head; r != nil; prev, r = r, r.next {
		if r != p {
			continue
		}
		if prev == nil {
			q.head = p.next
		} else {
			prev.next = p.next
		}
		if q.tail == p {
			q.tail = prev
		}
		p.next = nil
		if q.head == nil {
			delete(b.exact, k)
		} else {
			b.exact[k] = q
		}
		return true
	}
	return false
}

// snapshotArrived renders the envelopes of the unexpected-message queue
// for diagnostic reports.
func (b *mailbox) snapshotArrived() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, b.nArrived)
	for m := b.arrHead; m != nil; m = m.succ {
		out = append(out, fmt.Sprintf("[src=%d tag=%d ctx=%d elems=%d]", m.src, m.tag, m.ctx, m.elems))
	}
	return out
}
