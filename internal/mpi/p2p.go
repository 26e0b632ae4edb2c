package mpi

import (
	"fmt"
	"time"
	"unsafe"

	"cartcc/internal/datatype"
	"cartcc/internal/trace"
)

// elemBytes returns the in-memory size of one element of type T without
// allocating (unsafe.Sizeof is a compile-time constant).
func elemBytes[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// sentRequest is the request of every send that completed at post: sends
// are buffered, so a successful one is finished before its handle exists,
// and Wait, Test, Cancel and Free on a finished request only read it. One
// immutable handle therefore serves them all.
var sentRequest = &Request{kind: reqSend, finished: true}

// send posts a buffered send of an already-packed payload and returns its
// completion error: sends complete at post, so there is no request to
// wait on. The envelope is the rank's scratch, filled and routed under the
// send lock; deliver (or the transport) copies or encodes it before
// returning, and ownership of a pooled wire moves with that copy.
//
// Virtual-time semantics follow a LogGP-style postal model: the sender's
// clock serializes on the per-message overhead plus the injection time
// β·bytes (consecutive sends share one NIC), and the message then spends
// the wire latency α in flight. Self-messages skip the wire but still pay
// the copy (injection) cost.
func (c *Comm) send(pay payload, nbytes, dst int, tag int64) error {
	rs := c.rs
	rs.opTick()
	if met := rs.met; met != nil {
		met.sendsPosted.Inc()
		met.sendBytes.Add(int64(nbytes))
	}
	dstWorld := c.worldRank(dst)
	c.w.flight.Record(rs.rank, trace.FlightSendPost, dstWorld, tag, int64(nbytes), 0)
	// One sender, one delivery order: sequence allocation through delivery
	// (injected delays included) happens under the per-sender send lock, so
	// a progress engine posting concurrently with the rank's goroutine
	// cannot deliver out of sequence order — the receiver's dedup would
	// drop the regressing message.
	rs.sendMu.Lock()
	defer rs.sendMu.Unlock()
	rs.sendSeq++
	m := &rs.sendEnv
	*m = message{
		ctx: c.ctx, epoch: c.epoch, src: c.rank, tag: int(tag), payload: pay,
		bytes: nbytes, srcWorld: rs.rank, sseq: rs.sendSeq,
	}
	// Whatever happens to the message, the scratch must not pin its payload
	// until the rank's next send. On the failure paths below the wire was
	// never delivered and reclaim returns it to the pool; after a delivery
	// the wire belongs to the receiving copy and only the references drop.
	defer func() { m.payload = payload{} }()
	if err := c.opError(dstWorld, "send dst", dst, tag); err != nil {
		// The peer has failed or the context is revoked: the send completes
		// with the typed error instead of silently dropping data.
		m.reclaim(c.w)
		return err
	}
	if rs.dropFor(dstWorld) {
		// Injected transient fault: the message is lost on the wire. The
		// send completes normally (buffered semantics — the sender cannot
		// tell) and the payload's pooled wire goes straight back.
		m.reclaim(c.w)
		if met := rs.met; met != nil {
			met.msgDropped.Inc()
		}
		return nil
	}
	// An injected duplicate must carry its own copy of the payload: the
	// original may be scattered zero-copy into the receiver's buffer the
	// moment it is delivered, so the copy is taken now, while the payload
	// is still intact. The duplicate keeps the original's send sequence
	// number — that is what makes it a duplicate to the receiver's dedup.
	// It is a fresh object, never the recycled scratch.
	var dup *message
	if rs.dupFor(dstWorld) {
		d := *m
		d.wt.clone(&d.payload)
		dup = &d
		if met := rs.met; met != nil {
			met.msgDuplicated.Inc()
		}
	}
	delayWall, delayV := rs.delayFor(dstWorld)
	if delayWall > 0 && c.w.model == nil {
		// Stalling the sender before delivery keeps per-sender delivery
		// sequential, preserving the non-overtaking guarantee.
		time.Sleep(delayWall)
	}
	if model := c.w.model; model != nil {
		start := rs.clock
		alpha, beta := model.PathParams(rs.rank, dstWorld)
		rs.clock += model.SendOverhead + beta*float64(nbytes)
		cost := alpha + delayV
		if model.Noise != nil {
			cost += model.Noise.Sample(rs.rng, model.Cost(nbytes))
		}
		m.arrive = rs.clock + cost
		if rec := c.w.rec; rec != nil {
			rec.Add(trace.Event{
				Rank: rs.rank, Kind: trace.KindSend, Peer: dstWorld,
				Bytes: nbytes, Tag: int(tag), Start: start, End: rs.clock,
			})
		}
	}
	if err := c.w.route(dstWorld, m); err != nil {
		// The transport could not carry the message (peer process gone,
		// payload not wire-encodable): complete the send with the typed
		// error — the wire was reclaimed by Send before it failed, or is
		// still held by the message; reclaim covers both.
		m.reclaim(c.w)
		return err
	}
	if dup != nil {
		_ = c.w.route(dstWorld, dup) // best effort, like the fault it mimics
	}
	return nil
}

// checkSend validates the peer and tag of a send.
func (c *Comm) checkSend(dst, tag int) error {
	if err := c.checkRank(dst, "destination"); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	return nil
}

// checkRecv validates the peer and tag of a receive (wildcards allowed).
func (c *Comm) checkRecv(src, tag int) error {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return err
		}
	}
	if tag < 0 && tag != AnyTag {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	return nil
}

// recvOp is the whole state of one receive operation in a single object:
// the request its owner waits on and the pending receive the mailbox
// matches (which in turn holds the ready channel and the envelope the
// matched message is written into). Embedded in the typed receive targets —
// layoutRecv here, RecvSlot in persistent.go — so posting a receive
// allocates at most that one object, and reposting it allocates nothing.
type recvOp struct {
	req  Request
	pend pendingRecv
}

// post (re)arms the operation as a receive of (src, tag) on c and posts it.
// The owner must have finished the previous use — its Wait returned, or a
// Cancel removed it — so that no matcher still refers to the pending
// receive (see pendingRecv). consume is invoked with the matched payload,
// at match time or — with deferConsume — at Wait (see mailbox.finish).
func (o *recvOp) post(c *Comm, src int, tag int64, consume consumer, deferConsume bool) *Request {
	c.rs.opTick()
	if met := c.rs.met; met != nil {
		met.recvsPosted.Inc()
	}
	srcWorld := AnySource
	if src != AnySource {
		srcWorld = c.worldRank(src)
	}
	p := &o.pend
	if p.ready == nil {
		p.ready = make(chan *message, 1)
	}
	p.ctx, p.epoch, p.src, p.tag, p.srcWorld = c.ctx, c.epoch, src, int(tag), srcWorld
	p.consume, p.deferConsume = consume, deferConsume
	p.notify, p.notifyIdx, p.notifyGate = nil, 0, nil
	p.delivered.Store(false)
	if fl := c.w.flight; fl != nil {
		p.postNs = fl.Now()
		fl.Record(c.rs.rank, trace.FlightRecvPost, srcWorld, tag, 0, 0)
	}
	o.req = Request{kind: reqRecv, c: c, pending: p}
	// Post first, check faults after: a receive whose message has already
	// arrived completes even if the sender has since failed (ULFM raises
	// an error only for operations the failure makes impossible). The
	// post-then-check order also closes the race with a concurrent failure
	// or revocation — the fault layer poisons pending receives it finds in
	// the mailbox, so a fault that slipped between the two steps is caught
	// by the re-check, which cancels and poisons our own receive.
	c.rs.box.post(p)
	if err := c.opError(srcWorld, "recv src", src, tag); err != nil {
		if removed, n, idx := c.rs.box.cancel(p); removed {
			// Notify-then-ready, as in the matcher: post to any attached
			// set, then hand over the poison. (cancel already marked the
			// receive delivered.)
			if n != nil {
				n.post(idx)
			}
			p.handover(&message{ctx: p.ctx, epoch: p.epoch, src: p.src, tag: p.tag, fail: err})
		}
	}
	return &o.req
}

// layoutRecv is a receive into the elements of one buffer selected by a
// layout — the target of Irecv and the blocking forms. The buffer is held
// type-erased, so one struct (and one per-rank free list of them) serves
// every element type. The message must carry exactly l.Size() elements of
// the buffer's type.
type layoutRecv struct {
	recvOp
	buf bufRef
	l   datatype.Layout
}

func (o *layoutRecv) consume(p *payload) error { return o.buf.wt.scatter(o.buf, o.l, p) }

// getRecv takes a receive operation off the rank's free list
// (postPooledRecv); putRecv returns it.
func (rs *rankState) getRecv() *layoutRecv {
	rs.recvMu.Lock()
	defer rs.recvMu.Unlock()
	if n := len(rs.recvFree); n > 0 {
		o := rs.recvFree[n-1]
		rs.recvFree = rs.recvFree[:n-1]
		return o
	}
	return new(layoutRecv)
}

func (rs *rankState) putRecv(o *layoutRecv) {
	o.buf, o.l = bufRef{}, datatype.Layout{} // do not pin the caller's buffer
	rs.recvMu.Lock()
	rs.recvFree = append(rs.recvFree, o)
	rs.recvMu.Unlock()
}

// layoutPayload packs the elements of buf selected by l for sending. A
// contiguous layout takes the zero-copy fast path: the payload is a
// subslice of buf, read exactly once inside the posting call — scattered
// straight into a waiting receiver's buffer (one copy end to end), or
// detached into a pooled wire if no receive is posted yet. Non-contiguous
// layouts gather into a wire drawn from the world's size-bucketed pool,
// returned after the unpack.
func layoutPayload[T any](c *Comm, buf []T, l datatype.Layout) payload {
	if off, n, ok := l.Contiguous(); ok {
		c.rs.met.countSendPath(true, false)
		return aliasOf(buf[off : off+n : off+n])
	}
	b, pooled := getWire[T](c.w, l.Size())
	datatype.Gather(b.s[:l.Size()], buf, l)
	c.rs.met.countSendPath(false, pooled)
	return wireOf(b, l.Size())
}

// checkLayoutSend validates the arguments of a layout send.
func checkLayoutSend(c *Comm, buflen int, l datatype.Layout, dst, tag int) error {
	if err := l.Validate(buflen); err != nil {
		return err
	}
	return c.checkSend(dst, tag)
}

// Isend starts a nonblocking send of the elements of buf selected by l to
// dst with the given tag. The data leaves buf before Isend returns, so buf
// may be reused immediately — buffered-send semantics (see layoutPayload
// for the zero-copy and pooled-wire paths).
func Isend[T any](c *Comm, buf []T, l datatype.Layout, dst, tag int) (*Request, error) {
	if err := checkLayoutSend(c, len(buf), l, dst, tag); err != nil {
		return nil, err
	}
	if err := c.send(layoutPayload(c, buf, l), l.Size()*elemBytes[T](), dst, int64(tag)); err != nil {
		return failedRequest(c, reqSend, err), nil
	}
	return sentRequest, nil
}

// checkLayoutRecv validates the arguments of a layout receive.
func checkLayoutRecv(c *Comm, buflen int, l datatype.Layout, src, tag int) error {
	if err := l.Validate(buflen); err != nil {
		return err
	}
	return c.checkRecv(src, tag)
}

// Irecv starts a nonblocking receive into the elements of buf selected by
// l. src may be AnySource and tag AnyTag. The returned request is the
// caller's to keep: it may be waited twice and read long after completion,
// so its receive operation is a fresh object, never a recycled one.
func Irecv[T any](c *Comm, buf []T, l datatype.Layout, src, tag int) (*Request, error) {
	if err := checkLayoutRecv(c, len(buf), l, src, tag); err != nil {
		return nil, err
	}
	o := &layoutRecv{buf: refOf(buf), l: l}
	return o.post(c, src, int64(tag), o, false), nil
}

// postPooledRecv is Irecv for the blocking forms, whose request never
// reaches the caller: the receive runs on an operation from the rank's free
// list, which the caller returns with putRecv once the request's Wait or
// Free has made it quiescent.
func postPooledRecv[T any](c *Comm, buf []T, l datatype.Layout, src, tag int) (*layoutRecv, *Request, error) {
	if err := checkLayoutRecv(c, len(buf), l, src, tag); err != nil {
		return nil, nil, err
	}
	o := c.rs.getRecv()
	o.buf, o.l = refOf(buf), l
	return o, o.post(c, src, int64(tag), o, false), nil
}

// Send is the blocking form of Isend. Sends complete at post, so it
// allocates no request at all.
func Send[T any](c *Comm, buf []T, l datatype.Layout, dst, tag int) error {
	if err := checkLayoutSend(c, len(buf), l, dst, tag); err != nil {
		return err
	}
	return c.send(layoutPayload(c, buf, l), l.Size()*elemBytes[T](), dst, int64(tag))
}

// Recv is the blocking form of Irecv.
func Recv[T any](c *Comm, buf []T, l datatype.Layout, src, tag int) (Status, error) {
	o, req, err := postPooledRecv(c, buf, l, src, tag)
	if err != nil {
		return Status{}, err
	}
	st, err := req.Wait()
	c.rs.putRecv(o)
	return st, err
}

// SendSlice sends all of buf contiguously.
func SendSlice[T any](c *Comm, buf []T, dst, tag int) error {
	return Send(c, buf, datatype.Contiguous(0, len(buf)), dst, tag)
}

// RecvSlice receives exactly len(buf) elements contiguously into buf.
func RecvSlice[T any](c *Comm, buf []T, src, tag int) (Status, error) {
	return Recv(c, buf, datatype.Contiguous(0, len(buf)), src, tag)
}

// Sendrecv performs a combined send and receive, the deadlock-free exchange
// primitive of the trivial Cartesian algorithms (Listing 4 of the paper).
// The receive is posted before the send; both complete before return. When
// the send is rejected or fails, the posted receive is withdrawn before
// returning: left in the mailbox it would match a later message with the
// same (source, tag) and scatter it into a buffer the caller has abandoned.
func Sendrecv[T any](c *Comm, sendBuf []T, sl datatype.Layout, dst, sendTag int,
	recvBuf []T, rl datatype.Layout, src, recvTag int) (Status, error) {
	o, rreq, err := postPooledRecv(c, recvBuf, rl, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	if err := Send(c, sendBuf, sl, dst, sendTag); err != nil {
		rreq.Free()
		c.rs.putRecv(o)
		return Status{}, err
	}
	st, err := rreq.Wait()
	c.rs.putRecv(o)
	return st, err
}
