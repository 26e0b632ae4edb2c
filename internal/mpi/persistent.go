package mpi

import (
	"cartcc/internal/datatype"
)

// Persistent point-to-point operations, mirroring MPI_Send_init /
// MPI_Recv_init: the communication parameters (peer, tag, datatype) are
// bound once and the operation is then started any number of times — the
// point-to-point counterpart of the paper's persistent collective
// initialization (Cart_*_init), and what a schedule round is made of: a
// plan's executor scratch holds one RecvSlot and one SendSlot per round,
// bound when the scratch is built and restarted with the caller's buffers
// on every execution. Starting a slot allocates nothing: the receive's
// request, pending receive, ready channel and matched envelope live in the
// slot (recvOp), and a send has no per-message state beyond the rank's
// scratch envelope.
//
// The datatype is a composite over several buffers (the executor's send,
// recv and temp), so the buffers themselves are a Start argument: a plan is
// bound to a geometry, not to the memory of one call.

// RecvSlot is a persistent receive scattered through a composite. A slot
// must not be copied after Bind (the mailbox and the request refer to it by
// address) and must not be restarted while its previous start is in
// flight.
type RecvSlot[T any] struct {
	recvOp
	c    *Comm
	src  int
	tag  int
	comp *datatype.Composite
	bufs [][]T
}

// Bind fixes the slot's communicator, source, base tag and receive
// composite. src may be AnySource and tag AnyTag.
func (s *RecvSlot[T]) Bind(c *Comm, comp *datatype.Composite, src, tag int) error {
	if err := c.checkRecv(src, tag); err != nil {
		return err
	}
	s.c, s.src, s.tag, s.comp = c, src, tag, comp
	return nil
}

// Start posts the receive into bufs (indexed by the composite's buffer
// selectors) under tag base+tagOff and returns the slot's request, valid
// until the next Start. The previous start must have finished: its Wait
// returned, or Cancel reported true. deferred selects when the payload
// lands in the buffers: false scatters at match time (single-copy fast path
// — safe only while nothing else touches the target extents between Start
// and Wait, the receiver's own send-side gathers included); true defers the
// scatter to Wait, in the receiver's goroutine, which tolerates receive
// targets overlapping same-phase send sources at the price of messages
// staging through a pooled wire. Schedule executors choose per round from
// the scatter gates of the compiled dependency DAG.
func (s *RecvSlot[T]) Start(bufs [][]T, tagOff int, deferred bool) *Request {
	if s.req.pending != nil && !s.req.finished {
		panic("mpi: RecvSlot restarted while its previous start is in flight")
	}
	s.bufs = bufs
	return s.post(s.c, s.src, int64(s.tag+tagOff), s, deferred)
}

// Request returns the slot's request: the handle of its current (or last)
// start.
func (s *RecvSlot[T]) Request() *Request { return &s.req }

func (s *RecvSlot[T]) consume(p *payload) error {
	wire, err := payloadOf[T](p, s.comp.Size(), "composite")
	if err != nil {
		return err
	}
	datatype.ScatterComposite(s.bufs, wire, s.comp)
	return nil
}

// SendSlot is a persistent send gathered through a composite — the sender
// side of one schedule round (Listing 5 of the paper).
type SendSlot[T any] struct {
	c    *Comm
	dst  int
	tag  int
	comp *datatype.Composite
	// A composite that collapses to one contiguous extent goes out
	// zero-copy, as a subslice of bufs[buf]; decided once, at Bind.
	contig      bool
	buf, off, n int
}

// Bind fixes the slot's communicator, destination, base tag and send
// composite.
func (s *SendSlot[T]) Bind(c *Comm, comp *datatype.Composite, dst, tag int) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	s.c, s.dst, s.tag, s.comp = c, dst, tag, comp
	s.buf, s.off, s.n, s.contig = comp.Contiguous()
	return nil
}

// Start sends the elements the composite selects from bufs under tag
// base+tagOff. The data leaves bufs before Start returns (buffered-send
// semantics), so the send is complete when it does; the error is the typed
// failure of a dead peer, a revoked context or a broken transport. Like
// Isend, a contiguous composite goes out zero-copy and anything else is
// gathered into a pooled wire.
func (s *SendSlot[T]) Start(bufs [][]T, tagOff int) error {
	c := s.c
	var pay payload
	if s.contig && s.buf < len(bufs) {
		pay = aliasOf(bufs[s.buf][s.off : s.off+s.n : s.off+s.n])
		c.rs.met.countSendPath(true, false)
	} else {
		n := s.comp.Size()
		b, pooled := getWire[T](c.w, n)
		datatype.GatherComposite(b.s[:n], bufs, s.comp)
		pay = wireOf(b, n)
		c.rs.met.countSendPath(false, pooled)
	}
	return c.send(pay, s.comp.Size()*elemBytes[T](), s.dst, int64(s.tag+tagOff))
}
