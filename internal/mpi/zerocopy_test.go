package mpi

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"testing"

	"cartcc/internal/datatype"
	"cartcc/internal/wire"
)

// TestExactRecvDeepQueue is the indexed-mailbox regression test: a
// fully-specified receive must match by an O(1) index lookup even with a
// 10k-deep unexpected queue, while a wildcard receive (the only scanner)
// walks the queue. The probeScanned hook counts arrived-list entries
// examined.
func TestExactRecvDeepQueue(t *testing.T) {
	const depth = 10_000
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			buf := []int{0}
			for i := 0; i < depth; i++ {
				buf[0] = i
				if _, err := Isend(c, buf, datatype.Contiguous(0, 1), 1, 7); err != nil {
					return err
				}
			}
			// Per-sender delivery is sequential, so once this lands the
			// whole queue is in place.
			return SendSlice(c, []int{-1}, 1, 8)
		case 1:
			sync := make([]int, 1)
			if _, err := RecvSlice(c, sync, 0, 8); err != nil {
				return err
			}
			got := make([]int, 1)
			before := probeScanned.Load()
			st, err := RecvSlice(c, got, 0, 7)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 1 || got[0] != 0 {
				return fmt.Errorf("exact receive: st=%+v got %v", st, got)
			}
			if scanned := probeScanned.Load() - before; scanned != 0 {
				return fmt.Errorf("exact receive scanned %d entries of a %d-deep queue; want 0", scanned, depth)
			}
			// A wildcard receive for an absent tag is the scanner: posting
			// it must examine the whole live queue, proving the counter
			// observes this code path and the exact path really skipped it.
			before = probeScanned.Load()
			wild, err := Irecv(c, got, datatype.Contiguous(0, 1), AnySource, 9999)
			if err != nil {
				return err
			}
			if scanned := probeScanned.Load() - before; scanned < depth-1 {
				return fmt.Errorf("wildcard receive scanned %d entries; want >= %d", scanned, depth-1)
			}
			if !wild.Cancel() {
				return fmt.Errorf("wildcard receive for an absent tag matched a message")
			}
			// Drain in order: non-overtaking must hold across the indexed
			// queue, zero-copy sends, and pooled wires.
			for i := 1; i < depth; i++ {
				if _, err := RecvSlice(c, got, 0, 7); err != nil {
					return err
				}
				if got[0] != i {
					return fmt.Errorf("message %d carries %d: overtaking", i, got[0])
				}
			}
			return nil
		}
		return nil
	})
}

// TestNonOvertakingZeroCopyPooled interleaves contiguous (zero-copy) and
// strided (pooled-wire) sends on one (source, tag) stream and checks the
// receiver sees them in post order with intact contents — including when
// the sender's buffer is clobbered the moment each Isend returns, which is
// exactly what buffered-send semantics permit.
func TestNonOvertakingZeroCopyPooled(t *testing.T) {
	const (
		msgs = 200
		m    = 16
	)
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			buf := make([]int, 2*m)
			for i := 0; i < msgs; i++ {
				var l datatype.Layout
				if i%2 == 0 {
					// Zero-copy fast path: one contiguous extent.
					l = datatype.Contiguous(0, m)
					for j := 0; j < m; j++ {
						buf[j] = i*1000 + j
					}
				} else {
					// Strided: gathers into a pooled wire.
					l = datatype.Vector(m, 1, 2, 0)
					for j := 0; j < m; j++ {
						buf[2*j] = i*1000 + j
					}
				}
				req, err := Isend(c, buf, l, 1, 3)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				// Buffered semantics: the data must already be out.
				for j := range buf {
					buf[j] = -7
				}
			}
			return nil
		case 1:
			got := make([]int, m)
			for i := 0; i < msgs; i++ {
				if i%16 == 0 {
					// Let the queue build up so both pre-posted and
					// unexpected matches are exercised.
					time.Sleep(200 * time.Microsecond)
				}
				if _, err := RecvSlice(c, got, 0, 3); err != nil {
					return err
				}
				for j := 0; j < m; j++ {
					if got[j] != i*1000+j {
						return fmt.Errorf("message %d element %d = %d, want %d", i, j, got[j], i*1000+j)
					}
				}
			}
			return nil
		}
		return nil
	})
}

// TestWildcardExactArbitration pins the matching order between an exact
// receive and a wildcard receive on the same (ctx, tag): whichever was
// posted first must match the first incoming message, exactly as the old
// single-list scan behaved.
func TestWildcardExactArbitration(t *testing.T) {
	for _, wildFirst := range []bool{true, false} {
		name := "exact-first"
		if wildFirst {
			name = "wild-first"
		}
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c *Comm) error {
				switch c.Rank() {
				case 0:
					sync := make([]int, 1)
					if _, err := RecvSlice(c, sync, 1, 1); err != nil {
						return err
					}
					if err := SendSlice(c, []int{111}, 1, 5); err != nil {
						return err
					}
					return SendSlice(c, []int{222}, 1, 5)
				case 1:
					a := make([]int, 1)
					b := make([]int, 1)
					var first, second *Request
					var err error
					if wildFirst {
						first, err = Irecv(c, a, datatype.Contiguous(0, 1), AnySource, 5)
					} else {
						first, err = Irecv(c, a, datatype.Contiguous(0, 1), 0, 5)
					}
					if err != nil {
						return err
					}
					if wildFirst {
						second, err = Irecv(c, b, datatype.Contiguous(0, 1), 0, 5)
					} else {
						second, err = Irecv(c, b, datatype.Contiguous(0, 1), AnySource, 5)
					}
					if err != nil {
						return err
					}
					if err := SendSlice(c, []int{0}, 0, 1); err != nil {
						return err
					}
					if _, err := first.Wait(); err != nil {
						return err
					}
					if _, err := second.Wait(); err != nil {
						return err
					}
					if a[0] != 111 || b[0] != 222 {
						return fmt.Errorf("%s: first recv got %d, second got %d; want 111, 222", name, a[0], b[0])
					}
					return nil
				}
				return nil
			})
		})
	}
}

// countingWire is wireOps[int] with the pool replaced by counters, so the
// mailbox-level tests can watch the ownership protocol without a world:
// release and detach count their invocations, and a detached payload is a
// private copy the fake owns like a pooled wire.
type countingWire struct {
	wireOps[int]
	released, detached *int
}

// wire is a payload that owns s, as if s had been drawn from the pool.
func (cw countingWire) wire(s []int) payload {
	p := wireOf(&s, len(s))
	p.wt = cw
	return p
}

func (cw countingWire) release(_ *World, p *payload) {
	*cw.released++
	p.hold, p.data = nil, nil
}

func (cw countingWire) detach(_ *World, p *payload) {
	*cw.detached++
	*p = cw.wire(append([]int(nil), unsafe.Slice((*int)(p.data), p.elems)...))
}

// TestPoisonedReceiveNeverDoubleRelease exercises the fault path of the
// pooled-wire ownership protocol at the mailbox level: a receive that is
// poisoned (its peer died) gets a fresh poison message with no payload and
// no release hook, and the real message that arrives afterwards queues as
// unexpected with its release intact — invoked exactly once when a later
// receive finally consumes it.
func TestPoisonedReceiveNeverDoubleRelease(t *testing.T) {
	box := &mailbox{}
	released := 0
	m := &message{
		ctx: 1, src: 0, tag: 7, bytes: 24,
		payload: countingWire{released: &released}.wire([]int{1, 2, 3}),
	}

	r1 := &pendingRecv{ctx: 1, src: 0, tag: 7, srcWorld: 0, ready: make(chan *message, 1)}
	box.post(r1)
	box.poisonMatching(func(p *pendingRecv) error {
		return errors.New("peer died")
	})
	poison := <-r1.ready
	if poison.fail == nil {
		t.Fatal("poisoned receive did not get a failure message")
	}
	if poison.data != nil || poison.hold != nil {
		t.Fatal("poison message carries a payload or a wire")
	}
	if released != 0 {
		t.Fatalf("release ran %d times before any message was consumed", released)
	}

	// The real message arrives after the poisoning: no pending receive
	// matches (r1 is gone), so it must queue with its release hook intact.
	box.deliver(m)
	if released != 0 {
		t.Fatalf("release ran %d times while the message sat unexpected", released)
	}

	// A later receive consumes it: release runs exactly once.
	r2 := &pendingRecv{ctx: 1, src: 0, tag: 7, srcWorld: 0, ready: make(chan *message, 1)}
	box.post(r2)
	got := <-r2.ready
	if got.fail != nil {
		t.Fatalf("second receive failed: %v", got.fail)
	}
	if released != 1 {
		t.Fatalf("release ran %d times; want exactly 1", released)
	}
	if got.hold != nil || got.data != nil {
		t.Fatal("wire not dropped from the envelope after the match")
	}

	// Waiting paths (request.go) release only through reclaim, which finds
	// no hold now: simulate the deferred-consume epilogue and re-check.
	got.reclaim(nil)
	if released != 1 {
		t.Fatalf("release ran %d times after epilogue; want exactly 1", released)
	}
}

// TestDetachResolvesZeroCopyAlias checks the other half of the ownership
// protocol: a zero-copy message that queues unexpected is detached — the
// payload stops aliasing the sender's buffer — before deliver returns.
func TestDetachResolvesZeroCopyAlias(t *testing.T) {
	box := &mailbox{}
	user := []int{10, 20, 30}
	detached := 0
	released := 0
	m := &message{ctx: 1, src: 0, tag: 9, bytes: 24, payload: aliasOf(user)}
	m.wt = countingWire{released: &released, detached: &detached}
	box.deliver(m)
	if detached != 1 {
		t.Fatalf("detach ran %d times; want 1", detached)
	}
	// Sender reuses its buffer; the queued payload must be unaffected.
	user[0], user[1], user[2] = -1, -1, -1
	r := &pendingRecv{ctx: 1, src: 0, tag: 9, srcWorld: 0, ready: make(chan *message, 1)}
	got := &copyOut{}
	r.consume = got
	box.post(r)
	mm := <-r.ready
	if mm.consumeErr != nil {
		t.Fatal(mm.consumeErr)
	}
	if len(got.s) != 3 || got.s[0] != 10 || got.s[1] != 20 || got.s[2] != 30 {
		t.Fatalf("queued zero-copy payload corrupted by sender reuse: %v", got.s)
	}
	if released != 1 {
		t.Fatalf("detached wire released %d times; want exactly 1", released)
	}
}

// copyOut is a consumer that keeps a copy of the []int payload it is given.
type copyOut struct{ s []int }

func (c *copyOut) consume(p *payload) error {
	c.s = append([]int(nil), unsafe.Slice((*int)(p.data), p.elems)...)
	return nil
}

// TestWirePoolRecycles checks the size-bucketed pool round trip: a
// released wire of a pool-shaped capacity comes back from getWire.
func TestWirePoolRecycles(t *testing.T) {
	w := &World{}
	h, pooled := getWire[int32](w, 100)
	if len(*h) != 128 || cap(*h) != 128 {
		t.Fatalf("getWire(100) = len %d cap %d; want the full 128-element bucket", len(*h), cap(*h))
	}
	if pooled {
		t.Fatal("first getWire from an empty pool reported a pool hit")
	}
	p := wireOf(h, 100)
	p.reclaim(w)
	if p.data != nil || p.hold != nil {
		t.Fatal("reclaim did not clear the payload")
	}
	p.reclaim(w) // no hold left: must not pool the wire twice
	if out := w.wireOut.Load(); out != 0 {
		t.Fatalf("wires outstanding after one draw and one release: %d", out)
	}
	// Under the race detector sync.Pool drops Puts at random (by design,
	// to shake out reuse races), so a single dropped Put must not strand
	// the loop: re-release the original wire on every attempt and demand
	// a recycle within a bounded number of round trips.
	recycled := false
	for i := 0; i < 100 && !recycled; i++ {
		w.wireOut.Add(1)
		putWire(w, h)
		again, hit := getWire[int32](w, 70)
		if cap(*again) != 128 {
			t.Fatalf("wire cap %d; want 128", cap(*again))
		}
		recycled = again == h
		if recycled && !hit {
			t.Fatal("recycled wire not reported as a pool hit")
		}
	}
	if !recycled {
		t.Fatal("pool never recycled the released wire")
	}
	// Oversized and odd-capacity slices are never pooled.
	big := make([]int32, 1<<wireMaxClass+1)
	putWire(w, &big)
	odd := make([]int32, 100) // cap 100: not a power of two
	putWire(w, &odd)
	if again, hit := getWire[int32](w, 100); hit && again == &odd {
		t.Fatal("odd-capacity wire was pooled")
	}
}

// TestPodWiresCoverWireRegistry pins podWires to the wire codec's element
// table: every id the codec accepts has an entry of that element type, and
// no other id has one — an id added to internal/wire without its wireOps
// would otherwise surface only as ErrBadElemType on a live socket.
func TestPodWiresCoverWireRegistry(t *testing.T) {
	for i := 0; i <= 255; i++ {
		id := wire.ElemID(i)
		want, werr := wire.ElemTypeOf(id)
		wt, perr := podWire(id)
		if (werr == nil) != (perr == nil) {
			t.Errorf("elem id %d: wire registry says %v, podWires says %v", id, werr, perr)
			continue
		}
		if perr != nil {
			if !errors.Is(perr, wire.ErrBadElemType) {
				t.Errorf("elem id %d: podWire error %v is not ErrBadElemType", id, perr)
			}
			continue
		}
		if got := wt.elem(); got != want {
			t.Errorf("elem id %d: podWires holds []%v, wire registry []%v", id, got, want)
		}
	}
}
