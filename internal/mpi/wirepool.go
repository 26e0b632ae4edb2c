package mpi

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"

	"cartcc/internal/datatype"
	"cartcc/internal/wire"
)

// This file implements the per-world, size-bucketed wire-buffer pools
// behind the non-contiguous send path, and the element-type erasure that
// lets one untyped envelope (mailbox.message) carry a []T of any T without
// boxing it. A gathered (packed) message draws its wire slice from the
// sending world's pool instead of the heap; the matching side returns the
// slice after the scatter. Contiguous messages never touch the pool at all
// — they travel as subslices of the user buffer and are consumed at match
// time (see p2p.go).
//
// Pools are keyed by element type (a []int32 can never be recycled as a
// []float64) and bucketed by capacity class (powers of two), mirroring the
// eager-buffer pools of real MPI implementations.

// wireMaxClass bounds pooled capacities at 1<<wireMaxClass elements;
// larger wires are plainly allocated and never pooled (at that size the
// copy dominates the allocation anyway).
const wireMaxClass = 24

// wirePool is the per-element-type bucket array. Bucket c holds *[]T
// holders whose slice has length and capacity exactly 1<<c; pooling the
// holder, not the slice, keeps Get and Put free of interface boxing.
type wirePool struct {
	buckets [wireMaxClass + 1]sync.Pool
}

// wireClass returns the bucket class for a wire of n elements: the
// smallest c with 1<<c >= n.
func wireClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// wirePoolFor returns the world's pool for element type t, creating it on
// first use.
func (w *World) wirePoolFor(t reflect.Type) *wirePool {
	if v, ok := w.wirePools.Load(t); ok {
		return v.(*wirePool)
	}
	v, _ := w.wirePools.LoadOrStore(t, &wirePool{})
	return v.(*wirePool)
}

// elemType returns the reflect.Type of T without allocating (a nil *T is
// a direct interface value).
func elemType[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}

// bufRef is a []T with its element type erased: the type's operations, the
// first element and the length. It is how a slice travels through the
// untyped parts of the runtime — an envelope's payload, the buffer of a
// layout receive — without being boxed into an interface, which would
// allocate a slice header per message.
type bufRef struct {
	wt    wireType
	data  unsafe.Pointer
	elems int
}

// refOf erases s.
func refOf[T any](s []T) bufRef {
	return bufRef{wt: wireOps[T]{}, data: unsafe.Pointer(unsafe.SliceData(s)), elems: len(s)}
}

// payload is a message body: elems elements of wt's type starting at data.
// It is either a wire the message owns (hold set: drawn from the world's
// pool, to be returned exactly once) or, on the zero-copy fast path, a
// subslice of the sender's user buffer (alias set: to be read or detached
// before the send call returns). elems outlives the body — a receive's
// Wait reports it after the scatter has dropped data.
type payload struct {
	bufRef
	// hold is the pooled *[]T holder behind data; release clears it.
	hold  unsafe.Pointer
	alias bool
}

// aliasOf is the zero-copy payload: s itself.
func aliasOf[T any](s []T) payload {
	return payload{bufRef: refOf(s), alias: true}
}

// reclaim ends the hold on the body: a pooled wire goes back to the pool
// (exactly once — release clears the hold) and every reference is dropped,
// so a recycled envelope pins neither a wire nor a user buffer.
func (p *payload) reclaim(w *World) {
	if p.hold != nil {
		p.wt.release(w, p)
	}
	p.data, p.alias = nil, false
}

// wireType is the element-type-specific half of the payload protocol. The
// one implementation, wireOps[T], is a zero-size value, so storing it in an
// envelope costs neither an allocation nor a per-type registry lookup; the
// interface exists so the untyped mailbox and transport code can copy,
// pool and scatter payloads whose T they do not know, and so tests can
// substitute a counting fake.
type wireType interface {
	// elem is the element type (the wire codec's id lookup key).
	elem() reflect.Type
	// detach copies a payload aliasing the sender's user buffer into a
	// pooled wire it owns, so the alias never outlives the send call.
	detach(w *World, p *payload)
	// release returns the payload's pooled wire to the world's pool and
	// clears the hold, so a wire can never be pooled twice.
	release(w *World, p *payload)
	// clone replaces the payload with a private, unpooled copy (injected
	// duplicates).
	clone(p *payload)
	// draw makes a pooled wire of n elements the payload (frames decoded
	// off a socket) and reports whether the pool had one.
	draw(w *World, p *payload, n int) bool
	// scatter unpacks the payload through l into dst, checking that element
	// type and count agree with the receive.
	scatter(dst bufRef, l datatype.Layout, p *payload) error
}

// wireOps implements wireType for element type T.
type wireOps[T any] struct{}

func (wireOps[T]) elem() reflect.Type { return elemType[T]() }

// getWire draws a wire of n elements from the world's pool, recycled when
// a bucket entry is available; pooled reports whether it was (the
// wire-pool hit/miss metric). The holder's slice spans the full bucket
// capacity — callers use (*h)[:n] — and its contents are unspecified; every
// caller fully overwrites the slice (Gather, copy).
func getWire[T any](w *World, n int) (h *[]T, pooled bool) {
	w.wireOut.Add(1)
	cl := wireClass(n)
	if cl > wireMaxClass {
		s := make([]T, n)
		return &s, false
	}
	if v := w.wirePoolFor(elemType[T]()).buckets[cl].Get(); v != nil {
		return v.(*[]T), true
	}
	s := make([]T, 1<<cl)
	return &s, false
}

// putWire returns a wire drawn with getWire. Oversized wires are left to
// the GC.
func putWire[T any](w *World, h *[]T) {
	w.wireOut.Add(-1)
	cl := wireClass(cap(*h))
	if cl > wireMaxClass || cap(*h) != 1<<cl {
		return
	}
	w.wirePoolFor(elemType[T]()).buckets[cl].Put(h)
}

// wireOf is the payload owning the first n elements of the pooled wire h.
func wireOf[T any](h *[]T, n int) payload {
	return payload{
		bufRef: bufRef{wt: wireOps[T]{}, data: unsafe.Pointer(unsafe.SliceData(*h)), elems: n},
		hold:   unsafe.Pointer(h),
	}
}

func (wireOps[T]) detach(w *World, p *payload) {
	src := unsafe.Slice((*T)(p.data), p.elems)
	h, _ := getWire[T](w, len(src))
	copy(*h, src)
	*p = wireOf(h, len(src))
}

func (wireOps[T]) release(w *World, p *payload) {
	h := (*[]T)(p.hold)
	p.hold, p.data = nil, nil
	putWire(w, h)
}

func (wireOps[T]) clone(p *payload) {
	*p = payload{bufRef: refOf(append([]T(nil), unsafe.Slice((*T)(p.data), p.elems)...))}
}

func (wireOps[T]) draw(w *World, p *payload, n int) bool {
	h, pooled := getWire[T](w, n)
	*p = wireOf(h, n)
	return pooled
}

func (wireOps[T]) scatter(dst bufRef, l datatype.Layout, p *payload) error {
	wire, err := payloadOf[T](p, l.Size(), "layout")
	if err != nil {
		return err
	}
	datatype.Scatter(unsafe.Slice((*T)(dst.data), dst.elems), wire, l)
	return nil
}

// payloadOf returns the payload as a []T after checking that it carries
// exactly want elements of type T (the runtime is deliberately strict: a
// size or type mismatch is a schedule bug, not data to truncate). what
// names the receive's datatype in the size diagnostic.
func payloadOf[T any](p *payload, want int, what string) ([]T, error) {
	if _, ok := p.wt.(wireOps[T]); !ok {
		return nil, fmt.Errorf("mpi: type mismatch: received []%v, receiver expects []%v", p.wt.elem(), elemType[T]())
	}
	if p.elems != want {
		return nil, fmt.Errorf("mpi: size mismatch: received %d elements, receive %s describes %d", p.elems, what, want)
	}
	return unsafe.Slice((*T)(p.data), p.elems), nil
}

// podWires maps the wire codec's element ids to their operations: the
// inbound half of a socket transport knows a frame's element type only as
// an id, and draws its wire through this table so that the wire recycles
// through the same per-type pools as the generic send path. The ids are
// internal/wire's fixed table; TestPodWiresCoverWireRegistry holds the two
// in step.
var podWires = [...]wireType{
	wire.ElemInt8:       wireOps[int8]{},
	wire.ElemInt16:      wireOps[int16]{},
	wire.ElemInt32:      wireOps[int32]{},
	wire.ElemInt64:      wireOps[int64]{},
	wire.ElemUint8:      wireOps[uint8]{},
	wire.ElemUint16:     wireOps[uint16]{},
	wire.ElemUint32:     wireOps[uint32]{},
	wire.ElemUint64:     wireOps[uint64]{},
	wire.ElemFloat32:    wireOps[float32]{},
	wire.ElemFloat64:    wireOps[float64]{},
	wire.ElemComplex64:  wireOps[complex64]{},
	wire.ElemComplex128: wireOps[complex128]{},
	wire.ElemBool:       wireOps[bool]{},
	wire.ElemInt:        wireOps[int]{},
	wire.ElemUint:       wireOps[uint]{},
}

// podWire returns the operations of a frame's element id.
func podWire(id wire.ElemID) (wireType, error) {
	if int(id) >= len(podWires) || podWires[id] == nil {
		return nil, fmt.Errorf("%w: id %d", wire.ErrBadElemType, id)
	}
	return podWires[id], nil
}
