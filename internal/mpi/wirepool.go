package mpi

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

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
//
// A bucket is a sync.Pool (an idle world's wires go after two
// collections) plus weak pointers to every wire it has made. A bare
// sync.Pool would tie a long run's allocations to scheduling and GC
// timing: it hides free wires in other Ps' private slots and in abandoned
// victim caches, and two collections drop a spare that only a rare peak
// needs. So a draw the pool cannot serve scans the registry first (get),
// the first draw after a collection re-pools the free wires (refresh),
// and a bucket with every live wire in flight grows to twice its peak
// (grow). A wire's busy flag, claimed by CAS, keeps a wire reached through
// the registry from being handed out again by a stale pool entry.

// wireMaxClass bounds pooled capacities at 1<<wireMaxClass elements;
// larger wires are plainly allocated and never pooled (at that size the
// copy dominates the allocation anyway).
const wireMaxClass = 24

// wireBuf is a wire (its slice spans the full bucket capacity) and whether
// a drawer holds it; pooling the holder keeps Get and Put unboxed.
type wireBuf[T any] struct {
	s    []T
	busy atomic.Bool
}

// wirePool is the per-element-type bucket array. Bucket c holds wires
// whose slice has length and capacity exactly 1<<c.
type wirePool[T any] struct {
	buckets [wireMaxClass + 1]wireBucket[T]
}

// wireBucket is one capacity class: the pool, the gcEpoch of its last
// refresh, and (under mu) its wires and most wires in flight at a miss.
type wireBucket[T any] struct {
	free  sync.Pool
	epoch atomic.Uint32
	mu    sync.Mutex
	made  []weak.Pointer[wireBuf[T]]
	peak  int
}

// gcEpoch counts collections: a cleanup on an unreachable sentinel (16
// bytes with a pointer, so never tiny-allocated) runs after each one,
// bumps it and arms the next.
var (
	gcEpoch     atomic.Uint32
	gcWatchOnce sync.Once
)

func watchGC() {
	runtime.AddCleanup(new(struct {
		_ *byte
		_ uintptr
	}), func(struct{}) { gcEpoch.Add(1); watchGC() }, struct{}{})
}

// wireClass returns the bucket class for a wire of n elements: the
// smallest c with 1<<c >= n.
func wireClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// wirePoolFor returns the world's pool for element type T, creating it on
// first use.
func wirePoolFor[T any](w *World) *wirePool[T] {
	t := elemType[T]()
	if v, ok := w.wirePools.Load(t); ok {
		return v.(*wirePool[T])
	}
	gcWatchOnce.Do(watchGC)
	v, _ := w.wirePools.LoadOrStore(t, &wirePool[T]{})
	return v.(*wirePool[T])
}

// refresh re-pools every free live wire on the first draw after a
// collection (the drawer that moves the bucket to epoch e), so what the
// collection moved to the victim cache survives the next one for as long
// as the world keeps drawing.
func (bk *wireBucket[T]) refresh(e uint32) {
	if old := bk.epoch.Load(); old == e || !bk.epoch.CompareAndSwap(old, e) {
		return
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	for _, wp := range bk.made {
		if b := wp.Value(); b != nil && !b.busy.Load() {
			bk.free.Put(b)
		}
	}
}

// get claims a free wire from the pool, skipping stale entries, or else
// from the registry, pruning reclaimed wires; with every live wire busy
// it returns nil and how many are live.
func (bk *wireBucket[T]) get() (b *wireBuf[T], live int) {
	for v := bk.free.Get(); v != nil; v = bk.free.Get() {
		if b := v.(*wireBuf[T]); b.busy.CompareAndSwap(false, true) {
			return b, 0
		}
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	kept := bk.made[:0]
	for _, wp := range bk.made {
		w := wp.Value()
		if w == nil {
			continue
		}
		kept = append(kept, wp)
		if b == nil && w.busy.CompareAndSwap(false, true) {
			b = w
		}
	}
	clear(bk.made[len(kept):])
	bk.made = kept
	return b, len(kept)
}

// grow serves a draw that found every live wire in flight: it makes the
// wire and pools spares up to twice the most wires in flight at a miss.
// Peaks vary by a wire or two between operations, so one wire per miss
// would keep allocating long after the first operations.
func (bk *wireBucket[T]) grow(cl, live int) *wireBuf[T] {
	bk.mu.Lock()
	bk.peak = max(bk.peak, live+1)
	spares := 2*bk.peak - live - 1
	bk.mu.Unlock()
	for range spares {
		bk.free.Put(bk.alloc(cl, false))
	}
	return bk.alloc(cl, true)
}

// alloc makes a wire of the bucket's capacity and registers it.
func (bk *wireBucket[T]) alloc(cl int, busy bool) *wireBuf[T] {
	b := &wireBuf[T]{s: make([]T, 1<<cl)}
	b.busy.Store(busy)
	bk.mu.Lock()
	bk.made = append(bk.made, weak.Make(b))
	bk.mu.Unlock()
	return b
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
// a free wire of the bucket is still alive; pooled reports whether one was
// (the wire-pool hit/miss metric). The wire's slice spans the full bucket
// capacity — callers use b.s[:n] — and its contents are unspecified; every
// caller fully overwrites the slice (Gather, copy).
func getWire[T any](w *World, n int) (b *wireBuf[T], pooled bool) {
	w.wireOut.Add(1)
	cl := wireClass(n)
	if cl > wireMaxClass {
		return &wireBuf[T]{s: make([]T, n)}, false
	}
	bk := &wirePoolFor[T](w).buckets[cl]
	if e := gcEpoch.Load(); bk.epoch.Load() != e {
		bk.refresh(e)
	}
	b, live := bk.get()
	if b != nil {
		return b, true
	}
	return bk.grow(cl, live), false
}

// putWire returns a wire drawn with getWire. Oversized wires are left to
// the GC.
func putWire[T any](w *World, b *wireBuf[T]) {
	w.wireOut.Add(-1)
	cl := wireClass(cap(b.s))
	if cl > wireMaxClass || cap(b.s) != 1<<cl {
		return
	}
	b.busy.Store(false)
	wirePoolFor[T](w).buckets[cl].free.Put(b)
}

// wireOf is the payload owning the first n elements of the pooled wire b.
func wireOf[T any](b *wireBuf[T], n int) payload {
	return payload{
		bufRef: bufRef{wt: wireOps[T]{}, data: unsafe.Pointer(unsafe.SliceData(b.s)), elems: n},
		hold:   unsafe.Pointer(b),
	}
}

func (wireOps[T]) detach(w *World, p *payload) {
	src := unsafe.Slice((*T)(p.data), p.elems)
	b, _ := getWire[T](w, len(src))
	copy(b.s, src)
	*p = wireOf(b, len(src))
}

func (wireOps[T]) release(w *World, p *payload) {
	b := (*wireBuf[T])(p.hold)
	p.hold, p.data = nil, nil
	putWire(w, b)
}

func (wireOps[T]) clone(p *payload) {
	*p = payload{bufRef: refOf(append([]T(nil), unsafe.Slice((*T)(p.data), p.elems)...))}
}

func (wireOps[T]) draw(w *World, p *payload, n int) bool {
	b, pooled := getWire[T](w, n)
	*p = wireOf(b, n)
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
