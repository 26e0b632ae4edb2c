package cart

import (
	"container/list"
	"sync"
)

// The compiled-plan cache. Compiling a plan is O(t·d) symbolic work plus
// DAG construction — thousands of allocations for a dense stencil (the
// benchmark's cart.init.cold_us against cart.init.warm_us prices it) —
// yet the result is a pure function of (grid shape,
// neighborhood, op, algorithm, block geometry, rank, epoch): nothing in
// the compiled phases, copies, or dependency DAG refers to a particular
// communicator or world. A service that creates the same topology over
// and over (the common case for high-traffic workloads, and what
// facade_test.go did on every *Init) should pay that cost once.
//
// The cache is process-global and shared across worlds: ranks are
// goroutines in one address space, and two communicators with the same
// fingerprint compile byte-identical plans, so sharing is correct, not
// merely safe. Entries hold detached "master" plans — the immutable
// compile products only (phases, copies, DAG, deferScatter), with every
// piece of per-instance scratch stripped. A hit binds a fresh Plan to the
// calling communicator (bind), sharing the masters' read-only structure;
// the executors allocate their own scratch (pends, pipe, temp) lazily, so
// concurrent executions of one cached entry from many goroutines never
// touch shared mutable state.
//
// Keying and invalidation:
//
//   - The key hashes the normalized shape (dims + periods), the ordered
//     neighborhood offsets (order is semantic: block i travels to offset
//     i), the block-geometry fingerprint, (op, algo), the rank, and the
//     communicator's recovery epoch. Isomorphic communicators — same
//     shape and offsets, regardless of which world created them — share
//     entries by construction.
//   - Entries store the full pre-hash key material and verify it on hit,
//     so a 64-bit hash collision degrades to a miss, never a wrong plan.
//   - The epoch in the key makes recovery invalidation automatic: a world
//     re-embedded after RecoverShrink (PR 6) carries a bumped epoch, so
//     every lookup from the recovered world misses and recompiles against
//     the new shape; pre-recovery entries age out via LRU.
//   - Plans compiled with WithScheduleTransform (mutation-smoke plants)
//     and the w-variants (geometry closed over caller Layouts the cache
//     cannot fingerprint) bypass the cache entirely.
//
// Execution-style options (blocking rounds, barriered phases, pre-post
// window) are NOT part of the key: they do not affect compilation, only
// which executor runs, and are applied to the bound instance after a hit.

// geomKind classifies block geometries for fingerprinting.
type geomKind uint8

const (
	// geomNone marks an unfingerprintable geometry (w-variants with
	// caller-supplied Layout values): never cached.
	geomNone geomKind = iota
	// geomUniform is the regular geometry: block i = m elements at i·m.
	geomUniform
	// geomVector is the irregular (v) geometry: per-neighbor counts and
	// displacements, captured verbatim in vec.
	geomVector
)

// geomSig is the canonical fingerprint of a block geometry. Two
// geometries with equal signatures produce identical layouts at every
// slot, so their compiled plans are interchangeable.
type geomSig struct {
	kind geomKind
	m    int
	vec  []int
}

func (g geomSig) equal(o geomSig) bool {
	if g.kind != o.kind || g.m != o.m || len(g.vec) != len(o.vec) {
		return false
	}
	for i, x := range g.vec {
		if x != o.vec[i] {
			return false
		}
	}
	return true
}

// hash folds the signature into an FNV accumulator.
func (g geomSig) hash(h uint64) uint64 {
	h = fnvInt(h, int(g.kind))
	h = fnvInt(h, g.m)
	h = fnvInt(h, len(g.vec))
	for _, x := range g.vec {
		h = fnvInt(h, x)
	}
	return h
}

// vectorSig builds a geomVector signature from count/displacement arrays;
// the arrays are copied so later caller mutation cannot corrupt the key.
func vectorSig(parts ...[]int) geomSig {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	v := make([]int, 0, n)
	for _, p := range parts {
		v = append(v, len(p)) // length marker: ([1,2],[3]) ≠ ([1],[2,3])
		v = append(v, p...)
	}
	return geomSig{kind: geomVector, vec: v}
}

// FNV-1a over machine words, hand-rolled so key construction allocates
// nothing on the Init hot path.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, x int) uint64 {
	v := uint64(x)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// planCacheKey is the comparable cache key: content hashes plus the small
// exact fields. Collisions on the hashed components are disambiguated by
// the entry's stored key material, checked on every hit.
type planCacheKey struct {
	shape uint64 // FNV over dims + periods
	nbh   uint64 // FNV over the ordered offset list
	geom  uint64 // FNV over the geometry signature
	op    OpKind
	algo  Algorithm
	rank  int32
	epoch int64
}

// planCacheEntry is one cached master plan with the exact key material
// for collision verification and an estimated footprint for the bytes
// gauge.
type planCacheEntry struct {
	key     planCacheKey
	dims    []int
	periods []bool
	flatNbh []int
	geom    geomSig
	master  *Plan
	bytes   int64
}

// matches verifies the exact key material against a communicator's
// topology and a geometry signature (hash-collision defense).
func (e *planCacheEntry) matches(c *Comm, g geomSig) bool {
	if len(e.dims) != len(c.grid.Dims) || len(e.flatNbh) != len(c.flatNbh) {
		return false
	}
	for i, d := range c.grid.Dims {
		if e.dims[i] != d || e.periods[i] != c.grid.Periods[i] {
			return false
		}
	}
	for i, x := range c.flatNbh {
		if e.flatNbh[i] != x {
			return false
		}
	}
	return e.geom.equal(g)
}

// planCache is a mutex-guarded LRU over master plans. Operations are
// O(1); the lock covers only map/list manipulation — compilation happens
// outside it, and bind happens after release on the caller's copy of the
// master pointer (masters are immutable once published).
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planCacheKey]*list.Element
	lru      *list.List // front = most recently used; values *planCacheEntry
	bytes    int64
	hits     int64
	misses   int64
	evicts   int64
}

// DefaultPlanCacheCapacity bounds the shared cache (entries, not bytes):
// generous for a service cycling through a repertoire of topologies,
// small enough that a pathological sweep over thousands of distinct block
// sizes cannot hold the process's memory hostage.
const DefaultPlanCacheCapacity = 256

var sharedPlanCache = newPlanCache(DefaultPlanCacheCapacity)

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		entries:  make(map[planCacheKey]*list.Element),
		lru:      list.New(),
	}
}

// cacheKey assembles the key for (op, algo, geometry) on this
// communicator. Allocation-free: the shape and neighborhood hashes were
// computed once at NeighborhoodCreate.
func (c *Comm) cacheKey(op OpKind, algo Algorithm, g geomSig) planCacheKey {
	return planCacheKey{
		shape: c.shapeHash,
		nbh:   c.nbhHash,
		geom:  g.hash(fnvOffset),
		op:    op,
		algo:  algo,
		rank:  int32(c.comm.Rank()),
		epoch: c.comm.Epoch(),
	}
}

// get returns the master plan for the key after verifying the stored key
// material, promoting the entry to most-recently-used. A hash collision
// with mismatched material reports a miss.
func (pc *planCache) get(key planCacheKey, c *Comm, g geomSig) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if ok {
		e := el.Value.(*planCacheEntry)
		if e.matches(c, g) {
			pc.lru.MoveToFront(el)
			pc.hits++
			if m := c.cmet; m != nil {
				m.pcHit.Inc()
			}
			return e.master, true
		}
	}
	pc.misses++
	if m := c.cmet; m != nil {
		m.pcMiss.Inc()
	}
	return nil, false
}

// put publishes a freshly compiled master, evicting least-recently-used
// entries beyond capacity. A racing insert of the same key (two worlds
// compiling the identical topology concurrently) keeps the incumbent —
// both masters are equivalent, and callers already hold their own.
func (pc *planCache) put(key planCacheKey, c *Comm, g geomSig, master *Plan) {
	e := &planCacheEntry{
		key:     key,
		dims:    append([]int(nil), c.grid.Dims...),
		periods: append([]bool(nil), c.grid.Periods...),
		flatNbh: append([]int(nil), c.flatNbh...),
		geom:    g,
		master:  master,
		bytes:   planFootprint(master),
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.capacity <= 0 {
		return
	}
	if _, ok := pc.entries[key]; ok {
		return
	}
	pc.entries[key] = pc.lru.PushFront(e)
	pc.bytes += e.bytes
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		ev := oldest.Value.(*planCacheEntry)
		pc.lru.Remove(oldest)
		delete(pc.entries, ev.key)
		pc.bytes -= ev.bytes
		pc.evicts++
		if m := c.cmet; m != nil {
			m.pcEvict.Inc()
		}
	}
	if m := c.cmet; m != nil {
		m.pcBytes.Set(pc.bytes)
	}
}

// planFootprint estimates a master plan's retained size in bytes for the
// cart.plancache.bytes gauge — an accounting estimate (struct headers and
// slice payloads of the compiled products), not a precise heap survey.
func planFootprint(p *Plan) int64 {
	const (
		planBase  = 512
		roundBase = 192
		partCost  = 48
		copyCost  = 64
		depCost   = 48
	)
	b := int64(planBase)
	for _, rounds := range p.phases {
		for i := range rounds {
			r := &rounds[i]
			b += roundBase
			b += int64(len(r.send.Parts())+len(r.recv.Parts())) * partCost
			b += int64(len(r.sendWhat) + len(r.recvWhat))
		}
	}
	b += int64(len(p.copies)) * copyCost
	b += int64(len(p.deps)) * depCost
	b += int64(len(p.flat)) * 8
	b += int64(len(p.deferScatter))
	return b
}

// PlanCacheStats is a snapshot of the shared plan cache.
type PlanCacheStats struct {
	Entries   int
	Capacity  int
	Bytes     int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// SnapshotPlanCache returns the shared cache's current counters.
func SnapshotPlanCache() PlanCacheStats {
	pc := sharedPlanCache
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Entries:   pc.lru.Len(),
		Capacity:  pc.capacity,
		Bytes:     pc.bytes,
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evicts,
	}
}

// SetPlanCacheCapacity rebounds the shared cache, evicting down to the
// new capacity immediately. Capacity 0 disables caching (and drops every
// entry). Returns the previous capacity.
func SetPlanCacheCapacity(n int) int {
	pc := sharedPlanCache
	pc.mu.Lock()
	defer pc.mu.Unlock()
	prev := pc.capacity
	pc.capacity = n
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		ev := oldest.Value.(*planCacheEntry)
		pc.lru.Remove(oldest)
		delete(pc.entries, ev.key)
		pc.bytes -= ev.bytes
		pc.evicts++
	}
	return prev
}

// ResetPlanCache drops every entry and zeroes the counters (tests,
// benchmarks).
func ResetPlanCache() {
	pc := sharedPlanCache
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = make(map[planCacheKey]*list.Element)
	pc.lru = list.New()
	pc.bytes, pc.hits, pc.misses, pc.evicts = 0, 0, 0, 0
}

// detach strips a freshly compiled plan down to its immutable compile
// products for publication as a cache master: no communicator, no
// metrics handles, no executor scratch, no observed counters, no Auto
// wiring. Masters are never executed — bind produces the runnable
// instances.
func (p *Plan) detach() *Plan {
	return &Plan{
		op:            p.op,
		algo:          p.algo,
		phases:        p.phases,
		copies:        p.copies,
		tempLen:       p.tempLen,
		rounds:        p.rounds,
		volume:        p.volume,
		deferScatter:  p.deferScatter,
		flat:          p.flat,
		deps:          p.deps,
		window:        p.window,
		avgBlockElems: p.avgBlockElems,
	}
}

// bind materializes a runnable plan from a cached master for communicator
// c: the immutable compile products are shared (read-only during
// execution by construction), all per-instance scratch starts empty and
// is allocated lazily by the executors. O(1), a single Plan allocation —
// the whole point of a hit.
func (m *Plan) bind(c *Comm, blocking bool) *Plan {
	return &Plan{
		comm:          c,
		op:            m.op,
		algo:          m.algo,
		blocking:      blocking,
		phases:        m.phases,
		copies:        m.copies,
		tempLen:       m.tempLen,
		rounds:        m.rounds,
		volume:        m.volume,
		deferScatter:  m.deferScatter,
		flat:          m.flat,
		deps:          m.deps,
		window:        m.window,
		avgBlockElems: m.avgBlockElems,
		cmet:          c.cmet,
		fromCache:     true,
	}
}

// FromCache reports whether this plan's compile products came from the
// shared plan cache (true after a hit; an Auto plan reports its
// combining leg).
func (p *Plan) FromCache() bool { return p.fromCache }
