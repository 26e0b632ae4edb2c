package cart

import (
	"container/list"
	"errors"
	"sync"

	"cartcc/internal/vec"
)

// The compiled-plan cache. Compiling a plan is O(t·d) symbolic work plus
// DAG construction — about a thousand allocations for a 3-d Moore stencil
// (the benchmark's cart.init.cold_us against cart.init.warm_us prices
// it) — yet the result is a pure function of (grid shape, neighborhood,
// op, algorithm, block geometry, epoch), and on a torus of nothing else:
// the paper's isomorphism means every process computes the identical
// schedule. Nothing in the compiled phases, copies or dependency DAG
// refers to a particular communicator or world, and on a torus only the
// rounds' peer ranks refer to the calling rank. A service that creates
// the same topology over and over, or a world whose every rank creates
// it at once, should pay that cost once.
//
// The cache is process-global and shared across worlds: ranks are
// goroutines in one address space, and two communicators with the same
// fingerprint compile identical plans, so sharing is correct, not merely
// safe. Entries hold detached "master" plans — the immutable compile
// products only (phases, copies, DAG), with every piece of
// per-instance scratch stripped. A hit binds a fresh Plan to the calling
// communicator (bind), sharing the masters' read-only structure; the
// executors allocate their own execution records lazily, so
// concurrent executions of one cached entry from many goroutines never
// touch shared mutable state.
//
// Rank-free masters. On a fully periodic grid a master holds no rank: its
// rounds carry no peers, only each round's relative step (rels), and bind
// gives the new plan its own copy of the round records with sendTo and
// recvFrom resolved from the binding rank — a handful of allocations. The
// composites, copies, DAG and tags are rank-independent on a torus (every
// peer exists, so no round is ever skipped) and stay shared. A mesh
// master is per rank: the boundary predicate (boundary.go) decides which
// blocks its rounds carry and which rounds exist at all, so bind shares
// its rounds whole.
//
// Single-flight misses. The ranks of a world create their communicators
// together and miss together. The first caller for a key registers an
// in-flight record (planFlight), compiles, publishes and closes it;
// callers for the same key meanwhile wait on the record and bind from the
// master (or fail with the error) it carries. They never probe the cache
// again, so a capacity change or ResetPlanCache racing the compile can
// neither strand them nor make them recompile. Compilation makes no MPI
// call, so a waiting rank cannot deadlock on the compiling one. A world
// of p ranks thus compiles each plan once: one miss, p−1 hits.
//
// Keying and invalidation:
//
//   - The key hashes the normalized shape (dims + periods), the ordered
//     neighborhood offsets (order is semantic: block i travels to offset
//     i), the block-geometry fingerprint, (op, algo), and the
//     communicator's recovery epoch — plus the rank on a mesh, where the
//     plan depends on it; on a torus the rank field is −1. Isomorphic
//     communicators — same shape and offsets, regardless of which world
//     or rank created them — share entries by construction.
//   - Entries and flights store the full pre-hash key material and verify
//     it on hit, so a 64-bit hash collision degrades to a miss, never a
//     wrong plan.
//   - The epoch in the key makes recovery invalidation automatic: a world
//     re-embedded after RecoverShrink (PR 6) carries a bumped epoch, so
//     every lookup from the recovered world misses and recompiles against
//     the new shape; pre-recovery entries age out via LRU.
//   - Plans compiled with WithScheduleTransform (mutation-smoke plants)
//     and the w-variants (geometry closed over caller Layouts the cache
//     cannot fingerprint) bypass the cache entirely.
//
// Execution-style options (blocking rounds, barriered phases) are NOT part
// of the key: they do not affect compilation, only the fence Run posts
// under, and are applied to the bound instance after a hit.

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
	rank  int32 // −1 on a torus: its masters are rank-free
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
	// served is a bitset over rank numbers: the ranks this entry has
	// compiled or bound for, across every world sharing it (lock held).
	served []uint64
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

// planCache is a mutex-guarded LRU over master plans, plus the compiles
// in flight for keys not yet published. Operations are O(1); the lock
// covers only map/list manipulation — compilation happens outside it, and
// bind happens after release on the caller's copy of the master pointer
// (masters are immutable once published).
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planCacheKey]*list.Element
	lru      *list.List // front = most recently used; values *planCacheEntry
	flights  map[planCacheKey]*planFlight
	bytes    int64
	hits     int64
	misses   int64
	evicts   int64
}

// planFlight is one compile in progress: the entry its leader will
// publish (key material set at registration, master at landing) and the
// outcome, which waiters read once done is closed.
type planFlight struct {
	entry *planCacheEntry
	err   error
	done  chan struct{}
}

// errFlightAborted is what waiters get when the compile they waited on
// panicked instead of finishing.
var errFlightAborted = errors.New("cart: the concurrent compile of this plan did not complete")

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
		flights:  make(map[planCacheKey]*planFlight),
	}
}

// cacheKey assembles the key for (op, algo, geometry) on this
// communicator. Allocation-free: the shape and neighborhood hashes were
// computed once at NeighborhoodCreate. The rank enters only on a mesh.
func (c *Comm) cacheKey(op OpKind, algo Algorithm, g geomSig) planCacheKey {
	rank := int32(-1)
	if !c.IsPeriodic() {
		rank = int32(c.comm.Rank())
	}
	return planCacheKey{
		shape: c.shapeHash,
		nbh:   c.nbhHash,
		geom:  g.hash(fnvOffset),
		op:    op,
		algo:  algo,
		rank:  rank,
		epoch: c.comm.Epoch(),
	}
}

// lookup resolves key for communicator c:
//
//   - on a hit it returns the published master, promoting the entry to
//     most-recently-used;
//   - if another caller is compiling the key it waits for that compile and
//     returns its master, or its error, without probing the cache again;
//   - otherwise the caller must compile. With the cache enabled, lookup
//     registers the caller's flight, which the caller must land; with
//     capacity 0, or on a hash collision with another key's flight, fl
//     is nil and the compile is not shared.
//
// reused reports whether the master had already served the caller's rank
// number (see Plan.FromCache). Hits and waits count as hits, compiles as
// misses. Stored key material is verified first, so a hash collision is a
// miss, never a wrong plan.
func (pc *planCache) lookup(key planCacheKey, c *Comm, g geomSig) (master *Plan, reused bool, fl *planFlight, err error) {
	pc.mu.Lock()
	if el, ok := pc.entries[key]; ok {
		if e := el.Value.(*planCacheEntry); e.matches(c, g) {
			pc.lru.MoveToFront(el)
			reused = pc.serveHit(e, c)
			pc.mu.Unlock()
			return e.master, reused, nil, nil
		}
	}
	inflight, busy := pc.flights[key]
	if busy && inflight.entry.matches(c, g) {
		reused = pc.serveHit(inflight.entry, c)
		pc.mu.Unlock()
		<-inflight.done
		return inflight.entry.master, reused, nil, inflight.err
	}
	pc.misses++
	if m := c.cmet; m != nil {
		m.pcMiss.Inc()
	}
	if !busy && pc.capacity > 0 {
		e := &planCacheEntry{
			key:     key,
			dims:    append([]int(nil), c.grid.Dims...),
			periods: append([]bool(nil), c.grid.Periods...),
			flatNbh: append([]int(nil), c.flatNbh...),
			geom:    g,
			served:  make([]uint64, (c.Size()+63)/64),
		}
		e.serve(c.Rank())
		fl = &planFlight{entry: e, done: make(chan struct{})}
		pc.flights[key] = fl
	}
	pc.mu.Unlock()
	return nil, false, fl, nil
}

// serveHit counts a hit on e for c's rank and marks the rank served,
// reporting whether it had been before (lock held).
func (pc *planCache) serveHit(e *planCacheEntry, c *Comm) bool {
	pc.hits++
	if m := c.cmet; m != nil {
		m.pcHit.Inc()
	}
	return e.serve(c.Rank())
}

// serve marks rank as served by e and reports whether it had been before
// (lock held). The verified key material fixes the grid, so every rank
// that reaches e fits the bitset sized at registration.
func (e *planCacheEntry) serve(rank int) bool {
	w, bit := rank/64, uint64(1)<<(rank%64)
	was := e.served[w]&bit != 0
	e.served[w] |= bit
	return was
}

// land completes the caller's flight with the compiled master, or with
// the compile's error: it publishes the master, then releases the
// waiters. A nil master with a nil error means the compile panicked, and
// the waiters fail with errFlightAborted.
func (pc *planCache) land(fl *planFlight, c *Comm, master *Plan, err error) {
	e := fl.entry
	if err == nil && master == nil {
		err = errFlightAborted
	}
	if err == nil {
		e.master, e.bytes = master, planFootprint(master)
	}
	fl.err = err
	pc.mu.Lock()
	delete(pc.flights, e.key)
	if err == nil {
		pc.insert(e, c)
	}
	pc.mu.Unlock()
	close(fl.done)
}

// insert publishes an entry (lock held), evicting least-recently-used
// entries beyond capacity; with capacity 0 it publishes nothing. An entry
// already under the key — another key material hashing alike — is kept.
func (pc *planCache) insert(e *planCacheEntry, c *Comm) {
	if pc.capacity <= 0 {
		return
	}
	if _, ok := pc.entries[e.key]; ok {
		return
	}
	pc.entries[e.key] = pc.lru.PushFront(e)
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
		}
	}
	b += int64(len(p.copies)) * copyCost
	b += int64(len(p.deps)) * depCost
	b += int64(len(p.flat)+len(p.rels)) * 8
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
// benchmarks). Compiles in flight are left to finish: their waiters still
// get the plan they waited for, and it lands in the emptied cache.
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
// instances. A torus master is also rank-free: its rounds are copied with
// their peers cleared, and rels records the relative step of each, taken
// from s, the schedule the plan was compiled from.
func (p *Plan) detach(s *Schedule) *Plan {
	m := &Plan{
		op:      p.op,
		algo:    p.algo,
		phases:  p.phases,
		copies:  p.copies,
		tempLen: p.tempLen,
		rounds:  p.rounds,
		volume:  p.volume,
		flat:    p.flat,
		deps:    p.deps,
		window:  p.window,
	}
	if p.comm.IsPeriodic() {
		m.rels = s.flatRels()
		m.phases, _ = cloneRounds(p.phases)
		for _, rounds := range m.phases {
			for i := range rounds {
				rounds[i].sendTo, rounds[i].recvFrom = ProcNull, ProcNull
			}
		}
		m.flat = nil
	}
	return m
}

// bind materializes a runnable plan from a cached master for communicator
// c: the immutable compile products are shared (read-only during
// execution by construction), all per-instance scratch starts empty and
// is allocated lazily by the executors. A mesh master's rounds are shared
// whole (one Plan allocation); a torus master's are copied into the new
// plan's own backing array, phase headers and flat pointers, with the
// peers resolved from the calling rank — four allocations.
func (m *Plan) bind(c *Comm) *Plan {
	p := &Plan{
		comm:    c,
		op:      m.op,
		algo:    m.algo,
		phases:  m.phases,
		copies:  m.copies,
		tempLen: m.tempLen,
		rounds:  m.rounds,
		volume:  m.volume,
		flat:    m.flat,
		deps:    m.deps,
		window:  m.window,
		cmet:    c.cmet,
	}
	if m.rels != nil {
		p.phases, p.flat = cloneRounds(m.phases)
		rank, d := c.comm.Rank(), c.grid.NDims()
		for i, r := range p.flat {
			// Every displacement stays on a torus.
			rel := vec.Vec(m.rels[i*d : (i+1)*d])
			r.sendTo, _ = c.grid.RankDisplace(rank, rel)
			r.recvFrom, _ = c.grid.RankDisplaceNeg(rank, rel)
		}
	}
	return p
}

// cloneRounds copies a plan's rounds into one new backing array, with new
// phase headers and flat (phase-major) pointers into it. The composites
// inside the rounds stay shared.
func cloneRounds(phases [][]execRound) ([][]execRound, []*execRound) {
	total := 0
	for _, rounds := range phases {
		total += len(rounds)
	}
	all := make([]execRound, 0, total)
	out := make([][]execRound, len(phases))
	for pi, rounds := range phases {
		n := len(all)
		all = append(all, rounds...)
		out[pi] = all[n:len(all):len(all)]
	}
	flat := make([]*execRound, len(all))
	for i := range all {
		flat[i] = &all[i]
	}
	return out, flat
}

// FromCache reports whether this plan's compile products were reused from
// the shared plan cache: whether the cached plan had already served this
// rank number, in this world or an earlier one. The first Init of a shape
// on each rank of a world reports false even though a torus compiles it
// only once — the other ranks bind the master one of them compiled — so
// FromCache reads as if every rank compiled its own plan;
// cart.plancache.hit counts those shared binds. An Auto plan reports its
// combining leg.
func (p *Plan) FromCache() bool { return p.fromCache }
