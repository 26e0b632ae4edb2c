// Package mpi implements an in-process message-passing runtime with the
// semantics the Cartesian Collective Communication library needs from MPI:
// ranks with private address spaces (one goroutine per rank), tagged
// two-sided point-to-point communication with non-overtaking matching,
// nonblocking operations with requests and Waitall, communicators with
// isolated contexts, standard collectives, Cartesian and distributed-graph
// process topologies, and the MPI neighborhood collectives (the baselines
// of the paper's evaluation).
//
// The runtime supports an optional virtual-time cost model (package
// netmodel): each rank carries a virtual clock, posted sends serialize on a
// per-message overhead, and messages arrive at send time + α + β·bytes.
// This substitutes for the paper's clusters — see DESIGN.md.
package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/netmodel"
	"cartcc/internal/trace"
)

// Wildcards and limits mirroring the MPI constants.
const (
	// AnySource matches a message from any source rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// DefaultTimeout is the hard fallback limit for a blocked receive before
// the runtime declares a deadlock. Zero disables the fallback timer. The
// wait-for-graph monitor (watchdog.go) normally diagnoses deadlocks long
// before this timer fires.
const DefaultTimeout = 60 * time.Second

// World owns the ranks of one parallel run. All communicators of a run are
// derived from the world communicator passed to each rank's function.
type World struct {
	size    int
	model   *netmodel.Model
	rec     *trace.Recorder
	seed    int64
	timeout time.Duration
	faults  *FaultPlan

	// flight is the always-on flight recorder: a bounded per-rank ring of
	// recent runtime events, nil only when explicitly disabled
	// (Config.FlightCap < 0). Snapshot with FlightTail; the introspection
	// plane serves it live and dumps it on failure.
	flight *trace.FlightRecorder
	// metricsReg is Config.Metrics, kept so the introspection plane can
	// reach the run's registry from the world handle alone (/metrics).
	metricsReg *metrics.Registry

	ranks  []*rankState
	ctxSeq atomic.Int64
	// epochSeq allocates recovery epoch numbers; the world starts in epoch
	// 0 and each successful Shrink consensus advances it (ft.go).
	epochSeq atomic.Int64
	abort    chan struct{}
	failed   atomic.Bool

	// Error aggregation: primary holds every rank's own failure, cascade
	// the secondary errors caused by the abort tearing down the rest.
	failMu  sync.Mutex
	primary []error
	cascade []error
	errRank map[int]bool // ranks that contributed a primary error
	// onFail is Config.OnFailure; set before the ranks spawn, never
	// written again. Invoked outside failMu (a hook snapshotting the
	// world must not self-deadlock).
	onFail func(rank int, err error)

	// Fault layer: failed ranks and revoked contexts, with atomic counters
	// keeping the hot-path checks free until a first fault.
	deadMu   sync.Mutex
	dead     map[int]*RankFailedError
	deadN    atomic.Int32
	revoked  map[int64]bool
	revokedN atomic.Int32

	// Deadlock monitor registry: per-rank blocked state and completion.
	// monitoring is set before the rank goroutines spawn and never written
	// again; when false (DeadlockPoll < 0) no monitor goroutine reads the
	// registry and blocking waits skip registration entirely.
	monitoring bool
	blocked    []atomic.Pointer[blockedOp]
	done       []atomic.Bool
	// dlInFlight/dlInFlightSince remember the monitor's last transport
	// InFlight() observation (monitor goroutine only, no locking): a
	// positive count that stops changing is a stalled pipe, not progress
	// in motion, and must not suppress deadlock detection forever
	// (deadlockCheck).
	dlInFlight      int
	dlInFlightSince time.Time

	// wirePools holds the per-element-type wire-buffer pools behind the
	// non-contiguous send path (wirepool.go), keyed by reflect.Type.
	// wireOut counts wires currently drawn and not yet released — the
	// pool-occupancy probe of the introspection plane.
	wirePools sync.Map
	wireOut   atomic.Int64

	// transport, when non-nil, carries messages whose destination the
	// transport does not answer Local for (transport.go). localRank marks
	// the world ranks hosted by this process; nil means all of them (the
	// in-process default and force-remote single-process worlds). Both are
	// set before the rank goroutines spawn and never written again.
	transport Transport
	localRank []bool
}

// Config controls a parallel run.
type Config struct {
	// Procs is the number of ranks (goroutines) to spawn. Must be >= 1.
	Procs int
	// Model, if non-nil, enables virtual-time accounting under the given
	// cost model.
	Model *netmodel.Model
	// Seed seeds the per-rank noise generators; runs with the same seed,
	// model and program are deterministic in virtual time.
	Seed int64
	// Timeout is the blocked-receive fallback watchdog; 0 means
	// DefaultTimeout, negative disables it. The wait-for-graph monitor
	// (see DeadlockPoll) is the primary deadlock defense.
	Timeout time.Duration
	// Recorder, if non-nil, collects per-rank communication events in
	// virtual time (requires Model; see package trace). It must have been
	// created for at least Procs ranks.
	Recorder *trace.Recorder
	// Faults, if non-nil, injects deterministic failures — rank crashes,
	// stragglers, message delays — into the run; see FaultPlan.
	Faults *FaultPlan
	// Metrics, if non-nil, collects per-rank runtime metrics (sends,
	// receives, bytes, zero-copy vs gathered path, pool hits, queue
	// high-water marks, blocked time). It must have been created for at
	// least Procs ranks; works in wall-clock and virtual-time runs alike.
	Metrics *metrics.Registry
	// DeadlockPoll is the sampling interval of the wait-for-graph deadlock
	// monitor; 0 means DefaultDeadlockPoll, negative disables the monitor.
	DeadlockPoll time.Duration
	// FlightCap sets the per-rank capacity of the always-on flight
	// recorder (see trace.FlightRecorder): 0 selects
	// trace.DefaultFlightCap, negative disables recording entirely.
	// Ignored when Flight is non-nil.
	FlightCap int
	// Flight, if non-nil, is an externally created flight recorder the run
	// records into (it must cover at least Procs ranks). Supplying one lets
	// a harness keep the ring across runs; normally leave it nil and let
	// Run size its own.
	Flight *trace.FlightRecorder
	// OnFailure, if non-nil, is invoked once per primary failure recorded
	// against the run (a rank's own error, an injected crash, a watchdog
	// diagnosis — never the secondary ErrAborted cascade), with the world
	// rank it was attributed to (-1 when unattributed) and the error. It
	// runs on the failing goroutine before blocked peers are released, so
	// a post-mortem hook observes the world in the state that failed.
	OnFailure func(rank int, err error)
}

// rankState is the per-rank runtime state. The clock, rng and delayCount
// fields are owned by the rank's goroutine (virtual-time runs are
// single-poster by construction); the mailbox has its own lock. Wall-clock
// runs may post operations from helper goroutines too — a cart progress
// engine drives committed schedules off the rank's goroutine — so the ops
// counter is atomic and sendMu serializes send-sequence allocation through
// delivery.
type rankState struct {
	world *World
	rank  int
	clock netmodel.Time
	rng   *rand.Rand
	box   mailbox
	ops   atomic.Int64 // point-to-point operations posted (fault triggers)
	// sendMu orders sendSeq allocation and mailbox delivery as one atomic
	// step per sender: the receiver's per-sender dedup drops any message
	// whose sequence number does not advance, so two posters interleaving
	// (rank goroutine + progress engine) must never deliver out of
	// sequence order.
	sendMu  sync.Mutex
	sendSeq uint64 // per-sender send sequence (duplicate suppression)
	// sendEnv is the envelope of the send in progress, guarded by sendMu:
	// every send fills it and routes it, and the receiving side copies or
	// encodes it before route returns, so no send allocates an envelope.
	sendEnv message
	// recvFree is the LIFO of receive operations the blocking forms (Recv,
	// Sendrecv) run on: their request never reaches the caller, so the
	// operation is taken here and returned before the call returns. The
	// lock admits helper goroutines using blocking forms beside the rank's.
	recvMu     sync.Mutex
	recvFree   []*layoutRecv
	delayCount []int // per-MsgDelay matching-message counters
	dropCount  []int // per-MsgDrop matching-message counters
	dupCount   []int // per-MsgDup matching-message counters
	// blockTimer is the rank's reusable fallback-watchdog timer, armed for
	// each blocking wait instead of allocating a fresh timer per block.
	// timerBusy marks it taken: a helper goroutine that blocks on the same
	// rank while the timer is armed uses a private one.
	blockTimer *time.Timer
	timerBusy  atomic.Bool
	// met holds the rank's resolved metric pointers; nil when the run was
	// configured without metrics (the instrumentation-off fast path).
	met *mpiMetrics
}

// armTimeout arms a fallback-watchdog timer for one blocking wait and
// returns its channel (nil when the timeout is disabled) with the timer to
// hand back to disarmTimeout. Normally that is the rank's own reusable
// timer (own == nil); a second goroutine blocking on the same rank
// meanwhile — a helper running a collective on another communicator — gets
// a private one. Go 1.23 timer semantics make Reset-after-fire safe
// without draining.
func (rs *rankState) armTimeout() (ch <-chan time.Time, own *time.Timer) {
	d := rs.world.timeout
	if d <= 0 {
		return nil, nil
	}
	if !rs.timerBusy.CompareAndSwap(false, true) {
		own = time.NewTimer(d)
		return own.C, own
	}
	if rs.blockTimer == nil {
		rs.blockTimer = time.NewTimer(d)
	} else {
		rs.blockTimer.Reset(d)
	}
	return rs.blockTimer.C, nil
}

// disarmTimeout stops the timer of a finished blocking wait: the private
// one armTimeout handed out, or else the rank's, which it frees for the
// next wait.
func (rs *rankState) disarmTimeout(own *time.Timer) {
	switch {
	case own != nil:
		own.Stop()
	case rs.world.timeout > 0:
		rs.blockTimer.Stop()
		rs.timerBusy.Store(false)
	}
}

// Run spawns cfg.Procs ranks, calls f on each with its world communicator,
// and waits for all to finish. The first error or panic aborts the run and
// is returned; remaining blocked ranks are released through the abort
// channel.
//
// When the CARTCC_TRANSPORT environment variable selects a network backend
// and the run is in wall-clock mode, the world is built force-remote over
// that backend: every message detours through a real socket back into this
// process (see TransportFromEnv). Virtual-time runs ignore the variable —
// the cost model owns delivery timing.
func Run(cfg Config, f func(c *Comm) error) error {
	if err := validateConfig(&cfg); err != nil {
		return err
	}
	if cfg.Model == nil {
		if t, err, ok := transportFromEnv(cfg.Procs); ok {
			if err != nil {
				return err
			}
			defer t.Close()
			return runWorld(cfg, t, nil, f)
		}
	}
	return runWorld(cfg, nil, nil, f)
}

// validateConfig checks a Config before a world is built.
func validateConfig(cfg *Config) error {
	if cfg.Procs < 1 {
		return fmt.Errorf("mpi: Procs must be >= 1, got %d", cfg.Procs)
	}
	if cfg.Model != nil {
		if err := cfg.Model.Validate(); err != nil {
			return err
		}
	}
	if cfg.Recorder != nil {
		if cfg.Model == nil {
			return fmt.Errorf("mpi: tracing requires a cost model")
		}
		if cfg.Recorder.Ranks() < cfg.Procs {
			return fmt.Errorf("mpi: recorder sized for %d ranks, run has %d", cfg.Recorder.Ranks(), cfg.Procs)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(cfg.Procs); err != nil {
			return err
		}
	}
	if cfg.Metrics != nil && cfg.Metrics.Ranks() < cfg.Procs {
		return fmt.Errorf("mpi: metrics registry sized for %d ranks, run has %d", cfg.Metrics.Ranks(), cfg.Procs)
	}
	if cfg.Flight != nil && cfg.Flight.Ranks() < cfg.Procs {
		return fmt.Errorf("mpi: flight recorder sized for %d ranks, run has %d", cfg.Flight.Ranks(), cfg.Procs)
	}
	return nil
}

// runWorld builds the world and runs f on every locally hosted rank.
// localRank nil means all ranks run here (in-process and force-remote
// worlds); otherwise only the marked ranks spawn and the transport carries
// traffic to the rest.
func runWorld(cfg Config, t Transport, localRank []bool, f func(c *Comm) error) error {
	w := &World{
		size:       cfg.Procs,
		model:      cfg.Model,
		rec:        cfg.Recorder,
		seed:       cfg.Seed,
		timeout:    cfg.Timeout,
		faults:     cfg.Faults,
		flight:     cfg.Flight,
		onFail:     cfg.OnFailure,
		metricsReg: cfg.Metrics,
		abort:      make(chan struct{}),
		errRank:    make(map[int]bool),
	}
	if w.flight == nil && cfg.FlightCap >= 0 {
		w.flight = trace.NewFlightRecorder(cfg.Procs, cfg.FlightCap)
	}
	if w.timeout == 0 {
		w.timeout = DefaultTimeout
	}
	w.ranks = make([]*rankState, cfg.Procs)
	w.blocked = make([]atomic.Pointer[blockedOp], cfg.Procs)
	w.done = make([]atomic.Bool, cfg.Procs)
	for r := range w.ranks {
		w.ranks[r] = &rankState{
			world: w,
			rank:  r,
			rng:   rand.New(rand.NewSource(cfg.Seed ^ (int64(r+1) * 0x9e3779b97f4a7c))),
		}
		w.ranks[r].box.w = w
		if cfg.Metrics != nil {
			w.ranks[r].met = newMPIMetrics(cfg.Metrics.Rank(r))
			w.ranks[r].box.met = w.ranks[r].met
		}
	}

	w.transport = t
	w.localRank = localRank
	if t != nil {
		t.Attach(w)
	}

	// The wait-for-graph monitor needs to see every rank's blocked state;
	// when the world spans processes only the fallback timer can watch the
	// remote ranks, so the monitor stays local-only.
	if cfg.DeadlockPoll >= 0 && localRank == nil {
		poll := cfg.DeadlockPoll
		if poll == 0 {
			poll = DefaultDeadlockPoll
		}
		w.monitoring = true
		stop := make(chan struct{})
		defer close(stop)
		go w.runMonitor(poll, stop)
	}

	var wg sync.WaitGroup
	for r := 0; r < cfg.Procs; r++ {
		if !w.hosted(r) {
			w.done[r].Store(true) // remote ranks look finished to the monitor
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				w.done[r].Store(true)
				w.clearBlocked(r)
				if p := recover(); p != nil {
					if cs, ok := p.(crashSignal); ok {
						// Injected crash: record it without aborting the
						// world — peers observe the failure ULFM-style
						// through RankFailedError and may recover.
						w.record(r, cs.err)
						return
					}
					w.fail(fmt.Errorf("mpi: rank %d panicked: %v\n%s", r, p, debug.Stack()))
				}
			}()
			comm := &Comm{w: w, rs: w.ranks[r], rank: r, size: cfg.Procs, ctx: 0}
			if err := f(comm); err != nil {
				w.failFrom(r, fmt.Errorf("mpi: rank %d: %w", r, err))
			}
		}(r)
	}
	wg.Wait()
	return w.runError()
}

// fail records an error and releases all blocked ranks through the abort
// channel.
func (w *World) fail(err error) { w.failFrom(-1, err) }

// failFrom is fail with rank attribution for the failing-rank count.
func (w *World) failFrom(rank int, err error) {
	w.record(rank, err)
	if w.failed.CompareAndSwap(false, true) {
		close(w.abort)
		if w.transport != nil && !errors.Is(err, ErrAborted) {
			// Tell peer processes why this world died so they abort with
			// the cause instead of a timeout.
			w.transport.NoteFailure(err)
		}
	}
}

// record aggregates an error without aborting the run (injected crashes
// use it directly, so peers can survive ULFM-style). Cascade errors —
// those caused by the abort itself — are kept separately so they never
// mask the primary failures.
func (w *World) record(rank int, err error) {
	w.failMu.Lock()
	if errors.Is(err, ErrAborted) {
		w.cascade = append(w.cascade, err)
		w.failMu.Unlock()
		return
	}
	w.primary = append(w.primary, err)
	if rank >= 0 {
		w.errRank[rank] = true
	}
	w.failMu.Unlock()
	fr := rank
	if fr < 0 {
		fr = 0 // unattributed failures (watchdog diagnoses) land on rank 0's ring
	}
	w.flight.Record(fr, trace.FlightFailure, rank, 0, 0, 0)
	if w.onFail != nil {
		w.onFail(rank, err)
	}
}

// abortCause returns the primary failure that triggered the abort, if one
// is recorded. failFrom records the primary error strictly before closing
// the abort channel, so any waiter released by the abort can ask why the
// run died and report a typed cause instead of only the generic cascade
// error. Returns nil if — against expectation — only cascade errors exist.
func (w *World) abortCause() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	if len(w.primary) == 0 {
		return nil
	}
	return w.primary[0]
}

// runError assembles the run's return value: every primary error joined
// (one rank's panic no longer masks concurrent failures on others), with
// the failing-rank count, falling back to the cascade errors if — against
// expectation — only those exist.
func (w *World) runError() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	if len(w.primary) == 0 {
		if len(w.cascade) == 0 {
			return nil
		}
		return errors.Join(w.cascade...)
	}
	joined := errors.Join(w.primary...)
	n := len(w.errRank)
	if n > 1 {
		return fmt.Errorf("mpi: %d ranks failed: %w", n, joined)
	}
	return joined
}

// nextCtxBase atomically allocates n fresh context identifiers and returns
// the first. Context agreement across the ranks of a communicator is
// reached by broadcasting the allocated base from rank 0 (see commAllocCtx).
func (w *World) nextCtxBase(n int64) int64 {
	return w.ctxSeq.Add(n) - n + 1
}

// Comm is a communicator: an ordered group of ranks with an isolated
// message context. The zero value is not usable; communicators are obtained
// from Run and the communicator constructors.
type Comm struct {
	w    *World
	rs   *rankState
	rank int
	size int
	ctx  int64
	// epoch is the recovery epoch the communicator belongs to. The world
	// communicator and everything derived from it start in epoch 0; Shrink
	// stamps its survivors' communicator with a fresh epoch, and every
	// message sent on a communicator carries its epoch in the match tuple.
	epoch int64
	// group maps communicator rank to world rank; nil for the world
	// communicator (identity).
	group []int

	cart  *CartInfo
	graph *GraphInfo
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Epoch returns the communicator's recovery epoch (0 until a Shrink).
func (c *Comm) Epoch() int64 { return c.epoch }

// WorldRank translates a communicator rank to the underlying world rank —
// the identity survivors and failed ranks are named by across recoveries.
func (c *Comm) WorldRank(r int) int { return c.worldRank(r) }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return c.size }

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// VTime returns the rank's current virtual clock in seconds. It is zero
// unless the run was configured with a cost model.
func (c *Comm) VTime() netmodel.Time { return c.rs.clock }

// AdvanceVTime adds dt seconds of local computation to the rank's virtual
// clock, modeling compute phases between communication operations.
func (c *Comm) AdvanceVTime(dt netmodel.Time) { c.rs.clock += dt }

// Model returns the cost model of the run, or nil in wall-clock mode.
func (c *Comm) Model() *netmodel.Model { return c.w.model }

// checkRank validates a peer rank argument.
func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= c.size {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, r, c.size)
	}
	return nil
}

// Dup returns a new communicator with the same group but a fresh context.
// Collective over the communicator.
func (c *Comm) Dup() (*Comm, error) {
	ctx, err := c.allocCtx(1)
	if err != nil {
		return nil, err
	}
	dup := *c
	dup.ctx = ctx
	dup.cart, dup.graph = nil, nil
	return &dup, nil
}

// allocCtx collectively agrees on n fresh context ids and returns the
// first: rank 0 allocates from the world counter and broadcasts.
func (c *Comm) allocCtx(n int64) (int64, error) {
	base := make([]int64, 1)
	if c.rank == 0 {
		base[0] = c.w.nextCtxBase(n)
	}
	if err := Bcast(c, base, 0); err != nil {
		return 0, err
	}
	return base[0], nil
}

// Remap returns a communicator with the same members renumbered: new rank
// r is the process that had old rank newToOld[r]. Every process must pass
// the same permutation of 0..size-1. Collective. This is the primitive
// behind topology-aware rank reordering (the reorder flag of the Cartesian
// constructors).
func (c *Comm) Remap(newToOld []int) (*Comm, error) {
	if len(newToOld) != c.size {
		return nil, fmt.Errorf("mpi: Remap permutation has %d entries for %d ranks", len(newToOld), c.size)
	}
	seen := make([]bool, c.size)
	myNew := -1
	group := make([]int, c.size)
	for newRank, old := range newToOld {
		if old < 0 || old >= c.size || seen[old] {
			return nil, fmt.Errorf("mpi: Remap argument is not a permutation at index %d", newRank)
		}
		seen[old] = true
		group[newRank] = c.worldRank(old)
		if old == c.rank {
			myNew = newRank
		}
	}
	ctx, err := c.allocCtx(1)
	if err != nil {
		return nil, err
	}
	return &Comm{
		w:     c.w,
		rs:    c.rs,
		rank:  myNew,
		size:  c.size,
		ctx:   ctx,
		epoch: c.epoch,
		group: group,
	}, nil
}

// SubsetComm returns a communicator over the listed members of c,
// renumbered 0..len(members)-1 in list order. Collective over all of c:
// every rank must pass the same strictly increasing list of c-ranks (the
// context allocation is the one collective step); ranks outside the list
// participate and receive nil. Unlike Split, the membership is taken from
// the caller instead of being gathered — recovery uses this to build the
// survivor communicator from a membership every rank computed locally
// from agreed data, with exactly one collective to fail atomically on.
func (c *Comm) SubsetComm(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mpi: SubsetComm: empty member list")
	}
	prev := -1
	for _, r := range members {
		if r < 0 || r >= c.size {
			return nil, fmt.Errorf("mpi: SubsetComm: member %d outside [0,%d)", r, c.size)
		}
		if r <= prev {
			return nil, fmt.Errorf("mpi: SubsetComm: member list not strictly increasing at %d", r)
		}
		prev = r
	}
	ctx, err := c.allocCtx(1)
	if err != nil {
		return nil, err
	}
	group := make([]int, len(members))
	myNew := -1
	for i, r := range members {
		group[i] = c.worldRank(r)
		if r == c.rank {
			myNew = i
		}
	}
	if myNew < 0 {
		return nil, nil
	}
	return &Comm{
		w:     c.w,
		rs:    c.rs,
		rank:  myNew,
		size:  len(members),
		ctx:   ctx,
		epoch: c.epoch,
		group: group,
	}, nil
}

// Split partitions the communicator by color, ordering each part by key
// (ties broken by old rank), like MPI_Comm_split. Processes passing a
// negative color receive a nil communicator. Collective.
func (c *Comm) Split(color, key int) (*Comm, error) {
	type ck struct{ Color, Key, Rank int64 }
	mine := []int64{int64(color), int64(key), int64(c.rank)}
	all := make([]int64, 3*c.size)
	if err := Allgather(c, mine, all); err != nil {
		return nil, err
	}
	var entries []ck
	colors := map[int64]struct{}{}
	var colorOrder []int64
	for r := 0; r < c.size; r++ {
		e := ck{all[3*r], all[3*r+1], all[3*r+2]}
		entries = append(entries, e)
		if e.Color >= 0 {
			if _, ok := colors[e.Color]; !ok {
				colors[e.Color] = struct{}{}
				colorOrder = append(colorOrder, e.Color)
			}
		}
	}
	ctxBase, err := c.allocCtx(int64(len(colorOrder)))
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	// Stable selection of my color's members sorted by (key, old rank).
	var members []ck
	for _, e := range entries {
		if e.Color == int64(color) {
			members = append(members, e)
		}
	}
	for i := 1; i < len(members); i++ {
		for j := i; j > 0; j-- {
			a, b := members[j-1], members[j]
			if b.Key < a.Key || (b.Key == a.Key && b.Rank < a.Rank) {
				members[j-1], members[j] = b, a
			} else {
				break
			}
		}
	}
	group := make([]int, len(members))
	newRank := -1
	for i, e := range members {
		group[i] = c.worldRank(int(e.Rank))
		if int(e.Rank) == c.rank {
			newRank = i
		}
	}
	ctxOff := int64(0)
	for i, col := range colorOrder {
		if col == int64(color) {
			ctxOff = int64(i)
		}
	}
	return &Comm{
		w:     c.w,
		rs:    c.rs,
		rank:  newRank,
		size:  len(group),
		ctx:   ctxBase + ctxOff,
		epoch: c.epoch,
		group: group,
	}, nil
}
