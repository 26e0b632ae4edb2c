package trace

import (
	"fmt"
	"sync"
	"time"
)

// The flight recorder is the always-on half of the introspection plane: a
// bounded per-rank ring of recent runtime events that costs one uncontended
// mutex and a struct copy per record, holds fixed memory however long the
// world runs, and can be snapshotted at any moment — by the debug server's
// /debug/flight endpoint, or by the post-mortem dumper the instant the
// deadlock watchdog fires. Unlike Recorder/RoundLog (which accumulate a
// whole run for offline export), the ring forgets: it answers "what were
// the last few thousand things this rank did", which is the question a hang
// or a straggler investigation actually asks.

// FlightKind enumerates the event taxonomy of the flight recorder.
type FlightKind uint8

const (
	// FlightSendPost records a send entering the wire (post == completion
	// in the buffered runtime). Peer = destination, Bytes = payload size.
	FlightSendPost FlightKind = iota
	// FlightRecvPost records a receive being posted. Peer = source
	// (-1 for AnySource).
	FlightRecvPost
	// FlightRecvDone records a receive completing. Peer = matched source,
	// Bytes = received bytes, Arg = post→completion latency in ns.
	FlightRecvDone
	// FlightFutureCommit records an async collective committed to the
	// progress engine. Arg = future sequence number.
	FlightFutureCommit
	// FlightFutureRetire records an async collective retiring. Arg = the
	// future sequence number, Bytes = commit→retire latency in ns.
	FlightFutureRetire
	// FlightEpochBump records the communication epoch advancing during
	// recovery. Arg = new epoch.
	FlightEpochBump
	// FlightRecovery records one recovery step (shrink, re-embed, agree).
	// Arg is step-specific.
	FlightRecovery
	// FlightFailure records a typed failure observed by this rank
	// (watchdog diagnosis, rank crash, abort cascade).
	FlightFailure
)

var flightKindNames = [...]string{
	FlightSendPost:     "send-post",
	FlightRecvPost:     "recv-post",
	FlightRecvDone:     "recv-done",
	FlightFutureCommit: "future-commit",
	FlightFutureRetire: "future-retire",
	FlightEpochBump:    "epoch-bump",
	FlightRecovery:     "recovery",
	FlightFailure:      "failure",
}

// String returns the kind's taxonomy name.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("flight-kind-%d", int(k))
}

// MarshalText renders the kind name, so flight tails in JSON bundles read
// as taxonomy names rather than bare numbers.
func (k FlightKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a taxonomy name back — post-mortem bundles must be
// parseable by carttrace, not just writable.
func (k *FlightKind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range flightKindNames {
		if n == s {
			*k = FlightKind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown flight kind %q", s)
}

// FlightEvent is one fixed-size flight-recorder record. Fields beyond Kind
// are kind-specific (see the kind constants); unused ones are zero.
type FlightEvent struct {
	Seq   uint64     `json:"seq"` // per-ring sequence number, from 0
	AtNs  int64      `json:"at_ns"`
	Kind  FlightKind `json:"kind"`
	Rank  int32      `json:"rank"`
	Peer  int32      `json:"peer"`
	Tag   int64      `json:"tag"`
	Bytes int64      `json:"bytes,omitempty"`
	Arg   int64      `json:"arg,omitempty"`
}

// flightRing is one rank's bounded event ring. A plain mutex rather than a
// seqlock: the critical section is an index bump and a struct copy, the
// lock is all but uncontended (one rank's events come from its own
// goroutine plus at most one engine worker), and unlike a seqlock it is
// clean under the race detector, which the whole test tier runs under.
type flightRing struct {
	mu  sync.Mutex
	buf []FlightEvent
	n   uint64 // total events ever recorded; buf[(n-1) % len] is newest
}

// FlightRecorder is the per-world set of per-rank rings. The zero pointer
// is a disabled recorder: every method nil-checks, so call sites hook in
// unconditionally and pay one branch when recording is off.
type FlightRecorder struct {
	rings []flightRing
	cap   int
	start time.Time
}

// DefaultFlightCap is the per-rank ring capacity when none is given:
// recent-history depth for a busy rank at ~56 B/event, ~115 KiB per rank.
const DefaultFlightCap = 2048

// NewFlightRecorder creates rings for ranks ranks with the given per-rank
// capacity (<=0 selects DefaultFlightCap). All ring memory is allocated
// here; recording never allocates.
func NewFlightRecorder(ranks, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	f := &FlightRecorder{rings: make([]flightRing, ranks), cap: capacity, start: time.Now()}
	for i := range f.rings {
		f.rings[i].buf = make([]FlightEvent, capacity)
	}
	return f
}

// Ranks returns the number of per-rank rings (0 when disabled).
func (f *FlightRecorder) Ranks() int {
	if f == nil {
		return 0
	}
	return len(f.rings)
}

// Cap returns the per-rank ring capacity (0 when disabled).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.cap
}

// now returns nanoseconds since the recorder was created (monotonic).
func (f *FlightRecorder) now() int64 { return int64(time.Since(f.start)) }

// Now returns the recorder's monotonic clock reading in nanoseconds — the
// timebase of recorded events (0 when disabled). Callers that stamp their
// own durations (a receive's post time, say) read it so latencies line up
// with event timestamps.
func (f *FlightRecorder) Now() int64 {
	if f == nil {
		return 0
	}
	return f.now()
}

// Record appends one event to rank's ring, stamping its time and sequence
// number. Safe for concurrent use; no-op on a nil recorder or an
// out-of-range rank (a shrunk world keeps its original ring count, but a
// defensive check beats a panic inside the runtime's hot path).
func (f *FlightRecorder) Record(rank int, kind FlightKind, peer int, tag, bytes, arg int64) {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return
	}
	at := f.now()
	r := &f.rings[rank]
	r.mu.Lock()
	e := &r.buf[r.n%uint64(len(r.buf))]
	e.Seq = r.n
	e.AtNs = at
	e.Kind = kind
	e.Rank = int32(rank)
	e.Peer = int32(peer)
	e.Tag = tag
	e.Bytes = bytes
	e.Arg = arg
	r.n++
	r.mu.Unlock()
}

// Total returns the number of events ever recorded on rank's ring (not
// bounded by capacity — the ring keeps only the newest Cap of them).
func (f *FlightRecorder) Total(rank int) uint64 {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return 0
	}
	r := &f.rings[rank]
	r.mu.Lock()
	n := r.n
	r.mu.Unlock()
	return n
}

// Tail copies out the newest events of rank's ring, oldest first, at most
// max (<=0 means the whole retained window). The copy is taken under the
// ring lock, so it is a consistent snapshot of that rank's recent history.
func (f *FlightRecorder) Tail(rank, max int) []FlightEvent {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return nil
	}
	r := &f.rings[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.n
	if held > uint64(len(r.buf)) {
		held = uint64(len(r.buf))
	}
	if max > 0 && uint64(max) < held {
		held = uint64(max)
	}
	out := make([]FlightEvent, held)
	for i := uint64(0); i < held; i++ {
		seq := r.n - held + i
		out[i] = r.buf[seq%uint64(len(r.buf))]
	}
	return out
}

// TailAll returns every rank's tail (index = rank), each bounded by max.
func (f *FlightRecorder) TailAll(max int) [][]FlightEvent {
	if f == nil {
		return nil
	}
	out := make([][]FlightEvent, len(f.rings))
	for i := range f.rings {
		out[i] = f.Tail(i, max)
	}
	return out
}
