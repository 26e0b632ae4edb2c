package mpi

import (
	"errors"
	"fmt"
)

// This file defines the Transport seam: the single point where a posted
// message crosses from the sender's world into the destination rank's
// mailbox. The in-process default (no transport) is the zero-copy loopback
// path the runtime has always had — a direct mailbox call, payloads
// aliasing the sender's buffer until match or detach. A network transport
// (transport_net.go) carries the same messages across OS processes as
// varint-framed byte frames, and must preserve exactly the properties the
// mailbox relies on:
//
//   - per-sender delivery order (the receiver's duplicate suppression and
//     the non-overtaking guarantee both key on it): Send is called under
//     the sender's sendMu and the backend must not reorder frames;
//   - the full match envelope (ctx, epoch, src, tag) plus (srcWorld, sseq)
//     travel with every message, so epoch-floor draining and dedup behave
//     identically however the message arrived;
//   - completion signaling is untouched: a remotely received message
//     enters through mailbox.deliver on the destination process, so
//     WaitSet notification, deferred consume and poison
//     semantics need no transport awareness at all.

// ErrRemoteFailed marks a failure propagated from another process of a
// multi-process world (a KindFail frame). Match with errors.Is.
var ErrRemoteFailed = errors.New("remote process failed")

// TransportError reports a transport-level send failure: the destination
// process is unreachable or the payload cannot be wire-encoded. The send
// request completes with this error instead of silently dropping data.
type TransportError struct {
	// Proc is the destination process index (-1 when not attributable).
	Proc int
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *TransportError) Error() string {
	return fmt.Sprintf("transport: process %d: %v", e.Proc, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Transport moves messages between the processes hosting one world's
// ranks. Implementations other than the in-process loopback live behind
// this interface; the runtime routes every posted message through
// World.route, which short-circuits to the mailbox for local
// destinations.
type Transport interface {
	// Attach binds the transport to its world. Called once, before any
	// rank goroutine spawns.
	Attach(w *World)
	// Local reports whether messages to world rank dst are delivered by a
	// direct mailbox call in this process. A backend may answer false for
	// ranks it hosts (force-remote mode) to route even process-local
	// traffic through the wire — the conformance battery runs the full
	// runtime semantics over real sockets this way.
	Local(dst int) bool
	// Send delivers message m to world rank dst. Called under the
	// sender's per-rank send lock; implementations must preserve the
	// per-sender frame order end to end. The payload must be read (or
	// encoded) before Send returns — it may alias the sender's user
	// buffer, and the alias dies with the posting call. On error the
	// message has not been delivered and the caller reclaims its buffers.
	Send(dst int, m *message) error
	// InFlight reports messages accepted by Send, destined to a rank
	// hosted in this process, and not yet handed to its mailbox — frames
	// in the self-loop pipe. The deadlock monitor treats a non-zero value
	// as progress-in-motion.
	InFlight() int
	// Drain blocks (bounded) until the self-loop pipe is momentarily
	// empty. The fault layer calls it before poisoning receives when a
	// rank is marked dead: on the loopback path every message posted
	// before a crash is already delivered when the poison runs, and the
	// recovery protocol's convergence leans on that ordering, so a
	// transport must let the pipe settle before the poison overtakes
	// messages the dead rank really sent.
	Drain()
	// NoteFailure propagates a fatal local failure to peer processes so
	// their worlds abort with the cause instead of a timeout.
	NoteFailure(err error)
	// Close flushes outbound frames, announces departure to peers and
	// releases sockets. Called after the local ranks have finished.
	Close() error
}

// route hands a posted message to world rank dst: a direct mailbox call
// for local destinations (the zero-copy loopback fast path), the world's
// transport otherwise. Callers pass errors to the posted request — a send
// that cannot reach its destination completes with a typed error, never
// by silently dropping data.
func (w *World) route(dst int, m *message) error {
	if t := w.transport; t != nil && !t.Local(dst) {
		return t.Send(dst, m)
	}
	w.ranks[dst].box.deliver(m)
	return nil
}

// hosted reports whether world rank r runs in this process. Without a
// rank map every rank is local.
func (w *World) hosted(r int) bool {
	return w.localRank == nil || w.localRank[r]
}
