package mpi

import (
	"fmt"
	"strings"
	"time"
)

// This file implements the wait-for-graph deadlock monitor that replaces
// the old blind per-receive timer as the runtime's first line of defense.
// Every blocking wait registers what it waits for; a monitor goroutine
// samples the registry and fails the run with a full diagnostic the moment
// it can prove no rank will make progress — in milliseconds, instead of a
// 60-second timeout that names one receive.

// DefaultDeadlockPoll is the default sampling interval of the wait-for-graph
// deadlock monitor.
const DefaultDeadlockPoll = time.Millisecond

// blockedOp is one rank's registered blocked state: the operation it is
// waiting in, when the wait started, and the channels whose fill would
// release it (the monitor's liveness check reads only channel lengths, so
// it never races with the rank).
type blockedOp struct {
	kind  string // "recv" or "waitsome"
	src   int    // communicator-level source (recv kind; may be AnySource)
	tag   int
	ctx   int64
	since time.Time
	// pendings are the posted receives whose delivery releases the rank;
	// srcWorlds[0] is a recv kind's exact source world rank (-1 for
	// wildcard).
	pendings  []*pendingRecv
	srcWorlds []int
}

// describe renders the blocked operation for the diagnostic report.
func (op *blockedOp) describe() string {
	if op.kind == "waitsome" {
		return fmt.Sprintf("%s over %d pending receive(s)", op.kind, len(op.pendings))
	}
	src := fmt.Sprintf("%d", op.src)
	if op.src == AnySource {
		src = "any"
	}
	tag := fmt.Sprintf("%d", op.tag)
	if op.tag == AnyTag {
		tag = "any"
	}
	return fmt.Sprintf("recv(src=%s tag=%s ctx=%d)", src, tag, op.ctx)
}

// satisfiable reports whether any awaited receive has had a message (or
// poison) matched to it: the rank is being released — or was released and
// simply hasn't been scheduled to deregister yet — not deadlocked. The
// delivered flag, not the channel length, is the sound signal: a preempted
// receiver may have drained the channel already.
func (op *blockedOp) satisfiable() bool {
	for _, p := range op.pendings {
		if p.delivered.Load() || len(p.ready) > 0 {
			return true
		}
	}
	return false
}

// setBlocked registers the calling rank's blocked state; clearBlocked
// removes it. Both are cheap atomic pointer stores on the rank's own slot.
func (w *World) setBlocked(rank int, op *blockedOp) { w.blocked[rank].Store(op) }
func (w *World) clearBlocked(rank int)              { w.blocked[rank].Store(nil) }

// BlockedRank is one rank's entry in a deadlock report: its pending
// operation and the unexpected messages queued in its mailbox (the
// mismatched traffic that explains *why* nothing matches).
type BlockedRank struct {
	Rank       int
	Op         string
	BlockedFor time.Duration
	// WaitsOn is the exact source world rank the op waits on, or -1.
	WaitsOn int
	// Queued are the envelopes of the rank's unexpected-message queue.
	Queued []string
}

// DeadlockError is the wait-for-graph monitor's diagnosis: which proof of
// non-progress fired and every blocked rank's pending operation with its
// queued unexpected messages. Match with errors.As.
type DeadlockError struct {
	// Kind is the proof that fired: "all-blocked" (every live rank waits on
	// an unsatisfiable receive), "cycle" (a wait-for cycle among exact-source
	// receives), or "orphan" (a receive from a rank that already finished).
	Kind string
	// Cycle holds the world ranks of the wait-for cycle, in order (cycle
	// kind only).
	Cycle []int
	// Blocked reports every currently blocked rank.
	Blocked []BlockedRank
	// Finished and Failed list ranks that completed or crashed.
	Finished []int
	Failed   []int
}

// Error renders the full multi-line diagnostic report.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	switch e.Kind {
	case "cycle":
		parts := make([]string, 0, len(e.Cycle)+1)
		for _, r := range e.Cycle {
			parts = append(parts, fmt.Sprintf("%d", r))
		}
		parts = append(parts, fmt.Sprintf("%d", e.Cycle[0]))
		fmt.Fprintf(&b, "mpi: deadlock detected: wait-for cycle %s", strings.Join(parts, " -> "))
	case "orphan":
		fmt.Fprintf(&b, "mpi: deadlock detected: blocked receive from a finished rank")
	default:
		fmt.Fprintf(&b, "mpi: deadlock detected: all %d live ranks blocked", len(e.Blocked))
	}
	for _, br := range e.Blocked {
		fmt.Fprintf(&b, "\n  rank %d: %s blocked %v", br.Rank, br.Op, br.BlockedFor.Round(time.Millisecond))
		if len(br.Queued) == 0 {
			b.WriteString("; unexpected queue empty")
		} else {
			fmt.Fprintf(&b, "; unexpected queue: %s", strings.Join(br.Queued, ", "))
		}
	}
	if len(e.Finished) > 0 {
		fmt.Fprintf(&b, "\n  finished ranks: %v", e.Finished)
	}
	if len(e.Failed) > 0 {
		fmt.Fprintf(&b, "\n  failed ranks: %v", e.Failed)
	}
	return b.String()
}

// runMonitor samples the blocked registry every interval and fails the run
// once a deadlock proof holds on two consecutive samples (the confirmation
// absorbs the harmless instant between a message being handed over and the
// receiver waking).
func (w *World) runMonitor(interval time.Duration, stop <-chan struct{}) {
	minBlocked := 4 * interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	confirmations := 0
	for {
		select {
		case <-stop:
			return
		case <-w.abort:
			return
		case <-ticker.C:
		}
		if diag := w.deadlockCheck(minBlocked); diag != nil {
			confirmations++
			if confirmations >= 2 {
				w.fail(diag)
				return
			}
		} else {
			confirmations = 0
		}
	}
}

// inFlightStallBound is how long deadlockCheck defers to a transport
// InFlight() count that is positive but not advancing. A healthy pipe
// drains in microseconds; a count frozen for this long means its frames
// were lost (e.g. a failed self-link) and the blocked-rank proofs are
// sound again — without the bound, a wedged pipe would suppress deadlock
// detection forever.
const inFlightStallBound = 2 * time.Second

// deadlockCheck applies the three proofs of non-progress to a snapshot of
// the blocked registry and returns a diagnosis, or nil while progress is
// still possible.
func (w *World) deadlockCheck(minBlocked time.Duration) *DeadlockError {
	// A transport with frames still in its self-loop pipe (accepted by Send,
	// not yet handed to a local mailbox) is progress in motion the blocked
	// registry cannot see; no proof is sound until the pipe drains — unless
	// the count has been frozen past inFlightStallBound.
	if t := w.transport; t != nil {
		if n := t.InFlight(); n > 0 {
			if n != w.dlInFlight || w.dlInFlightSince.IsZero() {
				w.dlInFlight, w.dlInFlightSince = n, time.Now()
			}
			if time.Since(w.dlInFlightSince) < inFlightStallBound {
				return nil
			}
		} else if w.dlInFlight != 0 {
			w.dlInFlight, w.dlInFlightSince = 0, time.Time{}
		}
	}
	n := w.size
	now := time.Now()
	ops := make([]*blockedOp, n)
	stuck := make([]bool, n) // blocked long enough, nothing deliverable
	finished := make([]bool, n)
	active := 0
	allStuck := true
	for r := 0; r < n; r++ {
		if w.done[r].Load() {
			finished[r] = true
			continue
		}
		active++
		op := w.blocked[r].Load()
		ops[r] = op
		if op == nil || now.Sub(op.since) < minBlocked || op.satisfiable() || w.blocked[r].Load() != op {
			// The last check validates the reading: pending receives are
			// reposted by their owners, so "undelivered" is only evidence
			// while the registration that named them is still in place (it
			// is cleared before the receive can be reposted).
			allStuck = false
			continue
		}
		stuck[r] = true
	}
	if active == 0 {
		return nil
	}
	if allStuck {
		return w.buildDiagnosis("all-blocked", nil, ops, finished)
	}
	// Orphan wait: an exact-source receive from a rank that has finished
	// (or died) can never be matched — finished ranks send nothing more.
	for r := 0; r < n; r++ {
		if !stuck[r] || ops[r].kind != "recv" {
			continue
		}
		src := ops[r].srcWorlds[0]
		if src >= 0 && finished[src] {
			return w.buildDiagnosis("orphan", nil, ops, finished)
		}
	}
	// Wait-for cycle among stuck exact-source receives: every member waits
	// on the next, none can send until released.
	edge := make([]int, n)
	for r := 0; r < n; r++ {
		edge[r] = -1
		if stuck[r] && ops[r].kind == "recv" && ops[r].srcWorlds[0] >= 0 {
			edge[r] = ops[r].srcWorlds[0]
		}
	}
	state := make([]int, n) // 0 unvisited, 1 on path, 2 done
	for start := 0; start < n; start++ {
		var path []int
		for r := start; r >= 0 && edge[r] >= 0; r = edge[r] {
			if state[r] == 2 {
				break
			}
			if state[r] == 1 {
				// Found the cycle: trim the path's leading tail.
				for i, pr := range path {
					if pr == r {
						return w.buildDiagnosis("cycle", path[i:], ops, finished)
					}
				}
				break
			}
			state[r] = 1
			path = append(path, r)
		}
		for _, r := range path {
			state[r] = 2
		}
	}
	return nil
}

// buildDiagnosis assembles the report: every blocked rank's pending op and
// unexpected-message queue, plus the finished and failed rank lists.
func (w *World) buildDiagnosis(kind string, cycle []int, ops []*blockedOp, finished []bool) *DeadlockError {
	now := time.Now()
	diag := &DeadlockError{Kind: kind, Cycle: append([]int(nil), cycle...)}
	for r := 0; r < w.size; r++ {
		if finished[r] {
			diag.Finished = append(diag.Finished, r)
			continue
		}
		op := ops[r]
		if op == nil {
			continue
		}
		waitsOn := -1
		if op.kind == "recv" {
			waitsOn = op.srcWorlds[0]
		}
		diag.Blocked = append(diag.Blocked, BlockedRank{
			Rank:       r,
			Op:         op.describe(),
			BlockedFor: now.Sub(op.since),
			WaitsOn:    waitsOn,
			Queued:     w.ranks[r].box.snapshotArrived(),
		})
	}
	diag.Failed = w.deadRanks()
	return diag
}
