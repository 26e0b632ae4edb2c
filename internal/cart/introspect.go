package cart

// The cart half of the live-introspection surface: a read-only snapshot of
// a communicator's progress engine (slot tables, registration queues,
// completion-set depths, in-flight futures) plus the process-wide
// plan-cache counters, served by internal/introspect as part of
// /debug/state. Snapshots take the same locks the engine itself uses, in
// the engine's own driveMu→mu order, and hold each for a table copy — safe
// to call from an HTTP handler goroutine while collectives are in flight,
// or while the engine is deadlocked (a parked driver holds no lock).

// WorkerDebug is one engine worker's entry in an engine snapshot.
type WorkerDebug struct {
	Worker int `json:"worker"`
	// Slots is the number of live executions in the worker's slot table;
	// SlotIDs lists them (slot order == commit order).
	Slots   int   `json:"slots"`
	SlotIDs []int `json:"slot_ids,omitempty"`
	// Orphans counts completion tokens stashed for commits still in the
	// caller's hands; PendingCommits counts registrations awaiting
	// admission by the next drive batch.
	Orphans        int `json:"orphans"`
	PendingCommits int `json:"pending_commits"`
	// SinkPending is the completion set's queued-token count — arrivals
	// no driver has drained yet.
	SinkPending int `json:"sink_pending"`
	// Resident reports whether a resident driver goroutine is live;
	// Waiters counts Future.Wait calls currently helping.
	Resident bool `json:"resident"`
	Waiters  int  `json:"waiters"`
	// Progress is the worker's monotone progress counter (admissions,
	// deliveries, retirements); a stall probe watches it advance.
	Progress uint64 `json:"progress"`
}

// EngineDebug is a snapshot of one communicator's progress engine.
type EngineDebug struct {
	// Inflight is the number of committed, unretired futures.
	Inflight int64 `json:"inflight"`
	// NextSeq is the next future sequence number (== futures ever started).
	NextSeq int `json:"next_seq"`
	// Crashed carries the engine's injected-crash error, empty while alive.
	Crashed string        `json:"crashed,omitempty"`
	Workers []WorkerDebug `json:"workers"`
}

// EngineDebug snapshots the communicator's progress engine. Safe from any
// goroutine; a communicator that never started a future reports a zero
// snapshot (the engine is created lazily at the first Start).
func (c *Comm) EngineDebug() EngineDebug {
	e := c.eng
	if e == nil {
		return EngineDebug{}
	}
	d := EngineDebug{
		Inflight: e.inflight.Load(),
		Workers:  make([]WorkerDebug, 0, len(e.workers)),
	}
	if err := e.crashErr(); err != nil {
		d.Crashed = err.Error()
	}
	for i, w := range e.workers {
		wd := WorkerDebug{Worker: i, Waiters: int(w.waiters.Load()), SinkPending: w.ws.Pending()}
		w.driveMu.Lock()
		wd.Slots = len(w.slots)
		for _, s := range w.slots {
			wd.SlotIDs = append(wd.SlotIDs, s.id)
		}
		wd.Orphans = len(w.orphans)
		wd.Progress = w.progress
		w.driveMu.Unlock()
		w.mu.Lock()
		wd.PendingCommits = len(w.pending)
		wd.Resident = w.running
		w.mu.Unlock()
		d.Workers = append(d.Workers, wd)
	}
	d.NextSeq = int(e.nextSeq.Load())
	return d
}

// PlanCacheDebug returns the shared compiled-plan cache's counters — the
// plan-cache leg of /debug/state. (Alias for SnapshotPlanCache, named for
// the introspection surface.)
func PlanCacheDebug() PlanCacheStats { return SnapshotPlanCache() }

// IsRoundTag reports whether a wire tag belongs to a Cartesian schedule
// round (synchronous or engine plane) rather than to user or recovery
// traffic. Straggler analysis uses it to group flight-recorder receive
// events by round.
func IsRoundTag(tag int64) bool { return tag >= tagBase }

// NormalizeRoundTag folds a wire tag back to its schedule round tag.
// Engine executions shift round tags into a per-execution block above
// asyncTagBase (wire = roundTag + asyncTagBase + seq·asyncTagSpan −
// tagBase, pipeline.go); undoing the shift lets receive events from
// different concurrent executions of the same plan aggregate under one
// round identity. Synchronous and non-round tags pass through unchanged.
func NormalizeRoundTag(tag int64) int64 {
	if tag >= int64(asyncTagBase) {
		return (tag-int64(asyncTagBase))%int64(asyncTagSpan) + tagBase
	}
	return tag
}
