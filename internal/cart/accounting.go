package cart

import (
	"fmt"

	"cartcc/internal/metrics"
	"cartcc/internal/vec"
)

// Predicted-vs-observed schedule accounting. The plan compiler knows, per
// rank, exactly what an execution should do — how many rounds this rank
// participates in, how many messages it posts, how many schedule blocks
// and elements those messages carry. The executors count what actually
// happened at their post and retire sites. Stats exposes both sides and
// Check asserts the invariant that ties the implementation to the paper's
// analysis: on an interior rank (any rank of a torus) the observed rounds
// per execution equal the schedule's C and the observed blocks equal the
// schedule's volume V.
//
// The observed counters are atomic int64 fields on the Plan: an inline
// async commit posts (and counts) on the caller's goroutine while the
// progress-engine driver retires an earlier execution of the same plan,
// so the adds must be lock-free. Uncontended atomic adds cost a few
// nanoseconds — always on, no allocation, and cheap enough that the
// instrumentation-off benchmark budget (≤2% ns/op) is not spent here.

// ExecStats is one plan's predicted-vs-observed accounting, from the
// perspective of the local rank.
type ExecStats struct {
	Op   OpKind
	Algo Algorithm

	// Predicted quantities of the symbolic schedule (interior bounds,
	// identical on every rank): C and V of the paper's analysis.
	PredictedRounds int
	PredictedVolume int

	// Planned per-execution quantities of this rank's compiled plan. On a
	// torus they coincide with the interior bounds; on a mesh boundary
	// ranks plan less (dropped ProcNull rounds).
	PlannedRounds   int // rounds with a send or a receive
	PlannedMessages int // rounds with a send
	PlannedReceives int // rounds with a receive
	PlannedBlocks   int // schedule blocks across planned sends
	PlannedElements int // elements across planned sends

	// Observed totals accumulated across executions, counted at the
	// executors' post and retire sites.
	Executions      int64
	RoundsActive    int64
	MessagesSent    int64
	ReceivesRetired int64
	BlocksForwarded int64
	ElementsSent    int64
}

// Stats returns the plan's accounting so far. For an Auto plan the
// counters accrue on the variant Run actually chose; Stats follows the
// same cut-off only after an execution has bound the element size, so
// read it from the plan you ran.
func (p *Plan) Stats() ExecStats {
	s := ExecStats{
		Op:              p.op,
		Algo:            p.algo,
		PredictedRounds: p.rounds,
		PredictedVolume: p.volume,
		Executions:      p.obsRuns.Load(),
		RoundsActive:    p.obsRounds.Load(),
		MessagesSent:    p.obsMsgs.Load(),
		ReceivesRetired: p.obsRecvs.Load(),
		BlocksForwarded: p.obsBlocks.Load(),
		ElementsSent:    p.obsElems.Load(),
	}
	for _, rounds := range p.phases {
		for i := range rounds {
			r := &rounds[i]
			if r.sendTo != ProcNull || r.recvFrom != ProcNull {
				s.PlannedRounds++
			}
			if r.sendTo != ProcNull {
				s.PlannedMessages++
				s.PlannedBlocks += r.blocks
				s.PlannedElements += r.sendElems
			}
			if r.recvFrom != ProcNull {
				s.PlannedReceives++
			}
		}
	}
	return s
}

// Check asserts the predicted-vs-observed invariant: every completed
// execution did exactly what the compiled plan said it would. It returns
// nil when no execution has run yet. After a failed (aborted) execution
// the observed counters legitimately hold a partial round trip, so Check
// is meaningful only when every execution succeeded — which is exactly
// the condition under which the paper's C and V are claims about the
// implementation.
func (s ExecStats) Check() error {
	if s.Executions == 0 {
		return nil
	}
	n := s.Executions
	checks := []struct {
		name     string
		observed int64
		perExec  int
	}{
		{"rounds", s.RoundsActive, s.PlannedRounds},
		{"messages", s.MessagesSent, s.PlannedMessages},
		{"receives", s.ReceivesRetired, s.PlannedReceives},
		{"blocks", s.BlocksForwarded, s.PlannedBlocks},
		{"elements", s.ElementsSent, s.PlannedElements},
	}
	for _, c := range checks {
		if want := n * int64(c.perExec); c.observed != want {
			return fmt.Errorf("cart: %s(%s): observed %s %d != planned %d×%d executions",
				s.Op, s.Algo, c.name, c.observed, c.perExec, n)
		}
	}
	return nil
}

// Interior reports whether this rank's plan matches the interior bounds —
// true on any torus rank, false on mesh boundary ranks that dropped
// ProcNull rounds. When true, Check additionally ties the observation to
// the paper's C and V.
func (s ExecStats) Interior() bool {
	return s.PlannedRounds == s.PredictedRounds && s.PlannedBlocks == s.PredictedVolume
}

// Predicted returns the paper's analytic round count C and per-process
// volume V (in blocks) for one collective family over a neighborhood —
// the numbers an interior rank's observed execution must reproduce. For
// the trivial algorithm both are the Table 1 trivial column.
func Predicted(nbh vec.Neighborhood, op OpKind, algo Algorithm) (c, v int) {
	st := ComputeStats(nbh)
	if algo == Trivial {
		return st.TComm, st.TComm
	}
	if op == OpAllgather {
		return st.C, st.VolAllgather
	}
	return st.C, st.VolAlltoall
}

// cartMetrics caches the executor-layer metric handles of one rank's
// registry Set; nil when metrics are off. Resolved once at compile (the
// registry is fixed for the communicator's lifetime), so the executors pay
// one nil check per increment.
type cartMetrics struct {
	runs       *metrics.Counter
	rounds     *metrics.Counter
	blocksFwd  *metrics.Counter
	prepostHWM *metrics.Gauge
	retireNs   *metrics.Histogram

	// Shared-plan-cache and autotune-selection accounting (plancache.go,
	// select.go). The cache is process-global; the counters attribute
	// each event to the rank whose Init triggered it.
	pcHit         *metrics.Counter
	pcMiss        *metrics.Counter
	pcEvict       *metrics.Counter
	pcBytes       *metrics.Gauge
	pickTrivial   *metrics.Counter
	pickCombining *metrics.Counter

	// Progress-engine accounting (engine.go, future.go).
	asyncStarts   *metrics.Counter
	asyncCancels  *metrics.Counter
	asyncInflight *metrics.Gauge
	futureNs      *metrics.Histogram
}

// newCartMetrics registers (or resolves) the cart-layer metrics on a
// rank's set. Names:
//
//	cart.runs                counter   completed plan executions
//	cart.rounds              counter   rounds this rank participated in
//	cart.blocks.fwd          counter   schedule blocks forwarded (observed volume)
//	cart.prepost.hwm         gauge     pipelined receive pre-post window high-water
//	cart.retire.ns           histogram wall-clock ns from receive post to retire
//	cart.plancache.hit       counter   shared-plan-cache hits on *Init (incl. waits on a concurrent compile)
//	cart.plancache.miss      counter   shared-plan-cache misses (compiles)
//	cart.plancache.evict     counter   LRU evictions this rank triggered
//	cart.plancache.bytes     gauge     estimated cache footprint after this rank's inserts
//	cart.tune.pick.trivial   counter   Auto selections that chose the trivial schedule
//	cart.tune.pick.combining counter   Auto selections that chose a combining schedule
//	cart.async.started       counter   futures committed to the progress engine
//	cart.async.cancelled     counter   futures whose Cancel was requested
//	cart.async.inflight      gauge     peak committed, unretired futures (per communicator pool)
//	cart.async.future.ns     histogram wall-clock ns from commit to future completion
func newCartMetrics(set *metrics.Set) *cartMetrics {
	if set == nil {
		return nil
	}
	return &cartMetrics{
		runs:          set.Counter("cart.runs"),
		rounds:        set.Counter("cart.rounds"),
		blocksFwd:     set.Counter("cart.blocks.fwd"),
		prepostHWM:    set.Gauge("cart.prepost.hwm"),
		retireNs:      set.Histogram("cart.retire.ns"),
		pcHit:         set.Counter("cart.plancache.hit"),
		pcMiss:        set.Counter("cart.plancache.miss"),
		pcEvict:       set.Counter("cart.plancache.evict"),
		pcBytes:       set.Gauge("cart.plancache.bytes"),
		pickTrivial:   set.Counter("cart.tune.pick.trivial"),
		pickCombining: set.Counter("cart.tune.pick.combining"),
		asyncStarts:   set.Counter("cart.async.started"),
		asyncCancels:  set.Counter("cart.async.cancelled"),
		asyncInflight: set.Gauge("cart.async.inflight"),
		futureNs:      set.Histogram("cart.async.future.ns"),
	}
}

// countSend records one posted send on the plan's observed accounting
// (and the metrics registry when attached).
func (p *Plan) countSend(r *execRound) {
	p.obsMsgs.Add(1)
	p.obsBlocks.Add(int64(r.blocks))
	p.obsElems.Add(int64(r.sendElems))
	if m := p.cmet; m != nil {
		m.blocksFwd.Add(int64(r.blocks))
	}
	// A send-only round (mesh boundary: the matching receive fell off the
	// grid) is counted active at its send post; rounds with a receive are
	// counted at the receive post, exactly once either way.
	if r.recvFrom == ProcNull {
		p.countRoundActive()
	}
}

// countRecvPost records one posted receive; every planned round has at
// most one, so it doubles as the round-participation count.
func (p *Plan) countRecvPost() {
	p.countRoundActive()
}

func (p *Plan) countRoundActive() {
	p.obsRounds.Add(1)
	if m := p.cmet; m != nil {
		m.rounds.Inc()
	}
}

// countRetire records one retired (completed) receive.
func (p *Plan) countRetire() {
	p.obsRecvs.Add(1)
}

// countRun records one completed execution.
func (p *Plan) countRun() {
	p.obsRuns.Add(1)
	if m := p.cmet; m != nil {
		m.runs.Inc()
	}
}
