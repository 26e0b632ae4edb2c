package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/trace"
)

// Options tunes one oracle run.
type Options struct {
	// Mutate names a schedule mutation to plant before checking: "" runs
	// the scenario as-is; "copy-skew" skews one move's destination slot in
	// the trivial reference schedule. The mutation-smoke CI job uses it to
	// prove the oracles can actually catch a planted schedule bug.
	Mutate string
}

// Failure is a reproducible oracle violation: which check tripped and a
// deterministic description (no timestamps, no durations — the same
// scenario produces the same Failure byte for byte). A nil *Failure means
// every oracle passed.
type Failure struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

func (f *Failure) String() string { return f.Check + ": " + f.Detail }

func fail(check, format string, args ...any) *Failure {
	return &Failure{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Mutations maps mutation names to schedule transforms. CopySkew is the
// planted off-by-one of the CI mutation smoke: the first move landing in
// the receive buffer is shifted to the next slot (mod t), a classic copy
// indexing bug that must show up as a payload differential.
func mutation(name string, t int) (func(*cart.Schedule), error) {
	switch name {
	case "":
		return nil, nil
	case "copy-skew":
		return func(s *cart.Schedule) {
			for pi := range s.Phases {
				for ri := range s.Phases[pi].Rounds {
					for mi := range s.Phases[pi].Rounds[ri].Moves {
						mv := &s.Phases[pi].Rounds[ri].Moves[mi]
						if mv.To == cart.BufRecv {
							mv.ToSlot = (mv.ToSlot + 1) % t
							return
						}
					}
				}
			}
		}, nil
	default:
		return nil, fmt.Errorf("sim: unknown mutation %q", name)
	}
}

// legOut is what one execution leg reports back: per-rank receive buffers
// (sentinel-initialized to -1, so untouched blocks are visible), per-rank
// plan accounting, the merged runtime metrics, and per-rank final virtual
// clocks when the leg ran under a cost model.
type legOut struct {
	recv   [][]int
	rerun  [][]int
	stats  []cart.ExecStats
	met    metrics.Snapshot
	vtimes []float64
}

// runLeg executes the scenario's collective once through one executor
// configuration and collects everything the oracles need. Fault-free legs
// execute the plan twice (re-execution must be idempotent and is part of
// the accounting contract); faulted legs run once.
func runLeg(sc *Scenario, algo cart.Algorithm, planOpts []cart.PlanOption,
	model *netmodel.Model, rec *trace.Recorder, faults *mpi.FaultPlan) (*legOut, error) {

	p := sc.Procs()
	nbh := sc.nbh()
	m := sc.BlockSize
	t := len(nbh)
	out := &legOut{
		recv:   make([][]int, p),
		rerun:  make([][]int, p),
		stats:  make([]cart.ExecStats, p),
		vtimes: make([]float64, p),
	}
	reg := metrics.NewRegistry(p)
	cfg := mpi.Config{
		Procs:    p,
		Timeout:  30 * time.Second,
		Seed:     sc.ModelSeed,
		Model:    model,
		Recorder: rec,
		Faults:   faults,
		Metrics:  reg,
	}
	bindPM := wirePostMortem(&cfg)
	err := mpi.Run(cfg, func(w *mpi.Comm) error {
		bindPM(w)
		cc, err := cart.NeighborhoodCreate(w, sc.Dims, sc.Periods, nbh, nil)
		if err != nil {
			return err
		}
		var plan *cart.Plan
		if sc.Op == "alltoall" {
			plan, err = cart.AlltoallInit(cc, m, algo, planOpts...)
		} else {
			plan, err = cart.AllgatherInit(cc, m, algo, planOpts...)
		}
		if err != nil {
			return err
		}
		sendLen := t * m
		if sc.Op == "allgather" {
			sendLen = m
		}
		send := make([]int, sendLen)
		for i := range send {
			send[i] = w.Rank()*1_000_000 + i
		}
		sentinel := func() []int {
			b := make([]int, t*m)
			for i := range b {
				b[i] = -1
			}
			return b
		}
		recv := sentinel()
		if err := cart.Run(plan, send, recv); err != nil {
			return err
		}
		out.recv[w.Rank()] = recv
		if faults == nil {
			again := sentinel()
			if err := cart.Run(plan, send, again); err != nil {
				return err
			}
			out.rerun[w.Rank()] = again
		}
		out.stats[w.Rank()] = plan.Stats()
		out.vtimes[w.Rank()] = w.VTime()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.met = reg.Merged()
	return out, nil
}

// checkLegInternals runs the single-leg oracles: re-execution idempotence,
// predicted-vs-observed accounting, and runtime metric conservation.
func checkLegInternals(sc *Scenario, leg string, algo cart.Algorithm, out *legOut) *Failure {
	for r := range out.recv {
		if !reflect.DeepEqual(out.recv[r], out.rerun[r]) {
			return fail("rerun-payload", "%s: rank %d: first run %v, second run %v", leg, r, out.recv[r], out.rerun[r])
		}
	}
	for r, st := range out.stats {
		if err := st.Check(); err != nil {
			return fail("accounting", "%s: rank %d: %v", leg, r, err)
		}
		if st.Executions != 2 {
			return fail("accounting", "%s: rank %d: %d executions recorded, ran 2", leg, r, st.Executions)
		}
	}
	// Every plan, on a mesh too, carries exactly the paper's interior C
	// and V (Proposition 3.2); on a torus every rank is interior, so the
	// observation must tie back to them. The copy-skew mutation moves data
	// to the wrong slot without changing any count, so these hold even
	// when mutated — the payload differential is what catches it.
	op := cart.OpAlltoall
	if sc.Op == "allgather" {
		op = cart.OpAllgather
	}
	wantC, wantV := cart.Predicted(sc.nbh(), op, algo)
	for r, st := range out.stats {
		if sc.Torus() && !st.Interior() {
			return fail("predicted-accounting", "%s: rank %d not interior on a torus: planned %d rounds / %d blocks, predicted %d / %d",
				leg, r, st.PlannedRounds, st.PlannedBlocks, st.PredictedRounds, st.PredictedVolume)
		}
		if st.PredictedRounds != wantC || st.PredictedVolume != wantV {
			return fail("predicted-accounting", "%s: rank %d predicts C=%d V=%d, analysis says C=%d V=%d",
				leg, r, st.PredictedRounds, st.PredictedVolume, wantC, wantV)
		}
	}
	if err := mpi.CheckMetricInvariants(out.met); err != nil {
		return fail("metric-invariants", "%s: %v", leg, err)
	}
	return nil
}

// CheckScenario runs every oracle over one scenario and returns the first
// violation, or nil when the scenario passes. The legs, in order:
//
//  1. trivial-blocking — the reference executor: sequential blocking
//     rounds, deterministic final buffers. Options.Mutate plants its
//     defect here, so a planted bug must surface in leg 2 or 3.
//  2. combining-barriered — the message-combining schedule under the
//     classic phase-barrier executor; payloads must equal leg 1.
//  3. combining-pipelined — the dependency-DAG pipelined executor;
//     payloads must equal leg 1.
//  4. auto-selected — the same collective with Algorithm Auto: the
//     self-tuning selector resolves to whichever family its cost model
//     picks, and the payloads must equal leg 1 regardless of the pick
//     (selection may only change performance, never results).
//     Re-execution must stay idempotent across the memoized decision.
//  5. async-futures — the same collective committed three deep through
//     the progress engine (cart.Start), with distinct per-future payload
//     offsets and each rank waiting on its futures in an independent
//     seed-shuffled order: every future's buffer must equal the trivial
//     reference shifted by its offset, whatever the completion order.
//     Concurrent in-flight executions must not bleed into each other —
//     a tag-isolation bug shows up here as a cross-future differential.
//  6. virtual time — leg 2 re-run under the scenario's cost model with a
//     trace recorder, twice: both runs must produce identical per-rank
//     clocks and event streams (determinism), the payloads must still
//     match, and the trace must be well-formed (every send slice has a
//     matching receive flow).
//  7. faults — when the scenario carries a fault plan, the reference leg
//     re-runs under it: the run must either fail with a typed rank
//     failure (or its cascade) or complete with correct payloads.
//     Watchdog deadlocks are a legitimate terminal outcome only for
//     plans that drop messages; dup-only plans must complete cleanly
//     (the mailbox dedup suppresses the duplicates); everything else is
//     a harness catch.
//  8. recovery — crash scenarios re-run under the self-healing wrapper
//     (cart.Recoverable), once per re-embedding policy: every run must
//     end verified-recovered (payloads equal a fresh run on the final
//     shrunken shape) or typed-terminal (see CheckRecovery).
//
// Each fault-free leg additionally self-checks: re-execution idempotence,
// predicted-vs-observed accounting (`Plan.Stats`), and runtime metric
// conservation (posted == completed, pool draws == gathered sends, ...).
func CheckScenario(sc Scenario, opt Options) *Failure {
	if err := sc.Validate(); err != nil {
		return fail("invalid-scenario", "%v", err)
	}
	mutate, err := mutation(opt.Mutate, len(sc.Neighborhood))
	if err != nil {
		return fail("invalid-scenario", "%v", err)
	}
	var trivOpts []cart.PlanOption
	if mutate != nil {
		trivOpts = append(trivOpts, cart.WithScheduleTransform(mutate))
	}

	ref, err := runLeg(&sc, cart.Trivial, trivOpts, nil, nil, nil)
	if err != nil {
		return fail("trivial-error", "%v", err)
	}
	if f := checkLegInternals(&sc, "trivial-blocking", cart.Trivial, ref); f != nil {
		return f
	}

	legs := []struct {
		name string
		opts []cart.PlanOption
	}{
		{"combining-barriered", []cart.PlanOption{cart.WithBarrieredPhases()}},
		{"combining-pipelined", nil},
	}
	for _, leg := range legs {
		out, err := runLeg(&sc, cart.Combining, leg.opts, nil, nil, nil)
		if err != nil {
			return fail("combining-error", "%s: %v", leg.name, err)
		}
		if f := checkLegInternals(&sc, leg.name, cart.Combining, out); f != nil {
			return f
		}
		if f := comparePayloads(leg.name, ref.recv, out.recv); f != nil {
			return f
		}
	}

	// Auto leg: the self-tuning selector must be payload-invisible —
	// whichever family it resolves to, the buffers equal the trivial
	// reference, and re-execution across the memoized decision stays
	// idempotent. The per-leg accounting oracle is skipped here by design:
	// stats accrue on the chosen variant, whose identity is the selector's
	// to decide.
	auto, err := runLeg(&sc, cart.Auto, nil, nil, nil, nil)
	if err != nil {
		return fail("auto-error", "%v", err)
	}
	for r := range auto.recv {
		if !reflect.DeepEqual(auto.recv[r], auto.rerun[r]) {
			return fail("rerun-payload", "auto-selected: rank %d: first run %v, second run %v", r, auto.recv[r], auto.rerun[r])
		}
	}
	if f := comparePayloads("auto-selected", ref.recv, auto.recv); f != nil {
		return f
	}
	if err := mpi.CheckMetricInvariants(auto.met); err != nil {
		return fail("metric-invariants", "auto-selected: %v", err)
	}

	// Async leg: concurrent futures through the progress engine must be
	// payload-exact and isolated from each other in any completion order.
	if f := runAsyncLeg(&sc, ref); f != nil {
		return f
	}

	// Virtual-time leg: determinism, payload agreement, trace flows.
	model, err := sc.model()
	if err != nil {
		return fail("invalid-scenario", "%v", err)
	}
	rec1 := trace.NewRecorder(sc.Procs())
	vt1, err := runLeg(&sc, cart.Combining, []cart.PlanOption{cart.WithBarrieredPhases()}, model, rec1, nil)
	if err != nil {
		return fail("vtime-error", "%v", err)
	}
	rec2 := trace.NewRecorder(sc.Procs())
	vt2, err := runLeg(&sc, cart.Combining, []cart.PlanOption{cart.WithBarrieredPhases()}, model, rec2, nil)
	if err != nil {
		return fail("vtime-error", "second run: %v", err)
	}
	for r := 0; r < sc.Procs(); r++ {
		if vt1.vtimes[r] != vt2.vtimes[r] {
			return fail("vtime-determinism", "rank %d finished at %g then %g under the same seed", r, vt1.vtimes[r], vt2.vtimes[r])
		}
		if !reflect.DeepEqual(rec1.RankEvents(r), rec2.RankEvents(r)) {
			return fail("vtime-determinism", "rank %d recorded different event streams across identical runs", r)
		}
	}
	if f := comparePayloads("virtual-time", ref.recv, vt1.recv); f != nil {
		return f
	}
	if err := trace.CheckFlows(rec1); err != nil {
		return fail("trace-flows", "%v", err)
	}

	// Fault leg: the run must fail in a typed, diagnosable way — or
	// survive with correct data. Hangs are caught by the watchdog and
	// classified as deadlocks; a deadlock is a legitimate terminal outcome
	// only when the plan drops messages (a lost message a collective
	// depends on has no other honest ending), and duplicate deliveries
	// must be invisible — the mailbox dedup suppresses them, so a
	// dup-only plan must complete with clean payloads.
	if sc.Faults.active() {
		out, err := runLeg(&sc, cart.Trivial, nil, nil, nil, sc.faultPlan())
		var dl *mpi.DeadlockError
		switch {
		case err == nil:
			if f := comparePayloads("fault-clean", ref.recv, out.recv); f != nil {
				return f
			}
		case errors.As(err, &dl) || strings.Contains(err.Error(), "deadlock suspected"):
			if len(sc.Faults.Drops) == 0 {
				return fail("deadlock", "%v", err)
			}
		case mpi.IsRankFailed(err) || errors.Is(err, mpi.ErrAborted):
			if len(sc.Faults.Crashes) == 0 {
				return fail("fault-unexpected-error", "rank failure without an injected crash: %v", err)
			}
		default:
			return fail("fault-unexpected-error", "%v", err)
		}
	}

	// Recovery leg: scenarios with injected crashes additionally run the
	// collective under the self-healing wrapper; every run must end
	// verified-recovered or typed-terminal, never silently wrong.
	if _, f := CheckRecovery(sc); f != nil {
		return f
	}
	return nil
}

// asyncLegK is how many futures the async leg keeps in flight per rank;
// asyncLegOff separates their payload spaces (the reference encoding is
// rank*1_000_000 + elem, far below one offset step), so a block delivered
// to the wrong future is a visible differential, not a silent overlap.
const (
	asyncLegK   = 3
	asyncLegOff = 100_000_000
)

// runAsyncLeg runs the scenario's collective asyncLegK-deep through the
// per-world progress engine: every rank commits K futures of one plan
// (each with its payload shifted by a distinct offset), then waits on
// them in a rank- and seed-dependent shuffled order, so completion and
// observation orders decouple. Each future's buffer must equal the
// trivial reference shifted by that future's offset — untouched sentinel
// blocks stay untouched — whatever order retirements landed in.
func runAsyncLeg(sc *Scenario, ref *legOut) *Failure {
	p := sc.Procs()
	nbh := sc.nbh()
	m := sc.BlockSize
	t := len(nbh)
	recvs := make([][][]int, p)
	reg := metrics.NewRegistry(p)
	err := mpi.Run(mpi.Config{Procs: p, Timeout: 30 * time.Second, Metrics: reg}, func(w *mpi.Comm) error {
		cc, err := cart.NeighborhoodCreate(w, sc.Dims, sc.Periods, nbh, nil)
		if err != nil {
			return err
		}
		var plan *cart.Plan
		if sc.Op == "alltoall" {
			plan, err = cart.AlltoallInit(cc, m, cart.Combining)
		} else {
			plan, err = cart.AllgatherInit(cc, m, cart.Combining)
		}
		if err != nil {
			return err
		}
		sendLen := t * m
		if sc.Op == "allgather" {
			sendLen = m
		}
		futs := make([]*cart.Future, asyncLegK)
		bufs := make([][]int, asyncLegK)
		for k := 0; k < asyncLegK; k++ {
			send := make([]int, sendLen)
			for i := range send {
				send[i] = w.Rank()*1_000_000 + i + (k+1)*asyncLegOff
			}
			recv := make([]int, t*m)
			for i := range recv {
				recv[i] = -1
			}
			if futs[k], err = cart.Start(plan, send, recv); err != nil {
				return err
			}
			bufs[k] = recv
		}
		rnd := rand.New(rand.NewSource(sc.ModelSeed*1_000_003 + int64(w.Rank())))
		for _, k := range rnd.Perm(asyncLegK) {
			if err := futs[k].Wait(); err != nil {
				return fmt.Errorf("future %d: %w", k, err)
			}
		}
		recvs[w.Rank()] = bufs
		return nil
	})
	if err != nil {
		return fail("async-error", "%v", err)
	}
	for r := 0; r < p; r++ {
		for k := 0; k < asyncLegK; k++ {
			got := recvs[r][k]
			for i, want := range ref.recv[r] {
				if want != -1 {
					want += (k + 1) * asyncLegOff
				}
				if got[i] != want {
					return fail("payload-differential",
						"async-futures: rank %d future %d element %d: reference implies %d, future has %d",
						r, k, i, want, got[i])
				}
			}
		}
	}
	if err := mpi.CheckMetricInvariants(reg.Merged()); err != nil {
		return fail("metric-invariants", "async-futures: %v", err)
	}
	return nil
}

// comparePayloads demands two legs agree on every rank's receive buffer,
// untouched sentinel blocks included.
func comparePayloads(leg string, want, got [][]int) *Failure {
	for r := range want {
		if !reflect.DeepEqual(want[r], got[r]) {
			for i := range want[r] {
				if i < len(got[r]) && want[r][i] != got[r][i] {
					return fail("payload-differential", "%s: rank %d element %d: trivial reference has %d, leg has %d",
						leg, r, i, want[r][i], got[r][i])
				}
			}
			return fail("payload-differential", "%s: rank %d: reference %v, leg %v", leg, r, want[r], got[r])
		}
	}
	return nil
}
