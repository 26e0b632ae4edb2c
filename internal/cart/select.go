package cart

import (
	"fmt"
	"math"

	"cartcc/internal/netmodel"
	"cartcc/internal/tune"
)

// Algorithm selection: the autotuning half of the Auto plans. The paper's
// Section 3.1 derives the crossover block size below which the
// message-combining schedules beat the trivial one; Decide evaluates that
// trade with this runtime's actual executor semantics and a calibrated
// machine profile (internal/tune), so `Auto` — the default algorithm of
// NeighborhoodCreate — picks per (op, neighborhood, block size) with no
// hand tuning.
//
// The cost model matches the executors, not the paper's idealized
// nonblocking processes:
//
//   - The trivial plan runs t sequential BLOCKING rounds (Listing 4), so
//     it pays the full α + o + β·mB per round:
//     T_trivial = t·(α + o + β·mB)
//   - A combining plan runs d phases of concurrent nonblocking rounds
//     (pipelined across phases by the DAG executor): the wire latency α
//     overlaps within a phase and is paid once per dimension, while the
//     per-message CPU overhead o serializes at the posting rank:
//     T_combining = d·α + C·o + β·V·mB
//
// with o = o_send + o_recv. Equating the two gives the crossover
//
//	mB* = ((t−d)·α + (t−C)·o) / (β·(V−t))
//
// — the executor-consistent form of the paper's m < (α/β)(t−C)/(V−t).
// Combining wins below mB*; for a neighborhood where V ≤ t (combining
// adds rounds' savings at no volume penalty) it wins at every block size
// and the crossover is +Inf.

// Decision records one algorithm selection: the inputs, both predicted
// costs, the crossover point, and the pick. It is exposed through
// Plan.Decision and cmd/cartinfo so a surprising pick can be traced to
// its inputs.
type Decision struct {
	Op         OpKind
	Chosen     Algorithm // Trivial or Combining
	BlockBytes float64   // mB: mean block size in bytes at selection time
	T          int       // trivial rounds t (non-zero neighbors)
	C          int       // combining rounds
	V          int       // combining volume in blocks
	D          int       // grid dimensions (combining phases)
	// CostTrivial and CostCombining are the modeled times in seconds.
	CostTrivial   float64
	CostCombining float64
	// CrossoverBytes is the block size at which the two families tie;
	// +Inf when combining wins at every size (V ≤ t).
	CrossoverBytes float64
	// Pipelined reports whether the combining side is costed as the
	// DAG-pipelined executor (false for fenced plans: barriered phases or
	// blocking rounds).
	Pipelined bool
	// ProfileSource is the provenance of the machine constants:
	// "model", "measured" or "default".
	ProfileSource string
}

// String formats the decision for cartinfo and debug output.
func (d Decision) String() string {
	cross := "+inf"
	if !math.IsInf(d.CrossoverBytes, 1) {
		cross = fmt.Sprintf("%.0fB", d.CrossoverBytes)
	}
	return fmt.Sprintf("%s mB=%.0f: %s (trivial %.3gs vs combining %.3gs, crossover %s, profile %s)",
		d.Op, d.BlockBytes, d.Chosen, d.CostTrivial, d.CostCombining, cross, d.ProfileSource)
}

// Decide picks the schedule family for one operation given the
// neighborhood statistics (t neighbors, C combining rounds, V combining
// volume in blocks, d dimensions), the mean block size in bytes, and a
// machine profile. Pure function — cartinfo uses it to print the
// selection table without building a world.
func Decide(op OpKind, t, c, v, d int, blockBytes float64, prof tune.Profile) Decision {
	alpha, beta, o := prof.Alpha, prof.Beta, prof.Overhead()
	dec := Decision{
		Op:            op,
		BlockBytes:    blockBytes,
		T:             t,
		C:             c,
		V:             v,
		D:             d,
		Pipelined:     true,
		ProfileSource: prof.Source,
	}
	dec.CostTrivial = float64(t) * (alpha + o + beta*blockBytes)
	dec.CostCombining = float64(d)*alpha + float64(c)*o + beta*float64(v)*blockBytes
	if v <= t {
		dec.CrossoverBytes = math.Inf(1)
	} else {
		dec.CrossoverBytes = (float64(t-d)*alpha + float64(t-c)*o) / (beta * float64(v-t))
	}
	if dec.CostTrivial < dec.CostCombining {
		dec.Chosen = Trivial
	} else {
		dec.Chosen = Combining
	}
	return dec
}

// resolveProfile picks the machine constants a selection uses, in
// precedence order: the run's virtual-time cost model (deterministic for
// tests and simulation), then an explicitly installed machine profile
// (tune.SetMachine — typically a calibration result), then the built-in
// default constants. Never triggers calibration.
func resolveProfile(model *netmodel.Model) tune.Profile {
	if model != nil {
		return tune.FromModel(model)
	}
	if p, ok := tune.Machine(); ok {
		return p
	}
	return tune.Default()
}

// choose resolves an Auto plan to its concrete variant at first execution,
// when the element size is known: Decide over the compiled schedules'
// actual (C, V) and the resolved machine profile. The outcome is memoized
// per element size on the Auto wrapper (plans are single-goroutine by
// contract), so re-executions pay one comparison.
func (p *Plan) choose(elemSize int) *Plan {
	if p.decided != nil && p.decidedElem == elemSize {
		return p.decided
	}
	prof := resolveProfile(p.comm.comm.Model())
	// The trivial round count comes from the compiled alternative (it
	// excludes zero offsets, which cost a local copy, not a message).
	dec := Decide(p.op, p.alt.rounds, p.rounds, p.volume,
		p.comm.grid.NDims(), p.avgBlockElems*float64(elemSize), prof)
	dec.Pipelined = dec.Chosen == Combining && p.fence == fenceNone
	chosen := p
	if dec.Chosen == Trivial {
		chosen = p.alt
	}
	p.decision = &dec
	p.decided = chosen
	p.decidedElem = elemSize
	if m := p.cmet; m != nil {
		if dec.Chosen == Trivial {
			m.pickTrivial.Inc()
		} else {
			m.pickCombining.Inc()
		}
	}
	return chosen
}

// Decision returns the selection record of an Auto plan's last choice.
// ok is false before the first execution (the element size is unknown
// until Run binds it) and for plans built with a concrete algorithm.
func (p *Plan) Decision() (Decision, bool) {
	if p.decision == nil {
		return Decision{}, false
	}
	return *p.decision, true
}

// Effective returns the schedule family an execution actually runs: the
// decided variant of an Auto plan (Auto itself before the first
// execution), the compiled family otherwise. (The decided plan's own algo
// field cannot be used: when combining wins, the decided plan IS the Auto
// wrapper, whose field reads Auto.)
func (p *Plan) Effective() Algorithm {
	if p.algo != Auto {
		return p.algo
	}
	if p.decision == nil {
		return Auto
	}
	return p.decision.Chosen
}
