// Package netmodel provides the linear (α-β) communication cost model that
// the runtime uses to attribute virtual time to message-passing programs.
//
// The paper analyses its algorithms under exactly this model: a round of
// send-receive communication costs α + β·bytes, so a schedule with C rounds
// and per-process volume V·m costs C·α + β·V·m, against t·(α + β·m) for the
// trivial algorithm. Executing the real schedules under a virtual clock
// driven by this model reproduces the performance *shapes* of the paper's
// figures (who wins, by what factor, where the cut-over block size falls)
// without the authors' OmniPath and Cray Gemini hardware — the substitution
// recorded in DESIGN.md for the repro gate "no maintained Go MPI bindings".
//
// In addition to α (wire latency) and β (inverse bandwidth) the model has a
// per-message sender CPU overhead o and receiver overhead g (LogP-style):
// consecutive nonblocking sends serialize on o, which is what makes a
// t-message direct-delivery baseline latency-bound for small blocks.
// Optional noise injection reproduces the outlier/bimodality effects the
// paper discusses in Appendix A and Figure 7.
package netmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is virtual time in seconds.
type Time = float64

// Model is a linear per-message cost model. A nil *Model disables virtual
// timing entirely (the runtime then measures wall-clock time only).
type Model struct {
	// Alpha is the network latency per message in seconds (the α of the
	// paper's cut-off analysis).
	Alpha Time
	// Beta is the transfer time per byte in seconds (the β term).
	Beta Time
	// SendOverhead is the CPU time the sender spends per posted message;
	// consecutive sends from one process serialize on it.
	SendOverhead Time
	// RecvOverhead is the CPU time the receiver spends per completed
	// message.
	RecvOverhead Time
	// Noise, if non-nil, adds a random extra delay to every message.
	Noise *Noise
	// Hierarchy, if non-nil, makes the model two-level: ranks are grouped
	// into nodes of CoresPerNode consecutive physical ranks, and messages
	// within a node use the cheaper intra-node parameters. This is the
	// substrate for evaluating rank reordering (the paper's reorder flag,
	// which it notes current MPI libraries do not exploit).
	Hierarchy *Hierarchy
}

// Hierarchy describes a two-level machine: physical ranks
// [k·CoresPerNode, (k+1)·CoresPerNode) share node k, and intra-node
// messages use the Intra* costs (shared memory) instead of the network's.
type Hierarchy struct {
	CoresPerNode int
	IntraAlpha   Time
	IntraBeta    Time
}

// Validate checks the hierarchy parameters.
func (h *Hierarchy) Validate() error {
	if h.CoresPerNode < 1 || h.IntraAlpha < 0 || h.IntraBeta < 0 {
		return fmt.Errorf("netmodel: invalid hierarchy %+v", *h)
	}
	return nil
}

// SameNode reports whether two physical ranks share a node; always true
// without a hierarchy (a flat machine is one big node for cost purposes
// only when ranks are equal — callers must treat the flat case
// separately), so this returns false for distinct ranks on flat models.
func (m *Model) SameNode(a, b int) bool {
	if a == b {
		return true
	}
	if m.Hierarchy == nil {
		return false
	}
	c := m.Hierarchy.CoresPerNode
	return a/c == b/c
}

// PathParams returns the (α, β) pair for a message between two physical
// ranks: self-messages have no wire latency, intra-node messages the
// hierarchy's costs, everything else the network's.
func (m *Model) PathParams(src, dst int) (alpha, beta Time) {
	if src == dst {
		return 0, m.Beta
	}
	if m.Hierarchy != nil && m.SameNode(src, dst) {
		return m.Hierarchy.IntraAlpha, m.Hierarchy.IntraBeta
	}
	return m.Alpha, m.Beta
}

// Cost returns the in-flight network time of one message of the given size
// in bytes: α + β·bytes, excluding overheads and noise.
func (m *Model) Cost(bytes int) Time {
	return m.Alpha + m.Beta*Time(bytes)
}

// CutoffBytes returns the block size in bytes below which message combining
// is predicted to win: m < (α/β)·(t−C)/(V−t) (Section 3.1 of the paper).
// It returns +Inf when combining wins at every size (V <= t) and 0 when it
// never does (C >= t). This is the paper's idealized linear analysis,
// where α stands for the whole per-message cost; see CutoffBytesLogGP for
// the prediction consistent with this runtime's LogGP-style accounting.
func (m *Model) CutoffBytes(t, rounds, volume int) float64 {
	if rounds >= t {
		return 0
	}
	if volume <= t {
		return math.Inf(1)
	}
	if m.Beta == 0 {
		return math.Inf(1)
	}
	return (m.Alpha / m.Beta) * float64(t-rounds) / float64(volume-t)
}

// CutoffBytesLogGP predicts the crossover block size under this runtime's
// detailed accounting, where per-message costs serialize on the overheads
// o = SendOverhead + RecvOverhead, injection serializes on β, and the
// combining schedule pays the wire latency α once per dimension phase
// while direct delivery pays it once:
//
//	t·(o + β·m) + α  =  C·o + β·V·m + d·α
//	⇒  m* = (o·(t−C) − (d−1)·α) / (β·(V−t))
//
// Results are clamped to [0, +Inf); +Inf when combining wins at every
// size.
func (m *Model) CutoffBytesLogGP(t, rounds, volume, d int) float64 {
	if rounds >= t {
		return 0
	}
	if volume <= t {
		return math.Inf(1)
	}
	if m.Beta == 0 {
		return math.Inf(1)
	}
	o := m.SendOverhead + m.RecvOverhead
	num := o*float64(t-rounds) - float64(d-1)*m.Alpha
	if num <= 0 {
		return 0
	}
	return num / (m.Beta * float64(volume-t))
}

// Validate checks that all cost parameters are non-negative.
func (m *Model) Validate() error {
	if m.Alpha < 0 || m.Beta < 0 || m.SendOverhead < 0 || m.RecvOverhead < 0 {
		return fmt.Errorf("netmodel: negative cost parameter in %+v", *m)
	}
	if m.Hierarchy != nil {
		if err := m.Hierarchy.Validate(); err != nil {
			return err
		}
	}
	if m.Noise != nil {
		return m.Noise.Validate()
	}
	return nil
}

// HydraHierarchical is the Hydra model with a two-level topology: nodes of
// coresPerNode ranks with shared-memory costs inside (≈0.3 µs latency,
// ≈20 GB/s).
func HydraHierarchical(coresPerNode int) *Model {
	m := Hydra()
	m.Hierarchy = &Hierarchy{CoresPerNode: coresPerNode, IntraAlpha: 0.3e-6, IntraBeta: 5.0e-11}
	return m
}

// Noise describes random per-message delay: a lognormal-ish base jitter
// plus rare large spikes, the mixture that produces the long tails and
// bimodal histograms of the paper's Figure 7.
type Noise struct {
	// Jitter scales a |N(0,1)| sample of the message's base cost: a message
	// of cost c gains c·Jitter·|N(0,1)| extra delay.
	Jitter float64
	// SpikeProb is the probability that a message suffers an additional
	// Spike seconds of delay (system noise, cross-traffic).
	SpikeProb float64
	// Spike is the magnitude of the rare extra delay in seconds.
	Spike Time
}

// Validate checks the noise parameters.
func (n *Noise) Validate() error {
	if n.Jitter < 0 || n.Spike < 0 || n.SpikeProb < 0 || n.SpikeProb > 1 {
		return fmt.Errorf("netmodel: invalid noise %+v", *n)
	}
	return nil
}

// Sample draws the extra delay for one message with base cost c using rng.
func (n *Noise) Sample(rng *rand.Rand, c Time) Time {
	extra := c * n.Jitter * math.Abs(rng.NormFloat64())
	if n.SpikeProb > 0 && rng.Float64() < n.SpikeProb {
		extra += n.Spike
	}
	return extra
}

// Presets for the two systems of the paper's Table 2. The absolute numbers
// are public ballpark figures for the interconnect generations (OmniPath,
// Cray Gemini); only the α/β ratio matters for the reproduced shapes.

// Hydra models the Intel Skylake/OmniPath cluster: ~1.5 µs latency,
// ~12.5 GB/s per-link bandwidth, sub-microsecond CPU overheads.
func Hydra() *Model {
	return &Model{
		Alpha:        1.5e-6,
		Beta:         8.0e-11,
		SendOverhead: 0.4e-6,
		RecvOverhead: 0.4e-6,
	}
}

// Titan models the Cray XK7/Gemini system: higher latency (~2.5 µs), ~5 GB/s
// bandwidth, heavier per-message overheads.
func Titan() *Model {
	return &Model{
		Alpha:        2.5e-6,
		Beta:         2.0e-10,
		SendOverhead: 0.8e-6,
		RecvOverhead: 0.8e-6,
	}
}

// TitanNoisy is Titan with the noise mixture used to reproduce the Figure 7
// histograms (large variance at scale, occasional big outliers).
func TitanNoisy() *Model {
	m := Titan()
	m.Noise = &Noise{Jitter: 0.3, SpikeProb: 0.02, Spike: 50e-6}
	return m
}

// Random draws a valid model from rng for randomized testing: latency,
// bandwidth and overheads spanning the realistic ranges between the
// presets (α 0.5–5 µs, β for 1–20 GB/s, overheads 0–1 µs), with optional
// noise (~1 in 3) and an optional two-level hierarchy (~1 in 3). The
// draw is a pure function of the rng stream, so a seeded rng reproduces
// the same model — the property the deterministic simulation harness
// relies on. The returned model always passes Validate.
func Random(rng *rand.Rand) *Model {
	m := &Model{
		Alpha:        (0.5 + 4.5*rng.Float64()) * 1e-6,
		Beta:         1.0 / ((1 + 19*rng.Float64()) * 1e9),
		SendOverhead: rng.Float64() * 1e-6,
		RecvOverhead: rng.Float64() * 1e-6,
	}
	if rng.Intn(3) == 0 {
		m.Noise = &Noise{
			Jitter:    rng.Float64() * 0.5,
			SpikeProb: rng.Float64() * 0.05,
			Spike:     rng.Float64() * 100e-6,
		}
	}
	if rng.Intn(3) == 0 {
		m.Hierarchy = &Hierarchy{
			CoresPerNode: 1 << (1 + rng.Intn(3)), // 2, 4 or 8
			IntraAlpha:   m.Alpha * (0.1 + 0.3*rng.Float64()),
			IntraBeta:    m.Beta * (0.2 + 0.5*rng.Float64()),
		}
	}
	return m
}

// Preset returns a named model preset: "hydra", "titan" or "titan-noisy".
func Preset(name string) (*Model, error) {
	switch name {
	case "hydra":
		return Hydra(), nil
	case "titan":
		return Titan(), nil
	case "titan-noisy":
		return TitanNoisy(), nil
	default:
		return nil, fmt.Errorf("netmodel: unknown preset %q", name)
	}
}
