// Package tune estimates the machine constants of the runtime's linear
// cost model — per-message latency α, per-byte cost β, and per-message CPU
// overhead o — from a handful of seeded micro-probes over a live world,
// and persists them as a machine profile.
//
// The profile closes the loop the paper leaves to the reader: its analytic
// cut-off m < (α/β)·(t−C)/(V−t) (Section 3.1) tells you which schedule
// family wins *given* the machine constants, and this package measures
// them, so the selection function in internal/cart can pick trivial vs
// combining vs pipelined-combining without the caller hand-tuning
// Algorithm per deployment.
//
// Three profile sources, in the order the selection layer consults them:
//
//   - model: the run carries a virtual-time cost model (tests, simulation,
//     cartbench). FromModel converts it directly — deterministic, no
//     probes, so the simulation harness stays byte-reproducible.
//   - measured: Calibrate ran ping-pong and back-to-back-post probes over
//     a live wall-clock world and the result was installed with SetMachine
//     (or loaded from a previously saved profile file).
//   - default: neither is available; Default returns the Hydra-class
//     constants of netmodel, so selection still has a sane cut-off.
package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
)

// Profile is one machine's calibrated cost constants, the inputs of the
// paper's cut-off analysis. All times are in seconds.
type Profile struct {
	// Alpha is the wire latency per message (the α of Section 3.1).
	Alpha float64 `json:"alphaSeconds"`
	// Beta is the transfer cost per byte (the β term).
	Beta float64 `json:"betaSecondsPerByte"`
	// SendOverhead is the sender CPU cost per posted message (the o that
	// serializes a burst of nonblocking sends).
	SendOverhead float64 `json:"sendOverheadSeconds"`
	// RecvOverhead is the receiver CPU cost per completed message.
	RecvOverhead float64 `json:"recvOverheadSeconds"`
	// Source records where the constants came from: "model", "measured" or
	// "default". The selection layer surfaces it in every Decision so a
	// surprising pick can be traced to its inputs.
	Source string `json:"source"`
	// Probes is the number of timed round trips behind a measured profile
	// (0 for model/default profiles).
	Probes int `json:"probes,omitempty"`
}

// Overhead returns the total per-message CPU overhead o used by the
// crossover formula (sender plus receiver side).
func (p Profile) Overhead() float64 { return p.SendOverhead + p.RecvOverhead }

// Validate checks the profile for usable constants.
func (p Profile) Validate() error {
	if p.Alpha < 0 || p.Beta <= 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 {
		return fmt.Errorf("tune: invalid profile %+v (need α,o ≥ 0 and β > 0)", p)
	}
	return nil
}

// FromModel derives a profile from a virtual-time cost model — the
// deterministic fallback the tests and the simulation harness use instead
// of wall-clock probes.
func FromModel(m *netmodel.Model) Profile {
	return Profile{
		Alpha:        m.Alpha,
		Beta:         m.Beta,
		SendOverhead: m.SendOverhead,
		RecvOverhead: m.RecvOverhead,
		Source:       "model",
	}
}

// Default returns the fallback constants (the Hydra preset of netmodel):
// used when no model is attached and no machine profile has been
// calibrated. Deterministic, so Auto selection in plain tests never
// depends on wall-clock noise.
func Default() Profile {
	p := FromModel(netmodel.Hydra())
	p.Source = "default"
	return p
}

// ---------------------------------------------------------------------
// Live calibration.
// ---------------------------------------------------------------------

// CalibrateConfig tunes the micro-probe sweep.
type CalibrateConfig struct {
	// Probes is the number of timed round trips per estimate (default 32).
	Probes int
	// LargeBytes is the payload of the bandwidth probe (default 1 MiB).
	LargeBytes int
}

func (c CalibrateConfig) withDefaults() CalibrateConfig {
	if c.Probes <= 0 {
		c.Probes = 32
	}
	if c.LargeBytes <= 0 {
		c.LargeBytes = 1 << 20
	}
	return c
}

// calibrateTag keeps probe traffic away from user tag space.
const calibrateTag = 1<<20 - 7

// Calibrate estimates the machine constants over a live world. Collective
// over w: every rank must call it; ranks 0 and 1 run the probes and the
// result is broadcast, so all ranks return the same profile.
//
// Probes (all between ranks 0 and 1):
//
//   - small ping-pong (8 B): the median half round trip estimates the full
//     per-message cost α + o_send + o_recv.
//   - large ping-pong (LargeBytes): the extra time over the small probe,
//     divided by the bytes, estimates β.
//   - back-to-back posts: rank 0 posts a burst of nonblocking sends and
//     the time per post estimates o_send (receiver overhead is assumed
//     symmetric, as in the presets).
//
// When the run carries a virtual-time cost model the probes are skipped
// and the model's own constants are returned (Source "model") — the
// deterministic fallback that keeps tests and simulation reproducible. A
// single-rank world returns Default().
func Calibrate(w *mpi.Comm, cfgs ...CalibrateConfig) (Profile, error) {
	var cfg CalibrateConfig
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	cfg = cfg.withDefaults()
	if m := w.Model(); m != nil {
		return FromModel(m), nil
	}
	if w.Size() < 2 {
		return Default(), nil
	}
	var prof Profile
	var err error
	switch w.Rank() {
	case 0:
		prof, err = probeSide0(w, cfg)
	case 1:
		err = probeSide1(w, cfg)
	}
	if err != nil {
		return Profile{}, err
	}
	// Share the result: pack as nanosecond-scale floats and broadcast.
	packed := []float64{prof.Alpha, prof.Beta, prof.SendOverhead, prof.RecvOverhead, float64(prof.Probes)}
	if err := mpi.Bcast(w, packed, 0); err != nil {
		return Profile{}, err
	}
	prof = Profile{
		Alpha:        packed[0],
		Beta:         packed[1],
		SendOverhead: packed[2],
		RecvOverhead: packed[3],
		Source:       "measured",
		Probes:       int(packed[4]),
	}
	if set := w.MetricsSet(); set != nil {
		set.Counter("cart.tune.calibrations").Inc()
		set.Gauge("cart.tune.alpha.ns").SetMax(int64(prof.Alpha * 1e9))
		set.Gauge("cart.tune.overhead.ns").SetMax(int64(prof.Overhead() * 1e9))
	}
	return prof, prof.Validate()
}

// probeSide0 is rank 0's half of the probes: it drives the timing.
func probeSide0(w *mpi.Comm, cfg CalibrateConfig) (Profile, error) {
	small := make([]int64, 1)
	large := make([]int64, (cfg.LargeBytes+7)/8)
	pingPong := func(buf []int64) (float64, error) {
		if err := mpi.SendSlice(w, buf, 1, calibrateTag); err != nil {
			return 0, err
		}
		if _, err := mpi.RecvSlice(w, buf, 1, calibrateTag); err != nil {
			return 0, err
		}
		return 0, nil
	}
	// Warm the path (mailbox slots, wire pools) before timing.
	for i := 0; i < 4; i++ {
		if _, err := pingPong(small); err != nil {
			return Profile{}, err
		}
	}
	smallRTT := make([]float64, 0, cfg.Probes)
	for i := 0; i < cfg.Probes; i++ {
		t0 := time.Now()
		if _, err := pingPong(small); err != nil {
			return Profile{}, err
		}
		smallRTT = append(smallRTT, time.Since(t0).Seconds())
	}
	largeRTT := make([]float64, 0, cfg.Probes)
	for i := 0; i < cfg.Probes; i++ {
		t0 := time.Now()
		if _, err := pingPong(large); err != nil {
			return Profile{}, err
		}
		largeRTT = append(largeRTT, time.Since(t0).Seconds())
	}
	// Overhead probe: time a burst of back-to-back nonblocking posts.
	burst := cfg.Probes
	reqs := make([]*mpi.Request, 0, burst)
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		req, err := mpi.Isend(w, small, datatype.Contiguous(0, 1), 1, calibrateTag+1)
		if err != nil {
			return Profile{}, err
		}
		reqs = append(reqs, req)
	}
	perPost := time.Since(t0).Seconds() / float64(burst)
	if err := mpi.Waitall(reqs...); err != nil {
		return Profile{}, err
	}

	halfSmall := median(smallRTT) / 2
	halfLarge := median(largeRTT) / 2
	beta := (halfLarge - halfSmall) / float64(cfg.LargeBytes)
	if beta <= 0 {
		// In-process transfers can be faster than timer resolution; fall
		// back to a copy-bandwidth floor (~10 GB/s) so the cut-off stays
		// finite.
		beta = 1e-10
	}
	o := perPost
	if o > halfSmall/2 {
		o = halfSmall / 2 // overheads cannot exceed the round trip they ride in
	}
	alpha := halfSmall - 2*o
	if alpha < 0 {
		alpha = 0
	}
	return Profile{
		Alpha:        alpha,
		Beta:         beta,
		SendOverhead: o,
		RecvOverhead: o,
		Source:       "measured",
		Probes:       cfg.Probes,
	}, nil
}

// probeSide1 is rank 1's half: echo everything rank 0 sends.
func probeSide1(w *mpi.Comm, cfg CalibrateConfig) error {
	small := make([]int64, 1)
	large := make([]int64, (cfg.LargeBytes+7)/8)
	echo := func(buf []int64) error {
		if _, err := mpi.RecvSlice(w, buf, 0, calibrateTag); err != nil {
			return err
		}
		return mpi.SendSlice(w, buf, 0, calibrateTag)
	}
	for i := 0; i < 4+cfg.Probes; i++ {
		if err := echo(small); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Probes; i++ {
		if err := echo(large); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Probes; i++ {
		if _, err := mpi.RecvSlice(w, small, 0, calibrateTag+1); err != nil {
			return err
		}
	}
	return nil
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// ---------------------------------------------------------------------
// The process-global machine profile.
// ---------------------------------------------------------------------

var (
	machineMu sync.RWMutex
	machine   *Profile
)

// SetMachine installs p as the process-global machine profile consulted by
// the selection layer when a run has no cost model. Returns an error when
// the profile is unusable.
func SetMachine(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	machineMu.Lock()
	cp := p
	machine = &cp
	machineMu.Unlock()
	return nil
}

// Machine returns the installed machine profile, if any. It never
// triggers calibration — installing a profile is an explicit act, so
// simulation and test runs stay deterministic.
func Machine() (Profile, bool) {
	machineMu.RLock()
	defer machineMu.RUnlock()
	if machine == nil {
		return Profile{}, false
	}
	return *machine, true
}

// ClearMachine removes the installed profile (tests).
func ClearMachine() {
	machineMu.Lock()
	machine = nil
	machineMu.Unlock()
}

// Save persists the profile as JSON at path.
func Save(path string, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a profile saved by Save.
func Load(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, fmt.Errorf("tune: %s: %w", path, err)
	}
	if p.Source == "" {
		p.Source = "measured"
	}
	return p, p.Validate()
}
