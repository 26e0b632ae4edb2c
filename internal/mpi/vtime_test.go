package mpi

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/netmodel"
)

// runModel runs f under the given cost model and returns the final virtual
// clock of every rank.
func runModel(t *testing.T, p int, m *netmodel.Model, seed int64, f func(c *Comm) error) []float64 {
	t.Helper()
	clocks := make([]float64, p)
	err := Run(Config{Procs: p, Model: m, Seed: seed, Timeout: 20 * time.Second}, func(c *Comm) error {
		if err := f(c); err != nil {
			return err
		}
		clocks[c.Rank()] = c.VTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return clocks
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-15+1e-9*math.Abs(b) }

func TestVTimeSingleMessage(t *testing.T) {
	m := &netmodel.Model{Alpha: 10e-6, Beta: 1e-9, SendOverhead: 2e-6, RecvOverhead: 3e-6}
	clocks := runModel(t, 2, m, 0, func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, make([]int64, 100), 1, 0) // 800 bytes
		}
		buf := make([]int64, 100)
		_, err := RecvSlice(c, buf, 0, 0)
		return err
	})
	// Sender: one send overhead plus the injection time β·800 (LogGP-style
	// serialization at the NIC).
	if !approx(clocks[0], 2e-6+800e-9) {
		t.Errorf("sender clock %g, want %g", clocks[0], 2e-6+800e-9)
	}
	// Receiver: arrival (o + β·800 + α) plus receive overhead.
	want := 2e-6 + 800e-9 + 10e-6 + 3e-6
	if !approx(clocks[1], want) {
		t.Errorf("receiver clock %g, want %g", clocks[1], want)
	}
}

func TestVTimeSendsSerializeOnOverhead(t *testing.T) {
	m := &netmodel.Model{Alpha: 1e-6, SendOverhead: 5e-6}
	const n = 10
	clocks := runModel(t, 2, m, 0, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, n)
			for i := range reqs {
				r, err := Isend(c, []int{i}, datatype.Contiguous(0, 1), 1, 0)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			return Waitall(reqs...)
		}
		for i := 0; i < n; i++ {
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	// n posted sends serialize on the per-message overhead: this is what
	// makes direct delivery of t messages latency-bound for small blocks.
	if !approx(clocks[0], n*5e-6) {
		t.Errorf("sender clock %g, want %g", clocks[0], n*5e-6)
	}
	// Receiver: last message departs at n·o, arrives +α; receive overheads
	// are charged per message but overlap arrival waiting; final clock is
	// at least arrival of last message.
	if clocks[1] < n*5e-6+1e-6 {
		t.Errorf("receiver clock %g too small", clocks[1])
	}
}

func TestVTimeSelfMessageSkipsAlpha(t *testing.T) {
	m := &netmodel.Model{Alpha: 100e-6, Beta: 1e-9, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	clocks := runModel(t, 1, m, 0, func(c *Comm) error {
		if err := SendSlice(c, make([]byte, 1000), 0, 0); err != nil {
			return err
		}
		buf := make([]byte, 1000)
		_, err := RecvSlice(c, buf, 0, 0)
		return err
	})
	// o + β·1000 + recv overhead, but no α.
	want := 1e-6 + 1000e-9 + 1e-6
	if !approx(clocks[0], want) {
		t.Errorf("self message clock %g, want %g", clocks[0], want)
	}
}

func TestVTimeRecvWaitsForArrival(t *testing.T) {
	m := &netmodel.Model{Alpha: 50e-6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	clocks := runModel(t, 2, m, 0, func(c *Comm) error {
		if c.Rank() == 0 {
			// Compute for 1 ms of virtual time, then receive: arrival is
			// earlier than the local clock, so no extra waiting.
			c.rs.clock += 1e-3
			buf := make([]int, 1)
			_, err := RecvSlice(c, buf, 1, 0)
			return err
		}
		return SendSlice(c, []int{1}, 0, 0)
	})
	if !approx(clocks[0], 1e-3+1e-6) { // own clock + recv overhead only
		t.Errorf("busy receiver clock %g", clocks[0])
	}
	if !approx(clocks[1], 1e-6) {
		t.Errorf("sender clock %g", clocks[1])
	}
}

func TestVTimeBlockingRoundsAccumulateLatency(t *testing.T) {
	// A ring of blocking sendrecv rounds accumulates α per round, while the
	// same exchanges posted nonblockingly pay α once. This is the paper's
	// observation that the trivial blocking loop is slower than direct
	// nonblocking delivery (Section 4.2).
	m := &netmodel.Model{Alpha: 10e-6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	const rounds = 8
	p := 4
	blocking := runModel(t, p, m, 0, func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		buf := []int{0}
		in := make([]int, 1)
		for i := 0; i < rounds; i++ {
			if _, err := Sendrecv(c, buf, contig1(), right, 0, in, contig1(), left, 0); err != nil {
				return err
			}
		}
		return nil
	})
	nonblocking := runModel(t, p, m, 0, func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		var reqs []*Request
		in := make([][]int, rounds)
		for i := 0; i < rounds; i++ {
			in[i] = make([]int, 1)
			r, err := Irecv(c, in[i], contig1(), left, i)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		for i := 0; i < rounds; i++ {
			r, err := Isend(c, []int{0}, contig1(), right, i)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		return Waitall(reqs...)
	})
	if blocking[0] <= 2*nonblocking[0] {
		t.Errorf("blocking %g not substantially slower than nonblocking %g", blocking[0], nonblocking[0])
	}
}

func TestVTimeDeterministicUnderNoise(t *testing.T) {
	m := netmodel.TitanNoisy()
	f := func(c *Comm) error {
		p := c.Size()
		for i := 0; i < 5; i++ {
			out := []int{i}
			in := make([]int, 1)
			if _, err := Sendrecv(c,
				out, contig1(), (c.Rank()+1)%p, 0,
				in, contig1(), (c.Rank()-1+p)%p, 0); err != nil {
				return err
			}
		}
		return nil
	}
	a := runModel(t, 4, m, 42, f)
	b := runModel(t, 4, m, 42, f)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d clocks differ across identical runs: %g vs %g", r, a[r], b[r])
		}
	}
	cDiff := runModel(t, 4, m, 43, f)
	same := true
	for r := range a {
		if a[r] != cDiff[r] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noisy clocks")
	}
}

func TestVTimeDisabledWithoutModel(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := SendSlice(c, []int{1}, 1-c.Rank(), 0); err != nil {
			return err
		}
		buf := make([]int, 1)
		if _, err := RecvSlice(c, buf, 1-c.Rank(), 0); err != nil {
			return err
		}
		if c.VTime() != 0 {
			return fmt.Errorf("virtual clock advanced without a model: %g", c.VTime())
		}
		return nil
	})
}

func TestVTimeBarrierSynchronizesClocks(t *testing.T) {
	m := netmodel.Hydra()
	clocks := runModel(t, 4, m, 0, func(c *Comm) error {
		// Skew the ranks, then barrier.
		c.rs.clock += float64(c.Rank()) * 1e-3
		return Barrier(c)
	})
	// After a barrier every clock is at least the maximum pre-barrier skew.
	for r, cl := range clocks {
		if cl < 3e-3 {
			t.Errorf("rank %d clock %g below barrier bound", r, cl)
		}
	}
}
