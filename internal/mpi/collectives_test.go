package mpi

import (
	"fmt"
	"testing"
)

// procCounts exercises the collectives at awkward sizes: 1, primes,
// powers of two, and a larger composite.
var procCounts = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrier(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				if err := Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range procCounts {
		for root := 0; root < p; root += 3 {
			root := root
			run(t, p, func(c *Comm) error {
				buf := make([]int, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = root*10 + i
					}
				}
				if err := Bcast(c, buf, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != root*10+i {
						return fmt.Errorf("p=%d root=%d rank=%d buf=%v", p, root, c.Rank(), buf)
					}
				}
				return nil
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := Bcast(c, []int{0}, 9); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			send := []int{c.Rank(), 1}
			recv := make([]int, 2)
			if err := Reduce(c, send, recv, SumOp[int], 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				wantSum := p * (p - 1) / 2
				if recv[0] != wantSum || recv[1] != p {
					return fmt.Errorf("p=%d reduce = %v, want [%d %d]", p, recv, wantSum, p)
				}
			}
			return nil
		})
	}
}

func TestReduceNonzeroRoot(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		send := []float64{float64(c.Rank())}
		recv := make([]float64, 1)
		if err := Reduce(c, send, recv, MaxOp[float64], 4); err != nil {
			return err
		}
		if c.Rank() == 4 && recv[0] != 5 {
			return fmt.Errorf("max = %v", recv[0])
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			send := []int{c.Rank() + 1}
			recv := make([]int, 1)
			if err := Allreduce(c, send, recv, MinOp[int]); err != nil {
				return err
			}
			if recv[0] != 1 {
				return fmt.Errorf("p=%d rank=%d min = %d", p, c.Rank(), recv[0])
			}
			return nil
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, p := range []int{1, 3, 4, 7} {
		run(t, p, func(c *Comm) error {
			send := []int{c.Rank() * 2, c.Rank()*2 + 1}
			var all []int
			if c.Rank() == 0 {
				all = make([]int, 2*p)
			}
			if err := Gather(c, send, all, 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i := 0; i < 2*p; i++ {
					if all[i] != i {
						return fmt.Errorf("gathered %v", all)
					}
				}
			}
			// Scatter back point-to-point: each rank's block returns intact.
			back := make([]int, 2)
			if c.Rank() == 0 {
				for r := p - 1; r >= 0; r-- {
					if err := SendSlice(c, all[2*r:2*r+2], r, 1); err != nil {
						return err
					}
				}
			}
			if _, err := RecvSlice(c, back, 0, 1); err != nil {
				return err
			}
			if back[0] != send[0] || back[1] != send[1] {
				return fmt.Errorf("rank %d scatter-back %v", c.Rank(), back)
			}
			return nil
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			send := []int{c.Rank(), -c.Rank()}
			recv := make([]int, 2*p)
			if err := Allgather(c, send, recv); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				if recv[2*r] != r || recv[2*r+1] != -r {
					return fmt.Errorf("p=%d rank=%d recv=%v", p, c.Rank(), recv)
				}
			}
			return nil
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range procCounts {
		run(t, p, func(c *Comm) error {
			send := make([]int, p)
			for r := range send {
				send[r] = c.Rank()*1000 + r
			}
			recv := make([]int, p)
			if err := Alltoall(c, send, recv); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				if recv[r] != r*1000+c.Rank() {
					return fmt.Errorf("p=%d rank=%d recv=%v", p, c.Rank(), recv)
				}
			}
			return nil
		})
	}
}

func TestAlltoallBadLengths(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		if err := Alltoall(c, make([]int, 4), make([]int, 4)); err == nil {
			return fmt.Errorf("non-divisible alltoall accepted")
		}
		return nil
	})
}

func TestCommDupIsolatesTraffic(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Same tag on both communicators; contexts keep them apart.
			if err := SendSlice(dup, []int{2}, 1, 0); err != nil {
				return err
			}
			return SendSlice(c, []int{1}, 1, 0)
		}
		buf := make([]int, 1)
		if _, err := RecvSlice(c, buf, 0, 0); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("world recv got dup message: %d", buf[0])
		}
		if _, err := RecvSlice(dup, buf, 0, 0); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("dup recv got %d", buf[0])
		}
		return nil
	})
}

func TestReduceLengthValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Reduce(c, []int{1, 2}, []int{0}, SumOp[int], 0); err == nil {
				return fmt.Errorf("short recv accepted at root")
			}
		}
		// Non-roots do not need recv, but the collective as a whole cannot
		// proceed after root errored; just return.
		return nil
	})
}

func TestOps(t *testing.T) {
	if SumOp(2, 3) != 5 {
		t.Error("SumOp")
	}
	if MaxOp(2, 3) != 3 || MaxOp(4.5, 1.5) != 4.5 {
		t.Error("MaxOp")
	}
	if MinOp(2, 3) != 2 || MinOp("b", "a") != "a" {
		t.Error("MinOp")
	}
}
