package mpi

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cartcc/internal/datatype"
)

func TestIsendIrecvComposite(t *testing.T) {
	// Send a composite spanning two buffers; receive it scattered across
	// two different buffers — the schedule executor's primitive.
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			bufA := []int{10, 11, 12, 13}
			bufB := []int{20, 21, 22, 23}
			var comp datatype.Composite
			comp.AppendBlock(0, 1, 2) // 11, 12
			comp.AppendBlock(1, 3, 1) // 23
			var ss SendSlot[int]
			if err := ss.Bind(c, &comp, 1, 5); err != nil {
				return err
			}
			return ss.Start([][]int{bufA, bufB}, 0)
		}
		dstA := make([]int, 4)
		dstB := make([]int, 4)
		var comp datatype.Composite
		comp.AppendBlock(1, 0, 1) // first wire element into dstB[0]
		comp.AppendBlock(0, 2, 2) // rest into dstA[2:4]
		var rs RecvSlot[int]
		if err := rs.Bind(c, &comp, 0, 5); err != nil {
			return err
		}
		if _, err := rs.Start([][]int{dstA, dstB}, 0, false).Wait(); err != nil {
			return err
		}
		if dstB[0] != 11 || dstA[2] != 12 || dstA[3] != 23 {
			return fmt.Errorf("scattered %v %v", dstA, dstB)
		}
		return nil
	})
}

func TestCompositeSizeMismatch(t *testing.T) {
	err := Run(Config{Procs: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			var comp datatype.Composite
			comp.AppendBlock(0, 0, 3)
			var ss SendSlot[int]
			if err := ss.Bind(c, &comp, 1, 0); err != nil {
				return err
			}
			return ss.Start([][]int{{1, 2, 3}}, 0)
		}
		var comp datatype.Composite
		comp.AppendBlock(0, 0, 2) // expects 2, gets 3
		dst := make([]int, 2)
		var rs RecvSlot[int]
		if err := rs.Bind(c, &comp, 0, 0); err != nil {
			return err
		}
		if _, err := rs.Start([][]int{dst}, 0, false).Wait(); err == nil {
			return fmt.Errorf("composite size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborAlltoallw(t *testing.T) {
	// Two ranks exchange a strided layout in place.
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		g, err := DistGraphCreateAdjacent(c, []int{other}, nil, []int{other}, nil, false)
		if err != nil {
			return err
		}
		send := make([]float64, 6)
		for i := range send {
			send[i] = float64(c.Rank()*10 + i)
		}
		recv := make([]float64, 6)
		sendL := []datatype.Layout{datatype.Vector(3, 1, 2, 0)} // 0, 2, 4
		recvL := []datatype.Layout{datatype.Vector(3, 1, 2, 1)} // into 1, 3, 5
		if err := NeighborAlltoallw(g, send, sendL, recv, recvL); err != nil {
			return err
		}
		want := []float64{0, float64(other*10 + 0), 0, float64(other*10 + 2), 0, float64(other*10 + 4)}
		if !reflect.DeepEqual(recv, want) {
			return fmt.Errorf("rank %d recv %v want %v", c.Rank(), recv, want)
		}
		return nil
	})
}

func TestNeighborAlltoallwValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		g, err := DistGraphCreateAdjacent(c, []int{other}, nil, []int{other}, nil, false)
		if err != nil {
			return err
		}
		one := []datatype.Layout{datatype.Contiguous(0, 1)}
		if _, err := IneighborAlltoallw(g, []int{1}, nil, []int{0}, one); err == nil {
			return fmt.Errorf("missing send layouts accepted")
		}
		if _, err := IneighborAlltoallw(g, []int{1}, one, []int{0}, nil); err == nil {
			return fmt.Errorf("missing recv layouts accepted")
		}
		if err := NeighborAlltoallw(c, []int{1}, one, []int{0}, one); err == nil {
			return fmt.Errorf("alltoallw without graph accepted")
		}
		return nil
	})
}

func TestNeighborBlockEdgeCases(t *testing.T) {
	if _, err := neighborBlock(3, 0, 2, 0, "x"); err == nil {
		t.Error("non-divisible send with indeg 0 accepted")
	}
	if blk, err := neighborBlock(4, 0, 2, 0, "x"); err != nil || blk != 2 {
		t.Errorf("indeg 0: %d %v", blk, err)
	}
	if _, err := neighborBlock(0, 3, 0, 2, "x"); err == nil {
		t.Error("non-divisible recv with outdeg 0 accepted")
	}
	if blk, err := neighborBlock(0, 4, 0, 2, "x"); err != nil || blk != 2 {
		t.Errorf("outdeg 0: %d %v", blk, err)
	}
	if _, err := neighborBlock(1, 0, 0, 0, "x"); err == nil {
		t.Error("non-empty buffers with empty neighborhood accepted")
	}
	if _, err := neighborBlock(4, 3, 2, 2, "x"); err == nil {
		t.Error("mismatched recv length accepted")
	}
}

func TestModelAccessor(t *testing.T) {
	run(t, 1, func(c *Comm) error {
		if c.Model() != nil {
			return fmt.Errorf("wall-clock run has a model")
		}
		return nil
	})
}

func TestAllreduceValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := Allreduce(c, []int{1, 2}, []int{0}, SumOp[int]); err == nil {
			return fmt.Errorf("short recv accepted")
		}
		return nil
	})
}

func TestSendrecvErrorPaths(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		buf := []int{0}
		l := datatype.Contiguous(0, 1)
		if _, err := Sendrecv(c, buf, l, 9, 0, buf, l, 0, 0); err == nil {
			return fmt.Errorf("bad dst accepted")
		}
		if _, err := Sendrecv(c, buf, l, 0, 0, buf, l, 9, 0); err == nil {
			return fmt.Errorf("bad src accepted")
		}
		return nil
	})
}

// TestPersistentSendRecv restarts one bound send slot and one bound
// receive slot many times: every start reuses the slot's request, pending
// receive and envelope, alternating match-time and Wait-time scatter, with
// the tag offset moving so both the pre-posted and the unexpected path see
// restarted slots.
func TestPersistentSendRecv(t *testing.T) {
	const iters = 200
	run(t, 2, func(c *Comm) error {
		buf := make([]int, 4)
		var comp datatype.Composite
		comp.AppendBlock(0, 0, 2)
		comp.AppendBlock(0, 3, 1) // gathered: not contiguous
		if c.Rank() == 0 {
			var ss SendSlot[int]
			if err := ss.Bind(c, &comp, 1, 4); err != nil {
				return err
			}
			for iter := 0; iter < iters; iter++ {
				for i := range buf {
					buf[i] = iter*10 + i
				}
				if iter%16 == 0 {
					time.Sleep(100 * time.Microsecond) // let the receiver pre-post
				}
				if err := ss.Start([][]int{buf}, iter%3); err != nil {
					return err
				}
			}
			return nil
		}
		var rs RecvSlot[int]
		if err := rs.Bind(c, &comp, 0, 4); err != nil {
			return err
		}
		var first *Request
		for iter := 0; iter < iters; iter++ {
			req := rs.Start([][]int{buf}, iter%3, iter%2 == 1)
			if first == nil {
				first = req
			} else if req != first {
				return fmt.Errorf("iter %d: restart returned a different request", iter)
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 4+iter%3 || st.Count != 3 {
				return fmt.Errorf("iter %d status %+v", iter, st)
			}
			if buf[0] != iter*10 || buf[1] != iter*10+1 || buf[3] != iter*10+3 {
				return fmt.Errorf("iter %d buf %v", iter, buf)
			}
		}
		// A cancelled start leaves the slot restartable too.
		req := rs.Start([][]int{buf}, 7, false)
		if !req.Cancel() {
			return fmt.Errorf("unmatched slot receive not cancellable")
		}
		if recvs, _ := c.rs.box.pendingPosted(); recvs != 0 {
			return fmt.Errorf("%d receive(s) still posted after cancel", recvs)
		}
		return nil
	})
}

func TestPersistentValidation(t *testing.T) {
	run(t, 1, func(c *Comm) error {
		var comp datatype.Composite
		comp.AppendBlock(0, 0, 1)
		var ss SendSlot[int]
		if err := ss.Bind(c, &comp, 5, 0); err == nil {
			return fmt.Errorf("bad dst accepted")
		}
		if err := ss.Bind(c, &comp, 0, -2); err == nil {
			return fmt.Errorf("bad tag accepted")
		}
		var rs RecvSlot[int]
		if err := rs.Bind(c, &comp, 7, 0); err == nil {
			return fmt.Errorf("bad src accepted")
		}
		if err := rs.Bind(c, &comp, 0, -2); err == nil {
			return fmt.Errorf("bad recv tag accepted")
		}
		if err := rs.Bind(c, &comp, AnySource, AnyTag); err != nil {
			return fmt.Errorf("wildcard bind rejected: %v", err)
		}
		return nil
	})
}
