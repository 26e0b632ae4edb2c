package mpi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cartcc/internal/datatype"
)

// run is a test helper that runs f on p ranks and fails the test on error.
// arrived reports whether a message for the exact match key sits in the
// unexpected queue, and its element count: the mailbox state the tests
// inspect to prove no message was lost, duplicated or left behind.
func (b *mailbox) arrived(ctx, epoch int64, src, tag int) (found bool, elems int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := b.arrivedIdx[mkey{ctx, epoch, src, tag}].head; m != nil {
		return true, m.elems
	}
	return false, 0
}

// parityComm returns the communicator over the ranks of c that share the
// caller's rank parity, numbered in rank order. Collective over c.
func parityComm(c *Comm) (*Comm, error) {
	var mine *Comm
	for parity := 0; parity < 2; parity++ {
		var members []int
		for r := parity; r < c.Size(); r += 2 {
			members = append(members, r)
		}
		sub, err := c.SubsetComm(members)
		if err != nil {
			return nil, err
		}
		if sub != nil {
			mine = sub
		}
	}
	return mine, nil
}

func run(t *testing.T, p int, f func(c *Comm) error) {
	t.Helper()
	if err := Run(Config{Procs: p, Timeout: 20 * time.Second}, f); err != nil {
		t.Fatal(err)
	}
}

func TestRunInvalidProcs(t *testing.T) {
	if err := Run(Config{Procs: 0}, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run with 0 procs succeeded")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	err := Run(Config{Procs: 4}, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(Config{Procs: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaput")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return SendSlice(c, []int{1, 2, 3}, 1, 42)
		case 1:
			buf := make([]int, 3)
			st, err := RecvSlice(c, buf, 0, 42)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 42 || st.Count != 3 {
				return fmt.Errorf("status = %+v", st)
			}
			if buf[0] != 1 || buf[2] != 3 {
				return fmt.Errorf("buf = %v", buf)
			}
		}
		return nil
	})
}

func TestSendRecvWithLayouts(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// Send the column {2, 7, 12} of a 3x5 row-major matrix.
			buf := make([]float64, 15)
			for i := range buf {
				buf[i] = float64(i)
			}
			return Send(c, buf, datatype.Vector(3, 1, 5, 2), 1, 0)
		case 1:
			// Receive it scattered into a row.
			buf := make([]float64, 15)
			if _, err := Recv(c, buf, datatype.Contiguous(5, 3), 0, 0); err != nil {
				return err
			}
			if buf[5] != 2 || buf[6] != 7 || buf[7] != 12 {
				return fmt.Errorf("buf = %v", buf)
			}
		}
		return nil
	})
}

func TestSelfSendRecv(t *testing.T) {
	run(t, 1, func(c *Comm) error {
		if err := SendSlice(c, []byte("self"), 0, 3); err != nil {
			return err
		}
		buf := make([]byte, 4)
		if _, err := RecvSlice(c, buf, 0, 3); err != nil {
			return err
		}
		if string(buf) != "self" {
			return fmt.Errorf("got %q", buf)
		}
		return nil
	})
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := SendSlice(c, []int{i}, 1, 0); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, 0, 0); err != nil {
				return err
			}
			if buf[0] != i {
				return fmt.Errorf("message %d overtaken by %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := SendSlice(c, []int{10}, 1, 10); err != nil {
				return err
			}
			return SendSlice(c, []int{20}, 1, 20)
		}
		// Receive tag 20 first even though tag 10 arrived earlier.
		buf := make([]int, 1)
		if _, err := RecvSlice(c, buf, 0, 20); err != nil {
			return err
		}
		if buf[0] != 20 {
			return fmt.Errorf("tag-20 recv got %d", buf[0])
		}
		if _, err := RecvSlice(c, buf, 0, 10); err != nil {
			return err
		}
		if buf[0] != 10 {
			return fmt.Errorf("tag-10 recv got %d", buf[0])
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		if c.Rank() != 0 {
			return SendSlice(c, []int{c.Rank()}, 0, c.Rank()+100)
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]int, 1)
			st, err := RecvSlice(c, buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if st.Source != buf[0] || st.Tag != buf[0]+100 {
				return fmt.Errorf("status %+v payload %d", st, buf[0])
			}
			seen[buf[0]] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("seen = %v", seen)
		}
		return nil
	})
}

func TestBufferedSendAllowsReuse(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []int{7}
			if err := SendSlice(c, buf, 1, 0); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the message already sent
			return SendSlice(c, buf, 1, 0)
		}
		a, b := make([]int, 1), make([]int, 1)
		if _, err := RecvSlice(c, a, 0, 0); err != nil {
			return err
		}
		if _, err := RecvSlice(c, b, 0, 0); err != nil {
			return err
		}
		if a[0] != 7 || b[0] != 99 {
			return fmt.Errorf("got %d,%d", a[0], b[0])
		}
		return nil
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		p := c.Size()
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		out := []int{c.Rank()}
		in := make([]int, 1)
		if _, err := Sendrecv(c,
			out, datatype.Contiguous(0, 1), right, 0,
			in, datatype.Contiguous(0, 1), left, 0); err != nil {
			return err
		}
		if in[0] != left {
			return fmt.Errorf("rank %d received %d, want %d", c.Rank(), in[0], left)
		}
		return nil
	})
}

func TestTypeMismatchIsError(t *testing.T) {
	err := Run(Config{Procs: 2, Timeout: 10 * time.Second}, func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, []int32{1}, 1, 0)
		}
		buf := make([]float64, 1)
		_, err := RecvSlice(c, buf, 0, 0)
		if err == nil {
			return fmt.Errorf("type mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeMismatchIsError(t *testing.T) {
	err := Run(Config{Procs: 2, Timeout: 10 * time.Second}, func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, []int{1, 2, 3}, 1, 0)
		}
		buf := make([]int, 2)
		_, err := RecvSlice(c, buf, 0, 0)
		if err == nil {
			return fmt.Errorf("size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArguments(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := SendSlice(c, []int{1}, 5, 0); err == nil {
			return fmt.Errorf("send to rank 5 accepted")
		}
		if err := SendSlice(c, []int{1}, 0, -3); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, err := Irecv(c, []int{1}, datatype.Contiguous(0, 5), 0, 0); err == nil {
			return fmt.Errorf("layout overflowing buffer accepted")
		}
		if _, err := RecvSlice(c, []int{}, -7, 0); err == nil {
			return fmt.Errorf("invalid source accepted")
		}
		return nil
	})
}

func TestDeadlockWatchdog(t *testing.T) {
	start := time.Now()
	err := Run(Config{Procs: 2, Timeout: 200 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]int, 1)
			_, err := RecvSlice(c, buf, 1, 0) // never sent
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("watchdog took %v", time.Since(start))
	}
}

func TestAbortReleasesBlockedRanks(t *testing.T) {
	start := time.Now()
	err := Run(Config{Procs: 3, Timeout: time.Minute}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("early failure")
		}
		buf := make([]int, 1)
		_, err := RecvSlice(c, buf, 0, 0) // would block forever
		return err
	})
	if err == nil {
		t.Fatal("no error propagated")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("abort took %v", time.Since(start))
	}
}

func TestWaitallNilTolerant(t *testing.T) {
	run(t, 1, func(c *Comm) error {
		return Waitall(nil, nil)
	})
}

func TestManyConcurrentPairs(t *testing.T) {
	// Stress: every rank exchanges with every other rank simultaneously.
	run(t, 8, func(c *Comm) error {
		p := c.Size()
		reqs := make([]*Request, 0, 2*p)
		recv := make([][]int, p)
		for r := 0; r < p; r++ {
			recv[r] = make([]int, 1)
			req, err := Irecv(c, recv[r], datatype.Contiguous(0, 1), r, 0)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		for r := 0; r < p; r++ {
			req, err := Isend(c, []int{c.Rank()*100 + r}, datatype.Contiguous(0, 1), r, 0)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if err := Waitall(reqs...); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if recv[r][0] != r*100+c.Rank() {
				return fmt.Errorf("rank %d from %d: got %d", c.Rank(), r, recv[r][0])
			}
		}
		return nil
	})
}
