package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cartcc/internal/datatype"
)

// contiguousN is shorthand for a whole-buffer layout.
func contiguousN(n int) datatype.Layout { return datatype.Contiguous(0, n) }

// TestWaitSetCancelStress interleaves seeded cancellations with live
// deliveries on one WaitSet: every receive whose tag is never sent is
// cancelled while its siblings' messages arrive concurrently, and each
// attached owner must surface through Waitsome exactly once — matched
// receives with their payload, cancelled ones as ErrCancelled. All
// synchronization is by message matching and the completion channel; no
// sleeps, so the test is deterministic under -race at any GOMAXPROCS.
func TestWaitSetCancelStress(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		k := rng.Intn(24) + 8
		sendMask := make([]bool, k)
		for i := range sendMask {
			sendMask[i] = rng.Intn(2) == 0
		}
		err := Run(Config{Procs: 2, Timeout: 20 * time.Second}, func(c *Comm) error {
			if c.Rank() == 1 {
				for i, send := range sendMask {
					if !send {
						continue
					}
					if err := SendSlice(c, []int{100 + i}, 0, i); err != nil {
						return err
					}
				}
				return nil
			}
			reqs := make([]*Request, k)
			bufs := make([][]int, k)
			s := NewWaitSet(c, k)
			for i := 0; i < k; i++ {
				bufs[i] = make([]int, 1)
				req, err := Irecv(c, bufs[i], contiguousN(1), 1, i)
				if err != nil {
					return err
				}
				reqs[i] = req
				s.Add(req, i)
			}
			for i, send := range sendMask {
				if send {
					continue
				}
				// Nobody ever sends this tag, so the cancel cannot lose a
				// race against a match and must always succeed.
				if !reqs[i].Cancel() {
					return fmt.Errorf("tag %d: cancel of never-sent receive failed", i)
				}
			}
			seen := make([]bool, k)
			got := 0
			for got < k {
				ready, err := s.Waitsome()
				if err != nil {
					return err
				}
				if ready == nil {
					return fmt.Errorf("set drained after %d/%d completions", got, k)
				}
				for _, o := range ready {
					if seen[o] {
						return fmt.Errorf("owner %d reported twice", o)
					}
					seen[o] = true
					got++
				}
			}
			for i, req := range reqs {
				_, err := req.Wait()
				if sendMask[i] {
					if err != nil {
						return err
					}
					if bufs[i][0] != 100+i {
						return fmt.Errorf("tag %d: payload %d, want %d", i, bufs[i][0], 100+i)
					}
				} else if !errors.Is(err, ErrCancelled) {
					return fmt.Errorf("tag %d: Wait = %v, want ErrCancelled", i, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (k=%d): %v", trial, k, err)
		}
	}
}

// TestRandomP2PTrafficOracle drives the runtime with randomly generated
// global communication scripts and checks every delivered payload against
// the script. Each rank derives its own send and receive sequences from
// the shared seed, receives match by explicit (source, tag), and payload
// contents encode (src, dst, sequence number), so any mis-matching or
// reordering is caught.
func TestRandomP2PTrafficOracle(t *testing.T) {
	type msg struct {
		src, dst, tag, n, id int
	}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := rng.Intn(6) + 2
		count := rng.Intn(120) + 30
		script := make([]msg, count)
		for i := range script {
			script[i] = msg{
				src: rng.Intn(p),
				dst: rng.Intn(p),
				tag: rng.Intn(4),
				n:   rng.Intn(20) + 1,
				id:  i,
			}
		}
		err := Run(Config{Procs: p, Timeout: 20 * time.Second}, func(c *Comm) error {
			// Sends in script order; receives posted in script order too.
			// Posting all receives first avoids deadlock (sends are
			// buffered) and exercises the pending-receive matching path;
			// alternate trials post receives lazily to exercise the
			// unexpected-message path instead.
			lazy := trial%2 == 0
			var reqs []*Request
			recvBufs := map[int][]int{}
			post := func(m msg) error {
				buf := make([]int, m.n)
				recvBufs[m.id] = buf
				req, err := Irecv(c, buf, contiguousN(m.n), m.src, m.tag)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
				return nil
			}
			if !lazy {
				for _, m := range script {
					if m.dst == c.Rank() {
						if err := post(m); err != nil {
							return err
						}
					}
				}
			}
			for _, m := range script {
				if m.src == c.Rank() {
					buf := make([]int, m.n)
					for e := range buf {
						buf[e] = m.src*1_000_000 + m.dst*10_000 + m.id
					}
					if err := Send(c, buf, contiguousN(m.n), m.dst, m.tag); err != nil {
						return err
					}
				}
			}
			if lazy {
				for _, m := range script {
					if m.dst == c.Rank() {
						if err := post(m); err != nil {
							return err
						}
					}
				}
			}
			if err := Waitall(reqs...); err != nil {
				return err
			}
			// Verify: receives on one (src, tag) channel arrive in send
			// order; our posts were in script order, so buffer id ==
			// earliest unconsumed message of that (src, tag). Since we
			// posted in script order and the sender sends in script
			// order, buffer m.id must hold exactly message m.id's
			// payload.
			for _, m := range script {
				if m.dst != c.Rank() {
					continue
				}
				buf := recvBufs[m.id]
				want := m.src*1_000_000 + m.dst*10_000 + m.id
				for e, v := range buf {
					if v != want {
						return fmt.Errorf("trial %d msg %d elem %d: got %d want %d", trial, m.id, e, v, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterleavedCommunicators interleaves traffic and collectives across
// duplicated communicators from the same ranks.
func TestInterleavedCommunicators(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		a, err := c.Dup()
		if err != nil {
			return err
		}
		b, err := c.Dup()
		if err != nil {
			return err
		}
		p := c.Size()
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		for i := 0; i < 20; i++ {
			// Ring exchange on a, allreduce on b, bcast on the parent —
			// same tags everywhere, isolated by contexts.
			out := []int{c.Rank()*100 + i}
			in := make([]int, 1)
			if _, err := Sendrecv(a, out, contiguousN(1), next, 0, in, contiguousN(1), prev, 0); err != nil {
				return err
			}
			if in[0] != prev*100+i {
				return fmt.Errorf("iter %d: ring got %d", i, in[0])
			}
			sum := []int{1}
			if err := Allreduce(b, sum, sum, SumOp[int]); err != nil {
				return err
			}
			if sum[0] != p {
				return fmt.Errorf("iter %d: allreduce got %d", i, sum[0])
			}
			root := i % p
			bc := []int{0}
			if c.Rank() == root {
				bc[0] = i
			}
			if err := Bcast(c, bc, root); err != nil {
				return err
			}
			if bc[0] != i {
				return fmt.Errorf("iter %d: bcast got %d", i, bc[0])
			}
		}
		return nil
	})
}

// TestManyRanksSmoke runs the collectives at a larger scale.
func TestManyRanksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large rank count")
	}
	run(t, 128, func(c *Comm) error {
		if err := Barrier(c); err != nil {
			return err
		}
		sum := []int64{int64(c.Rank())}
		if err := Allreduce(c, sum, sum, SumOp[int64]); err != nil {
			return err
		}
		if sum[0] != 128*127/2 {
			return fmt.Errorf("allreduce = %d", sum[0])
		}
		blk := []int64{int64(c.Rank())}
		all := make([]int64, 128)
		if err := Allgather(c, blk, all); err != nil {
			return err
		}
		for r, v := range all {
			if v != int64(r) {
				return fmt.Errorf("allgather[%d] = %d", r, v)
			}
		}
		return nil
	})
}

// TestSubsetCommRecursive halves the communicator by rank parity
// repeatedly and checks each level still communicates correctly.
func TestSubsetCommRecursive(t *testing.T) {
	run(t, 16, func(c *Comm) error {
		cur := c
		for level := 0; level < 3; level++ {
			half, err := parityComm(cur)
			if err != nil {
				return err
			}
			sum := []int{1}
			if err := Allreduce(half, sum, sum, SumOp[int]); err != nil {
				return err
			}
			if sum[0] != half.Size() {
				return fmt.Errorf("level %d: size %d sum %d", level, half.Size(), sum[0])
			}
			cur = half
			if cur.Size() == 1 {
				break
			}
		}
		return nil
	})
}
