package mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cartcc/internal/datatype"
)

// Receive operations are reused wherever their request stays inside the
// runtime (schedule-round slots, the blocking forms) and never where the
// caller holds it. These tests pin both halves, and the error paths on
// which a reused operation must come back quiescent.

// TestSendrecvWithdrawsReceiveOnSendError: Sendrecv posts its receive
// before its send. When the send is rejected (bad arguments) or fails (dead
// peer), the receive must be withdrawn — otherwise a later message with the
// same (source, tag) matches it and lands in the abandoned buffer.
func TestSendrecvWithdrawsReceiveOnSendError(t *testing.T) {
	const tag = 5
	// The run's error always holds the injected crash; the survivors' own
	// verdicts are collected beside it so the crash cannot mask them.
	verdict := make([]error, 3)
	err := Run(Config{
		Procs:   3,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 1, AtOp: 1}}},
	}, func(c *Comm) (err error) {
		defer func() { verdict[c.Rank()] = err }()
		one := datatype.Contiguous(0, 1)
		switch c.Rank() {
		case 1:
			return SendSlice(c, []int{0}, 0, 99) // dies at its first operation
		case 2:
			// Wait for rank 0 to have been through both failed exchanges,
			// then send the message their receives would have stolen.
			if _, err := RecvSlice(c, make([]int, 1), 0, 1); err != nil {
				return err
			}
			_, err := Sendrecv(c, []int{42}, one, 0, tag, make([]int, 1), one, 0, tag)
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for !c.w.isDead(1) {
			if time.Now().After(deadline) {
				return fmt.Errorf("rank 1 never crashed")
			}
			time.Sleep(time.Millisecond)
		}
		abandoned := []int{-1}
		// The send is rejected: destination out of range.
		if _, err := Sendrecv(c, []int{7}, one, 9, tag, abandoned, one, 2, tag); err == nil {
			return fmt.Errorf("Sendrecv accepted a bad destination")
		}
		if recvs, unexpected := c.rs.box.pendingPosted(); recvs != 0 || unexpected != 0 {
			return fmt.Errorf("after a rejected send: %d receive(s) posted, %d unexpected; want 0, 0", recvs, unexpected)
		}
		// The send fails: the destination is dead.
		if _, err := Sendrecv(c, []int{7}, one, 1, tag, abandoned, one, 2, tag); !IsRankFailed(err) {
			return fmt.Errorf("Sendrecv to a dead rank returned %v, want a rank failure", err)
		}
		if recvs, unexpected := c.rs.box.pendingPosted(); recvs != 0 || unexpected != 0 {
			return fmt.Errorf("after a failed send: %d receive(s) posted, %d unexpected; want 0, 0", recvs, unexpected)
		}
		if err := SendSlice(c, []int{0}, 2, 1); err != nil {
			return err
		}
		fresh := []int{-1}
		st, err := Sendrecv(c, []int{7}, one, 2, tag, fresh, one, 2, tag)
		if err != nil {
			return err
		}
		if fresh[0] != 42 || abandoned[0] != -1 || st.Source != 2 {
			return fmt.Errorf("message landed in fresh=%v abandoned=%v (status %+v); want 42 in the new buffer", fresh, abandoned, st)
		}
		return nil
	})
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want the injected crash", err)
	}
	for r, v := range verdict {
		if v != nil {
			t.Errorf("rank %d: %v", r, v)
		}
	}
}

// TestUserRequestSurvivesLaterOperations: a request returned by Irecv is
// the caller's. Waited, kept across a thousand later operations on the same
// rank, peer and tag — every one of which reuses the rank's pooled receive
// operation and the mailbox's envelopes — and waited again, it still
// reports the status it recorded.
func TestUserRequestSurvivesLaterOperations(t *testing.T) {
	const later = 1000
	run(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if c.Rank() == 1 {
			if err := SendSlice(c, []int{10, 20, 30}, 0, 3); err != nil {
				return err
			}
			buf := make([]int, 1)
			for i := 0; i < later; i++ {
				if _, err := Sendrecv(c, []int{i}, datatype.Contiguous(0, 1), peer, 3,
					buf, datatype.Contiguous(0, 1), peer, 3); err != nil {
					return err
				}
			}
			return nil
		}
		kept := make([]int, 3)
		req, err := Irecv(c, kept, datatype.Contiguous(0, 3), AnySource, AnyTag)
		if err != nil {
			return err
		}
		first, err := req.Wait()
		if err != nil {
			return err
		}
		buf := make([]int, 1)
		for i := 0; i < later; i++ {
			if _, err := Sendrecv(c, []int{-i}, datatype.Contiguous(0, 1), peer, 3,
				buf, datatype.Contiguous(0, 1), peer, 3); err != nil {
				return err
			}
			if buf[0] != i {
				return fmt.Errorf("exchange %d delivered %d", i, buf[0])
			}
		}
		again, err := req.Wait()
		if err != nil {
			return err
		}
		want := Status{Source: 1, Tag: 3, Count: 3}
		if first != want || again != want {
			return fmt.Errorf("status %+v at completion, %+v after %d later operations; want %+v both times", first, again, later, want)
		}
		if kept[0] != 10 || kept[1] != 20 || kept[2] != 30 {
			return fmt.Errorf("kept buffer overwritten: %v", kept)
		}
		return nil
	})
}

// TestSlotStreamDupDrop streams messages through one restarted SendSlot
// into one restarted RecvSlot while the fault plan duplicates every message
// and loses a pinned few. The receiver must see every surviving message
// exactly once and in order: the duplicates — fresh envelopes that must
// never be recycled — are discarded by the dedup, and a lost message's
// scratch envelope and pooled wire are reclaimed at the sender without
// reaching anyone.
func TestSlotStreamDupDrop(t *testing.T) {
	const msgs = 3000
	lost := map[int]bool{17: true, 18: true, 1000: true, 2998: true}
	var drops []MsgDrop
	for n := range lost {
		drops = append(drops, MsgDrop{From: 0, To: 1, Nth: n})
	}
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Dups: []MsgDup{{From: 0, To: 1}}, Drops: drops},
	}, func(c *Comm) error {
		var comp datatype.Composite
		comp.AppendBlock(0, 0, 1)
		comp.AppendBlock(0, 2, 1) // gathered through a pooled wire
		buf := make([]int, 3)
		if c.Rank() == 0 {
			var ss SendSlot[int]
			if err := ss.Bind(c, &comp, 1, 2); err != nil {
				return err
			}
			for n := 1; n <= msgs; n++ { // n is the link's message ordinal
				buf[0], buf[2] = n, -n
				if n%64 == 0 {
					time.Sleep(50 * time.Microsecond) // let the receiver pre-post
				}
				if err := ss.Start([][]int{buf}, 0); err != nil {
					return err
				}
			}
			// Every wire drawn — delivered, duplicated or lost — is back.
			if err := Barrier(c); err != nil {
				return err
			}
			if out := c.w.wireOut.Load(); out != 0 {
				return fmt.Errorf("%d pooled wire(s) still out after the stream", out)
			}
			return nil
		}
		var rs RecvSlot[int]
		if err := rs.Bind(c, &comp, 0, 2); err != nil {
			return err
		}
		for n := 1; n <= msgs; n++ {
			if lost[n] {
				continue
			}
			if _, err := rs.Start([][]int{buf}, 0, n%2 == 0).Wait(); err != nil {
				return err
			}
			if buf[0] != n || buf[2] != -n {
				return fmt.Errorf("expected message %d, received %v", n, buf)
			}
		}
		if found, _ := c.rs.box.arrived(c.ctx, c.epoch, 0, 2); found {
			return fmt.Errorf("a duplicate or a lost message is queued after the stream")
		}
		return Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingFormsAllocationFree: Send, Recv and Sendrecv never hand a
// request to their caller, so in steady state they run on the rank's pooled
// receive operation and allocate nothing — contiguous payloads travel
// zero-copy, and an unexpected one is staged through a pooled wire.
func TestBlockingFormsAllocationFree(t *testing.T) {
	if TransportEnvActive() {
		t.Skip("loopback property: a socket backend frames and decodes every message")
	}
	// The race detector makes sync.Pool drop a quarter of all Puts, so the
	// wire pool misses at random and an absolute count means nothing.
	var probe sync.Pool
	for i, x := 0, new(int); i < 200; i++ {
		probe.Put(x)
		if probe.Get() == nil {
			t.Skip("sync.Pool drops entries in this build (race detector)")
		}
	}
	err := Run(Config{Procs: 2, Timeout: -1, DeadlockPoll: -1}, func(c *Comm) error {
		peer := 1 - c.Rank()
		one := datatype.Contiguous(0, 4)
		send, recv := make([]int64, 4), make([]int64, 4)
		exchange := func() error {
			_, err := Sendrecv(c, send, one, peer, 0, recv, one, peer, 0)
			return err
		}
		const runs = 200
		if c.Rank() == 1 {
			for i := 0; i < runs+1+20; i++ { // AllocsPerRun adds one warm-up run
				if err := exchange(); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 20; i++ { // fill the wire pool and the free lists
			if err := exchange(); err != nil {
				return err
			}
		}
		var failed error
		allocs := testing.AllocsPerRun(runs, func() {
			if err := exchange(); err != nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
		// Both ranks' allocations are counted; a wire-pool miss after a GC
		// cycle is the only legitimate residue.
		if allocs > 0.5 {
			return fmt.Errorf("Sendrecv allocates %.2f objects per exchange in steady state; want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
