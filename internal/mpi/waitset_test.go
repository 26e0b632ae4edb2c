package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitSetCompletionOrder posts two receives from peers that send in a
// forced order and checks that Waitsome reports each owner as its message
// lands, without blocking past the first completion. The stagger is
// channel-synchronized through the runtime itself — rank 2 sends only
// after rank 0 has observed rank 1's completion — so the order assertion
// cannot race the scheduler (the old version slept 100ms and flaked when
// a loaded machine delayed rank 1's send past it).
func TestWaitSetCompletionOrder(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return SendSlice(c, []int{11}, 0, 0)
		case 2:
			if _, err := RecvSlice(c, make([]int, 1), 0, 5); err != nil {
				return err
			}
			return SendSlice(c, []int{22}, 0, 0)
		}
		b1 := make([]int, 1)
		b2 := make([]int, 1)
		r1, err := Irecv(c, b1, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		r2, err := Irecv(c, b2, contiguousN(1), 2, 0)
		if err != nil {
			return err
		}
		s := NewWaitSet(c, 2)
		s.Add(r1, 100)
		s.Add(r2, 200)
		var order []int
		for s.outstanding > 0 || len(order) < 2 {
			ready, err := s.Waitsome()
			if err != nil {
				return err
			}
			if ready == nil {
				break
			}
			for _, o := range ready {
				order = append(order, o)
				if o == 100 {
					// Rank 1's completion observed: release rank 2's send.
					if err := SendSlice(c, []int{1}, 2, 5); err != nil {
						return err
					}
				}
			}
		}
		if len(order) != 2 || order[0] != 100 || order[1] != 200 {
			return fmt.Errorf("completion order = %v, want [100 200]", order)
		}
		if _, err := r1.Wait(); err != nil {
			return err
		}
		if _, err := r2.Wait(); err != nil {
			return err
		}
		if b1[0] != 11 || b2[0] != 22 {
			return fmt.Errorf("payloads = %d %d", b1[0], b2[0])
		}
		return nil
	})
}

// TestWaitSetImmediateReady covers the no-notification paths: sends, nil,
// and already-finished requests are reported on the first Waitsome without
// any channel traffic.
func TestWaitSetImmediateReady(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := RecvSlice(c, make([]int, 1), 0, 0)
			return err
		}
		sreq, err := Isend(c, []int{1}, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		s := NewWaitSet(c, 1)
		s.Add(sreq, 7)
		s.Add(nil, 8)
		ready, err := s.Waitsome()
		if err != nil {
			return err
		}
		if len(ready) != 2 || ready[0] != 7 || ready[1] != 8 {
			return fmt.Errorf("ready = %v, want [7 8]", ready)
		}
		if got, err := s.Waitsome(); err != nil || got != nil {
			return fmt.Errorf("empty set Waitsome = %v, %v", got, err)
		}
		_, err = sreq.Wait()
		return err
	})
}

// TestWaitSetAddAfterMatch adds a receive whose message was already matched
// before Add: attachNotify must refuse (delivered), and the owner must be
// queued as ready by Add itself instead of by a matcher's notification.
func TestWaitSetAddAfterMatch(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return SendSlice(c, []int{5}, 0, 0)
		}
		buf := make([]int, 1)
		req, err := Irecv(c, buf, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		// Wait until the match has happened (delivered flag set by the
		// matcher) before attaching.
		deadline := time.Now().Add(5 * time.Second)
		for !req.pending.delivered.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("message never matched")
			}
			time.Sleep(time.Millisecond)
		}
		s := NewWaitSet(c, 1)
		s.Add(req, 42)
		if s.Pending() != 1 {
			return fmt.Errorf("late add queued %d completion(s), want 1", s.Pending())
		}
		ready, err := s.Waitsome()
		if err != nil {
			return err
		}
		if len(ready) != 1 || ready[0] != 42 {
			return fmt.Errorf("ready = %v, want [42]", ready)
		}
		if s.outstanding != 0 {
			return fmt.Errorf("outstanding = %d after the late add drained", s.outstanding)
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if buf[0] != 5 {
			return fmt.Errorf("payload = %d", buf[0])
		}
		return nil
	})
}

// TestWaitSetPoisonOnCrash checks the failure path: a peer that dies while
// we block in Waitsome must poison the pending receive through the same
// notify-then-ready handover, so Waitsome wakes and the request's Wait
// surfaces the typed peer-failure error.
func TestWaitSetPoisonOnCrash(t *testing.T) {
	boom := errors.New("boom")
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 1, AtOp: 2}}},
	}, func(c *Comm) error {
		if c.Rank() == 1 {
			// Burn ops until the injected crash fires.
			for i := 0; i < 100; i++ {
				c.rs.opTick()
			}
			return boom
		}
		buf := make([]int, 1)
		req, err := Irecv(c, buf, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		s := NewWaitSet(c, 1)
		s.Add(req, 0)
		if _, werr := s.Waitsome(); werr != nil {
			// Abort raced ahead of the poison: still a detected failure.
			return werr
		}
		_, werr := req.Wait()
		if werr == nil {
			return fmt.Errorf("receive from crashed rank succeeded")
		}
		return werr
	})
	if err == nil {
		t.Fatal("run with crashed rank succeeded")
	}
	if !IsRankFailed(err) && !errors.Is(err, ErrAborted) && !errors.Is(err, boom) {
		t.Fatalf("error = %v, want process-failure or abort", err)
	}
}

// TestWaitSetEmpty: Waitsome over a set to which nothing was ever added
// must return (nil, nil) immediately — not block, not panic.
func TestWaitSetEmpty(t *testing.T) {
	run(t, 1, func(c *Comm) error {
		s := NewWaitSet(c, 1)
		ready, err := s.Waitsome()
		if err != nil {
			return err
		}
		if ready != nil {
			return fmt.Errorf("empty set Waitsome = %v, want nil", ready)
		}
		if s.outstanding != 0 {
			return fmt.Errorf("empty set outstanding = %d", s.outstanding)
		}
		return nil
	})
}

// TestWaitSetAllCancelled is the regression test for the cancel-completion
// fix: receives that were added to a set and then cancelled must surface
// through Waitsome (cancellation is a completion), with each request's Wait
// returning ErrCancelled — previously the set never learned of the cancel
// and Waitsome blocked until the watchdog killed the run.
func TestWaitSetAllCancelled(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // sends nothing: the receives below can only be cancelled
		}
		b1 := make([]int, 1)
		b2 := make([]int, 1)
		r1, err := Irecv(c, b1, contiguousN(1), 1, 90)
		if err != nil {
			return err
		}
		r2, err := Irecv(c, b2, contiguousN(1), 1, 91)
		if err != nil {
			return err
		}
		s := NewWaitSet(c, 2)
		s.Add(r1, 0)
		s.Add(r2, 1)
		if !r1.Cancel() || !r2.Cancel() {
			return fmt.Errorf("unmatched receives not cancellable")
		}
		seen := map[int]bool{}
		for len(seen) < 2 {
			ready, err := s.Waitsome()
			if err != nil {
				return err
			}
			if ready == nil {
				return fmt.Errorf("set drained with %d/2 cancellations reported", len(seen))
			}
			for _, o := range ready {
				seen[o] = true
			}
		}
		for _, r := range []*Request{r1, r2} {
			if _, err := r.Wait(); !errors.Is(err, ErrCancelled) {
				return fmt.Errorf("cancelled Wait = %v, want ErrCancelled", err)
			}
		}
		if s.outstanding != 0 {
			return fmt.Errorf("outstanding = %d after all cancellations", s.outstanding)
		}
		if ready, err := s.Waitsome(); err != nil || ready != nil {
			return fmt.Errorf("drained set Waitsome = %v, %v", ready, err)
		}
		return nil
	})
}

// TestWaitSetCancelAfterAttachWakesWaitsome cancels from a second goroutine
// while the rank is parked inside Waitsome, covering the notify-signal path
// of mailbox.cancel (not just the drain-before-block path).
func TestWaitSetCancelAfterAttachWakesWaitsome(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		buf := make([]int, 1)
		req, err := Irecv(c, buf, contiguousN(1), 1, 7)
		if err != nil {
			return err
		}
		s := NewWaitSet(c, 1)
		s.Add(req, 3)
		// Cancel once the rank is registered as blocked in Waitsome: the
		// watchdog registry is the channel-synchronized "it is parked now"
		// signal (no fixed sleep).
		go func() {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if op := c.w.blocked[0].Load(); op != nil && op.kind == "waitsome" {
					break
				}
				time.Sleep(time.Millisecond)
			}
			req.Cancel()
		}()
		ready, err := s.Waitsome()
		if err != nil {
			return err
		}
		if len(ready) != 1 || ready[0] != 3 {
			return fmt.Errorf("ready = %v, want [3]", ready)
		}
		if _, err := req.Wait(); !errors.Is(err, ErrCancelled) {
			return fmt.Errorf("Wait = %v, want ErrCancelled", err)
		}
		return nil
	})
}

// TestWaitallZeroRequestsAfterAbort: Waitall over zero (or all-nil)
// requests must return nil even while the run is being torn down by a
// fault abort — executors call it with empty tails after cancelling a
// failed phase, and it must not manufacture an error or block.
func TestWaitallZeroRequestsAfterAbort(t *testing.T) {
	waitallErrs := make(chan error, 2)
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 1, AtOp: 1}}},
	}, func(c *Comm) error {
		if c.Rank() == 1 {
			// First posted operation trips the injected crash.
			return SendSlice(c, []int{1}, 0, 0)
		}
		buf := make([]int, 1)
		_, rerr := RecvSlice(c, buf, 1, 0)
		if rerr == nil {
			return fmt.Errorf("receive from crashed rank succeeded")
		}
		// The abort is in flight: Waitall over nothing must still be a no-op.
		waitallErrs <- Waitall()
		waitallErrs <- Waitall(nil, nil)
		return rerr
	})
	if err == nil {
		t.Fatal("run with crashed rank succeeded")
	}
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want RankFailedError", err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-waitallErrs; werr != nil {
			t.Fatalf("Waitall over zero requests = %v, want nil", werr)
		}
	}
}

// TestWaitSetReset reuses one set across two executions and checks that no
// stale notification from the first leaks into the second.
func TestWaitSetReset(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < 2; i++ {
				if err := SendSlice(c, []int{i + 1}, 0, 0); err != nil {
					return err
				}
			}
			return nil
		}
		s := NewWaitSet(c, 1)
		buf := make([]int, 1)
		for i := 0; i < 2; i++ {
			s.Reset()
			req, err := Irecv(c, buf, contiguousN(1), 1, 0)
			if err != nil {
				return err
			}
			s.Add(req, i)
			ready, err := s.Waitsome()
			if err != nil {
				return err
			}
			if len(ready) != 1 || ready[0] != i {
				return fmt.Errorf("iteration %d: ready = %v", i, ready)
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if buf[0] != i+1 {
				return fmt.Errorf("iteration %d: payload = %d", i, buf[0])
			}
		}
		return nil
	})
}

// TestWaitSetDrainAndWake covers the engine-side token plumbing: a
// receive added before its message arrives posts its token on match, a
// send and an injected Post are drained immediately, Pending mirrors the
// queue without the lock, and Park consumes the wake the posts left.
func TestWaitSetDrainAndWake(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			if _, err := RecvSlice(c, make([]int, 1), 0, 1); err != nil {
				return err
			}
			return SendSlice(c, []int{42}, 0, 2)
		}
		s := NewWaitSet(c, 4)
		buf := make([]int, 1)
		r, err := Irecv(c, buf, contiguousN(1), 1, 2)
		if err != nil {
			return err
		}
		s.Add(r, 7)
		snd, err := Isend(c, []int{9}, contiguousN(1), 1, 1)
		if err != nil {
			return err
		}
		s.Add(snd, 5) // sends complete at post time: queued immediately
		s.Post(3)
		if got := s.Pending(); got < 2 {
			return fmt.Errorf("Pending() = %d before drain, want >= 2", got)
		}
		seen := map[int]bool{}
		for len(seen) < 3 {
			for _, tok := range s.TryDrain(nil) {
				seen[tok] = true
			}
			if len(seen) == 3 {
				break
			}
			if _, err := s.Park(); err != nil {
				return err
			}
		}
		if s.Pending() != 0 {
			return fmt.Errorf("Pending() = %d after full drain, want 0", s.Pending())
		}
		if !seen[7] || !seen[5] || !seen[3] {
			return fmt.Errorf("drained tokens = %v, want {3,5,7}", seen)
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("payload = %d, want 42", buf[0])
		}
		_, err = snd.Wait()
		return err
	})
}

// TestWaitSetGated covers the countdown gate: three receives
// attached under one token post it exactly once, when the last of them
// completes — the caller's bias keeps the gate from firing while the
// group is still being attached.
func TestWaitSetGated(t *testing.T) {
	const n = 3
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			if _, err := RecvSlice(c, make([]int, 1), 0, 9); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := SendSlice(c, []int{i}, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		s := NewWaitSet(c, 4)
		var gate atomic.Int32
		gate.Store(1) // bias: the gate cannot fire mid-attach
		bufs := make([][]int, n)
		reqs := make([]*Request, n)
		for i := 0; i < n; i++ {
			bufs[i] = make([]int, 1)
			r, err := Irecv(c, bufs[i], contiguousN(1), 1, i)
			if err != nil {
				return err
			}
			reqs[i] = r
			s.AddGated(r, 11, &gate)
		}
		// All receives armed before any message exists: release the sender.
		if err := SendSlice(c, []int{1}, 1, 9); err != nil {
			return err
		}
		if gate.Add(-1) == 0 {
			s.Post(11)
		}
		var toks []int
		for len(toks) == 0 {
			if toks = s.TryDrain(toks); len(toks) > 0 {
				break
			}
			if _, err := s.Park(); err != nil {
				return err
			}
		}
		if len(toks) != 1 || toks[0] != 11 {
			return fmt.Errorf("gated drain = %v, want exactly [11]", toks)
		}
		for i, r := range reqs {
			if _, err := r.Wait(); err != nil {
				return err
			}
			if bufs[i][0] != i {
				return fmt.Errorf("payload %d = %d", i, bufs[i][0])
			}
		}
		if s.Pending() != 0 {
			return fmt.Errorf("gate posted more than once: %d pending", s.Pending())
		}
		return nil
	})
}
