package cart

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
)

// The persistent round slots (mpi.RecvSlot / mpi.SendSlot in a plan's
// executor scratch) are restarted on every execution: request, pending
// receive, ready channel and matched envelope are the same objects op after
// op. These tests push that reuse through the interleavings that decide
// whether the last-touch rule holds — peers running an execution ahead (the
// unexpected-queue path refills an envelope node while the slot it will land
// in is still retiring the previous op), two futures of one plan in flight,
// injected duplicates, a crash mid-collective — and verify every
// payload of every op. Run them under -race: a slot restarted while a
// matcher still touches it is a data race before it is a wrong answer.

// lifecycleOps is the length of the back-to-back runs.
func lifecycleOps() int {
	if testing.Short() {
		return 2_000
	}
	return 20_000
}

// fillAlltoall writes iteration it's send buffer; the matching receive
// buffer is refAlltoall's with it added to every element.
func fillAlltoall(send []int, rank, t, m, it int) {
	for i := 0; i < t; i++ {
		for e := 0; e < m; e++ {
			send[i*m+e] = encode(rank, i, e) + it
		}
	}
}

func checkAlltoallIter(recv, base []int, rank, it int) error {
	for i := range base {
		if recv[i] != base[i]+it {
			return fmt.Errorf("rank %d op %d element %d: got %d, want %d", rank, it, i, recv[i], base[i]+it)
		}
	}
	return nil
}

func TestSlotLifecycleRunStress(t *testing.T) {
	const m = 2
	ops := lifecycleOps()
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		send := make([]int, tn*m)
		recv := make([]int, tn*m)
		for it := 0; it < ops; it++ {
			if w.Rank() == 4 && it%61 == 0 {
				// The straggler: its neighbors finish this op's sends and run
				// into the next execution, so their messages queue here as
				// unexpected while this rank's slots are between starts.
				time.Sleep(30 * time.Microsecond)
			}
			fillAlltoall(send, w.Rank(), tn, m, it)
			clear(recv)
			if err := Run(plan, send, recv); err != nil {
				return err
			}
			if err := checkAlltoallIter(recv, base, w.Rank(), it); err != nil {
				return err
			}
		}
		return plan.Stats().Check()
	})
}

func TestSlotLifecycleStartStress(t *testing.T) {
	const m = 2
	ops := lifecycleOps() / 2 // two futures per iteration
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		var send, recv [2][]int
		for k := range send {
			send[k] = make([]int, tn*m)
			recv[k] = make([]int, tn*m)
		}
		for it := 0; it < ops; it++ {
			if w.Rank() == 4 && it%61 == 0 {
				time.Sleep(30 * time.Microsecond)
			}
			var futs [2]*Future
			for k := range futs {
				fillAlltoall(send[k], w.Rank(), tn, m, 2*it+k)
				clear(recv[k])
				if futs[k], err = Start(plan, send[k], recv[k]); err != nil {
					return err
				}
			}
			// Alternate the wait order so scratch sets retire in both orders.
			for j := range futs {
				k := (j + it) % 2
				if err := futs[k].Wait(); err != nil {
					return err
				}
				if err := checkAlltoallIter(recv[k], base, w.Rank(), 2*it+k); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// TestSlotLifecycleDup runs the same loop with every message of every link
// delivered twice: the original lands in a recycled envelope (the matched
// slot's, or an unexpected-queue node) while the receiver's dedup discards
// the duplicate, a fresh object that must never enter the recycling. (A
// lost message cannot be survived by a collective: TestSlotLifecycleDrop
// checks how it fails; the slots' drop path under load is stressed on a
// point-to-point stream, mpi.TestSlotStreamDupDrop.)
func TestSlotLifecycleDup(t *testing.T) {
	const m = 2
	ops := lifecycleOps() / 10
	nbh := mustStencil(t, 2, 3, -1)
	err := mpi.Run(mpi.Config{
		Procs:   9,
		Timeout: 30 * time.Second,
		Faults:  &mpi.FaultPlan{Dups: []mpi.MsgDup{{From: -1, To: -1}}},
	}, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		plan, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		send := make([]int, tn*m)
		recv := make([]int, tn*m)
		for it := 0; it < ops; it++ {
			fillAlltoall(send, w.Rank(), tn, m, it)
			clear(recv)
			if err := Run(plan, send, recv); err != nil {
				return err
			}
			if err := checkAlltoallIter(recv, base, w.Rank(), it); err != nil {
				return err
			}
		}
		if d := w.World().DebugSnapshot().Ranks[w.Rank()]; d.PendingRecvs != 0 {
			return fmt.Errorf("rank %d: %d receive(s) left posted", w.Rank(), d.PendingRecvs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlotLifecycleDrop loses one pinned message of the last execution on
// warmed-up slots, with every message duplicated besides. (Pinned to the
// last execution because a persistent collective reuses its tags: the next
// execution's message on the same (source, tag) would take the lost one's
// place and the run would verify as shifted payloads, not as a failure.) No
// retransmission layer exists, so the receive that depended on the message
// must end in the watchdog's typed deadlock, attributed into the schedule
// — and on every rank whose execution failed the slots must be quiescent:
// nothing left posted, and a further Run of the same plan restarts them
// (RecvSlot.Start panics on a half-owned slot) and fails cleanly on the
// aborted world.
func TestSlotLifecycleDrop(t *testing.T) {
	const procs, sender, m, warm = 9, 4, 2, 50
	dims := []int{3, 3}
	nbh := mustStencil(t, 2, 3, -1)
	// body runs warm+1 verified executions and reports the first failure;
	// beforeLast, if set, runs ahead of the last one.
	body := func(w *mpi.Comm, beforeLast func()) (plan *Plan, send, recv []int, failed, err error) {
		c, err := NeighborhoodCreate(w, dims, nil, nbh, nil)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if plan, err = AlltoallInit(c, m, Combining); err != nil {
			return nil, nil, nil, nil, err
		}
		tn := len(nbh)
		base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		send = make([]int, tn*m)
		recv = make([]int, tn*m)
		for it := 0; it <= warm && failed == nil; it++ {
			if it == warm && beforeLast != nil {
				beforeLast()
			}
			fillAlltoall(send, w.Rank(), tn, m, it)
			clear(recv)
			if failed = Run(plan, send, recv); failed == nil {
				if err := checkAlltoallIter(recv, base, w.Rank(), it); err != nil {
					return nil, nil, nil, nil, err
				}
			}
		}
		return plan, send, recv, failed, nil
	}
	// Calibrate: the ordinal of the sender's second message of the last
	// execution (MsgDrop.Nth counts the sender's matching messages; set-up
	// traffic included, hence the measurement).
	reg := metrics.NewRegistry(procs)
	var nth int
	if err := mpi.Run(mpi.Config{Procs: procs, Timeout: 30 * time.Second, Metrics: reg}, func(w *mpi.Comm) error {
		var mark func()
		if w.Rank() == sender {
			mark = func() { nth = int(reg.Rank(sender).Counter("mpi.sends.posted").Load()) + 2 }
		}
		_, _, _, failed, err := body(w, mark)
		if err == nil {
			err = failed
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	verdict := make([]error, procs)
	execFailed := make([]bool, procs)
	runErr := mpi.Run(mpi.Config{
		Procs:   procs,
		Timeout: 30 * time.Second,
		Faults: &mpi.FaultPlan{
			Dups:  []mpi.MsgDup{{From: -1, To: -1}},
			Drops: []mpi.MsgDrop{{From: sender, To: -1, Nth: nth}},
		},
	}, func(w *mpi.Comm) (err error) {
		defer func() { verdict[w.Rank()] = err }()
		plan, send, recv, failed, err := body(w, nil)
		if err != nil || failed == nil {
			return err
		}
		execFailed[w.Rank()] = true
		if !errors.Is(failed, mpi.ErrAborted) && !isDeadlock(failed) {
			return fmt.Errorf("rank %d: execution failed with %v, want the deadlock verdict or its abort", w.Rank(), failed)
		}
		posted := func() int { return w.World().DebugSnapshot().Ranks[w.Rank()].PendingRecvs }
		if n := posted(); n != 0 {
			return fmt.Errorf("rank %d: %d receive(s) still posted after its failed execution", w.Rank(), n)
		}
		if err := Run(plan, send, recv); err == nil {
			return fmt.Errorf("rank %d: execution on the aborted world succeeded", w.Rank())
		}
		if n := posted(); n != 0 {
			return fmt.Errorf("rank %d: %d receive(s) still posted after the restart", w.Rank(), n)
		}
		return nil
	})
	if !isDeadlock(runErr) {
		t.Fatalf("run error = %v, want a DeadlockError", runErr)
	}
	if !slices.Contains(execFailed, true) {
		t.Fatal("no rank's execution failed although a message it depends on was lost")
	}
	for r, v := range verdict {
		if v != nil {
			t.Errorf("rank %d: %v", r, v)
		}
	}
}

func isDeadlock(err error) bool {
	var dl *mpi.DeadlockError
	return errors.As(err, &dl)
}

// TestSlotsQuiescentAfterCrash kills a rank in the middle of a collective
// on warmed-up slots. The survivors' execution must fail with every slot
// withdrawn — nothing left posted in any survivor's mailbox — and
// RunRecoverable on the same communicator must then complete on the shrunk
// world: the failed plan's slots are never half-owned, whether the recovery
// reuses the communicator's state or rebuilds it.
func TestSlotsQuiescentAfterCrash(t *testing.T) {
	const procs, victim, m, warm = 9, 4, 2, 50
	dims := []int{3, 3}
	nbh := mustStencil(t, 2, 3, -1)
	// crashAt is the victim's crashing post, counted into the next
	// execution: a few receives in, but before its first send, so every
	// survivor misses the victim's block. The blocking executor sends
	// right after its first receive.
	for _, tc := range []struct {
		name    string
		opts    []PlanOption
		crashAt int
	}{
		{"pipelined", nil, 3},
		{"barriered", []PlanOption{WithBarrieredPhases()}, 3},
		{"blocking", []PlanOption{WithBlockingRounds()}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Calibrate: the victim's op count after the warm-up executions.
			var atOp int
			runWorld(t, procs, func(w *mpi.Comm) error {
				c, err := NeighborhoodCreate(w, dims, nil, nbh, nil)
				if err != nil {
					return err
				}
				plan, err := AlltoallInit(c, m, Combining, tc.opts...)
				if err != nil {
					return err
				}
				buf := make([]int, len(nbh)*m)
				for it := 0; it < warm; it++ {
					if err := Run(plan, buf, make([]int, len(buf))); err != nil {
						return err
					}
				}
				if w.Rank() == victim {
					atOp = w.OpCount() + tc.crashAt
				}
				return nil
			})
			outs := make([]*RunOutcome, procs)
			leaked := make([]int, procs)
			// The run's error always holds the injected crash; the survivors'
			// own verdicts are collected beside it so it cannot mask them.
			verdict := make([]error, procs)
			runErr := mpi.Run(mpi.Config{
				Procs:   procs,
				Timeout: 30 * time.Second,
				Faults:  &mpi.FaultPlan{Crashes: []mpi.Crash{{Rank: victim, AtOp: atOp}}},
			}, func(w *mpi.Comm) (err error) {
				defer func() { verdict[w.Rank()] = err }()
				c, err := NeighborhoodCreate(w, dims, nil, nbh, nil)
				if err != nil {
					return err
				}
				plan, err := AlltoallInit(c, m, Combining, tc.opts...)
				if err != nil {
					return err
				}
				tn := len(nbh)
				base := refAlltoall(c.Grid(), nbh, w.Rank(), m)
				send := make([]int, tn*m)
				recv := make([]int, tn*m)
				var failed error
				for it := 0; it <= warm && failed == nil; it++ {
					fillAlltoall(send, w.Rank(), tn, m, it)
					clear(recv)
					if failed = Run(plan, send, recv); failed == nil {
						if err := checkAlltoallIter(recv, base, w.Rank(), it); err != nil {
							return err
						}
					}
				}
				if failed == nil {
					return fmt.Errorf("rank %d: no execution failed although rank %d crashed", w.Rank(), victim)
				}
				// The crash itself, or the revocation a faster survivor issued
				// on entering recovery.
				if !mpi.IsRankFailed(failed) && !errors.Is(failed, mpi.ErrRevoked) {
					return fmt.Errorf("rank %d: execution failed with %v, want a rank failure or a revocation", w.Rank(), failed)
				}
				leaked[w.Rank()] = w.World().DebugSnapshot().Ranks[w.Rank()].PendingRecvs
				out, _, err := RunRecoverable(c, RecoverConfig{}, OpAlltoall, m, Combining)
				outs[w.Rank()] = out
				return err
			})
			if !mpi.IsRankFailed(runErr) {
				t.Fatalf("run error = %v, want the injected crash", runErr)
			}
			for r := 0; r < procs; r++ {
				if r == victim {
					continue
				}
				if verdict[r] != nil {
					t.Errorf("rank %d: %v", r, verdict[r])
				}
				if leaked[r] != 0 {
					t.Errorf("rank %d: %d receive(s) still posted after its failed execution", r, leaked[r])
				}
				if o := outs[r]; o == nil || o.Recoveries == 0 || !(o.Spare || o.Comm.Size() < procs) {
					t.Errorf("rank %d did not recover onto a shrunk world: %+v", r, o)
				}
			}
		})
	}
}
