package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cartcc/internal/metrics"
)

// countingMsg builds a hand-delivered message that owns a wire whose
// release counts its invocations (countingWire, zerocopy_test.go) — the
// probe for the pooled-wire ownership protocol on the recovery paths:
// however a message leaves the mailbox (consumed, drained, discarded as
// stale or duplicate), the wire must go back exactly once.
func countingMsg(ctx, epoch int64, src, tag int, released *int) *message {
	return &message{
		ctx: ctx, epoch: epoch, src: src, tag: tag, bytes: 8,
		payload: countingWire{released: released}.wire([]int{1}),
	}
}

// TestDrainBelowEpochReleasesOnce: drainBelowEpoch must return every stale
// unexpected message's pooled wire exactly once, leave newer-epoch messages
// queued, and leave fault-tolerance shadow-plane messages untouched —
// consensus traffic is epochless (an abandoned recovery generation retries
// Agree/Shrink on the original communicator after the floor has risen).
func TestDrainBelowEpochReleasesOnce(t *testing.T) {
	box := &mailbox{}
	var oldA, oldB, fresh, ft int
	box.deliver(countingMsg(1, 0, 0, 7, &oldA))
	box.deliver(countingMsg(1, 0, 2, 9, &oldB))
	box.deliver(countingMsg(1, 1, 0, 7, &fresh))
	box.deliver(countingMsg(ftCtxBit|1, 0, 0, agreeTag, &ft))

	if n := box.drainBelowEpoch(1); n != 2 {
		t.Fatalf("drained %d messages, want 2", n)
	}
	if oldA != 1 || oldB != 1 {
		t.Fatalf("stale releases ran %d and %d times; want exactly 1 each", oldA, oldB)
	}
	if fresh != 0 || ft != 0 {
		t.Fatalf("surviving messages released (fresh=%d ft=%d); want 0", fresh, ft)
	}
	if found, _, _, _ := box.probe(1, 1, 0, 7); !found {
		t.Fatal("new-epoch message did not survive the drain")
	}
	if found, _, _, _ := box.probe(ftCtxBit|1, 0, 0, agreeTag); !found {
		t.Fatal("ft-plane message did not survive the drain")
	}
	if found, _, _, _ := box.probe(1, 0, 0, 7); found {
		t.Fatal("stale message still visible after the drain")
	}
	// A second drain to the same epoch is a no-op: nothing double-released.
	if n := box.drainBelowEpoch(1); n != 0 {
		t.Fatalf("re-drain removed %d messages, want 0", n)
	}
	if oldA != 1 || oldB != 1 {
		t.Fatalf("re-drain re-released (oldA=%d oldB=%d); want exactly 1 each", oldA, oldB)
	}
}

// TestEpochFloorArrivalDiscardReleasesOnce: a message that arrives already
// below the floor (a straggler racing the drain) is discarded on arrival
// with its wire released exactly once — unless it rides the ft shadow
// plane, which is exempt from the floor.
func TestEpochFloorArrivalDiscardReleasesOnce(t *testing.T) {
	box := &mailbox{}
	box.drainBelowEpoch(2)

	var stale, ft int
	box.deliver(countingMsg(1, 1, 0, 7, &stale))
	if stale != 1 {
		t.Fatalf("stale arrival released %d times; want exactly 1", stale)
	}
	if found, _, _, _ := box.probe(1, 1, 0, 7); found {
		t.Fatal("stale arrival queued despite the epoch floor")
	}

	box.deliver(countingMsg(ftCtxBit|1, 0, 0, shrinkTag, &ft))
	if ft != 0 {
		t.Fatalf("ft-plane arrival released %d times before consumption; want 0", ft)
	}
	if found, _, _, _ := box.probe(ftCtxBit|1, 0, 0, shrinkTag); !found {
		t.Fatal("ft-plane arrival below the floor was not queued")
	}
}

// TestDuplicateDropReleasesOnce: the per-sender sequence dedup discards a
// re-delivered message, releasing the duplicate's wire exactly once and
// never touching the original's; unsequenced messages (sseq 0: poisons,
// hand-built traffic) are exempt.
func TestDuplicateDropReleasesOnce(t *testing.T) {
	box := &mailbox{}
	var orig, dup int
	m1 := countingMsg(1, 0, 0, 7, &orig)
	m1.srcWorld, m1.sseq = 0, 1
	box.deliver(m1)

	got := make(chan *message, 1)
	box.post(&pendingRecv{ctx: 1, src: 0, tag: 7, srcWorld: 0, ready: got})
	if m := <-got; m.fail != nil {
		t.Fatalf("original message failed: %v", m.fail)
	}
	if orig != 1 {
		t.Fatalf("original released %d times; want exactly 1", orig)
	}

	m2 := countingMsg(1, 0, 0, 7, &dup)
	m2.srcWorld, m2.sseq = 0, 1 // same sequence number: a duplicate
	box.deliver(m2)
	if dup != 1 {
		t.Fatalf("duplicate released %d times; want exactly 1", dup)
	}
	if found, _, _, _ := box.probe(1, 0, 0, 7); found {
		t.Fatal("suppressed duplicate is visible in the mailbox")
	}
	if orig != 1 {
		t.Fatalf("original re-released by the duplicate path (%d times)", orig)
	}

	// sseq 0 bypasses dedup: two identical unsequenced messages both queue.
	var a, b int
	box.deliver(countingMsg(1, 0, 1, 8, &a))
	box.deliver(countingMsg(1, 0, 1, 8, &b))
	if found, _, _, elems := box.probe(1, 0, 1, 8); !found || elems != 1 {
		t.Fatal("unsequenced message missing")
	}
	if a != 0 || b != 0 {
		t.Fatalf("unsequenced messages released early (a=%d b=%d)", a, b)
	}
}

// TestDrainPoisonsStaleReceives: a receive posted under a pre-recovery
// epoch can never match again once the floor rises; the drain fails it with
// ErrCancelled instead of leaving it for the watchdog. Receives on the ft
// shadow plane stay posted — recovery retries depend on them.
func TestDrainPoisonsStaleReceives(t *testing.T) {
	box := &mailbox{}
	stale := &pendingRecv{ctx: 1, epoch: 0, src: 0, tag: 7, srcWorld: 0, ready: make(chan *message, 1)}
	ft := &pendingRecv{ctx: ftCtxBit | 1, epoch: 0, src: 0, tag: agreeTag, srcWorld: 0, ready: make(chan *message, 1)}
	box.post(stale)
	box.post(ft)

	box.drainBelowEpoch(1)
	select {
	case m := <-stale.ready:
		if m.fail == nil || !errors.Is(m.fail, ErrCancelled) {
			t.Fatalf("stale receive failed with %v, want ErrCancelled", m.fail)
		}
		if m.data != nil || m.hold != nil {
			t.Fatal("poison message carries a payload or a wire")
		}
	default:
		t.Fatal("stale-epoch receive was not poisoned by the drain")
	}
	select {
	case m := <-ft.ready:
		t.Fatalf("ft-plane receive was poisoned: %v", m.fail)
	default:
	}
}

// TestMsgDropRetransmitDelivers: a dropped message is invisible to the
// sender (buffered-send semantics) and simply absent at the receiver, so a
// retransmission matches the receive; the drop is counted.
func TestMsgDropRetransmitDelivers(t *testing.T) {
	reg := metrics.NewRegistry(2)
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Metrics: reg,
		Faults:  &FaultPlan{Drops: []MsgDrop{{From: 0, To: 1, Nth: 1}}},
	}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := SendSlice(c, []int{111}, 1, 5); err != nil {
				return fmt.Errorf("dropped send surfaced an error: %w", err)
			}
			return SendSlice(c, []int{222}, 1, 5)
		case 1:
			got := make([]int, 1)
			if _, err := RecvSlice(c, got, 0, 5); err != nil {
				return err
			}
			if got[0] != 222 {
				return fmt.Errorf("received %d, want 222 (the retransmission)", got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Merged().Value("mpi.msg.dropped"); n != 1 {
		t.Errorf("mpi.msg.dropped = %d, want 1", n)
	}
}

// TestMsgDropDependedOnDeadlocks: without a retransmission layer, a receive
// that depends on a dropped message can never complete — the watchdog must
// surface a typed deadlock, never a silent hang.
func TestMsgDropDependedOnDeadlocks(t *testing.T) {
	err := Run(Config{
		Procs:   2,
		Timeout: 30 * time.Second,
		Faults:  &FaultPlan{Drops: []MsgDrop{{From: 0, To: 1, Nth: 1}}},
	}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return SendSlice(c, []int{1}, 1, 5)
		case 1:
			got := make([]int, 1)
			_, err := RecvSlice(c, got, 0, 5)
			return err
		}
		return nil
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run error = %v, want DeadlockError", err)
	}
}

// TestMsgDupSuppressedByDedup: an injected duplicate delivery is dropped by
// the per-sender sequence counter — later receives on the same envelope are
// not satisfied by the stale copy — and both injection and suppression are
// counted.
func TestMsgDupSuppressedByDedup(t *testing.T) {
	reg := metrics.NewRegistry(2)
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Metrics: reg,
		Faults:  &FaultPlan{Dups: []MsgDup{{From: 0, To: 1, Nth: 1}}},
	}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := SendSlice(c, []int{41}, 1, 5); err != nil {
				return err
			}
			return SendSlice(c, []int{43}, 1, 5)
		case 1:
			got := make([]int, 1)
			if _, err := RecvSlice(c, got, 0, 5); err != nil {
				return err
			}
			if got[0] != 41 {
				return fmt.Errorf("first receive got %d, want 41", got[0])
			}
			// The duplicate of the first message must not satisfy this
			// receive; the second (distinct) message must.
			if _, err := RecvSlice(c, got, 0, 5); err != nil {
				return err
			}
			if got[0] != 43 {
				return fmt.Errorf("second receive got %d, want 43 (duplicate leaked)", got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Merged()
	if n := m.Value("mpi.msg.duplicated"); n != 1 {
		t.Errorf("mpi.msg.duplicated = %d, want 1", n)
	}
	if n := m.Value("mpi.msg.dup_dropped"); n != 1 {
		t.Errorf("mpi.msg.dup_dropped = %d, want 1", n)
	}
}

// TestRecoverShrinkAfterCrash is the mpi-level recovery contract: survivors
// of an injected crash revoke, run the consensus, and come back with a
// working communicator on a new epoch that excludes the dead rank — and
// collectives on it produce correct data.
func TestRecoverShrinkAfterCrash(t *testing.T) {
	reg := metrics.NewRegistry(4)
	var infos sync.Map
	err := Run(Config{
		Procs:   4,
		Timeout: 30 * time.Second,
		Metrics: reg,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 2, AtOp: 3}}},
	}, func(c *Comm) error {
		p := c.Size()
		next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		var ringErr error
		for i := 0; i < 10; i++ {
			out, in := []int{c.Rank()}, make([]int, 1)
			if _, err := Sendrecv(c, out, contiguousN(1), next, 0, in, contiguousN(1), prev, 0); err != nil {
				ringErr = err
				break
			}
		}
		if ringErr == nil {
			return fmt.Errorf("rank %d never observed the crash", c.Rank())
		}
		c.Revoke()
		nc, info, err := c.RecoverShrink()
		if err != nil {
			return fmt.Errorf("rank %d: RecoverShrink: %w", c.Rank(), err)
		}
		infos.Store(c.Rank(), info)
		if nc.Size() != 3 {
			return fmt.Errorf("shrunk size = %d, want 3", nc.Size())
		}
		sum := []int{c.Rank()}
		if err := Allreduce(nc, sum, sum, SumOp[int]); err != nil {
			return fmt.Errorf("allreduce on shrunk comm: %w", err)
		}
		if sum[0] != 0+1+3 {
			return fmt.Errorf("allreduce on shrunk comm = %d, want 4", sum[0])
		}
		return nil
	})
	// The injected crash is the run's only primary error.
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want RankFailedError", err)
	}
	for _, r := range []int{0, 1, 3} {
		v, ok := infos.Load(r)
		if !ok {
			t.Fatalf("rank %d did not complete recovery", r)
		}
		info := v.(RecoveryInfo)
		if info.Epoch < 1 {
			t.Errorf("rank %d recovered into epoch %d, want >= 1", r, info.Epoch)
		}
		if len(info.Dead) != 1 || info.Dead[0] != 2 {
			t.Errorf("rank %d agreed dead set = %v, want [2]", r, info.Dead)
		}
	}
	if n := reg.Merged().Value("mpi.recovery.shrinks"); n < 3 {
		t.Errorf("mpi.recovery.shrinks = %d, want >= 3 (one per survivor)", n)
	}
}
