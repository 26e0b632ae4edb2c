package mpi

import (
	"errors"
	"fmt"

	"cartcc/internal/trace"
)

// Fault-tolerance primitives in the style of ULFM (User-Level Failure
// Mitigation, the MPI Forum's fault-tolerance proposal): Revoke poisons a
// communicator whose collective failed so every member learns of the
// failure, Agree reaches agreement among the survivors, and Shrink
// rebuilds a smaller communicator without the failed ranks. The runtime's
// in-process failure detector is perfect (markDead is globally visible
// the instant a rank crashes), which the protocols exploit: they assume
// failures do not occur concurrently with the recovery step itself and
// report — rather than mask — ones that do.

// ftCtxBit separates recovery-protocol traffic from user and collective
// traffic. The shadow context is never revoked, so Agree and Shrink keep
// working on a revoked communicator (as ULFM requires).
const ftCtxBit = int64(1) << 61

// Internal tags of the recovery protocols.
const (
	agreeTag  = 40
	shrinkTag = 41
)

// ft returns the shadow communicator in the recovery context.
func (c *Comm) ft() *Comm {
	cc := *c
	cc.ctx ^= ftCtxBit
	return &cc
}

// liveMembers returns the communicator ranks whose process is alive, in
// rank order.
func (c *Comm) liveMembers() []int {
	live := make([]int, 0, c.size)
	for r := 0; r < c.size; r++ {
		if !c.w.isDead(c.worldRank(r)) {
			live = append(live, r)
		}
	}
	return live
}

// Revoke marks the communicator revoked world-wide, like ULFM's
// MPI_Comm_revoke: every pending and future point-to-point or collective
// operation on it — on every member — fails with ErrRevoked. A member
// that observed a RankFailedError from a collective calls Revoke so the
// members that did not talk to the failed rank stop waiting too; all
// members can then rebuild with Shrink. Idempotent, non-collective.
func (c *Comm) Revoke() {
	c.w.revokeCtxs(c.ctx, c.ctx^collCtxBit)
}

// RevokeFull revokes the communicator including its fault-tolerance
// shadow contexts. Normal Revoke deliberately spares the ft contexts so
// Agree and Shrink keep working on a revoked communicator; RevokeFull is
// for abandoning a *candidate* communicator mid-recovery — peers that are
// still blocked inside its Agree or Shrink must be poisoned out so they
// join the next consensus round instead of waiting forever.
func (c *Comm) RevokeFull() {
	c.w.revokeCtxs(c.ctx, c.ctx^collCtxBit, c.ctx^ftCtxBit, c.ctx^ftCtxBit^collCtxBit)
}

// peerLost reports whether err means "that member's process died" — the
// only failure the consensus primitives may tolerate by excluding the
// member and carrying on. The distinction from a bare IsRankFailed check
// matters once a run is torn down: abort cascades wrap the primary
// RankFailedError, so without the ErrAborted exclusion a coordinator in an
// aborted run would misread every peer's cascade as a member death, skip
// every contribution, and "agree" on its own flag alone.
func peerLost(err error) bool {
	return IsRankFailed(err) && !errors.Is(err, ErrAborted)
}

// Agree reaches agreement on the bitwise AND of flag across the
// communicator's live members, excluding ranks that failed before the
// call — ULFM's MPIX_Comm_agree, the decision primitive applications use
// after a failure ("did everyone finish the checkpoint?"). A failure
// concurrent with the agreement is reported as an error instead of
// hanging; the caller can Shrink and retry.
func (c *Comm) Agree(flag int) (int, error) {
	live := c.liveMembers()
	if len(live) == 0 {
		return 0, fmt.Errorf("mpi: Agree: no live members")
	}
	cc := c.ft()
	coord := live[0]
	if c.rank != coord {
		if err := SendSlice(cc, []int64{int64(flag)}, coord, agreeTag); err != nil {
			return 0, fmt.Errorf("mpi: Agree: coordinator %d unreachable: %w", coord, err)
		}
		buf := make([]int64, 1)
		if _, err := RecvSlice(cc, buf, coord, agreeTag); err != nil {
			return 0, fmt.Errorf("mpi: Agree: lost coordinator %d: %w", coord, err)
		}
		return int(buf[0]), nil
	}
	acc := flag
	for _, r := range live[1:] {
		buf := make([]int64, 1)
		if _, err := RecvSlice(cc, buf, r, agreeTag); err != nil {
			if peerLost(err) {
				// The member died mid-agreement: exclude its contribution.
				continue
			}
			return 0, err
		}
		acc &= int(buf[0])
	}
	for _, r := range live[1:] {
		if err := SendSlice(cc, []int64{int64(acc)}, r, agreeTag); err != nil && !peerLost(err) {
			return 0, err
		}
	}
	return acc, nil
}

// Shrink returns a new communicator containing the surviving members of
// c, renumbered contiguously in old rank order — ULFM's
// MPI_Comm_shrink, the rebuild step after a failure. Collective over the
// live members. The lowest live rank coordinates: it allocates the new
// context and distributes it with the authoritative member list, so all
// survivors agree on the membership even if their failure views raced.
func (c *Comm) Shrink() (*Comm, error) {
	live := c.liveMembers()
	if len(live) == 0 {
		return nil, fmt.Errorf("mpi: Shrink: no live members")
	}
	cc := c.ft()
	coord := live[0]
	// Wire layout: [new ctx, new epoch, member count, members (world ranks)...]
	msg := make([]int64, 3+c.size)
	if c.rank == coord {
		msg[0] = c.w.nextCtxBase(1)
		msg[1] = c.w.epochSeq.Add(1)
		msg[2] = int64(len(live))
		for i, r := range live {
			msg[3+i] = int64(c.worldRank(r))
		}
		for _, r := range live[1:] {
			if err := SendSlice(cc, msg, r, shrinkTag); err != nil && !peerLost(err) {
				return nil, err
			}
		}
	} else {
		if _, err := RecvSlice(cc, msg, coord, shrinkTag); err != nil {
			return nil, fmt.Errorf("mpi: Shrink: lost coordinator %d: %w", coord, err)
		}
	}
	n := int(msg[2])
	group := make([]int, n)
	myNew := -1
	myWorld := c.worldRank(c.rank)
	for i := 0; i < n; i++ {
		group[i] = int(msg[3+i])
		if group[i] == myWorld {
			myNew = i
		}
	}
	if myNew < 0 {
		return nil, fmt.Errorf("mpi: Shrink: coordinator %d's member list excludes this rank", coord)
	}
	c.w.flight.Record(c.rs.rank, trace.FlightEpochBump, coord, 0, 0, msg[1])
	return &Comm{w: c.w, rs: c.rs, rank: myNew, size: n, ctx: msg[0], epoch: msg[1], group: group}, nil
}

// RecoveryInfo reports what a successful RecoverShrink did.
type RecoveryInfo struct {
	// Epoch is the recovered communicator's epoch.
	Epoch int64
	// Dead lists the world ranks of c's members missing from the new
	// communicator — the agreed dead set.
	Dead []int
	// Attempts counts consensus rounds, including the successful one.
	Attempts int
	// Drained counts stale-epoch messages discarded from this rank's
	// mailbox when it advanced to the new epoch.
	Drained int
}

// ErrRecoveryFailed marks a recovery that exhausted its consensus
// attempts without reaching a stable survivor set. Match with errors.Is.
var ErrRecoveryFailed = errors.New("recovery failed")

// RecoverShrink drives Shrink to a *stable* shrunk communicator: one whose
// membership all survivors agree on and which contains no rank that died
// during the consensus itself. Each round shrinks, checks the candidate's
// members against the failure detector, and confirms with Agree; any
// anomaly — a death during the round, a stale candidate, a lost
// coordinator — fully revokes the candidate (so peers still blocked inside
// its protocol are poisoned out too) and retries. Rounds are bounded by
// the membership size: every retry is triggered by a new death or a newly
// revoked candidate, both finite.
//
// On success the calling rank's mailbox is advanced to the new epoch:
// stale messages are drained, their pooled buffers reclaimed, and the
// epoch floor ensures late stragglers from the old epoch are discarded on
// arrival. The caller must not post further receives on old-epoch
// communicators after this returns.
func (c *Comm) RecoverShrink() (*Comm, RecoveryInfo, error) {
	info := RecoveryInfo{}
	maxAttempts := 2*c.size + 4
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		info.Attempts = attempt
		nc, err := c.Shrink()
		if err != nil {
			// A death or revocation mid-round: the next round's liveMembers
			// excludes the new dead. Anything else — including an abort
			// cascade from a torn-down run, which wraps the primary rank
			// failure — is terminal; retrying consensus on a dead run only
			// burns the attempt budget.
			if (IsRankFailed(err) || errors.Is(err, ErrRevoked)) && !errors.Is(err, ErrAborted) {
				lastErr = err
				continue
			}
			return nil, info, err
		}
		stable := 1
		for r := 0; r < nc.size; r++ {
			if nc.w.isDead(nc.worldRank(r)) {
				stable = 0
				break
			}
		}
		flag, aerr := nc.Agree(stable)
		if aerr != nil || flag != 1 {
			// The candidate is stale (contains a dead rank) or the
			// confirmation itself failed. Abandon it loudly: a full revoke
			// poisons peers still blocked in the candidate's Agree so they
			// rejoin the next round.
			nc.RevokeFull()
			if aerr != nil {
				lastErr = aerr
			} else {
				lastErr = fmt.Errorf("mpi: RecoverShrink: candidate membership contained a failed rank")
			}
			continue
		}
		info.Epoch = nc.epoch
		for r := 0; r < c.size; r++ {
			w := c.worldRank(r)
			found := false
			for _, g := range nc.group {
				if g == w {
					found = true
					break
				}
			}
			if !found {
				info.Dead = append(info.Dead, w)
			}
		}
		info.Drained = c.rs.box.drainBelowEpoch(nc.epoch)
		if met := c.rs.met; met != nil {
			met.shrinks.Inc()
			met.epochGauge.SetMax(nc.epoch)
		}
		c.w.flight.Record(c.rs.rank, trace.FlightRecovery, -1, 0, int64(info.Drained), int64(attempt))
		return nc, info, nil
	}
	return nil, info, fmt.Errorf("mpi: RecoverShrink: no stable membership after %d rounds (last: %v): %w",
		maxAttempts, lastErr, ErrRecoveryFailed)
}
