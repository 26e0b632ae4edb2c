package introspect

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
)

// Automatic post-mortems: when a run fails — a typed failure from a
// rank, or the watchdog's wait-for-graph diagnosis — the inspector
// persists a bundle capturing what the introspection endpoints would
// have served at that instant: the cross-layer state snapshot, every
// rank's flight-recorder tail, and (when the failure is a deadlock) the
// full wait-for proof. The bundle is plain indented JSON so it is
// greppable raw; carttrace -postmortem pretty-prints it.

// BundleVersion stamps the bundle schema.
const BundleVersion = 1

// Bundle is a persisted post-mortem.
type Bundle struct {
	Version   int       `json:"version"`
	WrittenAt time.Time `json:"written_at"`
	// Rank is the world rank whose failure triggered the dump (-1 when
	// the failure is not attributable to one rank, e.g. a watchdog
	// diagnosis).
	Rank  int    `json:"rank"`
	Error string `json:"error"`
	// Deadlock carries the wait-for-graph proof when the failure is the
	// watchdog's diagnosis.
	Deadlock *mpi.DeadlockError    `json:"deadlock,omitempty"`
	State    StateSnapshot         `json:"state"`
	Flight   [][]trace.FlightEvent `json:"flight,omitempty"`
}

// FailureHook is the mpi.Config.OnFailure adapter: wire it in before the
// run starts —
//
//	cfg.OnFailure = insp.FailureHook
//
// and bind the world from inside the run body. The runtime invokes the
// hook on the failing goroutine for primary failures only (never for
// abort cascades), outside its failure lock, before peers are released —
// so the state snapshot taken here still shows the world mid-failure.
// Only the first failure dumps; later primaries (concurrent crashes)
// are recorded in the first bundle's world snapshot anyway.
func (in *Inspector) FailureHook(rank int, err error) {
	if in.opts.DumpDir == "" {
		return
	}
	if !in.dumped.CompareAndSwap(false, true) {
		return
	}
	in.writeBundle(rank, err)
}

func (in *Inspector) writeBundle(rank int, failure error) error {
	b := Bundle{
		Version:   BundleVersion,
		WrittenAt: time.Now(),
		Rank:      rank,
		State:     in.State(),
	}
	if failure != nil {
		b.Error = failure.Error()
		var de *mpi.DeadlockError
		if errors.As(failure, &de) {
			b.Deadlock = de
		}
	}
	if w := in.world.Load(); w != nil {
		b.Flight = w.FlightTail(0)
	}
	seq := in.dumpSeq.Add(1)
	name := fmt.Sprintf("postmortem-%s-%d.json", b.WrittenAt.UTC().Format("20060102T150405.000000000"), seq)
	path := filepath.Join(in.opts.DumpDir, name)
	if err := os.MkdirAll(in.opts.DumpDir, 0o755); err != nil {
		return fmt.Errorf("introspect: post-mortem dir: %w", err)
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return fmt.Errorf("introspect: post-mortem encode: %w", err)
	}
	// Write-then-rename so a reader never sees a torn bundle.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("introspect: post-mortem write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("introspect: post-mortem rename: %w", err)
	}
	return nil
}

// ReadBundle loads a post-mortem bundle from disk.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("introspect: read bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("introspect: parse bundle %s: %w", path, err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("introspect: bundle %s has version %d, want %d", path, b.Version, BundleVersion)
	}
	return &b, nil
}

// Format renders the bundle as a human-readable report — what carttrace
// -postmortem prints.
func (b *Bundle) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "post-mortem v%d written %s\n", b.Version, b.WrittenAt.Format(time.RFC3339))
	if b.Rank >= 0 {
		fmt.Fprintf(&sb, "failing rank: %d\n", b.Rank)
	} else {
		fmt.Fprintf(&sb, "failing rank: (run-wide)\n")
	}
	fmt.Fprintf(&sb, "error: %s\n", b.Error)
	if b.Deadlock != nil {
		fmt.Fprintf(&sb, "\nwait-for proof (%s):\n", b.Deadlock.Kind)
		if len(b.Deadlock.Cycle) > 0 {
			fmt.Fprintf(&sb, "  cycle: %v\n", b.Deadlock.Cycle)
		}
		for _, br := range b.Deadlock.Blocked {
			fmt.Fprintf(&sb, "  rank %d blocked %.1fms in %s (waits on %d)\n",
				br.Rank, float64(br.BlockedFor)/float64(time.Millisecond), br.Op, br.WaitsOn)
		}
	}
	if w := b.State.World; w != nil {
		fmt.Fprintf(&sb, "\nworld: size=%d epoch=%d aborted=%v failed=%v wires_out=%d\n",
			w.Size, w.Epoch, w.Aborted, w.FailedRanks, w.WiresOut)
		for _, r := range w.Ranks {
			if r.Blocked == "" && !r.Failed {
				continue
			}
			fmt.Fprintf(&sb, "  rank %d: blocked=%q %.1fms failed=%v pending_recvs=%d unexpected=%d\n",
				r.Rank, r.Blocked, r.BlockedMs, r.Failed, r.PendingRecvs, r.Unexpected)
		}
	}
	for name, e := range b.State.Engines {
		fmt.Fprintf(&sb, "engine %s: inflight=%d next_seq=%d\n", name, e.Inflight, e.NextSeq)
	}
	total := 0
	for _, tail := range b.Flight {
		total += len(tail)
	}
	fmt.Fprintf(&sb, "\nflight: %d events across %d ranks (newest last per rank)\n", total, len(b.Flight))
	for rank, tail := range b.Flight {
		n := len(tail)
		show := tail
		if n > 8 {
			show = tail[n-8:]
		}
		for _, ev := range show {
			fmt.Fprintf(&sb, "  r%d +%.3fms %-13s peer=%d tag=%d bytes=%d arg=%d\n",
				rank, float64(ev.AtNs)/float64(time.Millisecond), ev.Kind, ev.Peer, ev.Tag, ev.Bytes, ev.Arg)
		}
	}
	return sb.String()
}
