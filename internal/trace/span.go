package trace

import (
	"fmt"
	"sort"
)

// The unified event model behind the Perfetto/Chrome exporter. The two
// recording backends — Recorder (virtual-time cost-model events) and
// RoundLog (wall-clock executor events) — predate it and keep their
// zero-overhead recording formats; each knows how to replay itself into a
// Timeline (an Export(tl, pid) method), and the Timeline renders once to
// Chrome trace_event JSON (chrome.go). One process (pid) per sink, one
// thread (tid) per rank, so a capture that records both clocks shows them
// as two process groups in ui.perfetto.dev.

// Track identifies one horizontal lane: a (process, thread) pair in
// Chrome's model.
type Track struct {
	Pid int
	Tid int
}

// Span is one named interval on a track. Peer, Bytes, and Tag become the
// slice's args in the exported trace.
type Span struct {
	Track   Track
	Name    string
	Cat     string
	StartNs int64
	DurNs   int64
	Peer    int
	Bytes   int
	Tag     int
}

// Instant is one point event on a track (a send post, whose completion is
// immediate in the buffered runtime).
type Instant struct {
	Track Track
	Name  string
	Cat   string
	AtNs  int64
	Peer  int
	Tag   int
}

// Flow is one sender→receiver arrow: Chrome draws it from the "s" point
// to the "f" point when both ends sit inside slices.
type Flow struct {
	From   Track
	FromNs int64
	To     Track
	ToNs   int64
}

// Timeline collects spans, instants, and flows from any number of sinks
// before a single export. Not safe for concurrent use; fill it after the
// runs have completed.
type Timeline struct {
	spans    []Span
	instants []Instant
	flows    []Flow
	// procs and threads name the track hierarchy, keyed in insertion
	// order for a deterministic export.
	procs   []procName
	threads []threadName
}

type procName struct {
	pid  int
	name string
}

type threadName struct {
	track Track
	name  string
}

// SetProcess names a process group (e.g. "virtual time", "wall clock").
func (tl *Timeline) SetProcess(pid int, name string) {
	for i := range tl.procs {
		if tl.procs[i].pid == pid {
			tl.procs[i].name = name
			return
		}
	}
	tl.procs = append(tl.procs, procName{pid, name})
}

// SetThread names one track, typically "rank N".
func (tl *Timeline) SetThread(tr Track, name string) {
	for i := range tl.threads {
		if tl.threads[i].track == tr {
			tl.threads[i].name = name
			return
		}
	}
	tl.threads = append(tl.threads, threadName{tr, name})
}

// AddSpan appends one interval.
func (tl *Timeline) AddSpan(s Span) { tl.spans = append(tl.spans, s) }

// AddInstant appends one point event.
func (tl *Timeline) AddInstant(i Instant) { tl.instants = append(tl.instants, i) }

// AddFlow appends one sender→receiver arrow.
func (tl *Timeline) AddFlow(f Flow) { tl.flows = append(tl.flows, f) }

// Export replays the recorder's virtual-time events: one thread per rank,
// a slice per send and receive, and a flow arrow from each send to the
// receive that consumed its message. Virtual seconds are scaled to
// nanoseconds so Chrome's microsecond axis shows the model's µs directly.
func (r *Recorder) Export(tl *Timeline, pid int) {
	const scale = 1e9 // virtual seconds → ns
	// Flow matching: the runtime delivers per-(src,dst,tag) in FIFO order,
	// so the i-th send of a stream pairs with the i-th receive.
	type stream struct{ src, dst, tag int }
	sends := make(map[stream][]Event)
	for rank := range r.perRank {
		tl.SetThread(Track{pid, rank}, fmt.Sprintf("rank %d", rank))
		for _, e := range r.perRank[rank] {
			if e.Kind == KindSend {
				k := stream{e.Rank, e.Peer, e.Tag}
				sends[k] = append(sends[k], e)
			}
			name := fmt.Sprintf("recv←%d", e.Peer)
			if e.Kind == KindSend {
				name = fmt.Sprintf("send→%d", e.Peer)
			}
			tl.AddSpan(Span{
				Track:   Track{pid, e.Rank},
				Name:    name,
				Cat:     e.Kind.String(),
				StartNs: int64(e.Start * scale),
				DurNs:   int64((e.End - e.Start) * scale),
				Peer:    e.Peer,
				Bytes:   e.Bytes,
				Tag:     e.Tag,
			})
		}
	}
	for rank := range r.perRank {
		for _, e := range r.perRank[rank] {
			if e.Kind != KindRecv {
				continue
			}
			k := stream{e.Peer, e.Rank, e.Tag}
			q := sends[k]
			if len(q) == 0 {
				continue
			}
			s := q[0]
			sends[k] = q[1:]
			tl.AddFlow(Flow{
				From:   Track{pid, s.Rank},
				FromNs: int64(s.Start * scale),
				To:     Track{pid, e.Rank},
				ToNs:   int64(e.End * scale),
			})
		}
	}
}

// RoundLogSet groups per-rank wall-clock round logs (index = rank) into
// one exportable sink, the wall-clock counterpart of Recorder.
type RoundLogSet []*RoundLog

// Export replays the executor logs: a slice per round from receive post
// to retirement, an instant per send post. Rounds whose retirement was
// not recorded (detached logs, aborted runs) export the post as an
// instant so nothing silently disappears.
func (ls RoundLogSet) Export(tl *Timeline, pid int) {
	for rank, l := range ls {
		tl.SetThread(Track{pid, rank}, fmt.Sprintf("rank %d", rank))
		if l == nil {
			continue
		}
		type key struct{ phase, round int }
		posts := make(map[key]RoundEvent)
		for _, e := range l.Events() {
			tr := Track{pid, rank}
			switch e.Kind {
			case RoundSendPost:
				tl.AddInstant(Instant{
					Track: tr,
					Name:  fmt.Sprintf("p%dr%d send→%d", e.Phase, e.Round, e.Peer),
					Cat:   "send-post",
					AtNs:  e.At.Nanoseconds(),
					Peer:  e.Peer,
				})
			case RoundRecvPost:
				posts[key{e.Phase, e.Round}] = e
			case RoundRecvDone:
				k := key{e.Phase, e.Round}
				post, ok := posts[k]
				if !ok {
					continue
				}
				delete(posts, k)
				tl.AddSpan(Span{
					Track:   tr,
					Name:    fmt.Sprintf("p%dr%d recv←%d", e.Phase, e.Round, e.Peer),
					Cat:     "round",
					StartNs: post.At.Nanoseconds(),
					DurNs:   (e.At - post.At).Nanoseconds(),
					Peer:    e.Peer,
				})
			}
		}
		// Unretired receives: export the bare post.
		leftover := make([]RoundEvent, 0, len(posts))
		for _, e := range posts {
			leftover = append(leftover, e)
		}
		sort.Slice(leftover, func(a, b int) bool {
			if leftover[a].Phase != leftover[b].Phase {
				return leftover[a].Phase < leftover[b].Phase
			}
			return leftover[a].Round < leftover[b].Round
		})
		for _, e := range leftover {
			tl.AddInstant(Instant{
				Track: Track{pid, rank},
				Name:  fmt.Sprintf("p%dr%d recv-post←%d", e.Phase, e.Round, e.Peer),
				Cat:   "recv-post",
				AtNs:  e.At.Nanoseconds(),
				Peer:  e.Peer,
			})
		}
	}
}
