package trace

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestFlightTailOrderAndWraparound(t *testing.T) {
	fr := NewFlightRecorder(2, 4)
	if fr.Cap() != 4 || fr.Ranks() != 2 {
		t.Fatalf("cap/ranks = %d/%d, want 4/2", fr.Cap(), fr.Ranks())
	}
	for i := 0; i < 10; i++ {
		fr.Record(0, FlightSendPost, i, int64(100+i), int64(i), 0)
	}
	if got := fr.Total(0); got != 10 {
		t.Fatalf("Total(0) = %d, want 10", got)
	}
	tail := fr.Tail(0, 0)
	if len(tail) != 4 {
		t.Fatalf("tail length = %d, want ring cap 4", len(tail))
	}
	// The ring keeps the newest events; tails are oldest-first with
	// monotone sequence numbers.
	for i, ev := range tail {
		wantPeer := int32(6 + i)
		if ev.Peer != wantPeer || ev.Seq != uint64(6+i) {
			t.Fatalf("tail[%d] = peer %d seq %d, want peer %d seq %d", i, ev.Peer, ev.Seq, wantPeer, 6+i)
		}
		if i > 0 && ev.AtNs < tail[i-1].AtNs {
			t.Fatalf("tail timestamps regress: %d after %d", ev.AtNs, tail[i-1].AtNs)
		}
	}
	if bounded := fr.Tail(0, 2); len(bounded) != 2 || bounded[1].Seq != 9 {
		t.Fatalf("Tail(0, 2) = %+v, want the 2 newest (seq 8, 9)", bounded)
	}
	// Rank 1 never recorded; its tail is empty, and TailAll covers both.
	all := fr.TailAll(0)
	if len(all) != 2 || len(all[0]) != 4 || len(all[1]) != 0 {
		t.Fatalf("TailAll shape = %d/%d/%d, want 2 ranks, 4 and 0 events", len(all), len(all[0]), len(all[1]))
	}
}

func TestFlightNilAndOutOfRangeSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(0, FlightSendPost, 1, 2, 3, 4) // must not panic
	if fr.Tail(0, 0) != nil || fr.TailAll(0) != nil || fr.Total(0) != 0 || fr.Cap() != 0 || fr.Ranks() != 0 {
		t.Fatal("nil recorder must behave as empty")
	}

	live := NewFlightRecorder(1, 8)
	live.Record(-1, FlightSendPost, 0, 0, 0, 0) // out of range: dropped
	live.Record(5, FlightSendPost, 0, 0, 0, 0)
	if live.Total(0) != 0 {
		t.Fatal("out-of-range ranks must drop, not misfile")
	}
}

func TestFlightRecordAllocFree(t *testing.T) {
	fr := NewFlightRecorder(1, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		fr.Record(0, FlightRecvDone, 3, 1234, 512, 999)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0 (steady state must be allocation-free)", allocs)
	}
}

func TestFlightConcurrentRecordAndTail(t *testing.T) {
	fr := NewFlightRecorder(4, 32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fr.Record(rank, FlightSendPost, i%4, int64(i), 8, 0)
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		for _, tail := range fr.TailAll(0) {
			for j := 1; j < len(tail); j++ {
				if tail[j].Seq != tail[j-1].Seq+1 {
					close(stop)
					t.Fatalf("tail sequence gap under concurrency: %d then %d", tail[j-1].Seq, tail[j].Seq)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestFlightKindTextRoundTrip(t *testing.T) {
	kinds := []FlightKind{
		FlightSendPost, FlightRecvPost, FlightRecvDone, FlightFutureCommit,
		FlightFutureRetire, FlightEpochBump, FlightRecovery, FlightFailure,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		if seen[string(data)] {
			t.Fatalf("kind %v marshals to duplicate %s", k, data)
		}
		seen[string(data)] = true
		var back FlightKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %s -> %v", k, data, back)
		}
	}
}

func TestFlightEventJSONRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(1, 4)
	fr.Record(0, FlightRecvDone, 2, 77, 4096, 1500)
	orig := fr.Tail(0, 0)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back []FlightEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != orig[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, orig)
	}
}
