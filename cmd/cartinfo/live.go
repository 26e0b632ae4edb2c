package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/introspect"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// The cartinfo half of the live introspection plane: -live renders a
// running debug server's state as text (the curl-free view), and
// -metrics runs the minimal demo exchange with a metrics registry
// attached and prints the merged cross-rank snapshot.

// liveReport fetches /healthz, /debug/state and /debug/stragglers from a
// debug server (cartbench -serve, or any introspect server) and renders
// them as a compact text report.
func liveReport(w io.Writer, addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}

	var health struct {
		Status       string `json:"status"`
		Epoch        int64  `json:"epoch"`
		FlightEvents int64  `json:"flight_events"`
		FailedRanks  []int  `json:"failed_ranks"`
	}
	// /healthz serves 503 with a body for stalled/failed worlds; every
	// status is report material here, so only transport errors are fatal.
	if err := fetchJSON(client, addr+"/healthz", &health); err != nil {
		return err
	}
	fmt.Fprintf(w, "world %s: status=%s epoch=%d flight_events=%d", addr, health.Status, health.Epoch, health.FlightEvents)
	if len(health.FailedRanks) > 0 {
		fmt.Fprintf(w, " failed=%v", health.FailedRanks)
	}
	fmt.Fprintln(w)

	var state introspect.StateSnapshot
	if err := fetchJSON(client, addr+"/debug/state", &state); err != nil {
		return err
	}
	if wd := state.World; wd != nil {
		blocked := 0
		for _, r := range wd.Ranks {
			if r.Blocked != "" {
				blocked++
			}
		}
		fmt.Fprintf(w, "  size=%d wires_out=%d blocked_ranks=%d plan_cache=%d entries (%d hits / %d misses)\n",
			wd.Size, wd.WiresOut, blocked, state.PlanCache.Entries, state.PlanCache.Hits, state.PlanCache.Misses)
	}
	names := make([]string, 0, len(state.Engines))
	for n := range state.Engines {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := state.Engines[n]
		fmt.Fprintf(w, "  engine %s: inflight=%d futures_started=%d\n", n, e.Inflight, e.NextSeq)
		for _, wk := range e.Workers {
			fmt.Fprintf(w, "    worker %d: slots=%d orphans=%d pending=%d sink=%d resident=%v waiters=%d progress=%d\n",
				wk.Worker, wk.Slots, wk.Orphans, wk.PendingCommits, wk.SinkPending, wk.Resident, wk.Waiters, wk.Progress)
		}
	}

	var strag introspect.StragglerReport
	if err := fetchJSON(client, addr+"/debug/stragglers", &strag); err != nil {
		return err
	}
	fmt.Fprintf(w, "  stragglers: %d receive completions in window, %d distinct rounds\n",
		strag.WindowEvents, strag.ObservedRounds)
	for _, p := range strag.Plans {
		fmt.Fprintf(w, "    plan %s (%s/%s): predicted %d rounds, planned %d, %d executions\n",
			p.Name, p.Op, p.Algo, p.PredictedRounds, p.PlannedRounds, p.Executions)
	}
	for i, rs := range strag.Ranks {
		if i >= 4 {
			fmt.Fprintf(w, "    … %d more ranks\n", len(strag.Ranks)-i)
			break
		}
		if len(rs.Peers) == 0 {
			continue
		}
		worst := rs.Peers[0]
		fmt.Fprintf(w, "    rank %d waits longest on peer %d (ewma %.1fµs over %d recvs, max %.1fµs)\n",
			rs.Rank, worst.Peer, worst.EwmaNs/1e3, worst.Count, float64(worst.MaxNs)/1e3)
	}
	for i, r := range strag.Rounds {
		if i >= 3 {
			break
		}
		fmt.Fprintf(w, "    round tag %d: critical path %.1fµs (rank %d <- peer %d, %d recvs)\n",
			r.Tag, float64(r.CritNs)/1e3, r.CritRank, r.CritPeer, r.Count)
	}
	return nil
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("parse %s: %w", url, err)
	}
	return nil
}

// metricsDemo runs a short exchange on the smallest torus carrying the
// neighborhood — a blocking Run and a handful of engine futures per
// variant — with a metrics registry attached, and prints the merged
// cross-rank snapshot (counters summed, gauges maxed, histograms added).
func metricsDemo(w io.Writer, nbh vec.Neighborhood) error {
	d := nbh.Dims()
	dims := make([]int, d)
	procs := 1
	for k := 0; k < d; k++ {
		ext := 1
		for _, v := range nbh {
			if a := v[k]; a > ext {
				ext = a
			} else if -a > ext {
				ext = -a
			}
		}
		dims[k] = 2*ext + 1
		procs *= dims[k]
	}
	if procs > 512 {
		return fmt.Errorf("metrics demo world needs %d ranks (> 512)", procs)
	}
	reg := metrics.NewRegistry(procs)
	err := mpi.Run(mpi.Config{Procs: procs, Metrics: reg}, func(c *mpi.Comm) error {
		cc, err := cart.NeighborhoodCreate(c, dims, nil, nbh, nil)
		if err != nil {
			return err
		}
		const m = 32
		plan, err := cart.AlltoallInit(cc, m, cart.Combining)
		if err != nil {
			return err
		}
		send := make([]int32, len(nbh)*m)
		recv := make([]int32, len(nbh)*m)
		for i := 0; i < 4; i++ {
			if err := cart.Run(plan, send, recv); err != nil {
				return err
			}
		}
		for i := 0; i < 4; i++ {
			f, err := cart.Start(plan, send, recv)
			if err != nil {
				return err
			}
			if err := f.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics after demo run (%v torus, %d ranks, 4 blocking + 4 async Cart_alltoall):\n\n", dims, procs)
	fmt.Fprint(w, reg.Merged().Format())
	return nil
}
