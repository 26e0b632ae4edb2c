package introspect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// get hits one endpoint of the inspector's handler and returns status
// and body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// checkExposition is a minimal Prometheus text-format validator: every
// non-comment line is `name value` or `name{label="v"} value`, every
// series is preceded by a # TYPE comment, histogram bucket series are
// cumulative and end in +Inf.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	seen := 0
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		var dummy float64
		if _, err := fmt.Sscanf(val, "%g", &dummy); err != nil {
			t.Fatalf("non-numeric sample value in %q", line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "\"}") {
				t.Fatalf("malformed label set in %q", line)
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("series %q has no preceding # TYPE", name)
		}
		for _, r := range name {
			ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				t.Fatalf("illegal metric name rune %q in %q", r, name)
			}
		}
	}
	if seen == 0 {
		t.Fatal("exposition holds no samples")
	}
}

// runIntrospected runs a 2-d Moore torus workload with the introspection
// plane attached and calls probe from a foreign goroutine while the
// collectives are in flight.
func runIntrospected(t *testing.T, procs int, iters int, probe func(in *Inspector)) {
	t.Helper()
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry(procs)
	insp := New(Options{Metrics: reg})
	var probeWg sync.WaitGroup
	err = mpi.Run(mpi.Config{Procs: procs, Metrics: reg}, func(w *mpi.Comm) error {
		c, err := cart.NeighborhoodCreate(w, []int{4, 4}, nil, nbh, nil)
		if err != nil {
			return err
		}
		const m = 16
		plan, err := cart.AlltoallInit(c, m, cart.Combining)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			insp.Bind(w.World())
			insp.AttachEngine("rank0", c)
			insp.AttachPlan("test-plan", plan)
			probeWg.Add(1)
			go func() { defer probeWg.Done(); probe(insp) }()
		}
		send := make([]int32, len(nbh)*m)
		recv := make([]int32, len(nbh)*m)
		for i := 0; i < iters; i++ {
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
		t.Fatalf("workload failed: %v", err)
	}
	probeWg.Wait()
}

func TestEndpointsServeLiveWorld(t *testing.T) {
	runIntrospected(t, 16, 50, func(in *Inspector) {
		h := in.Handler()

		code, body := get(t, h, "/metrics")
		if code != http.StatusOK {
			t.Errorf("/metrics = %d", code)
		}
		checkExposition(t, body)
		for _, want := range []string{"mpi_sends_posted_total", "world_size", "cart_async_future_ns_bucket{le=\"+Inf\"}"} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}

		code, body = get(t, h, "/metrics.json")
		if code != http.StatusOK {
			t.Errorf("/metrics.json = %d", code)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Errorf("/metrics.json does not parse: %v", err)
		} else if _, ok := snap.Get("mpi.sends.posted"); !ok {
			t.Error("/metrics.json missing mpi.sends.posted")
		}

		code, body = get(t, h, "/healthz")
		if code != http.StatusOK {
			t.Errorf("/healthz = %d (%s)", code, body)
		}
		var hz struct {
			Status       string `json:"status"`
			FlightEvents int64  `json:"flight_events"`
		}
		if err := json.Unmarshal([]byte(body), &hz); err != nil || hz.Status != "ok" {
			t.Errorf("/healthz = %q err=%v, want ok", hz.Status, err)
		}

		code, body = get(t, h, "/debug/state")
		if code != http.StatusOK {
			t.Errorf("/debug/state = %d", code)
		}
		var st StateSnapshot
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/debug/state does not parse: %v", err)
		}
		if st.World == nil || st.World.Size != 16 {
			t.Errorf("/debug/state world = %+v, want size 16", st.World)
		}
		if _, ok := st.Engines["rank0"]; !ok {
			t.Error("/debug/state missing attached engine")
		}

		code, body = get(t, h, "/debug/flight?n=8")
		if code != http.StatusOK {
			t.Errorf("/debug/flight = %d", code)
		}
		var fl flightReply
		if err := json.Unmarshal([]byte(body), &fl); err != nil {
			t.Fatalf("/debug/flight does not parse: %v", err)
		}
		if len(fl.Ranks) != 16 {
			t.Errorf("/debug/flight ranks = %d, want 16", len(fl.Ranks))
		}
		for _, tail := range fl.Ranks {
			if len(tail) > 8 {
				t.Errorf("/debug/flight?n=8 returned %d events for one rank", len(tail))
			}
		}

		code, body = get(t, h, "/debug/stragglers")
		if code != http.StatusOK {
			t.Errorf("/debug/stragglers = %d", code)
		}
		var sr StragglerReport
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatalf("/debug/stragglers does not parse: %v", err)
		}
		if len(sr.Plans) != 1 || sr.Plans[0].PredictedRounds <= 0 {
			t.Errorf("straggler plans = %+v, want the attached plan with predicted rounds", sr.Plans)
		}
	})
}

// TestStragglersMatchPlanRounds pins the round-attribution invariant: on
// a torus every rank runs the same combining schedule, so the distinct
// normalized round tags observed must equal the plan's predicted C.
func TestStragglersMatchPlanRounds(t *testing.T) {
	runIntrospected(t, 16, 80, func(in *Inspector) {
		// Probe at the end of the workload: keep polling until traffic has
		// accumulated, then compare.
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, body := get(t, in.Handler(), "/debug/stragglers")
			var sr StragglerReport
			if err := json.Unmarshal([]byte(body), &sr); err != nil {
				t.Fatalf("stragglers parse: %v", err)
			}
			if len(sr.Plans) == 1 && sr.ObservedRounds == sr.Plans[0].PredictedRounds {
				if len(sr.Rounds) != sr.ObservedRounds {
					t.Fatalf("rounds list %d != observed %d", len(sr.Rounds), sr.ObservedRounds)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("observed %d rounds, want predicted %d (window events %d)",
					sr.ObservedRounds, sr.Plans[0].PredictedRounds, sr.WindowEvents)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestEndpointStormUnderStartWaitStorm is the race-stress test: every
// rank storms Start/Wait while foreign goroutines hammer every endpoint.
// Run under -race (the repo's test tiers do) this pins the claim that
// snapshots take only runtime-coherent locks.
func TestEndpointStormUnderStartWaitStorm(t *testing.T) {
	paths := []string{"/metrics", "/metrics.json", "/healthz", "/debug/state", "/debug/flight?n=32", "/debug/stragglers"}
	var hits atomic.Int64
	runIntrospected(t, 16, 150, func(in *Inspector) {
		h := in.Handler()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		time.AfterFunc(2*time.Second, func() { close(stop) })
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					req := httptest.NewRequest("GET", paths[(g+i)%len(paths)], nil)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("%s = %d during storm", paths[(g+i)%len(paths)], rec.Code)
						return
					}
					hits.Add(1)
				}
			}(g)
		}
		wg.Wait()
	})
	if hits.Load() == 0 {
		t.Fatal("storm made no requests")
	}
}

func TestUnboundInspector(t *testing.T) {
	in := New(Options{})
	h := in.Handler()
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz unbound = %d, want 503", code)
	}
	if code, _ := get(t, h, "/debug/flight"); code != http.StatusNotFound {
		t.Errorf("/debug/flight unbound = %d, want 404", code)
	}
	if code, _ := get(t, h, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics unbound = %d, want 200 (empty exposition)", code)
	}
	// /debug/state still serves: plan-cache stats exist without a world.
	if code, _ := get(t, h, "/debug/state"); code != http.StatusOK {
		t.Errorf("/debug/state unbound = %d, want 200", code)
	}
}

func TestServeListensAndCloses(t *testing.T) {
	nbh, err := vec.Moore(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(mpi.Config{Procs: 4}, func(w *mpi.Comm) error {
		c, err := cart.NeighborhoodCreate(w, []int{2, 2}, nil, nbh, nil)
		if err != nil {
			return err
		}
		_ = c
		if w.Rank() != 0 {
			return nil
		}
		in := New(Options{})
		in.Bind(w.World())
		srv, err := in.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		resp, err := http.Get("http://" + srv.Addr + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz over TCP = %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
