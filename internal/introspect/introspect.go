// Package introspect is the runtime's live introspection plane: an
// opt-in HTTP debug server over a running (or hung, or crashed) world,
// plus the automatic post-mortem dumper that persists the same state to
// disk when a run fails.
//
// The package composes the read-only probes the runtime layers already
// export — mpi.World.DebugSnapshot, the flight recorder's bounded event
// tails, cart.Comm.EngineDebug, the plan-cache counters, and the metrics
// registry — into six endpoints:
//
//	/metrics            Prometheus text exposition of the merged registry
//	/metrics.json       the same snapshot as JSON
//	/healthz            200 while the world makes progress, 503 with the
//	                    wait-for-graph diagnosis once it provably stalls
//	/debug/state        coherent JSON world+engine+plan-cache snapshot
//	/debug/flight       per-rank flight-recorder tails
//	/debug/stragglers   per-peer completion-latency EWMAs and per-round
//	                    critical-path attribution against plan predictions
//
// Every handler is safe to hit while all ranks are mid-collective or
// deadlocked: the underlying probes read atomics or take the same
// short-lived locks the runtime itself uses.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/trace"
)

// Options configures an Inspector.
type Options struct {
	// Metrics overrides the metrics registry to serve. When nil the
	// inspector uses the bound world's own registry (mpi.Config.Metrics).
	Metrics *metrics.Registry
	// DumpDir, when non-empty, enables automatic post-mortems: the first
	// primary failure of the bound world writes a bundle there (wire the
	// inspector in with mpi.Config.OnFailure = insp.FailureHook).
	DumpDir string
	// StallAfter is the /healthz stall threshold: a rank blocked at least
	// this long counts as stuck for the wait-for-graph proofs. Zero means
	// DefaultStallAfter. Keep it comfortably above scheduler jitter.
	StallAfter time.Duration
}

// DefaultStallAfter is the /healthz stall threshold when Options leaves
// it zero.
const DefaultStallAfter = 2 * time.Second

// engineSrc is one attached communicator whose progress engine shows up
// in /debug/state.
type engineSrc struct {
	name string
	comm *cart.Comm
}

// planSrc is one attached plan whose predicted rounds anchor the
// straggler report.
type planSrc struct {
	name string
	plan *cart.Plan
}

// Inspector is the introspection plane for one world: it owns the HTTP
// handlers and the post-mortem dumper. Create with New, point it at a
// world with Bind, and optionally attach Cartesian communicators and plans
// so the engine and schedule layers show up in /debug/state and
// /debug/stragglers.
//
// All methods are safe for concurrent use; Bind may race with handlers
// (a request before Bind reports "no world bound").
type Inspector struct {
	opts  Options
	world atomic.Pointer[mpi.World]

	mu      sync.Mutex
	engines []engineSrc
	plans   []planSrc

	// dumped makes the automatic post-mortem once-per-run: only the first
	// primary failure writes a bundle (cascade errors never reach the
	// hook, but concurrent primaries can).
	dumped  atomic.Bool
	dumpSeq atomic.Int64
}

// New creates an Inspector. Bind a world before serving.
func New(opts Options) *Inspector {
	if opts.StallAfter <= 0 {
		opts.StallAfter = DefaultStallAfter
	}
	return &Inspector{opts: opts}
}

// Bind points the inspector at a world. Idempotent; callable from inside
// the run body (rank 0 typically binds and starts the server). Binding a
// second world replaces the first.
func (in *Inspector) Bind(w *mpi.World) { in.world.Store(w) }

// AttachEngine registers a Cartesian communicator so its progress-engine
// snapshot appears under the given name in /debug/state. Typically one
// rank (the one serving) attaches its own communicator.
func (in *Inspector) AttachEngine(name string, c *cart.Comm) {
	if c == nil {
		return
	}
	in.mu.Lock()
	in.engines = append(in.engines, engineSrc{name: name, comm: c})
	in.mu.Unlock()
}

// AttachPlan registers a compiled plan so /debug/stragglers can compare
// observed rounds against the plan's predicted rounds (the paper's C).
func (in *Inspector) AttachPlan(name string, p *cart.Plan) {
	if p == nil {
		return
	}
	in.mu.Lock()
	in.plans = append(in.plans, planSrc{name: name, plan: p})
	in.mu.Unlock()
}

// registry resolves the metrics registry to serve: the explicit option,
// else the bound world's.
func (in *Inspector) registry() *metrics.Registry {
	if in.opts.Metrics != nil {
		return in.opts.Metrics
	}
	if w := in.world.Load(); w != nil {
		return w.Metrics()
	}
	return nil
}

// snapshot merges the registry's cross-rank snapshot with a handful of
// synthesized world-level gauges so /metrics is useful even on runs
// started without a registry.
func (in *Inspector) snapshot() metrics.Snapshot {
	var snaps []metrics.Snapshot
	if reg := in.registry(); reg != nil {
		snaps = append(snaps, reg.Merged())
	}
	if w := in.world.Load(); w != nil {
		var flightTotal int64
		if fl := w.Flight(); fl != nil {
			for r := 0; r < fl.Ranks(); r++ {
				flightTotal += int64(fl.Total(r))
			}
		}
		var aborted int64
		if w.Aborted() {
			aborted = 1
		}
		snaps = append(snaps, metrics.Snapshot{Metrics: []metrics.Metric{
			{Name: "world.size", Kind: metrics.KindGauge, Value: int64(w.Size())},
			{Name: "world.epoch", Kind: metrics.KindGauge, Value: w.CurrentEpoch()},
			{Name: "world.aborted", Kind: metrics.KindGauge, Value: aborted},
			{Name: "world.failed.ranks", Kind: metrics.KindGauge, Value: int64(len(w.FailedRanks()))},
			{Name: "world.wires.out", Kind: metrics.KindGauge, Value: w.DebugSnapshot().WiresOut},
			{Name: "world.flight.events", Kind: metrics.KindCounter, Value: flightTotal},
		}})
	}
	return metrics.Merge(snaps...)
}

// StateSnapshot is the /debug/state document: the world snapshot, every
// attached engine's snapshot, and the plan-cache counters, taken
// back-to-back (cross-layer skew is bounded by in-flight operations).
type StateSnapshot struct {
	TakenAt   time.Time                   `json:"taken_at"`
	World     *mpi.WorldDebug             `json:"world,omitempty"`
	Engines   map[string]cart.EngineDebug `json:"engines,omitempty"`
	PlanCache cart.PlanCacheStats         `json:"plan_cache"`
}

// State captures the current cross-layer state snapshot.
func (in *Inspector) State() StateSnapshot {
	s := StateSnapshot{TakenAt: time.Now(), PlanCache: cart.PlanCacheDebug()}
	if w := in.world.Load(); w != nil {
		wd := w.DebugSnapshot()
		s.World = &wd
	}
	in.mu.Lock()
	engines := append([]engineSrc(nil), in.engines...)
	in.mu.Unlock()
	if len(engines) > 0 {
		s.Engines = make(map[string]cart.EngineDebug, len(engines))
		for _, e := range engines {
			s.Engines[e.name] = e.comm.EngineDebug()
		}
	}
	return s
}

// Handler returns the endpoint mux. Use it directly with httptest or a
// custom server; ListenAndServe and Serve wrap it.
func (in *Inspector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", in.handleMetrics)
	mux.HandleFunc("/metrics.json", in.handleMetricsJSON)
	mux.HandleFunc("/healthz", in.handleHealthz)
	mux.HandleFunc("/debug/state", in.handleState)
	mux.HandleFunc("/debug/flight", in.handleFlight)
	mux.HandleFunc("/debug/stragglers", in.handleStragglers)
	return mux
}

func (in *Inspector) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, in.snapshot())
}

func (in *Inspector) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, in.snapshot())
}

// healthzReply is the /healthz body. Status is "ok", "stalled", "failed"
// or "unbound".
type healthzReply struct {
	Status string `json:"status"`
	Epoch  int64  `json:"epoch,omitempty"`
	// FlightEvents is the total event count across rings — two probes a
	// few seconds apart seeing the same value on a non-idle workload is
	// itself a stall signal, independent of the wait-for-graph proofs.
	FlightEvents int64              `json:"flight_events"`
	FailedRanks  []int              `json:"failed_ranks,omitempty"`
	Deadlock     *mpi.DeadlockError `json:"deadlock,omitempty"`
}

func (in *Inspector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	wd := in.world.Load()
	if wd == nil {
		writeJSON(w, http.StatusServiceUnavailable, healthzReply{Status: "unbound"})
		return
	}
	reply := healthzReply{Status: "ok", Epoch: wd.CurrentEpoch(), FailedRanks: wd.FailedRanks()}
	if fl := wd.Flight(); fl != nil {
		for r := 0; r < fl.Ranks(); r++ {
			reply.FlightEvents += int64(fl.Total(r))
		}
	}
	if wd.Aborted() {
		reply.Status = "failed"
		writeJSON(w, http.StatusServiceUnavailable, reply)
		return
	}
	if diag := wd.Diagnose(in.opts.StallAfter); diag != nil {
		reply.Status = "stalled"
		reply.Deadlock = diag
		writeJSON(w, http.StatusServiceUnavailable, reply)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (in *Inspector) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, in.State())
}

// flightReply is the /debug/flight body: per-world-rank event tails,
// oldest first.
type flightReply struct {
	Cap   int                   `json:"cap"`
	Ranks [][]trace.FlightEvent `json:"ranks"`
}

func (in *Inspector) handleFlight(w http.ResponseWriter, r *http.Request) {
	wd := in.world.Load()
	if wd == nil || wd.Flight() == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no flight recorder"})
		return
	}
	max := 0
	if s := r.URL.Query().Get("n"); s != "" {
		fmt.Sscanf(s, "%d", &max)
	}
	writeJSON(w, http.StatusOK, flightReply{Cap: wd.Flight().Cap(), Ranks: wd.FlightTail(max)})
}

func (in *Inspector) handleStragglers(w http.ResponseWriter, _ *http.Request) {
	wd := in.world.Load()
	if wd == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no world bound"})
		return
	}
	in.mu.Lock()
	plans := append([]planSrc(nil), in.plans...)
	in.mu.Unlock()
	writeJSON(w, http.StatusOK, stragglerReport(wd, plans))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a live debug server: an Inspector plus the listener serving
// its handler.
type Server struct {
	*Inspector
	// Addr is the bound listen address (useful with ":0").
	Addr string

	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts serving the inspector's handler on addr (empty
// means an ephemeral localhost port) in a background goroutine.
func (in *Inspector) ListenAndServe(addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s := &Server{Inspector: in, Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: in.Handler()}}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }

// sortPeerStats orders a peer list worst-first (used by the straggler
// report; kept here so the report file stays pure computation).
func sortPeerStats(ps []PeerStat) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].EwmaNs > ps[b].EwmaNs })
}
