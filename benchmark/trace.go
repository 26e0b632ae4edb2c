package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/stats"
)

// The traced run. End-to-end metrics are measured with tracing off; a
// separate world with a metrics registry attached to the runtime and a
// span recorder per rank gives the per-layer counts. Spans are recorded
// from the benchmark's own files, around each call into a layer, kept in
// memory, and written when the run ends.

// span is one timed interval on one rank. Start and End are nanoseconds
// since the recorder's epoch; Parent indexes the same rank's spans (-1 for
// an op); Op numbers the rank's ops, so the spans of one collective share
// it across ranks.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
	Rank   int    `json:"rank"`
}

// spanRec records one rank's spans. It is owned by that rank's goroutine.
// A nil recorder, and a disabled one, record nothing: the untraced run
// pays one nil check per call site.
type spanRec struct {
	rank    int
	epoch   time.Time
	enabled bool
	spans   []span
	open    []int // stack of spans begun and not yet ended
	op      int
}

func newSpanRecs(ranks int) []*spanRec {
	epoch := time.Now()
	recs := make([]*spanRec, ranks)
	for i := range recs {
		recs[i] = &spanRec{rank: i, epoch: epoch, spans: make([]span, 0, 1<<12)}
	}
	return recs
}

func (r *spanRec) enable(on bool) {
	if r != nil {
		r.enabled = on
	}
}

// begin opens a span under the innermost open one and returns its index.
func (r *spanRec) begin(name string) int {
	if r == nil || !r.enabled {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch).Nanoseconds(), Parent: parent, Op: r.op, Rank: r.rank})
	r.open = append(r.open, id)
	return id
}

// beginOp opens the root span of the rank's next op.
func (r *spanRec) beginOp() int {
	if r == nil || !r.enabled {
		return -1
	}
	r.op++
	return r.begin("op")
}

// end closes the span begin returned, which must be the innermost open one.
func (r *spanRec) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// selfTimes is a layer's self time: per span name, the spans' durations
// minus the part their child spans cover, summed over all ranks.
func selfTimes(recs []*spanRec) map[string]*spanSummary {
	out := map[string]*spanSummary{}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range r.spans {
			sum := out[s.Name]
			if sum == nil {
				sum = &spanSummary{}
				out[s.Name] = sum
			}
			sum.Count++
			sum.TotalUs += float64(s.End-s.Start) / 1e3
			sum.SelfUs += float64(s.End-s.Start-child[i]) / 1e3
		}
	}
	return out
}

// spanSummary aggregates one span name over the traced window.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// traceFileSpans caps the spans written per trace file; the summary covers
// all of them.
const traceFileSpans = 50000

// traceFile is the document written per traced workload.
type traceFile struct {
	Workload    string                  `json:"workload"`
	Ranks       int                     `json:"ranks"`
	SpansTotal  int                     `json:"spans_recorded"`
	TimeUnit    string                  `json:"time_unit"`
	SelfTime    map[string]*spanSummary `json:"self_time_by_name"`
	Rank0Spans  []span                  `json:"rank0_spans"`
	SpansCapped bool                    `json:"rank0_spans_capped"`
}

// writeTrace writes the self-time summary of every rank and rank 0's spans
// to out/trace-<workload>.json.
func writeTrace(workload string, recs []*spanRec) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := traceFile{Workload: workload, Ranks: len(recs), TimeUnit: "ns since trace start", SelfTime: selfTimes(recs), Rank0Spans: recs[0].spans}
	if len(doc.Rank0Spans) > traceFileSpans {
		doc.Rank0Spans, doc.SpansCapped = doc.Rank0Spans[:traceFileSpans], true
	}
	for _, r := range recs {
		doc.SpansTotal += len(r.spans)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}

// traced is what the traced run of one workload reports.
type traced struct {
	values map[string]float64
	// opUsP50 is the traced window's median op time, the numerator of the
	// tracing overhead.
	opUsP50   float64
	attempted int
}

// measureTraced runs the workload once more with the registry and the span
// recorders on, checks the predicted-vs-observed accounting of every plan,
// and derives the per-op counters from the registry delta over the window.
func measureTraced(wl *workload, cfg config) (*traced, error) {
	reg := metrics.NewRegistry(wl.procs)
	recs := newSpanRecs(wl.procs)
	win, err := measureWindow(wl, cfg, reg, recs)
	if err != nil {
		return nil, err
	}
	for _, p := range win.plans {
		if err := p.stats.Check(); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	if err := writeTrace(wl.name, recs); err != nil {
		return nil, err
	}
	ops := float64(win.ops)
	delta := func(name string) float64 { return float64(win.after.Value(name) - win.before.Value(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	sends := delta("mpi.sends.posted")
	poolHit, poolMiss := delta("mpi.wirepool.hit"), delta("mpi.wirepool.miss")
	// The plan cache is consulted at build time, before the window, so its
	// ratio is taken over the whole world's life.
	cacheHit, cacheMiss := float64(win.after.Value("cart.plancache.hit")), float64(win.after.Value("cart.plancache.miss"))
	retire, _ := win.after.Get("cart.retire.ns")
	v := map[string]float64{
		"mpi.sends_per_op":           sends / ops,
		"mpi.send_bytes_per_op":      delta("mpi.send.bytes") / ops,
		"mpi.zerocopy_ratio":         ratio(delta("mpi.sends.zerocopy"), sends),
		"mpi.wirepool_hit_ratio":     ratio(poolHit, poolHit+poolMiss),
		"mpi.recv_detached_per_op":   delta("mpi.recv.detached") / ops,
		"mpi.unexpected_hwm":         float64(win.after.Value("mpi.unexpected.hwm")),
		"mpi.wait_blocks_per_op":     delta("mpi.wait.blocks") / ops,
		"mpi.wait_blocked_us_per_op": delta("mpi.wait.blocked_ns") / 1e3 / ops,
		"cart.rounds_per_op":         delta("cart.rounds") / ops,
		"cart.blocks_fwd_per_op":     delta("cart.blocks.fwd") / ops,
		"cart.prepost_hwm":           float64(win.after.Value("cart.prepost.hwm")),
		"cart.retire_us_p50":         float64(retire.Quantile(0.5)) / 1e3,
		"cart.plancache.hit_ratio":   ratio(cacheHit, cacheHit+cacheMiss),
	}
	// Planned C, V and messages of rank 0, summed over the op's plans.
	for _, p := range win.plans {
		v["cart.planned_rounds"] += float64(p.stats.PlannedRounds)
		v["cart.planned_volume"] += float64(p.stats.PlannedBlocks)
		v["cart.planned_messages"] += float64(p.stats.PlannedMessages)
	}
	return &traced{values: v, opUsP50: stats.Quantile(win.opUs, 0.5), attempted: win.attempted}, nil
}
