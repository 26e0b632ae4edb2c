package mpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cartcc/internal/netmodel"
)

// This file is the cross-backend transport conformance battery: one
// table of semantic legs — matching order, wildcard arbitration, probe,
// cancel, epoch drain, pool hygiene, large-message framing, fault
// injection — executed identically against the in-process loopback and
// the force-remote TCP and unix backends. The legs assert observable
// runtime semantics, never backend mechanism, so a backend passes
// exactly when it is indistinguishable from loopback.

// conformanceBackends names every backend the battery runs against.
var conformanceBackends = []string{"loopback", "tcp", "unix"}

// runBackend runs f on procs ranks over the named backend. The network
// backends run force-remote in this process: every message crosses a real
// socket, every rank (and therefore every fault and recovery leg) stays
// local.
func runBackend(backend string, procs int, cfg Config, f func(c *Comm) error) error {
	cfg.Procs = procs
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if backend == "loopback" {
		return runWorld(cfg, nil, nil, f)
	}
	addr := "127.0.0.1:0"
	if backend == "unix" {
		addr = filepath.Join(os.TempDir(),
			fmt.Sprintf("cartcc-conf-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	}
	ranks := make([]int, procs)
	for i := range ranks {
		ranks[i] = i
	}
	return RunTransport(cfg, TransportConfig{
		Network:     backend,
		Procs:       []ProcSpec{{Addr: addr, Ranks: ranks}},
		Self:        0,
		ForceRemote: true,
	}, f)
}

// conformanceLeg is one semantic check of the battery.
type conformanceLeg struct {
	name  string
	procs int
	cfg   Config
	// run executes the leg's rank program; wantErr, when non-nil,
	// validates the expected run error (fault legs) — otherwise the run
	// must succeed.
	run     func(c *Comm) error
	wantErr func(error) bool
}

// conformanceSuite is the battery. Every leg must pass identically on
// every backend.
func conformanceSuite() []conformanceLeg {
	return []conformanceLeg{
		{
			// Messages of one (src, tag) stream must arrive in posting
			// order however deep the burst — the non-overtaking guarantee
			// carried over per-peer connections.
			name: "ordering-per-src-tag", procs: 2,
			run: func(c *Comm) error {
				const n = 300
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := SendSlice(c, []int64{int64(i)}, 1, 7); err != nil {
							return err
						}
					}
					return nil
				}
				got := make([]int64, 1)
				for i := 0; i < n; i++ {
					if _, err := RecvSlice(c, got, 0, 7); err != nil {
						return err
					}
					if got[0] != int64(i) {
						return fmt.Errorf("message %d carried %d: overtaking", i, got[0])
					}
				}
				return nil
			},
		},
		{
			// Two tag streams interleaved at the sender, received in the
			// opposite order: tag matching must pull from the unexpected
			// queue without disturbing the other stream's order.
			name: "tag-matching-out-of-order", procs: 2,
			run: func(c *Comm) error {
				const n = 50
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := SendSlice(c, []int32{int32(i)}, 1, 1); err != nil {
							return err
						}
						if err := SendSlice(c, []int32{int32(100 + i)}, 1, 2); err != nil {
							return err
						}
					}
					return nil
				}
				got := make([]int32, 1)
				for i := 0; i < n; i++ { // drain tag 2 first
					if _, err := RecvSlice(c, got, 0, 2); err != nil {
						return err
					}
					if got[0] != int32(100+i) {
						return fmt.Errorf("tag 2 message %d carried %d", i, got[0])
					}
				}
				for i := 0; i < n; i++ {
					if _, err := RecvSlice(c, got, 0, 1); err != nil {
						return err
					}
					if got[0] != int32(i) {
						return fmt.Errorf("tag 1 message %d carried %d", i, got[0])
					}
				}
				return nil
			},
		},
		{
			// Wildcard arbitration: AnySource receives must see every
			// sender exactly once per round, and each sender's stream in
			// order.
			name: "wildcard-arbitration", procs: 5,
			run: func(c *Comm) error {
				const rounds = 40
				if c.Rank() != 0 {
					for i := 0; i < rounds; i++ {
						msg := []int64{int64(c.Rank())<<32 | int64(i)}
						if err := SendSlice(c, msg, 0, 3); err != nil {
							return err
						}
					}
					return nil
				}
				lastRound := map[int]int64{1: -1, 2: -1, 3: -1, 4: -1}
				seen := 0
				got := make([]int64, 1)
				for seen < rounds*(c.Size()-1) {
					st, err := RecvSlice(c, got, AnySource, 3)
					if err != nil {
						return err
					}
					src, round := int(got[0]>>32), got[0]&0xffffffff
					if src != st.Source {
						return fmt.Errorf("status source %d but payload says %d", st.Source, src)
					}
					if round <= lastRound[src] {
						return fmt.Errorf("sender %d round %d after %d: overtaking through wildcard", src, round, lastRound[src])
					}
					lastRound[src] = round
					seen++
				}
				return nil
			},
		},
		{
			// Cancel of a never-matched receive completes it as cancelled
			// and leaves the mailbox clean for later traffic.
			name: "cancel", procs: 2,
			run: func(c *Comm) error {
				buf := make([]int64, 1)
				req, err := Irecv(c, buf, contiguousN(1), 1-c.Rank(), 77)
				if err != nil {
					return err
				}
				if !req.Cancel() {
					return fmt.Errorf("cancel of unmatched receive failed")
				}
				if _, err := req.Wait(); !errors.Is(err, ErrCancelled) {
					return fmt.Errorf("after cancel: Wait returned %v, want ErrCancelled", err)
				}
				// Both ranks finish cancelling before any real tag-77
				// traffic starts, or the peer's send could match the
				// receive first (legitimately making it uncancellable).
				if err := Barrier(c); err != nil {
					return err
				}
				// Mailbox still clean: a real exchange on the same tag works.
				out := []int64{int64(c.Rank())}
				in := make([]int64, 1)
				if _, err := Sendrecv(c, out, contiguousN(1), 1-c.Rank(), 77,
					in, contiguousN(1), 1-c.Rank(), 77); err != nil {
					return err
				}
				if in[0] != int64(1-c.Rank()) {
					return fmt.Errorf("post-cancel exchange got %d", in[0])
				}
				return nil
			},
		},
		{
			// A burst that lands before its receives are posted must park
			// in the unexpected queue (detached to pooled wires), deliver
			// correctly, and leave zero wires outstanding at the end —
			// identical pool hygiene on every path.
			name: "unexpected-queue-pool-hygiene", procs: 2,
			run: func(c *Comm) error {
				const n = 64
				if c.Rank() == 0 {
					buf := make([]float64, 256)
					for i := 0; i < n; i++ {
						for j := range buf {
							buf[j] = float64(i*1000 + j)
						}
						// Reuse one buffer for every send: buffered-send
						// semantics must hold even with no receive posted.
						if err := SendSlice(c, buf, 1, 4); err != nil {
							return err
						}
					}
					if err := Barrier(c); err != nil {
						return err
					}
				} else {
					if err := Barrier(c); err != nil { // all sends in flight or parked
						return err
					}
					got := make([]float64, 256)
					for i := 0; i < n; i++ {
						if _, err := RecvSlice(c, got, 0, 4); err != nil {
							return err
						}
						if got[0] != float64(i*1000) || got[255] != float64(i*1000+255) {
							return fmt.Errorf("burst message %d corrupted: [%v .. %v]", i, got[0], got[255])
						}
					}
				}
				if err := Barrier(c); err != nil {
					return err
				}
				if c.Rank() == 0 {
					// Settle: remote decode hands wires back asynchronously
					// only between deliver and consume; after the barrier
					// every message is consumed.
					for i := 0; i < 100 && c.w.wireOut.Load() != 0; i++ {
						time.Sleep(time.Millisecond)
					}
					if n := c.w.wireOut.Load(); n != 0 {
						return fmt.Errorf("%d wire buffers leaked", n)
					}
				}
				return nil
			},
		},
		{
			// Large-message framing: a payload far beyond any coalescing
			// buffer must arrive intact.
			name: "large-message", procs: 2,
			run: func(c *Comm) error {
				const n = 1 << 20 // 8 MiB of int64
				if c.Rank() == 0 {
					buf := make([]int64, n)
					for i := range buf {
						buf[i] = int64(i) * 2654435761
					}
					return SendSlice(c, buf, 1, 6)
				}
				got := make([]int64, n)
				if _, err := RecvSlice(c, got, 0, 6); err != nil {
					return err
				}
				for _, i := range []int{0, 1, n/2 - 1, n - 2, n - 1} {
					if got[i] != int64(i)*2654435761 {
						return fmt.Errorf("element %d = %d", i, got[i])
					}
				}
				return nil
			},
		},
		{
			// Named element types are not wire-encodable; the runtime must
			// still carry them (local fallback), not fail or corrupt.
			name: "non-pod-payload", procs: 2,
			run: func(c *Comm) error {
				type pair = time.Duration // named non-registry type
				out := []pair{pair(c.Rank() + 1), pair(c.Rank() + 2)}
				in := make([]pair, 2)
				if _, err := Sendrecv(c, out, contiguousN(2), 1-c.Rank(), 8,
					in, contiguousN(2), 1-c.Rank(), 8); err != nil {
					return err
				}
				if in[0] != pair(2-c.Rank()) {
					return fmt.Errorf("named-type payload got %v", in)
				}
				return nil
			},
		},
		{
			// Interleaved wire-encodable and non-encodable payloads to the
			// same peer on one tag: the non-POD path must not overtake
			// frames still queued in the self-link pipe — per-sender order
			// (and with it the receiver's sseq dedup) has to hold across
			// the two delivery mechanisms, or earlier in-flight messages
			// are dropped as duplicates and the receiver hangs.
			name: "mixed-pod-named-order", procs: 2,
			run: func(c *Comm) error {
				type tick = time.Duration // named non-registry type
				const k = 8
				if c.Rank() == 0 {
					for i := 0; i < k; i++ {
						if i%2 == 0 {
							if err := SendSlice(c, []int64{int64(i)}, 1, 9); err != nil {
								return err
							}
						} else if err := SendSlice(c, []tick{tick(i)}, 1, 9); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < k; i++ {
					if i%2 == 0 {
						got := make([]int64, 1)
						if _, err := RecvSlice(c, got, 0, 9); err != nil {
							return err
						}
						if got[0] != int64(i) {
							return fmt.Errorf("message %d carried %d", i, got[0])
						}
					} else {
						got := make([]tick, 1)
						if _, err := RecvSlice(c, got, 0, 9); err != nil {
							return err
						}
						if got[0] != tick(i) {
							return fmt.Errorf("message %d carried %v", i, got[0])
						}
					}
				}
				return nil
			},
		},
		{
			// Epoch-floor stale drain: after a crash and RecoverShrink,
			// survivors exchange on the shrunk communicator while any
			// pre-recovery straggler is discarded by the floor — the
			// recovery protocol must converge over every backend.
			name: "epoch-floor-recovery", procs: 4,
			cfg: Config{
				Faults: &FaultPlan{Crashes: []Crash{{Rank: 2, AtOp: 5}}},
			},
			run: func(c *Comm) error {
				p := c.Size()
				next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
				var ringErr error
				for i := 0; i < 12; i++ {
					out, in := []int{c.Rank()}, make([]int, 1)
					if _, err := Sendrecv(c, out, contiguousN(1), next, 0,
						in, contiguousN(1), prev, 0); err != nil {
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
				if info.Epoch < 1 || nc.Size() != 3 {
					return fmt.Errorf("rank %d: epoch %d size %d", c.Rank(), info.Epoch, nc.Size())
				}
				sum := []int{c.Rank()}
				if err := Allreduce(nc, sum, sum, SumOp[int]); err != nil {
					return err
				}
				if sum[0] != 0+1+3 {
					return fmt.Errorf("post-recovery allreduce = %d", sum[0])
				}
				return nil
			},
			wantErr: IsRankFailed,
		},
		{
			// Injected duplicates must be suppressed by the per-sender
			// sequence numbers on every backend — over a wire the dup is a
			// second full frame.
			name: "duplicate-suppression", procs: 2,
			cfg: Config{
				// Every rank-0 message is delivered twice; the receiver
				// must see each exactly once.
				Faults: &FaultPlan{Dups: []MsgDup{{From: 0, To: 1}}},
			},
			run: func(c *Comm) error {
				const n = 30
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := SendSlice(c, []int64{int64(i)}, 1, 5); err != nil {
							return err
						}
					}
					return nil
				}
				got := make([]int64, 1)
				for i := 0; i < n; i++ {
					if _, err := RecvSlice(c, got, 0, 5); err != nil {
						return err
					}
					if got[0] != int64(i) {
						return fmt.Errorf("message %d carried %d (duplicate leaked)", i, got[0])
					}
				}
				// No extra message may remain.
				time.Sleep(10 * time.Millisecond)
				if found, elems := c.rs.box.arrived(c.ctx, c.epoch, 0, 5); found {
					return fmt.Errorf("stray duplicate in mailbox: %d element(s)", elems)
				}
				return nil
			},
		},
		{
			// Dropped messages: the send completes (buffered semantics),
			// the payload never arrives, and the receiver can detect the
			// gap — behavior must not depend on where the drop happened.
			name: "message-drop", procs: 2,
			cfg: Config{
				// The 3rd and 6th rank-0→rank-1 messages are lost in
				// transit.
				Faults: &FaultPlan{Drops: []MsgDrop{
					{From: 0, To: 1, Nth: 3}, {From: 0, To: 1, Nth: 6},
				}},
			},
			run: func(c *Comm) error {
				const n = 8
				if c.Rank() == 0 {
					for i := 1; i <= n; i++ {
						if err := SendSlice(c, []int64{int64(i)}, 1, 2); err != nil {
							return err
						}
					}
					return nil
				}
				got := make([]int64, 1)
				want := []int64{1, 2, 4, 5, 7, 8}
				for _, w := range want {
					if _, err := RecvSlice(c, got, 0, 2); err != nil {
						return err
					}
					if got[0] != w {
						return fmt.Errorf("got %d, want %d (drop pattern broken)", got[0], w)
					}
				}
				return nil
			},
		},
		{
			// Concurrent communicators: traffic on subset and duplicated
			// contexts must stay isolated while sharing connections.
			name: "context-isolation", procs: 4,
			run: func(c *Comm) error {
				dup, err := c.Dup()
				if err != nil {
					return err
				}
				half, err := parityComm(c)
				if err != nil {
					return err
				}
				var wg sync.WaitGroup
				errs := make([]error, 2)
				wg.Add(2)
				go func() {
					defer wg.Done()
					sum := []int{c.Rank() + 1}
					if err := Allreduce(dup, sum, sum, SumOp[int]); err != nil {
						errs[0] = err
						return
					}
					if sum[0] != 1+2+3+4 {
						errs[0] = fmt.Errorf("dup allreduce = %d", sum[0])
					}
				}()
				go func() {
					defer wg.Done()
					sum := []int{c.Rank() + 1}
					if err := Allreduce(half, sum, sum, SumOp[int]); err != nil {
						errs[1] = err
						return
					}
					want := 1 + 3 // ranks 0,2
					if c.Rank()%2 == 1 {
						want = 2 + 4
					}
					if sum[0] != want {
						errs[1] = fmt.Errorf("subset allreduce = %d, want %d", sum[0], want)
					}
				}()
				wg.Wait()
				return errors.Join(errs[0], errs[1])
			},
		},
	}
}

// TestTransportConformance runs every battery leg against every backend.
func TestTransportConformance(t *testing.T) {
	for _, leg := range conformanceSuite() {
		for _, backend := range conformanceBackends {
			t.Run(leg.name+"/"+backend, func(t *testing.T) {
				err := runBackend(backend, leg.procs, leg.cfg, leg.run)
				if leg.wantErr != nil {
					if !leg.wantErr(err) {
						t.Fatalf("run error = %v, want the leg's expected failure class", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTransportEnvSelection covers the CARTCC_TRANSPORT entry point end to
// end: a plain Run must detour through the selected backend.
func TestTransportEnvSelection(t *testing.T) {
	for _, backend := range []string{"tcp", "unix", "loopback"} {
		t.Run(backend, func(t *testing.T) {
			t.Setenv(EnvTransport, backend)
			if got, want := TransportEnvActive(), backend != "loopback"; got != want {
				t.Fatalf("TransportEnvActive() = %v, want %v", got, want)
			}
			err := Run(Config{Procs: 3, Timeout: 20 * time.Second}, func(c *Comm) error {
				sum := []int{c.Rank() + 1}
				if err := Allreduce(c, sum, sum, SumOp[int]); err != nil {
					return err
				}
				if sum[0] != 6 {
					return fmt.Errorf("allreduce = %d", sum[0])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("invalid", func(t *testing.T) {
		t.Setenv(EnvTransport, "carrier-pigeon")
		err := Run(Config{Procs: 2}, func(c *Comm) error { return nil })
		if err == nil {
			t.Fatal("unknown transport accepted")
		}
	})
}

// TestTransportMalformedFrames injects garbage into a live transport
// listener: the hostile connection must be torn down with no effect on the
// world's own traffic, and every malformed frame must map to a typed
// decode error (exercised directly against the codec elsewhere; here the
// world must simply survive).
func TestTransportMalformedFrames(t *testing.T) {
	nt, err := newNetTransport(TransportConfig{
		Network:     "tcp",
		Procs:       []ProcSpec{{Addr: "127.0.0.1:0", Ranks: []int{0, 1}}},
		Self:        0,
		ForceRemote: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	inject := func(frames ...[]byte) error {
		conn, err := net.Dial("tcp", nt.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				return err
			}
		}
		// Give the reader a moment to chew before the world's own checks.
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	err = runWorld(Config{Procs: 2, Timeout: 20 * time.Second}, nt, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			// Truncated frame, bad magic, oversized length prefix, raw noise.
			if err := inject([]byte{0x05, 0xCC, 0x01}); err != nil {
				return err
			}
			if err := inject([]byte{0x03, 0xAB, 0xCD, 0xEF}); err != nil {
				return err
			}
			if err := inject([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
				return err
			}
			if err := inject([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
				return err
			}
		}
		if err := Barrier(c); err != nil {
			return err
		}
		// World traffic is unaffected.
		out := []int64{int64(c.Rank() + 40)}
		in := make([]int64, 1)
		if _, err := Sendrecv(c, out, contiguousN(1), 1-c.Rank(), 1,
			in, contiguousN(1), 1-c.Rank(), 1); err != nil {
			return err
		}
		if in[0] != int64(41-c.Rank()) {
			return fmt.Errorf("exchange got %d", in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransportConfigValidation covers the rank/address map checks.
func TestTransportConfigValidation(t *testing.T) {
	base := func() TransportConfig {
		return TransportConfig{
			Network: "tcp",
			Procs: []ProcSpec{
				{Addr: "127.0.0.1:0", Ranks: []int{0, 1}},
				{Addr: "127.0.0.1:0", Ranks: []int{2}},
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*TransportConfig)
	}{
		{"bad network", func(tc *TransportConfig) { tc.Network = "smoke-signal" }},
		{"self out of range", func(tc *TransportConfig) { tc.Self = 5 }},
		{"rank hosted twice", func(tc *TransportConfig) { tc.Procs[1].Ranks = []int{1} }},
		{"rank out of range", func(tc *TransportConfig) { tc.Procs[1].Ranks = []int{7} }},
		{"missing rank", func(tc *TransportConfig) { tc.Procs[1].Ranks = nil }},
		{"missing address", func(tc *TransportConfig) { tc.Procs[1].Addr = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := RunTransport(Config{Procs: 3}, cfg, func(c *Comm) error { return nil })
			if err == nil {
				t.Fatal("invalid transport config accepted")
			}
		})
	}
	t.Run("model rejected", func(t *testing.T) {
		// Virtual time cannot span processes.
		cfg := base()
		err := RunTransport(Config{Procs: 3, Model: netmodel.Hydra()}, cfg, func(c *Comm) error { return nil })
		if err == nil {
			t.Fatal("virtual-time transport run accepted")
		}
	})
}
