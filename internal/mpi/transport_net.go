package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cartcc/internal/wire"
)

// This file implements the network transport: TCP and unix-domain-socket
// backends over the varint frame format of internal/wire. One world spans
// OS processes, each hosting a contiguous-or-not subset of the world's
// ranks; every process listens on one address and opens at most one
// outbound connection per peer process, so all frames from process A to
// process B travel one ordered byte stream — a superset of the per-sender
// order the mailbox requires.
//
// Data path. A posted message is encoded inside Send, in the sender's
// call: the payload bytes are copied out of whatever the payload aliases
// (user buffer on the zero-copy path, pooled wire on the gathered path)
// into a pooled frame buffer, the pooled wire is released immediately,
// and the frame is queued to the destination's writer goroutine. The
// writer coalesces: it drains every queued frame into one buffered
// writer and flushes only when the queue goes momentarily empty, so a
// burst of schedule-round messages becomes a handful of syscalls. On the
// receiving process a per-connection reader decodes frames back into
// typed messages — payloads land in wires drawn from the same
// size-bucketed pools the local path uses — and hands them to
// mailbox.deliver, where matching, completion signaling, epoch-floor
// draining and duplicate suppression run exactly as for local messages.
//
// Failure path. A connection that dies outside a clean shutdown marks
// every rank of the peer process failed (markDead), poisoning pending
// receives ULFM-style; a process whose world aborts broadcasts a KindFail
// frame so its peers fail with the original cause instead of a timeout.
// Clean departure is announced with KindBye before closing.

// ProcSpec names one process of a multi-process world: its listen
// address and the world ranks it hosts.
type ProcSpec struct {
	// Addr is the process's listen address: "host:port" for tcp (port 0
	// picks one — single-process worlds only, peers cannot guess it), a
	// filesystem path for unix.
	Addr string
	// Ranks are the world ranks this process hosts.
	Ranks []int
}

// TransportConfig selects and configures a network transport backend.
type TransportConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Procs is the rank/address map, identical in every process.
	Procs []ProcSpec
	// Self is this process's index into Procs.
	Self int
	// ForceRemote routes even process-local traffic through the wire: a
	// single-process world exercises the full encode → socket → decode →
	// deliver path for every message. This is the conformance battery's
	// mode — all runtime semantics (faults, recovery, epochs) remain
	// available because every rank is still hosted locally.
	ForceRemote bool
	// DialTimeout bounds connection establishment to a peer, retrying
	// while peers are still starting up. Zero means 10 seconds.
	DialTimeout time.Duration
}

// validate checks the map against the world size.
func (tc *TransportConfig) validate(procs int) error {
	if tc.Network != "tcp" && tc.Network != "unix" {
		return fmt.Errorf("mpi: transport network %q (want tcp or unix)", tc.Network)
	}
	if tc.Self < 0 || tc.Self >= len(tc.Procs) {
		return fmt.Errorf("mpi: transport self %d outside [0,%d)", tc.Self, len(tc.Procs))
	}
	seen := make([]bool, procs)
	n := 0
	for i, p := range tc.Procs {
		if p.Addr == "" {
			return fmt.Errorf("mpi: transport process %d has no address", i)
		}
		for _, r := range p.Ranks {
			if r < 0 || r >= procs {
				return fmt.Errorf("mpi: transport process %d hosts rank %d outside [0,%d)", i, r, procs)
			}
			if seen[r] {
				return fmt.Errorf("mpi: transport rank %d hosted twice", r)
			}
			seen[r] = true
			n++
		}
	}
	if n != procs {
		return fmt.Errorf("mpi: transport map hosts %d of %d ranks", n, procs)
	}
	return nil
}

// maxFrame bounds one length-prefixed frame on a connection: the payload
// cap plus generous header room.
const maxFrame = wire.MaxPayload + 256

// frameBufs pools encode/decode scratch buffers.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getFrameBuf(n int) *[]byte {
	pb := frameBufs.Get().(*[]byte)
	if cap(*pb) < n {
		b := make([]byte, 0, n)
		*pb = b
	}
	*pb = (*pb)[:0]
	return pb
}

func putFrameBuf(pb *[]byte) {
	frameBufs.Put(pb)
}

// netTransport is the TCP/unix backend.
type netTransport struct {
	cfg TransportConfig
	w   *World

	rankProc []int // world rank -> hosting process index
	ln       net.Listener
	addr     string // resolved listen address (after port 0 binding)

	mu       sync.Mutex
	links    map[int]*peerLink // outbound links by process index
	accepted map[net.Conn]struct{}
	departed map[int]bool // peers that sent KindBye
	closing  atomic.Bool
	failSent atomic.Bool

	// handoffs parks messages whose payload the wire codec cannot encode
	// (named element types): only a KindHandoff token travels the
	// self-link, and the reader delivers the parked message at the token's
	// position in the frame stream — per-sender order holds across the
	// encoded and non-encodable paths (see sendHandoff).
	handoffMu  sync.Mutex
	handoffSeq uint64
	handoffs   map[uint64]handoff

	inflight atomic.Int64
	readers  sync.WaitGroup
}

// peerLink is one outbound connection with its coalescing writer.
type peerLink struct {
	proc int
	conn net.Conn
	q    chan *[]byte
	done chan struct{} // writer exited
	err  atomic.Pointer[error]
}

// newNetTransport validates the config and binds the listen socket; the
// transport is not attached to a world yet. Binding before rank spawn
// (and before RunTransport returns an error) means peers can dial as soon
// as they learn the address.
func newNetTransport(tc TransportConfig, worldSize int) (*netTransport, error) {
	if err := tc.validate(worldSize); err != nil {
		return nil, err
	}
	if tc.DialTimeout == 0 {
		tc.DialTimeout = 10 * time.Second
	}
	rankProc := make([]int, worldSize)
	for i, p := range tc.Procs {
		for _, r := range p.Ranks {
			rankProc[r] = i
		}
	}
	ln, err := net.Listen(tc.Network, tc.Procs[tc.Self].Addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: transport listen %s %s: %w", tc.Network, tc.Procs[tc.Self].Addr, err)
	}
	t := &netTransport{
		cfg:      tc,
		rankProc: rankProc,
		ln:       ln,
		addr:     ln.Addr().String(),
		links:    make(map[int]*peerLink),
		accepted: make(map[net.Conn]struct{}),
		departed: make(map[int]bool),
	}
	return t, nil
}

// Addr returns the resolved listen address (meaningful when the
// configured address had port 0).
func (t *netTransport) Addr() string { return t.addr }

// Attach binds the world and starts the accept loop.
func (t *netTransport) Attach(w *World) {
	t.w = w
	t.readers.Add(1)
	go t.acceptLoop()
}

// Local implements Transport: delivery bypasses the wire only for ranks
// this process hosts, and not even then under ForceRemote.
func (t *netTransport) Local(dst int) bool {
	return !t.cfg.ForceRemote && t.rankProc[dst] == t.cfg.Self
}

// InFlight implements Transport: self-loop frames accepted but not yet
// delivered.
func (t *netTransport) InFlight() int { return int(t.inflight.Load()) }

// Drain implements Transport: wait (bounded — a dying connection may have
// dropped counted frames) for the self-loop pipe to come momentarily
// empty, so fault poisoning never overtakes messages already posted.
func (t *netTransport) Drain() {
	deadline := time.Now().Add(2 * time.Second)
	for t.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
}

// payloadView returns the raw bytes of a message payload (a slice of a
// wire-encodable element type) without copying, plus its element id. The
// view aliases the payload and must be consumed before the posting call
// returns.
func payloadView(p *payload) (b []byte, id wire.ElemID, err error) {
	if p.wt == nil {
		return nil, 0, fmt.Errorf("%w: message carries no payload", wire.ErrBadElemType)
	}
	et := p.wt.elem()
	id, err = wire.ElemIDOf(et)
	if err != nil {
		return nil, 0, err
	}
	n := p.elems * int(et.Size())
	if n == 0 {
		return nil, id, nil
	}
	return unsafe.Slice((*byte)(p.data), n), id, nil
}

// Send implements Transport. It encodes the message into a pooled frame
// buffer — reading the payload exactly once, inside the posting call, so
// zero-copy aliases die on schedule — releases any pooled wire, and
// queues the frame on the destination process's link.
func (t *netTransport) Send(dst int, m *message) error {
	proc := t.rankProc[dst]
	pb, err := t.encodeData(dst, m)
	if err != nil {
		// Unsupported element type (named types, structs — allowed by the
		// generic Isend[T] API). A rank we host can still be reached
		// without wire-encoding the payload, but not by a direct mailbox
		// call from here: earlier frames to the same mailbox may still sit
		// in the self-link pipe, and delivering around them would advance
		// the receiver's per-sender dedup counter past their sseqs, so
		// they would be dropped as duplicates on arrival. The handoff path
		// parks the message and sends a token through the same pipe
		// instead, preserving order. A genuinely remote destination fails
		// typed — the id registry must agree across processes.
		if t.rankProc[dst] == t.cfg.Self {
			return t.sendHandoff(dst, m)
		}
		return &TransportError{Proc: proc, Err: err}
	}
	// The frame owns a copy of the payload now: return a pooled wire,
	// drop a zero-copy alias.
	m.reclaim(t.w)
	selfLoop := t.rankProc[dst] == t.cfg.Self
	if selfLoop {
		t.inflight.Add(1)
	}
	if err := t.queueFrame(proc, pb); err != nil {
		if selfLoop {
			t.inflight.Add(-1)
		}
		return err
	}
	return nil
}

// encodeData encodes message m for world rank dst into a pooled buffer.
func (t *netTransport) encodeData(dst int, m *message) (*[]byte, error) {
	payload, elem, err := payloadView(&m.payload)
	if err != nil {
		return nil, err
	}
	h := wire.Header{
		Kind:       wire.KindData,
		Proc:       t.cfg.Self,
		Dst:        dst,
		Ctx:        m.ctx,
		Epoch:      m.epoch,
		Src:        m.src,
		Tag:        m.tag,
		SrcWorld:   m.srcWorld,
		Sseq:       m.sseq,
		Elem:       elem,
		Elems:      m.elems,
		PayloadLen: len(payload),
	}
	pb := getFrameBuf(len(payload) + 64)
	b, err := wire.AppendHeader(*pb, h)
	if err != nil {
		putFrameBuf(pb)
		return nil, err
	}
	*pb = append(b, payload...)
	return pb, nil
}

// handoff is one parked message awaiting its KindHandoff token: a payload
// the wire codec cannot encode, delivered to a local mailbox by the
// self-link reader at the token's position in the frame stream.
type handoff struct {
	dst int
	m   *message
}

// sendHandoff routes a non-wire-encodable message to a locally hosted
// rank without breaking per-sender order: the message is parked in the
// handoff table and a token frame is queued on the self-link, behind
// every frame already queued there, so the reader delivers it after the
// messages that were posted before it.
func (t *netTransport) sendHandoff(dst int, m *message) error {
	// The reader delivers the message after this call returns, so a
	// zero-copy alias of the sender's user buffer must die now: detach
	// into a pooled wire, exactly as an unexpected-queue detach would. The
	// caller's envelope dies with the call too (it is the sender's recycled
	// scratch), so the parked message is a fresh copy that takes over the
	// wire.
	if m.alias {
		m.wt.detach(t.w, &m.payload)
	}
	parked := new(message)
	*parked = *m
	m.payload = payload{}
	m = parked
	t.handoffMu.Lock()
	t.handoffSeq++
	tok := t.handoffSeq
	if t.handoffs == nil {
		t.handoffs = make(map[uint64]handoff)
	}
	t.handoffs[tok] = handoff{dst: dst, m: m}
	t.handoffMu.Unlock()

	// On any failure the message has not been delivered: unpark it and
	// return its pooled wire so the caller sees the usual discarded-send
	// state (Send's contract).
	undo := func(err error) error {
		t.handoffMu.Lock()
		delete(t.handoffs, tok)
		t.handoffMu.Unlock()
		m.reclaim(t.w)
		return err
	}
	var tokbuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tokbuf[:], tok)
	pb := getFrameBuf(n + 16)
	b, err := wire.AppendHeader(*pb, wire.Header{Kind: wire.KindHandoff, Proc: t.cfg.Self, PayloadLen: n})
	if err != nil {
		putFrameBuf(pb)
		return undo(&TransportError{Proc: t.cfg.Self, Err: err})
	}
	*pb = append(b, tokbuf[:n]...)
	t.inflight.Add(1)
	if err := t.queueFrame(t.cfg.Self, pb); err != nil {
		t.inflight.Add(-1)
		return undo(err)
	}
	return nil
}

// deliverHandoff resolves a KindHandoff token read off the self-link and
// delivers the parked message. An unknown token or a handoff arriving on
// any connection other than our own loopback is a protocol violation.
func (t *netTransport) deliverHandoff(h wire.Header, payload []byte) error {
	if h.Proc != t.cfg.Self {
		return fmt.Errorf("%w: handoff frame from process %d", wire.ErrBadField, h.Proc)
	}
	tok, rest, err := wire.ConsumeUvarint(payload)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing handoff bytes", wire.ErrBadField, len(rest))
	}
	t.handoffMu.Lock()
	hd, ok := t.handoffs[tok]
	delete(t.handoffs, tok)
	t.handoffMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown handoff token %d", wire.ErrBadField, tok)
	}
	t.w.ranks[hd.dst].box.deliver(hd.m)
	t.inflight.Add(-1)
	return nil
}

// queueFrame hands an encoded frame to proc's writer, establishing the
// link on first use. The frame buffer is owned by the writer from here.
func (t *netTransport) queueFrame(proc int, pb *[]byte) error {
	l, err := t.link(proc)
	if err != nil {
		putFrameBuf(pb)
		return &TransportError{Proc: proc, Err: err}
	}
	if ep := l.err.Load(); ep != nil {
		putFrameBuf(pb)
		return &TransportError{Proc: proc, Err: *ep}
	}
	select {
	case l.q <- pb:
		return nil
	case <-l.done:
		putFrameBuf(pb)
		err := errors.New("connection closed")
		if ep := l.err.Load(); ep != nil {
			err = *ep
		}
		return &TransportError{Proc: proc, Err: err}
	}
}

// link returns the outbound link to proc, dialing and handshaking on
// first use. Dialing retries until DialTimeout — peer processes of one
// world start at slightly different times.
func (t *netTransport) link(proc int) (*peerLink, error) {
	t.mu.Lock()
	if l, ok := t.links[proc]; ok {
		t.mu.Unlock()
		return l, nil
	}
	t.mu.Unlock()

	addr := t.cfg.Procs[proc].Addr
	if proc == t.cfg.Self {
		addr = t.addr // resolved: the configured address may have port 0
	}
	conn, err := t.dial(addr)
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	if l, ok := t.links[proc]; ok {
		// Raced with another sender; keep theirs.
		t.mu.Unlock()
		conn.Close()
		return l, nil
	}
	l := &peerLink{
		proc: proc,
		conn: conn,
		q:    make(chan *[]byte, 512),
		done: make(chan struct{}),
	}
	t.links[proc] = l
	t.mu.Unlock()

	// Hello first: the accepting side learns who is talking before any
	// data frame arrives.
	hello := getFrameBuf(16)
	if b, err := wire.AppendHeader(*hello, wire.Header{Kind: wire.KindHello, Proc: t.cfg.Self}); err == nil {
		*hello = b
		l.q <- hello
	} else {
		putFrameBuf(hello)
	}
	go t.writeLoop(l)
	return l, nil
}

// dial connects to a peer address with startup-race retries.
func (t *netTransport) dial(addr string) (net.Conn, error) {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	var lastErr error
	for {
		conn, err := net.DialTimeout(t.cfg.Network, addr, time.Until(deadline))
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		lastErr = err
		if time.Now().After(deadline) || t.closing.Load() {
			return nil, fmt.Errorf("dial %s %s: %w", t.cfg.Network, addr, lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeLoop drains a link's queue into the connection, coalescing every
// burst into one buffered flush. Each frame goes out length-prefixed.
func (t *netTransport) writeLoop(l *peerLink) {
	defer close(l.done)
	bw := bufio.NewWriterSize(l.conn, 64<<10)
	var lenbuf [binary.MaxVarintLen64]byte
	// counted reports whether a frame was counted in inflight by Send: a
	// data or handoff frame on the self link (the frame buffer starts with
	// the header, so the kind byte is at a fixed offset). A frame lost on
	// the failure path must decrement the count it carried, or InFlight
	// never drains and Drain()/the deadlock monitor stall on frames no
	// reader will ever deliver. Frames already flushed into the socket (or
	// sitting in bw when a later flush fails) cannot be accounted here;
	// procDown's self-link world-fail and the monitor's staleness bound
	// (deadlockCheck) backstop those.
	counted := func(pb *[]byte) bool {
		if l.proc != t.cfg.Self || len(*pb) < 3 {
			return false
		}
		k := wire.Kind((*pb)[2])
		return k == wire.KindData || k == wire.KindHandoff
	}
	writeFrame := func(pb *[]byte) error {
		n := binary.PutUvarint(lenbuf[:], uint64(len(*pb)))
		_, err := bw.Write(lenbuf[:n])
		if err == nil {
			_, err = bw.Write(*pb)
		}
		if err != nil && counted(pb) {
			t.inflight.Add(-1)
		}
		putFrameBuf(pb)
		return err
	}
	fail := func(err error) {
		l.err.Store(&err)
		// Drain and drop queued frames so senders blocked on the queue
		// make progress and observe the error.
		for {
			select {
			case pb := <-l.q:
				if pb == nil {
					t.procDown(l.proc, err)
					return
				}
				if counted(pb) {
					t.inflight.Add(-1)
				}
				putFrameBuf(pb)
			default:
				t.procDown(l.proc, err)
				return
			}
		}
	}
	for pb := range l.q {
		if pb == nil {
			break
		}
		if err := writeFrame(pb); err != nil {
			fail(err)
			return
		}
		// Coalesce: keep writing while more frames are queued, flush when
		// the queue goes empty. A nil sentinel anywhere in the burst still
		// means exit — after the flush, so the burst reaches the peer.
		stop := false
	drain:
		for {
			select {
			case pb2 := <-l.q:
				if pb2 == nil {
					stop = true
					break drain
				}
				if err := writeFrame(pb2); err != nil {
					fail(err)
					return
				}
			default:
				break drain
			}
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		if stop {
			return
		}
	}
	bw.Flush()
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (t *netTransport) acceptLoop() {
	defer t.readers.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.mu.Lock()
		if t.closing.Load() {
			t.mu.Unlock()
			conn.Close()
			continue
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.readers.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection and delivers them.
// The sending process identifies itself with a hello frame before
// anything else; an EOF after its bye (or during our own shutdown) is a
// clean close, anything else marks the peer's ranks failed.
func (t *netTransport) readLoop(conn net.Conn) {
	defer t.readers.Done()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	peer := -1
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			t.readerGone(peer, err)
			return
		}
		if n > maxFrame {
			t.readerGone(peer, fmt.Errorf("%w: %d-byte frame", wire.ErrOversize, n))
			return
		}
		pb := getFrameBuf(int(n))
		buf := (*pb)[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			putFrameBuf(pb)
			t.readerGone(peer, err)
			return
		}
		h, payload, rest, err := wire.DecodeFrame(buf)
		if err != nil || len(rest) != 0 {
			putFrameBuf(pb)
			if err == nil {
				err = fmt.Errorf("%w: %d trailing bytes", wire.ErrBadField, len(rest))
			}
			t.readerGone(peer, err)
			return
		}
		// The codec only bounds Proc syntactically (it cannot know the
		// process map); an out-of-range id from a malformed or hostile
		// frame must tear the connection down with a typed error here —
		// never reach a Procs index and panic.
		if h.Proc >= len(t.cfg.Procs) {
			putFrameBuf(pb)
			t.readerGone(peer, fmt.Errorf("%w: process id %d outside [0,%d)",
				wire.ErrBadField, h.Proc, len(t.cfg.Procs)))
			return
		}
		switch h.Kind {
		case wire.KindHello:
			peer = h.Proc
		case wire.KindBye:
			t.mu.Lock()
			t.departed[h.Proc] = true
			t.mu.Unlock()
			peer = h.Proc
		case wire.KindFail:
			t.w.fail(fmt.Errorf("mpi: %w: process %d: %s", ErrRemoteFailed, h.Proc, string(payload)))
		case wire.KindData:
			err = t.deliverFrame(h, payload)
		case wire.KindHandoff:
			err = t.deliverHandoff(h, payload)
		}
		putFrameBuf(pb)
		if err != nil {
			t.readerGone(peer, err)
			return
		}
	}
}

// deliverFrame reconstructs a typed message from a decoded data frame and
// hands it to the destination mailbox. The payload lands in a wire drawn
// from the world's size-bucketed pools, released at the single point the
// message is consumed or discarded — exactly the gathered-send ownership
// discipline, so pool accounting balances across the transport.
func (t *netTransport) deliverFrame(h wire.Header, payload []byte) error {
	if h.Dst < 0 || h.Dst >= t.w.size || t.rankProc[h.Dst] != t.cfg.Self {
		return fmt.Errorf("%w: data frame for rank %d not hosted here", wire.ErrBadField, h.Dst)
	}
	if h.SrcWorld < 0 || h.SrcWorld >= t.w.size {
		return fmt.Errorf("%w: src world rank %d", wire.ErrBadField, h.SrcWorld)
	}
	wt, err := podWire(h.Elem)
	if err != nil {
		return err
	}
	m := message{
		ctx:      h.Ctx,
		epoch:    h.Epoch,
		src:      h.Src,
		tag:      h.Tag,
		bytes:    h.PayloadLen,
		srcWorld: h.SrcWorld,
		sseq:     h.Sseq,
	}
	wt.draw(t.w, &m.payload, h.Elems)
	if h.PayloadLen > 0 {
		copy(unsafe.Slice((*byte)(m.data), h.PayloadLen), payload)
	}
	t.w.ranks[h.Dst].box.deliver(&m)
	if t.rankProc[h.SrcWorld] == t.cfg.Self {
		t.inflight.Add(-1) // self-loop frame delivered
	}
	return nil
}

// readerGone handles a reader's exit: quiet when we are shutting down or
// the peer said goodbye, otherwise the peer process is gone and every
// rank it hosts is marked failed, poisoning pending receives ULFM-style.
func (t *netTransport) readerGone(peer int, cause error) {
	if t.closing.Load() {
		return
	}
	if peer >= 0 {
		t.mu.Lock()
		gone := t.departed[peer]
		t.mu.Unlock()
		if gone {
			return
		}
	}
	if peer < 0 {
		return // connection died before identifying itself; nothing to mark
	}
	t.procDown(peer, cause)
}

// procDown marks every rank hosted by a dead peer process failed.
func (t *netTransport) procDown(proc int, cause error) {
	if t.closing.Load() {
		return
	}
	if proc == t.cfg.Self {
		// The self-link carries every frame of a force-remote world;
		// losing it strands in-flight frames (and parked handoffs) that no
		// reader will ever deliver. There is no peer to mark dead — fail
		// the world so the run ends with the cause instead of hanging.
		t.w.fail(fmt.Errorf("mpi: transport self-link failed: %w", cause))
		return
	}
	for _, r := range t.cfg.Procs[proc].Ranks {
		t.w.markDead(r, &RankFailedError{
			Rank: r,
			Op:   fmt.Sprintf("transport: process %d unreachable: %v", proc, cause),
		})
	}
}

// NoteFailure implements Transport: broadcast the primary failure to
// every peer process so their worlds abort with the cause. Failures that
// themselves arrived from a peer are not re-broadcast (no failure
// ping-pong).
func (t *netTransport) NoteFailure(err error) {
	if errors.Is(err, ErrRemoteFailed) || t.closing.Load() {
		return
	}
	if !t.failSent.CompareAndSwap(false, true) {
		return
	}
	detail := err.Error()
	for proc := range t.cfg.Procs {
		if proc == t.cfg.Self {
			continue
		}
		pb := getFrameBuf(len(detail) + 16)
		b, herr := wire.AppendHeader(*pb, wire.Header{
			Kind: wire.KindFail, Proc: t.cfg.Self, PayloadLen: len(detail),
		})
		if herr != nil {
			putFrameBuf(pb)
			continue
		}
		*pb = append(b, detail...)
		_ = t.queueFrame(proc, pb) // best effort
	}
}

// closeDrainTimeout bounds the writer drain during Close: a peer that has
// stopped reading can wedge a writer against a full socket buffer, and
// shutdown must not hang behind it.
const closeDrainTimeout = 5 * time.Second

// Close implements Transport: announce departure, flush writers, release
// sockets. Called after the local ranks have finished, so every frame the
// protocol needed has been queued.
func (t *netTransport) Close() error {
	// Shutdown starts now: connection teardown below must read as clean
	// close everywhere (readerGone, procDown), not as peer failure.
	t.closing.Store(true)
	// Bye to every connected peer, then close the queues; writers drain
	// and flush before exiting. Every wait shares one deadline — on
	// timeout the connection is forced closed, which errors the blocked
	// write and the writer exits through its failure path.
	t.mu.Lock()
	links := make([]*peerLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.Unlock()
	deadline := time.Now().Add(closeDrainTimeout)
	for _, l := range links {
		pb := getFrameBuf(16)
		if b, err := wire.AppendHeader(*pb, wire.Header{Kind: wire.KindBye, Proc: t.cfg.Self}); err == nil {
			*pb = b
			select {
			case l.q <- pb:
			case <-l.done:
				putFrameBuf(pb)
			case <-time.After(time.Until(deadline)):
				putFrameBuf(pb)
			}
		} else {
			putFrameBuf(pb)
		}
	}
	for _, l := range links {
		select {
		case l.q <- nil: // sentinel: writer flushes and exits
		case <-l.done:
		case <-time.After(time.Until(deadline)):
		}
	}
	for _, l := range links {
		select {
		case <-l.done:
		case <-time.After(time.Until(deadline)):
			l.conn.Close() // unblock a wedged write; the writer fails out
			<-l.done
		}
	}
	t.ln.Close()
	for _, l := range links {
		l.conn.Close()
	}
	t.mu.Lock()
	for conn := range t.accepted {
		conn.Close()
	}
	t.mu.Unlock()
	t.readers.Wait()
	return nil
}
