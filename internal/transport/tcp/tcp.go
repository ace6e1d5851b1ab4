// Package tcp runs the register protocol over real TCP sockets using only
// the standard library. It exists to demonstrate that the protocol cores are
// transport-independent: the same replica stores and client sessions that
// run under the simulator and the goroutine runtime serve here behind
// network sockets.
//
// Frames default to the hand-rolled length-prefixed binary codec
// (internal/msg/wire.go, see the DESIGN.md "Wire format" section); WithWire
// (WireGob) keeps the previous reflection-driven encoding/gob stream for
// cross-codec conformance runs. Each connection announces its codec with a
// one-byte preamble after dialing, so one server handles both.
//
// The design is deliberately simple: each client holds one persistent
// connection per replica server and performs one request/response exchange
// at a time per connection. A quorum operation fans out across the quorum's
// connections in parallel goroutines, so an operation still costs one
// round-trip.
//
// # Fault model
//
// Replica servers may crash (Store.Crash) and later recover; connections
// may break. The client survives both through four mechanisms, enabled by
// WithOpTimeout:
//
//   - Deadlines: every per-member exchange carries a read/write deadline,
//     so a silent peer costs at most the operation timeout instead of
//     wedging the client forever.
//   - Retry with a fresh quorum: an operation whose fan-out fails abandons
//     its session and re-picks a new random quorum from the engine — the
//     paper's availability mechanism (Section 4): a probabilistic quorum
//     client depends on no particular quorum, so it simply draws another.
//     Attempts are paced by capped exponential backoff and bounded by
//     WithRetries; exhaustion surfaces register.ErrQuorumUnavailable.
//   - Reconnect: a connection that errored is marked dead and transparently
//     re-dialed (with its own capped backoff) on next use, so a recovered
//     replica rejoins without restarting the client.
//   - Per-replica suspicion (pipelined and keyspace clients): a connection
//     a crashed store hung up, or a quorum member silent through an op
//     timeout, marks that server suspect, and later quorums are drawn
//     uniformly from the unsuspected servers, so a crash costs the ops it
//     caught in flight one timeout instead of the whole crash window. Once
//     per op timeout an in-flight request is also sent to each suspect as a
//     probe that counts toward no quorum; any reply from a suspect clears
//     it, so a recovered replica rejoins on its first answer.
//
// Without WithOpTimeout the client keeps the strict one-shot behaviour:
// any member failure fails the operation immediately.
package tcp

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// envelope wraps a protocol message for gob, which needs a concrete struct
// around interface-typed payloads.
type envelope struct {
	Payload any
}

// Wire selects a connection's frame encoding.
type Wire int

const (
	// WireBinary (the default) frames messages with the length-prefixed
	// binary codec: ~10× cheaper than gob to encode and self-delimiting, so
	// a read-deadline timeout resyncs on the next frame instead of forcing a
	// reconnect.
	WireBinary Wire = iota
	// WireGob keeps the stateful encoding/gob stream of earlier releases.
	// Any error on a gob stream — timeout included — ruins the framing and
	// costs a reconnect; it remains for one release so the conformance suite
	// can pin cross-codec equivalence of protocol behavior.
	WireGob
)

// Wire-mode preamble: the first byte a client writes after dialing, telling
// the server which codec the connection speaks.
const (
	wirePreambleBin = 'B'
	wirePreambleGob = 'G'
)

// WithWire selects the client's frame encoding (default WireBinary).
func WithWire(w Wire) ClientOption {
	return func(o *clientOpts) { o.wire = w }
}

var registerTypesOnce sync.Once

func registerWireTypes() {
	registerTypesOnce.Do(func() {
		gob.Register(msg.ReadReq{})
		gob.Register(msg.ReadReply{})
		gob.Register(msg.WriteReq{})
		gob.Register(msg.WriteAck{})
		gob.Register(msg.Batch{})
		gob.Register(msg.StaleEpoch{})
		gob.Register(msg.SnapReq{})
		gob.Register(msg.SnapReply{})
		// Common register value types; applications with custom value
		// types add theirs via RegisterValueType.
		gob.Register([]float64(nil))
		gob.Register([]bool(nil))
		gob.Register("")
		gob.Register(0)
		gob.Register(0.0)
		gob.Register(uint64(0))
		gob.Register(false)
	})
}

// RegisterValueType registers a custom register value type for transport.
// Call it (in both client and server processes) before Serve or Dial when
// register values are not among the built-in types.
func RegisterValueType(v any) {
	registerWireTypes()
	gob.Register(v)
}

// Server serves one replica store over a listener.
type Server struct {
	store *replica.Store
	ln    net.Listener
	opts  serverOpts

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type serverOpts struct {
	metrics *metrics.ServerMetrics
	inline  bool
}

// ServerOption configures a Server.
type ServerOption func(*serverOpts)

// WithServerMetrics attaches reply-path instruments to every connection the
// server accepts: replies per coalesced frame, reply-queue depth high
// watermark, and connections dropped by slow-reader backpressure. The
// default is no instrumentation, which keeps the serve loop allocation-free.
func WithServerMetrics(m *metrics.ServerMetrics) ServerOption {
	return func(o *serverOpts) { o.metrics = m }
}

// WithInlineReplies disables the per-connection coalescing reply writer and
// writes every reply frame inline from the serve loop — the pre-coalescing
// server behavior. It exists as the ablation arm of paired benchmarks
// (BenchmarkServerScaling) and is not intended for production use.
func WithInlineReplies() ServerOption {
	return func(o *serverOpts) { o.inline = true }
}

// Serve starts serving store on ln. It returns immediately; use Close to
// stop. The caller owns neither ln nor the spawned goroutines afterwards.
func Serve(store *replica.Store, ln net.Listener, opts ...ServerOption) *Server {
	registerWireTypes()
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o(&s.opts)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience combining net.Listen("tcp", addr) and Serve.
// Use addr "127.0.0.1:0" to let the kernel pick a port (see Addr).
func Listen(store *replica.Store, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp listen %s: %w", addr, err)
	}
	return Serve(store, ln, opts...), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the served replica store (tests inject crashes through it).
func (s *Server) Store() *replica.Store { return s.store }

// Health samples the server's current state for an obs registry's /healthz
// endpoint: live (the store is not crashed), the number of attached client
// connections, and the store's cumulative request counts.
func (s *Server) Health() obs.Health {
	s.mu.Lock()
	sessions := len(s.conns)
	s.mu.Unlock()
	reads, writes := s.store.Stats()
	h := obs.Health{
		Live:     !s.store.Crashed(),
		Sessions: sessions,
		Reads:    reads,
		Writes:   writes,
		Addr:     s.Addr(),
	}
	if v, ok := s.store.View(); ok {
		h.Epoch = uint64(v.Epoch)
		h.View = v.N()
	}
	return h
}

// RegisterHealth attaches the server's health probe to reg under name, so
// /healthz reports this server's liveness and session count.
func (s *Server) RegisterHealth(reg *obs.Registry, name string) {
	reg.RegisterHealth(name, s.Health)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	var pre [1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	switch pre[0] {
	case wirePreambleBin:
		s.serveBinary(conn)
	case wirePreambleGob:
		s.serveGob(conn)
	default:
		// Unknown preamble: not a protocol peer; drop the connection.
	}
}

// serveBinary serves one binary-codec connection: length-prefixed frames in,
// coalesced reply frames out. The serve loop only applies requests and
// appends replies to the connection's replyWriter; a dedicated writer
// goroutine folds whatever has accumulated into one msg.Batch frame per
// conn.Write, so the reader never waits on the socket and bursty request
// batches amortize to well under one syscall per reply. Requests — batched
// or lone — are decoded through the concrete visitor, so the steady-state
// loop is allocation-free in both directions; only snapshot traffic (and
// other non-visitor kinds) takes the boxed fallback.
func (s *Server) serveBinary(conn net.Conn) {
	if s.opts.inline {
		s.serveBinaryInline(conn)
		return
	}
	fr := msg.NewFrameReader(conn)
	rw := newReplyWriter(conn, s.opts.metrics)
	defer rw.close()
	vis := msg.BatchVisitor{
		ReadReq: func(m msg.ReadReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				return rw.addStaleEpoch(rej)
			}
			reply, ok := s.store.ApplyRead(m)
			if !ok {
				return false // crashed store: close the connection
			}
			return rw.addReadReply(reply)
		},
		WriteReq: func(m msg.WriteReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				return rw.addStaleEpoch(rej)
			}
			ack, ok := s.store.ApplyWrite(m)
			if !ok {
				return false // crashed
			}
			return rw.addWriteAck(ack)
		},
		// Reply-kind elements are foreign on a server-bound stream; leaving
		// their callbacks nil drops them, like any other junk.
	}
	for {
		payload, err := fr.NextRaw()
		if err != nil {
			return // connection closed or corrupt; drop it
		}
		// The reply buffer is locked once per request frame: every element's
		// replies append under the one hold, and end() wakes the writer once.
		if !rw.begin() {
			return
		}
		if msg.IsBatchPayload(payload) {
			completed, verr := msg.VisitBatchPayload(payload, vis)
			if !rw.end() || verr != nil || !completed {
				return
			}
			continue
		}
		if handled, cont := msg.VisitPayload(payload, vis); handled {
			if !rw.end() || !cont {
				return
			}
			continue
		}
		if !rw.end() {
			return
		}
		// Boxed fallback: snapshot requests, and the close-on-junk contract
		// for anything the store does not serve.
		m, err := msg.DecodePayload(payload)
		if err != nil {
			return
		}
		reply, ok := s.store.Apply(m)
		if !ok {
			// Crashed store: close the connection (see serveGob for why).
			return
		}
		if !rw.addBoxed(reply) {
			return
		}
	}
}

// addBoxed encodes one boxed reply (in practice a SnapReply) and enqueues it
// as a standalone frame behind any pending coalesced replies.
func (rw *replyWriter) addBoxed(reply any) bool {
	buf := msg.GetEncodeBuf()
	defer msg.PutEncodeBuf(buf)
	out, err := msg.AppendMessage((*buf)[:0], reply)
	if err != nil {
		return false
	}
	*buf = out[:0]
	return rw.addRaw(out)
}

// serveBinaryInline is the pre-coalescing binary serve loop — one conn.Write
// per reply (per reply frame for batches), kept behind WithInlineReplies as
// the benchmark ablation arm.
func (s *Server) serveBinaryInline(conn net.Conn) {
	fr := msg.NewFrameReader(conn)
	buf := msg.GetEncodeBuf()
	defer msg.PutEncodeBuf(buf)
	for {
		payload, err := fr.NextRaw()
		if err != nil {
			return // connection closed or corrupt; drop it
		}
		if msg.IsBatchPayload(payload) {
			if !s.serveBatchBinary(conn, buf, payload) {
				return
			}
			continue
		}
		m, err := msg.DecodePayload(payload)
		if err != nil {
			return
		}
		reply, ok := s.store.Apply(m)
		if !ok {
			// Crashed store: close the connection (see serveGob for why).
			return
		}
		out, err := msg.AppendMessage((*buf)[:0], reply)
		if err != nil {
			return
		}
		*buf = out[:0]
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// serveBatchBinary is serveBatch for the binary codec, on the allocation-free
// walk: recognized requests are applied through the store's concrete-typed
// paths and answered in one incrementally built reply frame, junk elements
// are dropped (batch replies match by operation id, not position), and a
// crashed store or malformed batch envelope closes the connection.
func (s *Server) serveBatchBinary(conn net.Conn, buf *[]byte, payload []byte) bool {
	var w msg.BatchWriter
	w.Reset((*buf)[:0])
	encodeFailed := false
	completed, err := msg.VisitBatchPayload(payload, msg.BatchVisitor{
		ReadReq: func(m msg.ReadReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				w.AddStaleEpoch(rej)
				return true
			}
			reply, ok := s.store.ApplyRead(m)
			if !ok {
				return false // crashed
			}
			if err := w.AddReadReply(reply); err != nil {
				encodeFailed = true
				return false
			}
			return true
		},
		WriteReq: func(m msg.WriteReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				w.AddStaleEpoch(rej)
				return true
			}
			ack, ok := s.store.ApplyWrite(m)
			if !ok {
				return false // crashed
			}
			w.AddWriteAck(ack)
			return true
		},
		// Reply-kind elements are foreign on a server-bound stream; leaving
		// their callbacks nil drops them, like any other junk.
	})
	if err != nil || !completed || encodeFailed {
		return false
	}
	out := w.Finish()
	*buf = out[:0]
	_, werr := conn.Write(out)
	return werr == nil
}

// serveGob serves one legacy gob-stream connection.
func (s *Server) serveGob(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return // connection closed or corrupt; drop it
		}
		if batch, ok := env.Payload.(msg.Batch); ok {
			if !s.serveBatch(enc, batch) {
				return
			}
			continue
		}
		reply, ok := s.store.Apply(env.Payload)
		if !ok {
			// Crashed store (or a non-protocol message): close the
			// connection instead of silently skipping the reply. Skipping
			// one reply on a persistent connection would desynchronize
			// request/reply pairing for every operation after Recover; a
			// closed connection surfaces promptly as an error on the
			// client's pending call, and the client re-dials on next use.
			// (The binary path keeps the same behavior: a closed connection
			// is the client's crash signal under either codec.)
			return
		}
		if err := enc.Encode(envelope{Payload: reply}); err != nil {
			return
		}
	}
}

// serveBatch applies every recognized request in a batch frame and answers
// with one batch of replies; it reports whether the connection should stay
// open. Unlike the strict request/reply path above, a malformed element
// inside a well-formed frame is dropped rather than fatal: batch replies are
// matched by operation id, not position, so skipping junk cannot
// desynchronize the stream — the junk element's "operation" simply never
// completes and the sender's per-operation deadline deals with it. A crashed
// store still closes the connection, which is the client's prompt crash
// signal.
func (s *Server) serveBatch(enc *gob.Encoder, batch msg.Batch) bool {
	replies := make([]any, 0, len(batch.Msgs))
	for _, m := range batch.Msgs {
		switch m.(type) {
		case msg.ReadReq, msg.WriteReq:
			reply, ok := s.store.Apply(m)
			if !ok {
				return false // crashed
			}
			replies = append(replies, reply)
		default:
			// Malformed or foreign element: drop it, keep the connection.
		}
	}
	return enc.Encode(envelope{Payload: msg.Batch{Msgs: replies}}) == nil
}

// Close stops accepting, closes all connections, and waits for the serving
// goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Re-dial pacing: a dead connection is re-dialed on next use, but failed
// dials back off exponentially between these bounds so a long-gone server
// is not hammered with connection attempts.
const (
	redialBackoffMin = 5 * time.Millisecond
	redialBackoffMax = time.Second
)

// Client is a register client over TCP connections to the replica servers:
// a thin adapter binding a transport-agnostic register.Client to a
// tcpTransport. It is safe for one goroutine at a time (one pending
// operation per process, as the register model requires).
type Client struct {
	rc       *register.Client
	engine   *register.Engine
	tr       *tcpTransport
	counters *metrics.TransportCounters
}

// ClientOption configures a TCP client.
type ClientOption func(*clientOpts)

// clientOpts embeds the shared register.Settings — the transport-independent
// client configuration — plus the knobs only the TCP transport has. Every
// With* option is a thin wrapper writing one field; Dial and DialPipelined
// hand the Settings to register.Apply / register.ApplyPipeline.
type clientOpts struct {
	register.Settings

	monotone   bool
	noFastRead bool
	writer     int32
	seed       uint64
	wire       Wire
	tally      *metrics.AccessTally
	view       quorum.View
	hasView    bool

	// Pipelined-client options (see DialPipelined).
	maxBatch  int
	batchHist *metrics.IntHistogram
}

// WithMonotone enables the monotone register variant.
func WithMonotone() ClientOption {
	return func(o *clientOpts) { o.monotone = true }
}

// WithoutFastRead disables the atomic read's one-round-trip fast path for
// this client (see register.WithoutFastRead) — the ablation knob for the
// paired fast-path benchmark.
func WithoutFastRead() ClientOption {
	return func(o *clientOpts) { o.noFastRead = true }
}

// WithWriter sets the client's writer identity (default 0); distinct
// concurrent writers to the same register must use distinct identities.
func WithWriter(id int32) ClientOption {
	return func(o *clientOpts) { o.writer = id }
}

// WithSeed seeds quorum selection (default 1).
func WithSeed(seed uint64) ClientOption {
	return func(o *clientOpts) { o.seed = seed }
}

// WithOpTimeout bounds every per-member exchange by d and makes operations
// whose fan-out fails retry on a freshly picked quorum instead of failing —
// required to ride out crashed or silent replicas. Zero (the default) keeps
// the strict one-shot behaviour.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(o *clientOpts) { o.OpTimeout = d }
}

// WithRetries caps the attempts per operation when WithOpTimeout is set; an
// operation that exhausts the budget returns register.ErrQuorumUnavailable.
// Zero (the default) means unlimited retries.
func WithRetries(n int) ClientOption {
	return func(o *clientOpts) { o.Retries = n }
}

// WithRetryBackoff sets the pacing between an operation's retry attempts:
// the first retry waits base, each further retry doubles the wait, capped
// at max. Defaults are 2ms and 100ms.
func WithRetryBackoff(base, max time.Duration) ClientOption {
	return func(o *clientOpts) { o.RetryBackoff = base; o.RetryBackoffMax = max }
}

// WithTransportCounters makes the client record its retries, timeouts, and
// reconnects into tc, which may be shared across clients to aggregate a
// deployment's fault activity.
func WithTransportCounters(tc *metrics.TransportCounters) ClientOption {
	return func(o *clientOpts) { o.Counters = tc }
}

// WithObserver records phase-level operation timings (pick, fan-out,
// quorum-wait, write-back, end-to-end) into obs; register the observer into
// an obs.Registry to watch the quantiles live.
func WithObserver(obs *register.Observer) ClientOption {
	return func(o *clientOpts) { o.Observer = obs }
}

// WithTally counts every quorum access per server into t, the paper's
// per-server load measurement, live instead of post-mortem.
func WithTally(t *metrics.AccessTally) ClientOption {
	return func(o *clientOpts) { o.tally = t }
}

// Dial connects to every replica server address. The quorum system's N must
// match the address count.
func Dial(addrs []string, sys quorum.System, opts ...ClientOption) (*Client, error) {
	registerWireTypes()
	o := clientOpts{seed: 1}
	o.RetryBackoff, o.RetryBackoffMax = 2*time.Millisecond, 100*time.Millisecond
	for _, opt := range opts {
		opt(&o)
	}
	addrs, err := applyView(&o, addrs)
	if err != nil {
		return nil, err
	}
	if sys.N() != len(addrs) {
		return nil, fmt.Errorf("tcp: quorum system covers %d servers, got %d addresses",
			sys.N(), len(addrs))
	}
	// Message counting costs two contended atomics per message, so the
	// transport is only instrumented when the caller asked for counters.
	counted := o.Counters != nil
	if o.Counters == nil {
		o.Counters = &metrics.TransportCounters{}
	}
	o.Proc = msg.NodeID(o.writer)
	var eopts []register.Option
	if o.monotone {
		eopts = append(eopts, register.Monotone())
	}
	if o.noFastRead {
		eopts = append(eopts, register.WithoutFastRead())
	}
	if o.tally != nil {
		eopts = append(eopts, register.WithTally(o.tally))
	}
	if o.hasView {
		eopts = append(eopts, register.WithView(o.view))
	}
	engine := register.NewEngine(o.writer, sys,
		rng.Derive(o.seed, fmt.Sprintf("tcp.client.%d", o.writer)), eopts...)

	tr := newTCPTransport(addrs, o.wire, o.OpTimeout, o.Counters, false, 0, nil)
	if o.hasView {
		tr.epoch = o.view.Epoch
	}
	if err := tr.start(); err != nil {
		return nil, err
	}
	var rt transport.Transport = tr
	if counted {
		rt = transport.Instrument(tr, o.Counters)
	}
	rc := register.NewClient(engine, rt, register.Apply(o.Settings)...)
	return &Client{rc: rc, engine: engine, tr: tr, counters: o.Counters}, nil
}

// Close closes every server connection.
func (c *Client) Close() {
	_ = c.tr.Close()
}

// Engine exposes the client's register engine.
func (c *Client) Engine() *register.Engine { return c.engine }

// Counters exposes the client's transport fault counters.
func (c *Client) Counters() *metrics.TransportCounters { return c.counters }

// Read performs one quorum read of reg, retrying on fresh quorums when an
// operation timeout is configured.
func (c *Client) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return c.rc.Read(reg)
}

// ReadAtomic performs an ABD-style atomic read over TCP: a quorum read
// followed by an awaited write-back of the observed value to a fresh
// quorum. Over a strict quorum system this gives single-writer atomicity.
func (c *Client) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return c.rc.ReadAtomic(reg)
}

// Write performs one quorum write of val to reg, retrying on fresh quorums
// when an operation timeout is configured. A retried write keeps its
// timestamp (replicas deduplicate installations by timestamp), so partial
// fan-outs of abandoned attempts are harmless.
func (c *Client) Write(reg msg.RegisterID, val msg.Value) error {
	_, err := c.rc.Write(reg, val)
	return err
}
