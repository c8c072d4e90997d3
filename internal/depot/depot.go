// Package depot implements lsd, the LSL depot daemon: an unprivileged
// user-level process that accepts session-open headers, dials the next hop
// of the loose source route, and then relays bytes in both directions
// between the two transport connections through a small bounded buffer —
// the "transport to transport binding based on the LSL header information"
// of the paper's §IV-A.
//
// The forward direction carries session payload; the backward direction
// carries the session-accept frame and any application replies, so the
// depot itself needs no knowledge of the session state machine beyond the
// open header. Admission control (the paper's §VII scalability note) caps
// concurrent sessions and rejects the excess with a busy code rather than
// degrading every flow.
//
// Bytes move through the shared data plane in internal/xfer: relay
// buffers come from a size-classed pool, so the per-session hot path
// performs no buffer allocation, and every copy is threaded with the
// session's live byte counters and the depot totals.
//
// Lifecycle is context-aware end to end: every session hangs off a
// depot-root context, and Close drains in-flight sessions for a bounded
// time (Config.DrainTimeout) before cancelling the remainder, which are
// recorded with the distinct "canceled" outcome.
//
// A depot is observable: every instance carries a metrics registry
// (Prometheus text format via Metrics), a live-session registry with a
// ring of recently finished sessions (Sessions), and an HTTP admin
// surface (AdminHandler) exposing both plus pprof.
package depot

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/metrics"
	"lsl/internal/mux"
	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// relayBufferSize is the per-direction relay buffer — the paper's
// "small, short-lived" intermediate allocation (§IV), borrowed from a
// size-classed pool instead of allocated per session. On Linux, where a
// classic relay splices TCP to TCP, it is the capacity of the pooled
// kernel pipe instead. It is not a knob: in the lslsim model the cascade
// gain is the same with depot buffers of 64 KiB, 256 KiB, 1 MiB and 4 MiB.
const relayBufferSize = 256 << 10

// Config tunes a depot.
type Config struct {
	// MaxSessions caps concurrent sessions (0 = 256).
	MaxSessions int
	// DialTimeout bounds next-hop connection establishment (default 10s).
	DialTimeout time.Duration
	// DrainTimeout bounds Close: in-flight sessions get this long to
	// finish on their own before the depot cancels them (outcome
	// "canceled"). Zero means DefaultDrainTimeout; negative drains
	// without a bound.
	DrainTimeout time.Duration
	// Dial overrides the next-hop dialer (tests, emulation).
	Dial core.Dialer
	// Logf, when set, receives one line per session event.
	Logf func(format string, args ...interface{})
	// MaxStageBytes bounds a staged (custody) session's payload.
	MaxStageBytes int64
	// MaxTotalStageBytes bounds aggregate staged custody bytes across all
	// sessions. A staged session that would push the total past this is
	// refused with the typed CodeRejectShed frame (load shedding) instead
	// of being buffered toward OOM. Zero means DefaultTotalStageFactor *
	// MaxStageBytes. Sessions recovered from the custody journal are
	// re-admitted even past the budget (they were already acknowledged);
	// new admissions shed first.
	MaxTotalStageBytes int64
	// Custody, when set, makes staged sessions durable: payloads spill to
	// per-session files under the journal's state dir and are journaled
	// (write-ahead, CRC-guarded) before the custody commit frame is sent,
	// so a depot crash or redeploy cannot drop an acknowledged payload.
	// On construction the depot re-admits the journal's surviving
	// sessions and resumes their redelivery. The journal is owned by the
	// caller: open it with custody.Open before New, close it after Close.
	Custody *custody.Journal
	// StageRetryInterval is the redelivery backoff *base* for staged
	// sessions; successive attempts back off exponentially from here.
	StageRetryInterval time.Duration
	// StageRetryMax caps the exponential redelivery backoff (default 30s).
	StageRetryMax time.Duration
	// StageDeadline bounds how long staged payloads are retried before
	// being discarded.
	StageDeadline time.Duration
	// Mux makes the depot dial trunks to its next hops: it keeps warm
	// trunks to each distinct next hop, skipping the per-session TCP
	// handshake and cold congestion window. Every depot serves trunks,
	// whatever Mux says: its accept front serves a raw connection
	// opening with the trunk hello ("LSLM") as a multiplexed upstream
	// link beside classic "LSL1" sessions on the same port. A next hop
	// that predates trunks refuses the hello; the session on it fails
	// with mux.ErrTrunkRefused, and the depot dials that hop one
	// connection per session for a while. A next-hop trunk carries up to
	// 64 sessions before a second one opens and closes after 60 s idle,
	// the link pool's defaults.
	Mux bool
	// SockBuf overrides SO_SNDBUF and SO_RCVBUF on every accepted and
	// dialed transport connection (zero keeps kernel defaults);
	// TCP_NODELAY is always set on TCP sublinks.
	SockBuf int
	// OnSessionEnd, when set, receives every finished session record
	// (including rejections) right after it enters the recent ring. The
	// logistics control plane uses this to feed per-next-hop relay
	// measurements into its forecasters. Called outside registry locks,
	// but synchronously on the session goroutine — keep it fast.
	OnSessionEnd func(SessionInfo)
	// PlanView, when set, is rendered as JSON on the admin /plan endpoint
	// (the logistics planner's forecast snapshot). Kept as an opaque
	// closure so the depot does not depend on the planner package.
	PlanView func() interface{}
	// OnGossip, when set, receives inbound forecast-gossip exchanges: the
	// accept front hands a connection or trunk stream opening with the
	// "LSLG" magic over whole, magic included, with no deadline.
	// Unset, such a connection is refused like any foreign protocol. The
	// handler owns the connection and must close it. Kept as an opaque
	// callback so the depot does not depend on the gossip package.
	OnGossip func(net.Conn)

	// Test seams: in-package tests shorten these; New fills the defaults.
	//
	// handshakeTimeout bounds the accept front's read of a stream's
	// magic together with the rest of its open header, and a staged
	// delivery's handshake (default 15s).
	handshakeTimeout time.Duration
	// writeTimeout bounds depot-originated control-frame writes (accept
	// and reject frames) so a stalled peer cannot pin a handler goroutine
	// (default 5s).
	writeTimeout time.Duration
	// retryJitterSeed seeds redelivery jitter. Each staged session
	// decorrelates further with its session ID, so concurrent custody
	// sessions never retry in lockstep against a recovering receiver.
	// Zero draws a random per-depot seed.
	retryJitterSeed int64
}

// DefaultDrainTimeout is how long Close waits for in-flight sessions
// before cancelling them when Config.DrainTimeout is zero.
const DefaultDrainTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.handshakeTimeout == 0 {
		c.handshakeTimeout = 15 * time.Second
	}
	if c.writeTimeout == 0 {
		c.writeTimeout = 5 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.Dial == nil {
		var d net.Dialer
		c.Dial = d.DialContext
	}
	if c.MaxStageBytes == 0 {
		c.MaxStageBytes = DefaultMaxStageBytes
	}
	if c.MaxTotalStageBytes == 0 {
		c.MaxTotalStageBytes = DefaultTotalStageFactor * c.MaxStageBytes
	}
	if c.StageRetryInterval == 0 {
		c.StageRetryInterval = DefaultStageRetryInterval
	}
	if c.StageRetryMax == 0 {
		c.StageRetryMax = DefaultStageRetryMax
	}
	if c.StageRetryMax < c.StageRetryInterval {
		c.StageRetryMax = c.StageRetryInterval
	}
	if c.retryJitterSeed == 0 {
		c.retryJitterSeed = time.Now().UnixNano()
	}
	if c.StageDeadline == 0 {
		c.StageDeadline = DefaultStageDeadline
	}
	return c
}

// Stats is a snapshot of depot counters.
type Stats struct {
	Accepted      uint64
	RejectedBusy  uint64
	RejectedRoute uint64
	RejectedProto uint64
	Completed     uint64
	// Canceled counts sessions (relay and staged) cut short by shutdown
	// after the drain timeout.
	Canceled      uint64
	BytesForward  uint64
	BytesBackward uint64
	Active        int64
	// MaxBuffered is the high-water mark of a single relay-buffer fill —
	// the largest read the relay loop has moved in one step, bounded by
	// the 256 KiB relay buffer.
	MaxBuffered int64
	// ControlWriteFailures counts accept/reject frames dropped because the
	// peer stalled past the write deadline.
	ControlWriteFailures uint64
	// DialFailures counts next-hop dials that failed, summed across hops
	// (per-hop breakdown on lsd_next_hop_dial_failures_total).
	DialFailures uint64
	Staged       uint64
	// StagedDeliveryAttempts counts every staged delivery attempt,
	// retries included — attempts minus delivered is the live measure of
	// how hard the depot is fighting an unreachable downstream.
	StagedDeliveryAttempts uint64
	StagedDelivered        uint64
	StagedAborted          uint64
	StagedBytes            uint64
	// StagedShed counts staged sessions refused because the global
	// custody budget (MaxTotalStageBytes) was exhausted.
	StagedShed uint64
	// StagedRecovered counts custody sessions re-admitted from the
	// write-ahead journal after a restart.
	StagedRecovered uint64
	// CustodyBytes is the live aggregate of staged payload bytes
	// currently in custody (the budget gauge).
	CustodyBytes int64
	// Ready classic next-hop sockets, by result (spare.go).
	SparesTaken, SparesFresh, SparesExpired, SparesDead, SparesFailed uint64
}

// Histogram bucket bounds for the admin metrics.
var (
	durationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
	byteBuckets     = []float64{1 << 10, 16 << 10, 256 << 10, 4 << 20, 64 << 20, 1 << 30}
)

// Depot is a running daemon instance.
type Depot struct {
	cfg  Config
	bufs *xfer.Pool

	// root is the lifecycle context every session hangs off; cancel fires
	// when Close gives up draining.
	root   context.Context
	cancel context.CancelFunc

	reg      *metrics.Registry
	sessions *sessionRegistry

	accepted      *metrics.Counter
	rejectedBusy  *metrics.Counter
	rejectedRoute *metrics.Counter
	rejectedProto *metrics.Counter
	completed     *metrics.Counter
	canceled      *metrics.Counter
	bytesFwd      *metrics.Counter
	bytesBack     *metrics.Counter
	ctrlWriteFail *metrics.Counter
	active        *metrics.Gauge
	relayHigh     *metrics.Gauge
	sessionDur    *metrics.HistogramVec
	sessionBytes  *metrics.Histogram

	nextHopDialFail *metrics.CounterVec

	staged          *metrics.Counter
	stagedAttempts  *metrics.Counter
	stagedDelivered *metrics.Counter
	stagedAborted   *metrics.Counter
	stagedBytes     *metrics.Counter
	stagedRecovered *metrics.Counter
	stageShed       *metrics.Counter
	custodyBytes    *metrics.Gauge

	// Trunk state: warm links to next hops (cfg.Mux only) and accept-side
	// link accounting.
	nextHops      *mux.Pool
	linkOpened    *metrics.CounterVec
	linkReused    *metrics.CounterVec
	linkClosed    *metrics.CounterVec
	acceptMetrics *mux.PoolMetrics

	// spares keeps ready classic next-hop sockets for the session dials
	// of a depot that dials no trunks (Mux off).
	spares *spares

	mu     sync.Mutex
	front  *mux.Front
	closed bool
	// changed is closed and replaced (under mu) by notify, waking every
	// WaitStats.
	changed chan struct{}
	wg      sync.WaitGroup
}

// New builds a depot with cfg.
func New(cfg Config) *Depot {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	root, cancel := context.WithCancel(context.Background())
	d := &Depot{
		cfg:      cfg,
		bufs:     xfer.PoolFor(relayBufferSize),
		root:     root,
		cancel:   cancel,
		reg:      reg,
		sessions: newSessionRegistry(recentSessions, cfg.OnSessionEnd),
		changed:  make(chan struct{}),
	}
	d.accepted = reg.Counter("lsd_sessions_accepted_total",
		"Sessions admitted and forwarded toward their next hop.")
	rejected := reg.CounterVec("lsd_sessions_rejected_total",
		"Sessions rejected, by reason.", "reason")
	d.rejectedBusy = rejected.With("busy")
	d.rejectedRoute = rejected.With("route")
	d.rejectedProto = rejected.With("proto")
	d.completed = reg.Counter("lsd_sessions_completed_total",
		"Relay sessions fully drained in both directions.")
	d.canceled = reg.Counter("lsd_sessions_canceled_total",
		"Sessions cancelled by shutdown after the drain timeout.")
	bytes := reg.CounterVec("lsd_relay_bytes_total",
		"Bytes relayed, by direction (forward is toward the target).", "direction")
	d.bytesFwd = bytes.With("forward")
	d.bytesBack = bytes.With("backward")
	d.ctrlWriteFail = reg.Counter("lsd_control_write_failures_total",
		"Accept/reject frames dropped because the peer stalled past the write deadline.")
	d.active = reg.Gauge("lsd_sessions_active",
		"Relay sessions in flight right now.")
	d.relayHigh = reg.Gauge("lsd_relay_buffer_high_water_bytes",
		"Largest single relay-buffer fill observed, bounded by the 256 KiB relay buffer. A direction sourced by a trunk stream borrows no relay buffer: it records the largest batch of received blocks handed to the next sublink in one write (at most 256 KiB).")
	d.sessionDur = reg.HistogramVec("lsd_session_duration_seconds",
		"Session duration from header receipt to teardown, by outcome.", "outcome", durationBuckets)
	d.sessionBytes = reg.Histogram("lsd_session_bytes",
		"Bytes (both directions) moved by one finished relay session.", byteBuckets)
	d.nextHopDialFail = reg.CounterVec("lsd_next_hop_dial_failures_total",
		"Next-hop dial failures (relay and staged), by next-hop address.", "next_hop")
	d.staged = reg.Counter("lsd_staged_sessions_total",
		"Staged sessions taken into custody.")
	d.stagedAttempts = reg.Counter("lsd_staged_delivery_attempts_total",
		"Staged delivery attempts, redelivery retries included.")
	d.stagedDelivered = reg.Counter("lsd_staged_delivered_total",
		"Staged sessions delivered downstream.")
	d.stagedAborted = reg.Counter("lsd_staged_aborted_total",
		"Staged sessions abandoned past the stage deadline.")
	d.stagedBytes = reg.Counter("lsd_staged_bytes_total",
		"Bytes taken into staged custody.")
	d.stagedRecovered = reg.Counter("lsl_staged_recovered_total",
		"Custody sessions re-admitted from the write-ahead journal after a restart.")
	d.stageShed = reg.Counter("lsl_stage_shed_total",
		"Staged sessions refused because the global custody budget was exhausted.")
	d.custodyBytes = reg.Gauge("lsl_custody_bytes",
		"Staged payload bytes currently in custody, across all sessions.")
	d.spares = newSpares(d)
	d.linkOpened = reg.CounterVec("lsl_link_opened_total",
		"Trunks established (hello exchange completed), by side.", "side")
	d.linkReused = reg.CounterVec("lsl_link_reused_total",
		"Sessions carried on an already-open trunk instead of a fresh TCP connection, by side.", "side")
	d.linkClosed = reg.CounterVec("lsl_link_closed_total",
		"Trunks torn down (idle timeout, error, shutdown), by side.", "side")
	streams := reg.Gauge("lsl_mux_streams",
		"Multiplexed session streams live right now (both sides).")
	streamHigh := reg.Gauge("lsl_mux_stream_high_water",
		"Most concurrent streams observed on any one trunk.")
	windowHigh := reg.Gauge("lsl_mux_window_high_water_bytes",
		"Largest receive window any one trunk stream has granted (both sides): the initial 256 KiB until a window autotunes toward its sublink's bandwidth-delay product.")
	links := func(side string) *mux.PoolMetrics {
		return &mux.PoolMetrics{
			LinkOpened:      d.linkOpened.With(side),
			LinkReused:      d.linkReused.With(side),
			LinkClosed:      d.linkClosed.With(side),
			Streams:         streams,
			StreamHighWater: streamHigh,
			WindowHighWater: windowHigh,
		}
	}
	d.acceptMetrics = links("accept")
	if cfg.Mux {
		d.nextHops = mux.NewPool(mux.PoolConfig{
			Dial:    mux.Dialer(cfg.Dial),
			SockBuf: cfg.SockBuf,
			Metrics: links("dial"),
			Logf:    cfg.Logf,
		})
	}
	// Surviving custody sessions resume redelivery immediately — they
	// only dial outward, so they need no listener to make progress.
	d.recoverCustody()
	return d
}

// dialNext opens a next-hop transport: a stream on a trunk when Mux is
// on (a classic connection to a hop that lately refused a trunk, see
// mux.Pool), a fresh tuned connection otherwise, or for a session a ready
// one (spare.go).
func (d *Depot) dialNext(ctx context.Context, addr string, session bool) (net.Conn, error) {
	switch {
	case d.nextHops != nil:
		return d.nextHops.DialContext(ctx, "tcp", addr)
	case session:
		return d.spares.dial(ctx, addr)
	}
	return d.spares.connect(ctx, addr)
}

// Stats snapshots the counters.
func (d *Depot) Stats() Stats {
	return Stats{
		Accepted:               d.accepted.Value(),
		RejectedBusy:           d.rejectedBusy.Value(),
		RejectedRoute:          d.rejectedRoute.Value(),
		RejectedProto:          d.rejectedProto.Value(),
		Completed:              d.completed.Value(),
		Canceled:               d.canceled.Value(),
		BytesForward:           d.bytesFwd.Value(),
		BytesBackward:          d.bytesBack.Value(),
		Active:                 d.active.Value(),
		MaxBuffered:            d.relayHigh.Value(),
		ControlWriteFailures:   d.ctrlWriteFail.Value(),
		DialFailures:           d.nextHopDialFail.Sum(),
		Staged:                 d.staged.Value(),
		StagedDeliveryAttempts: d.stagedAttempts.Value(),
		StagedDelivered:        d.stagedDelivered.Value(),
		StagedAborted:          d.stagedAborted.Value(),
		StagedBytes:            d.stagedBytes.Value(),
		StagedShed:             d.stageShed.Value(),
		StagedRecovered:        d.stagedRecovered.Value(),
		CustodyBytes:           d.custodyBytes.Value(),
		SparesTaken:            d.spares.results.With("taken").Value(),
		SparesFresh:            d.spares.results.With("fresh").Value(),
		SparesExpired:          d.spares.results.With("expired").Value(),
		SparesDead:             d.spares.results.With("dead").Value(),
		SparesFailed:           d.spares.results.With("failed").Value(),
	}
}

// WaitStats blocks until cond holds for a Stats snapshot, or returns
// ctx.Err() once ctx ends first. cond is checked at once and again each
// time a session goes live, a staged delivery attempt ends, a session
// finishes, or a spare count moves; byte counters never wake a waiter. A
// finishing session bumps its outcome counter (Completed, Canceled,
// Rejected*, StagedDelivered, StagedAborted, StagedShed) as the last
// effect before the wakeup, so a cond that sees the counter also sees
// the session's released admission slot and custody budget, its
// completed journal entry, its ring entry, and the return of
// Config.OnSessionEnd.
func (d *Depot) WaitStats(ctx context.Context, cond func(Stats) bool) error {
	for {
		d.mu.Lock()
		changed := d.changed
		d.mu.Unlock()
		if cond(d.Stats()) {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// notify wakes every WaitStats to re-check its condition.
func (d *Depot) notify() {
	d.mu.Lock()
	close(d.changed)
	d.changed = make(chan struct{})
	d.mu.Unlock()
}

// Metrics exposes the depot's metric registry (rendered by the admin
// handler's /metrics endpoint).
func (d *Depot) Metrics() *metrics.Registry { return d.reg }

// Sessions snapshots live sessions and the recently-finished ring.
func (d *Depot) Sessions() Snapshot { return d.sessions.snapshot() }

func (d *Depot) logf(format string, args ...interface{}) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// ListenAndServe binds addr and serves until Close.
func (d *Depot) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Serve runs the accept front (mux.Front), with a target's bounds, on ln
// until Close or a permanent accept error. Each session runs on its own
// goroutine under the depot-root context.
func (d *Depot) Serve(ln net.Listener) error {
	front := mux.NewFront(ln, d.accept, mux.FrontConfig{
		HandshakeTimeout: d.cfg.handshakeTimeout, SockBuf: d.cfg.SockBuf,
		Logf: d.cfg.Logf, Metrics: d.acceptMetrics, Go: d.spawn,
	})
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		return errors.New("depot: closed")
	}
	d.front = front
	d.mu.Unlock()
	err := front.Serve()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return err
}

// spawn runs f on its own goroutine on the depot's wait group.
func (d *Depot) spawn(f func()) {
	d.wg.Add(1)
	go func() { defer d.wg.Done(); f() }()
}

// Addr returns the bound address once Serve has started.
func (d *Depot) Addr() net.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.front == nil {
		return nil
	}
	return d.front.Addr()
}

// Close stops the accept front (what is still in its handshake closes at
// once, upstream trunks drain), gives in-flight sessions the drain timeout
// to finish on their own, then cancels the rest via the root context and
// waits for them to unwind, recorded as "canceled": Close returns within
// about the drain timeout plus one teardown round-trip. A second Close is
// a no-op.
func (d *Depot) Close() error {
	d.mu.Lock()
	already, front := d.closed, d.front
	d.closed = true
	d.mu.Unlock()
	if already {
		d.wg.Wait()
		return nil
	}
	var err error
	if front != nil {
		err = front.Close()
	}
	// Next-hop trunks retire as their relays complete, like the
	// accept-side ones the front drains.
	d.spares.close()
	if d.nextHops != nil {
		d.nextHops.Drain()
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	if d.cfg.DrainTimeout > 0 {
		timer := time.NewTimer(d.cfg.DrainTimeout)
		select {
		case <-done:
			timer.Stop()
		case <-timer.C:
			d.logf("depot: drain timeout %v expired, cancelling in-flight sessions", d.cfg.DrainTimeout)
			d.cancel()
		}
	}
	<-done
	d.cancel() // release the root context even on a clean drain
	if d.nextHops != nil {
		d.nextHops.Close()
	}
	return err
}

// Kill hard-stops the depot: the root context cancels at once, with no
// drain, and then the depot closes as in Close — in-flight relays and
// staged deliveries are cut mid-stream, exactly as a crash or SIGKILL
// would cut them. Custody journal entries for undelivered staged sessions
// stay on disk for the next process to recover. Chaos drills and the
// crash-recovery tests use this; a graceful stop is Close.
func (d *Depot) Kill() {
	d.cancel()
	d.Close()
}

// writeControl writes an accept/reject frame under the control write
// deadline so a stalled peer cannot pin the handler, counting drops.
func (d *Depot) writeControl(c net.Conn, f *wire.AcceptFrame) bool {
	c.SetWriteDeadline(time.Now().Add(d.cfg.writeTimeout))
	_, err := c.Write(f.Encode())
	c.SetWriteDeadline(time.Time{})
	d.controlWritten(f, err)
	return err == nil
}

// controlWritten counts and logs a control frame's failed write.
func (d *Depot) controlWritten(f *wire.AcceptFrame, err error) {
	if err != nil {
		d.ctrlWriteFail.Inc()
		d.logf("depot: session %s %s frame write failed: %v", f.Session, wire.CodeString(f.Code), err)
	}
}

// reject refuses a session the way a target does (core.Refuse): the frame
// under the control write deadline, then a lingering close.
func (d *Depot) reject(nc net.Conn, id wire.SessionID, code uint8) {
	f := &wire.AcceptFrame{Code: code, Session: id}
	d.controlWritten(f, core.Refuse(nc, f, d.cfg.writeTimeout))
}

// sessionState names a session's position in its lifecycle. A relay
// runs handshaking → dialing → relaying; a staged session runs
// handshaking → uploading (its first delivery attempt already under way)
// → delivering from the custody commit on. Every session, including one
// recovered from the custody journal (which starts at delivering), leaves
// through session.finish into done.
type sessionState uint8

const (
	stateHandshaking sessionState = iota
	stateDialing
	stateRelaying
	stateUploading
	stateDelivering
	stateDone
)

// session is one session moving through the depot's state machine. It
// owns its transports and the resources it was admitted with (an
// admission slot for a relay, custody budget for a staged session) and
// funnels every exit — rejection, completion, delivery, abandonment,
// cancellation — through the single finish path, so resources, the ring
// entry, the histograms and the counters can never diverge.
type session struct {
	d     *Depot
	up    net.Conn
	down  net.Conn
	hdr   *wire.OpenHeader
	next  string // the hop after this depot, once the header is read
	peer  string
	start time.Time
	state sessionState

	admitted bool  // holds an admission slot
	custody  int64 // custody budget bytes held
	ls       *liveSession
}

// accept is the depot's part of the accept front (mux.Handler), for
// connections and trunk streams alike: "LSLG" is gossip when OnGossip is
// set, anything else a session, whose decoder refuses every magic but
// "LSL1". A refusal, or a stream that ends inside its magic, counts as a
// proto rejection and closes at once. A session's clock starts at its
// first byte; its handshake slot goes back once its header is in.
func (d *Depot) accept(nc net.Conn, head []byte, err error) func() {
	s := &session{d: d, up: nc, peer: remoteAddr(nc), start: time.Now(), state: stateHandshaking}
	switch {
	case err != nil:
		d.logf("depot: no magic from %v: %v", s.peer, err)
		s.finish(d.rejectedProto, OutcomeRejectedProto, 0)
	case d.cfg.OnGossip != nil && wire.IsGossipMagic(head):
		return func() { d.spawn(func() { d.cfg.OnGossip(mux.Unread(nc, head)) }) }
	case s.handshake(head):
		return func() { d.spawn(func() { s.run(d.root) }) }
	}
	return nil
}

// Dialer returns the depot's next-hop dialer: a stream on a warm mux
// trunk where one exists, a fresh transport connection otherwise. The
// gossip layer uses it so forecast exchanges ride the same trunks as
// sessions instead of paying their own handshakes.
func (d *Depot) Dialer() func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) { return d.dialNext(ctx, addr, false) }
}

func (s *session) run(ctx context.Context) {
	if s.hdr.Flags&wire.FlagStaged != 0 {
		s.stage(ctx)
		return
	}
	if !s.admit() || !s.dial(ctx) {
		return
	}
	s.relay(ctx)
}

// handshake finishes reading the open header the front read head of
// (under the front's handshake deadline) and validates it.
func (s *session) handshake(head []byte) bool {
	d := s.d
	hdr, err := wire.FinishOpenHeader(head, s.up)
	if err != nil {
		d.logf("depot: bad header from %v: %v", s.peer, err)
		s.finish(d.rejectedProto, OutcomeRejectedProto, 0)
		return false
	}
	s.hdr = hdr
	s.next, _ = hdr.NextHop()
	if hdr.Final() {
		// We are the last hop in the route but run as a depot, not a
		// target: the initiator misrouted.
		s.finish(d.rejectedRoute, OutcomeRejectedRoute, wire.CodeRejectRoute)
		return false
	}
	return true
}

// admit reserves the admission slot atomically (increment, then check) so
// N concurrent opens against MaxSessions=k admit exactly k — a plain
// load-then-compare could over-admit under load.
func (s *session) admit() bool {
	d := s.d
	if d.active.Add(1) > int64(d.cfg.MaxSessions) {
		d.active.Dec()
		d.logf("depot: session %s rejected: busy", s.hdr.Session)
		s.finish(d.rejectedBusy, OutcomeRejectedBusy, wire.CodeRejectBusy)
		return false
	}
	s.admitted = true
	return true
}

// dial connects the next hop and forwards the header with the hop index
// advanced; on success the session goes live in the registry.
func (s *session) dial(ctx context.Context) bool {
	d := s.d
	s.state = stateDialing
	next := s.next
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DialTimeout)
	down, err := d.dialNext(dctx, next, true)
	cancel()
	if err != nil {
		d.nextHopDialFail.With(next).Inc()
		d.logf("depot: session %s next hop %s unreachable: %v", s.hdr.Session, next, err)
		s.finish(d.rejectedRoute, OutcomeDialFailed, wire.CodeRejectRoute)
		return false
	}
	s.down = down
	s.hdr.HopIndex++
	enc, err := s.hdr.Encode()
	if err != nil {
		s.finish(d.rejectedProto, OutcomeRejectedProto, wire.CodeRejectProto)
		return false
	}
	// Forward the header under the control write deadline: a next hop
	// that accepted the connection but stalled its receive window would
	// otherwise wedge this handler past DialTimeout.
	down.SetWriteDeadline(time.Now().Add(d.cfg.writeTimeout))
	_, err = down.Write(enc)
	down.SetWriteDeadline(time.Time{})
	if err != nil {
		d.logf("depot: session %s header forward to %s failed: %v", s.hdr.Session, next, err)
		s.finish(d.rejectedRoute, OutcomeRejectedRoute, wire.CodeRejectRoute)
		return false
	}
	d.accepted.Inc()
	s.ls = d.sessions.add(s.info())
	d.notify()
	if d.cfg.Logf != nil { // boxing the arguments allocates, logger or not
		d.logf("depot: session %s %v -> %s (hop %d/%d)", s.hdr.Session, s.up.RemoteAddr(), next, s.hdr.HopIndex, len(s.hdr.Route))
	}
	return true
}

// relay pumps both directions through the pooled data plane until both
// sides drain or the root context cancels the session, which closes the
// transports so pumps blocked in Read unwind.
func (s *session) relay(ctx context.Context) {
	d := s.d
	s.state = stateRelaying
	stop := context.AfterFunc(ctx, func() {
		s.up.Close()
		s.down.Close()
	})
	fwd := make(chan struct{})
	go func() {
		s.pump(s.down, s.up, &s.ls.bytesFwd, d.bytesFwd) // forward: payload toward the target
		halfClose(s.down)
		close(fwd)
	}()
	s.pump(s.up, s.down, &s.ls.bytesBck, d.bytesBack) // backward: accept frame and replies
	halfClose(s.up)
	<-fwd
	canceled := !stop()
	d.sessionBytes.Observe(float64(s.ls.bytesFwd.Load() + s.ls.bytesBck.Load()))
	if canceled {
		s.finish(d.canceled, OutcomeCanceled, 0)
		d.logf("depot: session %s canceled by shutdown", s.hdr.Session)
		return
	}
	s.finish(d.completed, OutcomeCompleted, 0)
	if d.cfg.Logf != nil {
		d.logf("depot: session %s done in %v", s.hdr.Session, time.Since(s.start).Round(time.Millisecond))
	}
}

// pump moves one direction through the shared data plane, crediting the
// session's live byte counter and the depot total as chunks land so
// /sessions shows in-flight progress, and tracking the buffer high-water
// mark.
func (s *session) pump(dst io.Writer, src io.Reader, live *atomic.Uint64, total *metrics.Counter) int64 {
	n, _ := xfer.CopyCounted(dst, src, s.d.bufs, xfer.CopyConfig{
		Counters:  []xfer.Adder{xfer.AtomicAdder{U: live}, total},
		HighWater: s.d.relayHigh,
	})
	return n
}

// finish is the single exit of every session, in every state. In order,
// it closes the downstream transport; completes the custody journal entry
// of a delivered or abandoned staged session (a canceled one keeps its
// entry: that is what the next process recovers); releases the custody
// budget and the admission slot; records the per-outcome duration
// histogram and the ring entry; runs OnSessionEnd; bumps counter (nil for
// none); and wakes WaitStats. Because the counter is the last write
// before the wakeup, a waiter that sees it sees every other effect of the
// session. The upstream transport goes last — through the lingering
// reject frame when code != 0 — so whatever the peer sees of the end
// follows every record of it, and a linger neither holds resources nor
// stretches the recorded duration.
func (s *session) finish(counter *metrics.Counter, outcome string, code uint8) {
	if s.state == stateDone {
		return
	}
	delivering := s.state == stateDelivering
	s.state = stateDone
	d := s.d
	if s.down != nil {
		s.down.Close()
	}
	if delivering && outcome != OutcomeCanceled {
		d.completeCustody(s.hdr.Session, outcome == OutcomeStagedDeliver)
	}
	d.custodyBytes.Add(-s.custody)
	if s.admitted {
		d.active.Dec()
	}
	dur := time.Since(s.start)
	d.sessionDur.With(outcome).Observe(dur.Seconds())
	if s.ls != nil {
		d.sessions.finish(s.ls, outcome, dur) // ring entry, then OnSessionEnd
	} else {
		info := s.info()
		info.Outcome = outcome
		info.DurationSeconds = dur.Seconds()
		d.sessions.record(info)
	}
	if counter != nil {
		counter.Inc()
	}
	d.notify()
	if code != 0 {
		d.reject(s.up, s.hdr.Session, code)
	} else if s.up != nil {
		s.up.Close()
	}
}

// info is the registry record of the session as far as it has got. A
// session that dies before going live (typically a failed next-hop dial)
// still names the hop it was bound for: the logistics hook poisons that
// edge's loss forecast, and without the address a dead next hop would
// never be fed back into planning.
func (s *session) info() SessionInfo {
	info := SessionInfo{Kind: KindRelay, Peer: s.peer, Started: s.start}
	if s.hdr == nil {
		return info
	}
	if s.hdr.Flags&wire.FlagStaged != 0 {
		info.Kind = KindStaged
	}
	info.ID = s.hdr.Session.String()
	info.NextHop = s.next
	info.Hop = int(s.hdr.HopIndex)
	info.RouteLen = len(s.hdr.Route)
	return info
}

// remoteAddr names a peer for session records (nil-safe).
func remoteAddr(c net.Conn) string {
	if c == nil || c.RemoteAddr() == nil {
		return ""
	}
	return c.RemoteAddr().String()
}

// halfClose propagates EOF without tearing down the reverse direction.
func halfClose(c net.Conn) {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.(closeWriter); ok {
		cw.CloseWrite()
	}
	// Without half-close support the caller's full Close (after both
	// directions finish) ends the connection.
}
