// Package resilience is the self-healing transfer engine: it drives a
// complete payload to a session target across a loose source route and
// keeps the session alive through the failures the paper's session layer
// exists to survive — a conversation "survives the replacement" of its
// transport connections.
//
// One heal loop (path, in path.go) decides what happens when an attempt
// on a route fails. Transfer drives one path; StripedTransfer drives one
// per stripe, for initial attach and every heal alike:
//
//   - Errors are classified permanent (the session was actively refused,
//     or integrity is provably broken) or transient (dial failure, reset,
//     stall timeout, truncation). Only transient errors are retried, up
//     to Policy.MaxAttempts per path.
//   - Backoff between attempts is capped exponential with seeded jitter
//     (internal/backoff), interruptible by the context.
//   - With a planner attached the failure is attributed (a dial error
//     names the dead hop, an in-session break poisons the whole route),
//     fed into the forecasts, and the path moves onto the best predicted
//     candidate no sibling path holds.
//   - Without one, repeated dial failures at the first hop are treated
//     as a dead depot: the path drops it from Route.Via (the paper's
//     loose source routes are advisory — the cascade degrades rather
//     than dies, eventually falling back to a direct connection).
//
// A Transfer's first attempt has nothing to resume, so it opens a fresh
// session pipelined: header, payload and trailer leave back to back, and
// the end-to-end accept is checked when the confirm drain reads it — no
// cascade round trip is spent waiting before the first payload byte.
// Every later attempt re-dials with the same session ID and the resume
// flag, waits for the accept, and continues from the offset the target
// reports (these resume retries are the engine's only synchronous opens:
// every stripe session opens pipelined too, see striped.go); with digesting on, the skipped prefix is re-hashed so the
// end-to-end MD5 still covers the complete stream. The engine resumes
// only what it started itself: a second Transfer call that reuses a
// pinned session ID starts over from byte 0, replacing whatever state
// the target held under that ID.
//
// Recovery is observable: every retry, failover, and terminal outcome is
// counted in the lsl_transfer_* and lsl_stripe_* metrics of the Metrics
// the caller supplies (WithMetrics); a transfer given none records none.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/core"
	"lsl/internal/metrics"
	"lsl/internal/wire"
)

// ErrExhausted wraps the last transient error once the attempt budget is
// spent.
var ErrExhausted = errors.New("resilience: retry attempts exhausted")

// errOffsetBeyondLength reports a target whose resume offset exceeds the
// declared content length — unrecoverable protocol disagreement.
var errOffsetBeyondLength = errors.New("resilience: target resume offset beyond content length")

// confirmTimeout bounds the post-payload drain that confirms the cascade
// unwound.
const confirmTimeout = 30 * time.Second

// Policy tunes the retry loop. The zero value means the defaults.
type Policy struct {
	// MaxAttempts is the session attempt budget of each path (the
	// transfer, or each stripe of a group), first try included
	// (default 8).
	MaxAttempts int

	// Test seams (export_test.go); zero means the default.
	backoff       backoff.Policy // default backoffBase doubling to backoffMax
	failoverAfter int            // default defaultFailoverAfter; negative disables failover
	jitterSeed    int64          // default derived from the session ID
}

// The retry loop's defaults. They are not knobs: only tests change them.
const (
	// Attempts back off from backoffBase doubling to backoffMax, with
	// jitter seeded from the session ID, so a pinned session retries on a
	// reproducible schedule.
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
	// defaultFailoverAfter consecutive first-hop dial failures mark the
	// head depot dead and drop it from the route.
	defaultFailoverAfter = 2
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.backoff.Base <= 0 {
		p.backoff.Base = backoffBase
	}
	if p.backoff.Max <= 0 {
		p.backoff.Max = backoffMax
	}
	if p.failoverAfter == 0 {
		p.failoverAfter = defaultFailoverAfter
	}
	return p
}

// Result reports how a transfer was achieved.
type Result struct {
	// Session is the session ID shared by every sublink of the transfer.
	Session wire.SessionID
	// Attempts is the number of sessions dialed (1 = no faults).
	Attempts int
	// Retries is Attempts minus the first try.
	Retries int
	// Failovers counts moves off a failing route: replans onto another
	// predicted route, or depots dropped from the route as dead.
	Failovers int
	// Route is the route that carried the final, successful sublink.
	Route core.Route
	// Bytes is the payload size delivered end to end.
	Bytes int64
	// Duration is wall-clock time across all attempts.
	Duration time.Duration
}

// Metrics is the engine's metric set — single transfers and striped
// groups alike — registered on a metrics.Registry so recovery is
// observable through the same Prometheus text surface as the depot.
type Metrics struct {
	// Retries is lsl_transfer_retries_total.
	Retries *metrics.Counter
	// Failovers is lsl_transfer_failovers_total.
	Failovers *metrics.Counter
	// Transfers is lsl_transfers_total by terminal outcome
	// (delivered / rejected / exhausted / canceled).
	Transfers *metrics.CounterVec
	// Groups is lsl_stripe_groups_total.
	Groups *metrics.Counter
	// Rebalances is lsl_stripe_rebalances_total.
	Rebalances *metrics.Counter
	// StripeHeals is lsl_stripe_stripe_heals_total.
	StripeHeals *metrics.Counter
	// FramesReassigned is lsl_stripe_frames_reassigned_total.
	FramesReassigned *metrics.Counter
	// Tail is lsl_stripe_tail_ns: time each group spent between the frame
	// source running dry and the last stripe draining.
	Tail *metrics.Histogram
	// QueuedBytes is lsl_stripe_queued_bytes: each stripe index's
	// currently committed (queued + in-flight + unacknowledged) bytes,
	// sampled while a group is running and summed over running groups.
	QueuedBytes *metrics.GaugeVec
}

// NewMetrics registers the lsl_transfer_* and lsl_stripe_* families on
// reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Retries: reg.Counter("lsl_transfer_retries_total",
			"Session re-dials after a transient failure (transfers and stripes)."),
		Failovers: reg.Counter("lsl_transfer_failovers_total",
			"Paths moved off a failing route: replanned, or a dead first-hop depot dropped."),
		Transfers: reg.CounterVec("lsl_transfers_total",
			"Finished transfers and striped groups, by terminal outcome.", "outcome"),
		Groups: reg.Counter("lsl_stripe_groups_total",
			"Striped transfer groups started."),
		Rebalances: reg.Counter("lsl_stripe_rebalances_total",
			"Mid-flow stripe weight recomputations from observed throughput."),
		StripeHeals: reg.Counter("lsl_stripe_stripe_heals_total",
			"Individual stripes re-attached after a mid-flow failure."),
		FramesReassigned: reg.Counter("lsl_stripe_frames_reassigned_total",
			"Frames requeued off dead, abandoned or superseded stripes."),
		Tail: reg.Histogram("lsl_stripe_tail_ns",
			"End-of-stream tail per group: frame source dry to group drained (ns).",
			[]float64{1e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 1e9, 5e9}),
		QueuedBytes: reg.GaugeVec("lsl_stripe_queued_bytes",
			"Committed (queued + in-flight + unacked) bytes per stripe index.",
			"stripe"),
	}
}

// Transfer outcome labels on lsl_transfers_total.
const (
	OutcomeDelivered = "delivered"
	OutcomeRejected  = "rejected"
	OutcomeExhausted = "exhausted"
	OutcomeCanceled  = "canceled"
)

// Planner ranks candidate session routes by predicted completion time
// and learns from every attempt. Implemented by internal/logistics; the
// interface lives here so the engine depends only on the decision
// surface, not on the forecasting machinery behind it.
type Planner interface {
	// PlanRoutes returns candidate routes to the target address, best
	// predicted first. An error (or empty slice) makes the engine fall
	// back to the caller-provided route.
	PlanRoutes(target string, size int64) ([]core.Route, error)
	// ObserveSuccess feeds back a delivered attempt: payload bytes
	// streamed, attempt wall-time, and first-hop dial time (seconds).
	ObserveSuccess(route core.Route, bytes int64, seconds, dialSeconds float64)
	// ObserveFailure reports a failed attempt; hop is the dialable
	// address that failed, or "" when the failure cannot be attributed
	// to one hop.
	ObserveFailure(route core.Route, hop string)
	// RecordReplan counts a failover onto the next-best predicted route.
	RecordReplan()
}

// config collects per-transfer options.
type config struct {
	policy  Policy
	dial    core.Dialer
	digest  bool
	session wire.SessionID
	met     *Metrics
	logf    func(format string, args ...interface{})
	planner Planner
	// striped-transfer knobs (see striped.go)
	stripes        int
	frameSize      int
	rebalanceBytes int64
}

// Option tunes one Transfer or StripedTransfer call.
type Option func(*config)

// WithPolicy sets the retry/failover policy.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithDialer injects the transport dialer (tests, fault injection,
// emulation).
func WithDialer(d core.Dialer) Option { return func(c *config) { c.dial = d } }

// WithoutDigest disables the end-to-end MD5 trailer (on by default —
// Transfer always knows the content length).
func WithoutDigest() Option { return func(c *config) { c.digest = false } }

// WithSession pins the session ID (otherwise one is drawn per transfer).
func WithSession(id wire.SessionID) Option { return func(c *config) { c.session = id } }

// WithMetrics directs the engine's counters at m (see NewMetrics);
// without it nothing is recorded.
func WithMetrics(m *Metrics) Option { return func(c *config) { c.met = m } }

// WithLogf receives one line per recovery event.
func WithLogf(f func(format string, args ...interface{})) Option {
	return func(c *config) { c.logf = f }
}

// WithPlanner drives route selection by pl: the transfer starts on the
// predicted-fastest candidate route to the target (the caller-provided
// Via list becomes a fallback), fails over to the next-best predicted
// route after a transient failure, and feeds every attempt's
// measurements back into the planner's forecasts.
func WithPlanner(pl Planner) Option { return func(c *config) { c.planner = pl } }

// begin applies opts over the defaults and builds the heal state the
// transfer's paths share; the session ID is drawn here unless pinned.
func begin(kind string, opts []Option, target string, size int64) *pathSet {
	cfg := &config{digest: true}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.met == nil {
		cfg.met = &Metrics{} // nil metrics are no-op sinks
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...interface{}) {}
	}
	if cfg.session == (wire.SessionID{}) {
		cfg.session = wire.NewSessionID()
	}
	pol := cfg.policy.withDefaults()
	if pol.jitterSeed == 0 {
		pol.jitterSeed = cfg.session.Seed()
	}
	return &pathSet{config: cfg, pol: pol, kind: kind, target: target, size: size}
}

// Permanent reports whether err can never be fixed by retrying: the
// session was actively refused by a depot or the target (ErrRejected),
// integrity is provably broken (ErrDigestMismatch), the request itself is
// malformed, or the caller's context ended. Everything else — dial
// failures, resets, stalls, timeouts, truncation — is transient.
func Permanent(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, core.ErrRejected),
		errors.Is(err, core.ErrDigestMismatch),
		errors.Is(err, core.ErrNeedLength),
		errors.Is(err, errOffsetBeyondLength),
		errors.Is(err, wire.ErrBadRoute),
		errors.Is(err, context.Canceled):
		return true
	}
	return false
}

// Transfer delivers size bytes from src to route's target, healing
// transient failures automatically: re-dial with resume, capped
// exponential backoff with jitter, and a replan or failover around a
// dead first-hop depot. A negative size is measured by seeking src to its
// end. src must remain readable across attempts (SendReader seeks it to
// the resume offset on every retry). Each call delivers src from byte 0:
// pinning a session ID (WithSession) names the transfer, it does not
// continue an earlier call's.
//
// On success the returned Result describes the recovery work performed;
// on failure it still reports the attempts made, and the error is either
// permanent (classified by Permanent) or wraps ErrExhausted.
func Transfer(ctx context.Context, route core.Route, src io.ReadSeeker, size int64, opts ...Option) (*Result, error) {
	if err := route.Validate(); err != nil {
		return nil, err
	}
	if size < 0 {
		end, err := src.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, fmt.Errorf("resilience: measuring source: %w", err)
		}
		size = end
	}
	ps := begin("session", opts, route.Target, size)
	if ps.planner != nil {
		// Let the planner pick the opening route. Planning failures are
		// soft: the caller's route still works without forecasts.
		if routes, perr := ps.planner.PlanRoutes(route.Target, size); perr == nil && len(routes) > 0 {
			route = routes[0]
			ps.logf("resilience: %s planner chose route %v (%d candidates)", ps, route.Hops(), len(routes))
		} else if perr != nil {
			ps.logf("resilience: %s planner unavailable (%v); using provided route", ps, perr)
		}
	}
	p := ps.addPath(route)
	start := time.Now()
	first := true
	err := p.run(ctx, func(r core.Route) error {
		st, err := attemptOnce(ctx, ps.config, r, src, size, first)
		first = false
		if err == nil && ps.planner != nil {
			ps.planner.ObserveSuccess(r, st.bytes, st.seconds, st.dialSeconds)
		}
		return err
	})
	ps.met.Transfers.With(outcomeOf(ctx, err)).Inc()
	res := &Result{
		Session:   ps.session,
		Attempts:  p.attempts,
		Retries:   p.attempts - 1,
		Failovers: ps.failovers,
		Route:     p.route,
		Bytes:     size,
		Duration:  time.Since(start),
	}
	if err != nil {
		return res, fmt.Errorf("resilience: %s: %w", ps, err)
	}
	return res, nil
}

// attemptStats are the measurements one attempt feeds back to a planner.
type attemptStats struct {
	bytes       int64   // payload bytes this attempt was responsible for
	seconds     float64 // attempt wall time
	dialSeconds float64 // first-hop transport dial time
}

// attemptOnce runs one complete session attempt and drains the backward
// channel until the cascade unwinds (EOF), which is the signal that the
// target-side sublink fully consumed the stream. The transfer's first
// attempt opens a fresh session and pipelines the payload behind the
// header; a retry dials with resume, waits for the accept, and seeks to
// the target's confirmed offset — the target registered the session on
// the first attempt, so there is something to resume. Either way the
// session open is bounded while the payload streams (core.SendReader reads
// a pipelined accept alongside the copy), and the attempt ends when ctx
// does: its sublink is closed under whatever it is blocked on.
func attemptOnce(ctx context.Context, cfg *config, route core.Route, src io.ReadSeeker, size int64, first bool) (st attemptStats, err error) {
	opts := []core.Option{
		core.WithContentLength(size),
		core.WithSession(cfg.session),
	}
	if first {
		opts = append(opts, core.WithEager())
	} else {
		opts = append(opts, core.WithResume())
	}
	if cfg.digest {
		opts = append(opts, core.WithDigest())
	}
	if cfg.dial != nil {
		opts = append(opts, core.WithDialer(cfg.dial))
	}
	start := time.Now()
	defer func() {
		st.seconds = time.Since(start).Seconds()
		if err != nil && ctx.Err() != nil {
			// Whatever the torn-down sublink reported, this is why.
			err = fmt.Errorf("%w: %w", ctx.Err(), err)
		}
	}()
	c, err := core.Dial(ctx, route, opts...)
	if err != nil {
		return st, err
	}
	defer c.Close()
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	st.dialSeconds = c.DialDuration().Seconds()
	if c.Offset() > size {
		return st, fmt.Errorf("%w: %d > %d", errOffsetBeyondLength, c.Offset(), size)
	}
	st.bytes = size - c.Offset()
	// SendReader positions src itself when resuming (offset > 0); at
	// offset 0 it streams from the current position, which after a failed
	// attempt is wherever the dead sublink stopped — rewind explicitly.
	if c.Offset() == 0 {
		if _, err := src.Seek(0, io.SeekStart); err != nil {
			return st, fmt.Errorf("rewind source: %w", err)
		}
	}
	if err := c.SendReader(src); err != nil {
		return st, fmt.Errorf("send: %w", err)
	}
	// Confirm: wait for the cascade to unwind. A depot dying after the
	// last payload byte but before the target drained it surfaces here as
	// an error, so the attempt is retried instead of falsely reported
	// delivered. A pipelined attempt also meets its accept here: the first
	// Read checks it, so a refused session ends the drain with ErrRejected.
	c.SetDeadline(time.Now().Add(confirmTimeout))
	if _, err := io.Copy(io.Discard, c); err != nil {
		return st, fmt.Errorf("confirm drain: %w", err)
	}
	return st, nil
}
