// Package lsl is the public API of the Logistical Session Layer
// reproduction: a session layer that carries one conversation over
// multiple cascaded TCP connections through intermediate depots, after
// Swany & Wolski, "Improving Throughput with Cascaded TCP Connections:
// the Logistical Session Layer".
//
// The package re-exports three coherent surfaces:
//
//   - The session layer itself (this file): Dial, Listen, Route, the depot
//     daemon — real cascaded TCP over the net package.
//   - Path planning (route.go): depot graphs, NWS-style forecasting, and
//     the transfer-time objective that decides when a cascade helps.
//   - The evaluation substrate (sim.go): the deterministic network + TCP
//     simulator and the runners that regenerate every figure of the
//     paper's evaluation.
//
// Quickstart:
//
//	ln, _ := lsl.Listen(":7000")                        // target
//	d := lsl.NewDepot(lsl.DepotConfig{})                // depot
//	go d.ListenAndServe(":5000")
//	c, _ := lsl.Dial(ctx, lsl.Route{                    // initiator
//	        Via:    []string{"depot:5000"},
//	        Target: "server:7000",
//	}, lsl.WithDigest(), lsl.WithContentLength(size))
//	io.Copy(c, data)
//	c.CloseWrite()
package lsl

import (
	"context"
	"io"
	"net"
	"net/http"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/depot"
	"lsl/internal/metrics"
	"lsl/internal/mux"
	"lsl/internal/resilience"
	"lsl/internal/wire"
)

// Route is a loose source route: depots to traverse, then the target.
type Route = core.Route

// Conn is the initiator's end of a session (see core.Conn).
type Conn = core.Conn

// ServerConn is the target's end of a session sublink.
type ServerConn = core.ServerConn

// Listener accepts sessions at a target.
type Listener = core.Listener

// SessionID is the 128-bit session identifier.
type SessionID = wire.SessionID

// Option tunes Dial.
type Option = core.Option

// Dialer lets tests and emulators replace the transport dialer.
type Dialer = core.Dialer

// Depot is the lsd forwarding daemon.
type Depot = depot.Depot

// DepotConfig tunes a depot.
type DepotConfig = depot.Config

// DepotStats is a depot counter snapshot.
type DepotStats = depot.Stats

// DepotSessions is the full observable session state of a depot: live
// sessions plus a ring of recently finished ones (see Depot.Sessions).
type DepotSessions = depot.Snapshot

// MetricsRegistry is the depot's counter/gauge/histogram registry; it
// renders Prometheus text exposition format (see Depot.Metrics).
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry builds an empty registry (e.g. to host transfer
// metrics via NewTransferMetrics next to your own instrumentation).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// --- durable custody (internal/custody) ---

// CustodyJournal is a depot's write-ahead custody journal: staged
// payloads spill to per-session files under a state directory and an
// append-only record log makes the depot's custody promise survive a
// crash. Open one with OpenCustody, pass it as DepotConfig.Custody, and
// close it after the depot (the depot never closes a journal it was
// lent).
type CustodyJournal = custody.Journal

// CustodyConfig tunes a journal: fsync policy, compaction cadence,
// logging.
type CustodyConfig = custody.Config

// FsyncPolicy selects when the journal calls fsync.
type FsyncPolicy = custody.FsyncPolicy

// FsyncNever leaves flushing to the OS — faster, but a host crash may
// lose acknowledged custody (a depot process crash alone does not). The
// zero FsyncPolicy, the durable default, syncs payload and journal
// before the depot acknowledges custody.
const FsyncNever = custody.FsyncNever

// ParseFsync maps the operator spellings ("always", "never"/"none",
// "" = always) to a policy.
func ParseFsync(s string) (FsyncPolicy, error) { return custody.ParseFsync(s) }

// OpenCustody opens (or creates) the custody journal under dir,
// recovering surviving sessions and discarding torn tail records and
// orphaned payload files from a previous crash.
func OpenCustody(dir string, cfg CustodyConfig) (*CustodyJournal, error) {
	return custody.Open(dir, cfg)
}

// Dial opens a session along route (see core.Dial for the protocol).
func Dial(ctx context.Context, route Route, opts ...Option) (*Conn, error) {
	return core.Dial(ctx, route, opts...)
}

// Listen starts a session target on addr.
func Listen(addr string) (*Listener, error) { return core.Listen(addr) }

// NewListener wraps an existing net.Listener as a session target.
func NewListener(ln net.Listener) *Listener { return core.NewListener(ln) }

// NewDepot builds an lsd daemon instance. Its Close drains in-flight
// sessions for DepotConfig.DrainTimeout and then cancels the remainder,
// so shutdown is bounded even with relays mid-stream and staged
// deliveries mid-retry.
func NewDepot(cfg DepotConfig) *Depot { return depot.New(cfg) }

// DepotAdminHandler serves a depot's admin surface: /metrics (Prometheus
// text format), /healthz, /sessions (JSON of live + recent sessions),
// /plan (the logistics planner's forecast snapshot, when configured),
// and /debug/pprof.
func DepotAdminHandler(d *Depot) http.Handler { return depot.AdminHandler(d) }

// Dial options, re-exported.
var (
	// WithDigest enables the end-to-end MD5 trailer.
	WithDigest = core.WithDigest
	// WithContentLength declares the payload size (required for digest).
	WithContentLength = core.WithContentLength
	// WithEager pipelines the open: payload streams behind the header
	// without waiting for the end-to-end accept, which the first Read (or
	// AwaitCustody) consumes and checks. At most one window
	// (wire.FirstWindow, 1 MiB) of payload leaves before that verdict; a
	// write past it waits for the accept.
	WithEager = core.WithEager
	// WithSession pins the session ID, which names the session at every
	// depot (DepotSessions) and at the target (ServerConn.SessionID).
	WithSession = core.WithSession
	// WithStaged requests depot custody with asynchronous delivery: the
	// receiver need not be reachable while the initiator uploads.
	WithStaged = core.WithStaged
	// WithDialer injects a transport dialer.
	WithDialer = core.WithDialer
)

// --- persistent trunks (internal/mux) ---

// LinkPool keeps warm multiplexed trunks per destination. Its DialContext
// is a drop-in Dialer: sessions to a depot or target share pooled TCP
// links (no per-session connect). Use one pool per process and pass its
// DialContext to Dial with WithDialer.
type LinkPool = mux.Pool

// LinkPoolConfig tunes a LinkPool: the dialer, socket buffers, metrics
// and logging. A trunk carries up to 64 sessions and closes after 60 s
// idle. Every depot and target serves trunks; a peer that predates them
// refuses the hello within one round trip, the sessions sent behind it
// fail with a transient error (Transfer retries them), and the pool
// dials that peer classically for 60 s. None of this has knobs.
type LinkPoolConfig = mux.PoolConfig

// NewLinkPool builds a trunk pool (see LinkPool).
func NewLinkPool(cfg LinkPoolConfig) *LinkPool { return mux.NewPool(cfg) }

// --- self-healing transfers (internal/resilience) ---

// TransferResult reports how a resilient transfer was achieved: attempts,
// retries, failovers, and the route that carried the final sublink.
type TransferResult = resilience.Result

// TransferPolicy sets a transfer's attempt budget per path, MaxAttempts
// (zero value = 8). The rest of the retry loop is fixed: backoff from
// 100ms doubling to 5s with jitter seeded from the session ID, and,
// without a planner, failover past a first-hop depot after 2 dial
// failures in a row.
type TransferPolicy = resilience.Policy

// TransferOption tunes one Transfer call.
type TransferOption = resilience.Option

// TransferMetrics is the engine's metric set, shared by Transfer and
// StripedTransfer (lsl_transfer_*, lsl_stripe_*); register one on your
// own MetricsRegistry with NewTransferMetrics and pass it with
// WithTransferMetrics. A transfer given none records none.
type TransferMetrics = resilience.Metrics

// ErrTransferExhausted wraps the last transient error once a transfer's
// attempt budget is spent.
var ErrTransferExhausted = resilience.ErrExhausted

// Transfer delivers size bytes from src to route's target, healing
// transient failures automatically: re-dial with resume, capped
// exponential backoff with jitter, and a replan or failover around a
// dead first-hop depot. The first attempt pipelines the payload behind
// the session header; only retries wait for the resume handshake. A
// negative size is measured by seeking src to its end. See
// internal/resilience for the full failure model.
func Transfer(ctx context.Context, route Route, src io.ReadSeeker, size int64, opts ...TransferOption) (*TransferResult, error) {
	return resilience.Transfer(ctx, route, src, size, opts...)
}

// TransferPermanent reports whether err can never be fixed by retrying
// (rejection, digest mismatch, malformed request, canceled context).
func TransferPermanent(err error) bool { return resilience.Permanent(err) }

// NewTransferMetrics registers the lsl_transfer_* and lsl_stripe_*
// families on reg (render it with WritePrometheus, like a depot's
// /metrics).
func NewTransferMetrics(reg *MetricsRegistry) *TransferMetrics { return resilience.NewMetrics(reg) }

// Transfer options, re-exported; they tune Transfer and StripedTransfer
// alike.
var (
	// WithTransferPolicy sets the retry/failover policy.
	WithTransferPolicy = resilience.WithPolicy
	// WithTransferDialer injects the transport dialer (tests, fault
	// injection, emulation).
	WithTransferDialer = resilience.WithDialer
	// WithoutTransferDigest disables the end-to-end MD5 trailer.
	WithoutTransferDigest = resilience.WithoutDigest
	// WithTransferSession pins the session ID. It names the transfer; it
	// does not continue an earlier call's — every call delivers from
	// byte 0.
	WithTransferSession = resilience.WithSession
	// WithTransferMetrics directs the engine's counters at a metric set.
	WithTransferMetrics = resilience.WithMetrics
	// WithTransferLogf receives one line per recovery event.
	WithTransferLogf = resilience.WithLogf
	// WithPlanner drives route selection by a live logistics Planner: the
	// transfer starts on the predicted-fastest route, fails over to the
	// next-best predicted route on transient failure, and feeds every
	// attempt's measurements back into the planner's forecasts (see
	// PlannerFromOverlay in route.go).
	WithPlanner = resilience.WithPlanner
)
