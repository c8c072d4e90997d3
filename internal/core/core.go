// Package core implements the Logistical Session Layer endpoints over real
// TCP: Dial opens a session across a loose source route of depots, Forward
// opens one with a prebuilt header on a sublink the caller already dialed
// (a depot delivering custody), Listen accepts sessions at the target.
// The interface deliberately mirrors the socket idiom the paper describes
// ("a similar programming interface to that provided by the Unix socket
// abstraction"): a session behaves like a net.Conn, but the conversation
// may be carried by multiple cascaded transport connections and survives
// their replacement (resume).
//
// Protocol flow (synchronous mode):
//
//	initiator            depot(s)                target
//	   |--- TCP connect --->|                        |
//	   |--- OpenHeader ---->|--- TCP connect ------->|
//	   |                    |--- OpenHeader(hop+1)-->|
//	   |<-- AcceptFrame ----|<-- AcceptFrame --------|
//	   |=== payload ======> |=== payload ==========> |
//	   |--- MD5 trailer --->|----------------------->| verify
//
// Protocol flow (pipelined mode, WithEager): the payload follows the
// header without waiting a cascade round trip; every hop relays the bytes
// that arrive behind a header, and the accept is read lazily, when the
// initiator first needs something from the backward channel (SendReader
// reads it alongside the copy, so the open stays bounded by the handshake
// timeout even against a hop that never answers). At most
// wire.FirstWindow payload bytes go ahead of the accept; the trailer and
// the half-close never wait for it:
//
//	initiator            depot(s)                target
//	   |--- TCP connect --->|                        |
//	   |--- OpenHeader ---->|--- TCP connect ------->|
//	   |=== payload ======> |--- OpenHeader(hop+1)-->|
//	   |--- MD5 trailer --->|=== payload ==========> | verify
//	   |<-- AcceptFrame ----|<-- AcceptFrame --------|
//
// Either way one code path (Conn.awaitAccept) reads and checks the
// accept frame, so a rejection is always the typed ErrRejected and the
// frame itself never reaches the application — for a Dial and a Forward
// alike.
//
// Everything rides ordinary TCP streams; depots relay bytes in both
// directions, so the accept frame and any application replies flow
// backward through the same cascade.
package core

import (
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"time"

	"lsl/internal/sockopt"
	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// Errors surfaced by the session layer.
var (
	ErrRejected       = errors.New("lsl: session rejected")
	ErrDigestMismatch = errors.New("lsl: end-to-end MD5 digest mismatch")
	ErrClosedWrite    = errors.New("lsl: write after CloseWrite")
	ErrNeedLength     = errors.New("lsl: digest requires a known content length")
)

// DialError reports a failure to establish the session's first transport
// connection; Hop names the address that could not be reached. Resilient
// callers (internal/resilience) use errors.As to tell a dead first hop —
// a candidate for route failover — from an in-session failure.
type DialError struct {
	Hop string
	Err error
}

func (e *DialError) Error() string { return fmt.Sprintf("lsl: dial first hop %s: %v", e.Hop, e.Err) }

// Unwrap exposes the transport error for errors.Is chains.
func (e *DialError) Unwrap() error { return e.Err }

// Route is a loose source route: the depots to traverse, in order, then
// the final target.
type Route struct {
	Via    []string
	Target string
}

// Hops returns the full hop list including the target.
func (r Route) Hops() []string {
	out := make([]string, 0, len(r.Via)+1)
	out = append(out, r.Via...)
	out = append(out, r.Target)
	return out
}

// Validate checks the route against protocol limits.
func (r Route) Validate() error {
	if r.Target == "" {
		return fmt.Errorf("lsl: route has no target")
	}
	h := &wire.OpenHeader{Route: r.Hops()}
	return h.Validate()
}

// Dialer matches net.Dialer.DialContext, injectable for tests and for the
// WAN emulator.
type Dialer func(ctx context.Context, network, addr string) (net.Conn, error)

// Options tune a session.
type Options struct {
	// Digest enables the end-to-end MD5 trailer. Requires ContentLength.
	Digest bool
	// ContentLength declares the payload size; <0 means unknown (stream).
	ContentLength int64
	// Eager pipelines the session open: Dial returns once the first hop
	// is connected and payload streams behind the header without waiting
	// for the end-to-end accept (the cascade absorbs data while the tail
	// is still dialing), up to wire.FirstWindow bytes of it. The accept is
	// read and checked on first use of the backward channel (Read,
	// AwaitCustody, AwaitAccept), alongside a SendReader, by a write that
	// crosses the first window, or when a write fails.
	Eager bool
	// Session forces a session ID (used with Resume); zero means random.
	Session wire.SessionID
	// Resume asks the target to report its received offset; the caller
	// continues from there (see Conn.Offset and SendReader).
	Resume bool
	// Staged asks the first depot to take custody of the payload and
	// deliver it asynchronously (the receiver need not be reachable while
	// the initiator uploads). Requires ContentLength and at least one
	// depot in the route.
	Staged bool
	// HandshakeTimeout bounds header/accept exchanges (default 15s).
	HandshakeTimeout time.Duration
	// Dial overrides the transport dialer. A mux.Pool's DialContext
	// carries the first sublink as a stream on a warm trunk to the first
	// hop (see internal/mux); a session on a trunk that a peer predating
	// trunks refused fails with mux.ErrTrunkRefused, and the pool dials
	// that peer per session for a while.
	Dial Dialer
}

// Option mutates Options.
type Option func(*Options)

// WithDigest enables end-to-end MD5 verification.
func WithDigest() Option { return func(o *Options) { o.Digest = true } }

// WithContentLength declares the payload size in bytes.
func WithContentLength(n int64) Option { return func(o *Options) { o.ContentLength = n } }

// WithEager pipelines the open: payload follows the header without the
// synchronous end-to-end accept wait (see Options.Eager), up to one
// wire.FirstWindow of it; the rest waits for the verdict (see Conn.Write).
func WithEager() Option { return func(o *Options) { o.Eager = true } }

// WithSession pins the session identifier (for resumption).
func WithSession(id wire.SessionID) Option { return func(o *Options) { o.Session = id } }

// WithResume marks the session as a resumption of an earlier one.
func WithResume() Option { return func(o *Options) { o.Resume = true } }

// WithStaged requests depot custody: the first depot accepts the session,
// stores the complete upload, and delivers it onward asynchronously.
func WithStaged() Option { return func(o *Options) { o.Staged = true } }

// WithHandshakeTimeout bounds the session handshake.
func WithHandshakeTimeout(d time.Duration) Option {
	return func(o *Options) { o.HandshakeTimeout = d }
}

// WithDialer injects a transport dialer (tests, emulation).
func WithDialer(d Dialer) Option { return func(o *Options) { o.Dial = d } }

func buildOptions(opts []Option) Options {
	o := Options{ContentLength: -1, HandshakeTimeout: 15 * time.Second}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// closeWriter is implemented by *net.TCPConn and by the emulator's conns.
type closeWriter interface{ CloseWrite() error }

// Conn is the initiator's end of a session. Like a net.Conn it may be
// read by one goroutine while another writes, and SetDeadline or Close
// from any goroutine interrupts either: no lock is held across transport
// I/O.
type Conn struct {
	nc   net.Conn
	id   wire.SessionID
	opts Options

	hash    hash.Hash
	written int64
	wclosed bool

	// mu guards the fields below, which the accept path shares with the
	// forward path and with SetDeadline. It is never held across a
	// transport read or write.
	mu sync.Mutex
	// pending is the encoded open header, staged by Dial and claimed
	// exactly once: by the first payload Write, which sends it in the same
	// gathered write, or on its own by whoever needs the peer to have it
	// first (nil once claimed).
	pending []byte
	// deadline is the caller's SetDeadline; handshakeBy is non-zero while
	// the accept read has the transport's read deadline on loan.
	deadline    time.Time
	handshakeBy time.Time
	// startOffset and acceptDur are the accept's findings.
	startOffset int64
	acceptDur   time.Duration

	// hdrOut is closed once no payload write can overtake the header: when
	// the forward path claims it (that goroutine writes it first), or when
	// a flush started by the accept path has returned.
	hdrOut chan struct{}

	// acceptOnce runs the session's one accept read; acceptErr is its
	// verdict, replayed to every later caller of awaitAccept.
	acceptOnce sync.Once
	acceptErr  error

	// dialDur times the first-hop transport dial; with acceptDur it is the
	// raw RTT observation the live logistics planner (internal/logistics)
	// feeds into its forecasters.
	dialDur time.Duration
}

// Dial opens a session along route. With Options.Eager unset it blocks
// until the end-to-end accept returns through the cascade; with it set
// the accept is awaited lazily (see Conn.Read).
func Dial(ctx context.Context, route Route, opts ...Option) (*Conn, error) {
	o := buildOptions(opts)
	if err := route.Validate(); err != nil {
		return nil, err
	}
	if o.Digest && o.ContentLength < 0 {
		return nil, ErrNeedLength
	}
	if o.Staged {
		if o.ContentLength < 0 {
			return nil, ErrNeedLength
		}
		if len(route.Via) == 0 {
			return nil, fmt.Errorf("lsl: staged sessions need at least one depot")
		}
	}
	dial := o.Dial
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	hops := route.Hops()
	dialStart := time.Now()
	nc, err := dial(ctx, "tcp", hops[0])
	if err == nil {
		sockopt.Tune(nc, 0)
	}
	dialDur := time.Since(dialStart)
	if err != nil {
		return nil, &DialError{Hop: hops[0], Err: err}
	}
	id := o.Session
	if id == (wire.SessionID{}) {
		id = wire.NewSessionID()
	}
	var flags uint16
	if o.Digest {
		flags |= wire.FlagDigest
	}
	if o.Resume {
		flags |= wire.FlagResume
	}
	if o.Eager {
		flags |= wire.FlagEager
	}
	if o.Staged {
		flags |= wire.FlagStaged
	}
	contentLen := wire.UnknownLength
	if o.ContentLength >= 0 {
		contentLen = uint64(o.ContentLength)
	}
	hdr := &wire.OpenHeader{
		Flags:      flags,
		Session:    id,
		HopIndex:   0,
		Route:      hops,
		ContentLen: contentLen,
	}
	deadline, _ := ctx.Deadline()
	c, err := open(nc, hdr, o, deadline)
	if err != nil {
		return nil, err
	}
	c.dialDur = dialDur
	if o.Digest {
		c.hash = md5.New()
	}
	return c, nil
}

// Forward opens a session on a sublink the caller already dialed, with a
// header the caller already built — a depot handing a custody payload on.
// The header goes out as given (hop index, flags and route unchanged), and
// the Conn never digests: a digesting session's stored payload already
// ends in its MD5 trailer, which the caller forwards verbatim. Of the
// options only WithEager and WithHandshakeTimeout apply; the open
// pipelines or waits for the accept exactly as Dial's does. On error nc is
// closed.
func Forward(nc net.Conn, hdr *wire.OpenHeader, opts ...Option) (*Conn, error) {
	return open(nc, hdr, buildOptions(opts), time.Time{})
}

// open stages hdr on nc and, unless o.Eager, reads the accept before
// returning, bounded by the handshake timeout and deadline (zero: none).
func open(nc net.Conn, hdr *wire.OpenHeader, o Options, deadline time.Time) (*Conn, error) {
	enc, err := hdr.Encode()
	if err != nil {
		nc.Close()
		return nil, err
	}
	// The header is always staged, never written here: a synchronous open
	// flushes it on its way into the accept read below, a pipelined one
	// coalesces it with the first payload Write (net.Buffers), so that
	// open is one packet, not a tiny header packet followed by a
	// delayed-ACK stall before the payload.
	c := &Conn{nc: nc, id: hdr.Session, opts: o, pending: enc, hdrOut: make(chan struct{})}
	if !o.Eager {
		// The deadline bounds the handshake the way a caller's SetDeadline
		// bounds a lazy one; it does not outlive the open.
		c.deadline = deadline
		err = c.awaitAccept(true)
		c.deadline = time.Time{}
		nc.SetDeadline(time.Time{})
		if err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

// awaitAccept is the one place a session's accept is read: it flushes the
// staged header, reads the accept frame under the handshake timeout (or
// the caller's deadline, whichever is sooner), checks session and code,
// and records the resume offset. Idempotent and safe for concurrent use —
// the first caller does the read, every caller gets its verdict, and the
// verdict is final: an accept read cut short by the caller's deadline has
// consumed part of the frame or none, and there is no telling which.
// Synchronous Dial calls it before returning; a pipelined Conn calls it
// from whatever first needs the backward channel. flush is false only for
// SendReader's guard and AwaitAccept, whose header is about to leave with
// the first payload write and must not be split off it.
func (c *Conn) awaitAccept(flush bool) error {
	c.acceptOnce.Do(func() { c.acceptErr = c.readAccept(flush) })
	return c.acceptErr
}

// AwaitAccept blocks until the session's accept verdict is in and returns
// it: nil once the cascade accepted, ErrRejected for a refusal, an error
// when none came within the handshake timeout (or the caller's deadline).
// Unlike Read it never sends the staged open header itself: on a
// pipelined session it waits alongside a writer whose first Write carries
// the header coalesced with its payload, so a caller that must watch for
// a refusal while frames stream does not split the open into a lone
// header packet. A synchronous session returns the verdict Dial saw.
func (c *Conn) AwaitAccept() error { return c.awaitAccept(false) }

func (c *Conn) readAccept(flush bool) error {
	c.mu.Lock()
	by := time.Now().Add(c.opts.HandshakeTimeout)
	if !c.deadline.IsZero() && c.deadline.Before(by) {
		by = c.deadline
	}
	c.handshakeBy = by
	c.nc.SetReadDeadline(by)
	var hdr []byte
	if flush && c.pending != nil {
		// Nothing has been written yet, so no writer's deadline is in the
		// way: the header flush is part of the handshake and bounded by it.
		hdr, c.pending = c.pending, nil
		c.nc.SetWriteDeadline(by)
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.handshakeBy = time.Time{}
		c.nc.SetReadDeadline(c.deadline)
		c.mu.Unlock()
	}()
	if hdr != nil {
		_, err := c.nc.Write(hdr)
		c.mu.Lock()
		c.nc.SetWriteDeadline(c.deadline)
		c.mu.Unlock()
		close(c.hdrOut)
		if err != nil {
			return fmt.Errorf("lsl: send header: %w", err)
		}
	}
	start := time.Now()
	acc, err := wire.ReadAcceptFrame(c.nc)
	c.mu.Lock()
	c.acceptDur = time.Since(start)
	if err == nil && acc.Session == c.id && acc.Code == wire.CodeOK {
		c.startOffset = int64(acc.Offset)
	}
	c.mu.Unlock()
	switch {
	case err != nil:
		return fmt.Errorf("lsl: waiting for session accept: %w", err)
	case acc.Session != c.id:
		return fmt.Errorf("lsl: accept for wrong session %s", acc.Session)
	case acc.Code != wire.CodeOK:
		return fmt.Errorf("%w: %s", ErrRejected, wire.CodeString(acc.Code))
	}
	return nil
}

// header is the forward path's gate. It returns the staged open header
// when the caller is the one to send it — ahead of anything else — and
// nil once it is out, waiting first for a flush the accept path has in
// flight so that payload never overtakes the header.
func (c *Conn) header() []byte {
	c.mu.Lock()
	hdr := c.pending
	c.pending = nil
	c.mu.Unlock()
	if hdr != nil {
		close(c.hdrOut)
		return hdr
	}
	<-c.hdrOut
	return nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// rejection upgrades a failed write's transport error with what the accept
// path knows. A cascade that refuses a pipelined session answers with a
// reject frame and hangs up, which the writer sees as a broken pipe before
// it ever looks at the backward channel: read the accept that is (or is
// not) waiting there and report the refusal as what it is. An accept that
// never came within its bound is likewise the reason the session was torn
// down under the write (see SendReader). Any other verdict leaves err
// alone.
func (c *Conn) rejection(err error) error {
	if isTimeout(err) {
		return err // a stalled peer has sent nothing worth waiting for
	}
	if aerr := c.awaitAccept(true); errors.Is(aerr, ErrRejected) || isTimeout(aerr) {
		return aerr
	}
	return err
}

// SessionID returns the 128-bit session identifier.
func (c *Conn) SessionID() wire.SessionID { return c.id }

// Offset returns the target's already-received byte count reported in the
// accept (non-zero only for resumed sessions). A pipelined session has no
// accept yet when Dial returns: Offset reads 0 until Read or AwaitCustody
// has seen it.
func (c *Conn) Offset() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.startOffset
}

// DialDuration returns how long the first-hop transport dial took — a
// first-hop RTT proxy the logistics planner folds into its forecasts.
func (c *Conn) DialDuration() time.Duration { return c.dialDur }

// AcceptDuration returns how long the end-to-end accept took to return
// through the cascade after the open header was sent. On a pipelined
// session it is only how long the lazy accept read blocked (zero before
// it), not a round-trip measurement.
func (c *Conn) AcceptDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acceptDur
}

// Written returns the session's logical stream position: bytes written on
// this sublink plus, after SendReader on a resumed session, the prefix the
// target had already confirmed.
func (c *Conn) Written() int64 { return c.written }

// Write sends payload bytes toward the target. The first write of a
// pipelined session carries the staged open header in the same segment
// (writev via net.Buffers), so a session open plus its first payload
// bytes cost one packet on the wire. A write the cascade cut short
// because it refused the session fails with ErrRejected.
//
// A pipelined session sends at most wire.FirstWindow payload bytes before
// the cascade's verdict. A write that ends within the window goes out at
// once; one that crosses it sends up to the window, then waits for the
// accept — bounded like a synchronous open by the handshake timeout, the
// caller's deadline or Close — and continues after an accept, or fails
// with ErrRejected without sending another byte. CloseWrite never waits:
// a payload that fits the window leaves with its trailer and FIN.
func (c *Conn) Write(p []byte) (int, error) {
	if c.wclosed {
		return 0, ErrClosedWrite
	}
	if !c.opts.Eager || c.written+int64(len(p)) <= wire.FirstWindow {
		return c.send(p)
	}
	// The write crosses the first window. Once past it the verdict is in
	// and awaitAccept returns at once.
	n := 0
	if room := wire.FirstWindow - c.written; room > 0 {
		var err error
		if n, err = c.send(p[:room]); err != nil {
			return n, err
		}
	}
	if err := c.awaitAccept(false); err != nil {
		return n, err
	}
	m, err := c.send(p[n:])
	return n + m, err
}

// send writes p to the sublink, behind the staged header while that is
// still pending, and folds what went out into the digest and the stream
// position.
func (c *Conn) send(p []byte) (int, error) {
	var n int
	var err error
	if hdr := c.header(); hdr != nil {
		n, err = c.writeCoalesced(hdr, p)
	} else {
		n, err = c.nc.Write(p)
	}
	if n > 0 {
		if c.hash != nil {
			c.hash.Write(p[:n])
		}
		c.written += int64(n)
	}
	if err != nil {
		err = c.rejection(err)
	}
	return n, err
}

// writeCoalesced sends the open header and p as one gathered write,
// returning the count of payload bytes (header excluded). One shot: a
// partial write means a dead transport.
func (c *Conn) writeCoalesced(hdr, p []byte) (int, error) {
	bufs := net.Buffers{hdr, p}
	total, err := bufs.WriteTo(c.nc)
	n := int(total) - len(hdr)
	if n < 0 {
		n = 0
	}
	return n, err
}

// Read receives backward-channel bytes from the target. On a pipelined
// session the first Read consumes and checks the accept first, so a
// refused session fails with ErrRejected and the application never sees
// the frame. That accept read honours the caller's deadline, but a
// deadline that cuts it short is terminal for the Conn: every later Read
// repeats the error.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.awaitAccept(true); err != nil {
		return 0, err
	}
	return c.nc.Read(p)
}

// CloseWrite finishes the forward stream: it appends the MD5 trailer when
// digesting and half-closes the transport so EOF propagates through the
// cascade.
func (c *Conn) CloseWrite() error {
	if c.wclosed {
		return nil
	}
	c.wclosed = true
	var err error
	if hdr := c.header(); hdr != nil {
		// A session that half-closes before its first payload write.
		if _, err = c.nc.Write(hdr); err != nil {
			err = fmt.Errorf("lsl: send header: %w", err)
		}
	}
	if err == nil && c.hash != nil {
		if _, err = c.nc.Write(c.hash.Sum(nil)); err != nil {
			err = fmt.Errorf("lsl: send digest trailer: %w", err)
		}
	}
	if cw, ok := c.nc.(closeWriter); ok && err == nil {
		// SendReader's guard may have closed the sublink under us on a
		// refusal: the half-close then fails for the refusal's reason.
		err = cw.CloseWrite()
	}
	if err != nil {
		return c.rejection(err)
	}
	return nil
}

// AwaitCustody blocks until the first depot confirms the staged payload
// is in its custody (the CodeCustody frame the depot sends after it has
// the complete payload — durably journaled when it runs with a custody
// write-ahead state dir). Call it after CloseWrite on a staged session:
// once AwaitCustody returns nil the initiator may discard its copy, as
// the payload survives a depot crash and redelivers after restart.
// Returns an error for non-staged sessions, rejections, or a depot that
// dies before committing.
func (c *Conn) AwaitCustody() error {
	if !c.opts.Staged {
		return errors.New("lsl: AwaitCustody on a non-staged session")
	}
	// A pipelined session still has the depot's admission accept ahead of
	// the custody frame.
	if err := c.awaitAccept(true); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Now().Add(c.opts.HandshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	acc, err := wire.ReadAcceptFrame(c.nc)
	if err != nil {
		return fmt.Errorf("lsl: waiting for custody commit: %w", err)
	}
	if acc.Session != c.id {
		return fmt.Errorf("lsl: custody commit for wrong session %s", acc.Session)
	}
	if acc.Code != wire.CodeCustody {
		return fmt.Errorf("%w: %s", ErrRejected, wire.CodeString(acc.Code))
	}
	return nil
}

// Close tears the session's first sublink down.
func (c *Conn) Close() error { return c.nc.Close() }

// LocalAddr implements net.Conn-style addressing.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr returns the first hop's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline applies to the underlying first sublink and, like a
// net.Conn's, to reads and writes already blocked on it. It never extends
// an accept read in progress past the handshake timeout.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	if err := c.nc.SetWriteDeadline(t); err != nil {
		return err
	}
	if by := c.handshakeBy; !by.IsZero() && (t.IsZero() || by.Before(t)) {
		t = by
	}
	return c.nc.SetReadDeadline(t)
}

// sendBufferSize is the SendReader copy buffer — the same default size
// class the depot relay uses, so both ends share one buffer pool.
const sendBufferSize = 256 << 10

// SendReader streams size bytes from r (which must match the session's
// ContentLength when digesting), honoring a resume offset: it seeks to the
// target's confirmed offset and, when digesting, re-hashes the skipped
// prefix so the end-to-end digest still covers the complete stream. It
// finishes with CloseWrite. The copy runs through the pooled data plane
// (internal/xfer), so repeated sends perform no buffer allocation.
//
// On a pipelined session the accept is still out while the payload
// streams, so SendReader reads it alongside the copy, under the same bound
// a synchronous open has. A first hop that takes the connection and never
// answers would otherwise hold a write blocked on full socket buffers
// forever; instead the session is closed under it and the write reports
// the accept that failed.
func (c *Conn) SendReader(r io.ReadSeeker) error {
	if c.opts.Eager {
		go func() {
			if c.awaitAccept(false) != nil {
				c.nc.Close()
			}
		}()
	}
	if off := c.Offset(); off > 0 {
		if c.hash != nil {
			if _, err := r.Seek(0, io.SeekStart); err != nil {
				return err
			}
			if _, err := io.CopyN(c.hash, r, off); err != nil {
				return fmt.Errorf("lsl: rehash resumed prefix: %w", err)
			}
		} else if _, err := r.Seek(off, io.SeekStart); err != nil {
			return err
		}
		// The skipped prefix counts as written stream position either way,
		// so Written reports the logical offset, not just this sublink's
		// bytes.
		c.written = off
	}
	if _, err := xfer.CopyCounted(c, r, xfer.PoolFor(sendBufferSize), xfer.CopyConfig{}); err != nil {
		return err
	}
	return c.CloseWrite()
}
