// The link pool: warm trunks per destination, with transparent fallback
// to one-connection-per-session for peers that do not speak the trunk
// protocol, so mixed fleets interoperate.
package mux

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lsl/internal/metrics"
	"lsl/internal/sockopt"
	"lsl/internal/xfer"
)

// ErrPoolClosed reports a dial on a closed pool.
var ErrPoolClosed = errors.New("mux: pool closed")

// Dialer matches net.Dialer.DialContext (and core.Dialer).
type Dialer func(ctx context.Context, network, addr string) (net.Conn, error)

// PoolMetrics observes a pool (and, on a depot, its accept-side links):
// the lsl_link_* counter family plus stream gauges. Any field may be nil.
type PoolMetrics struct {
	// LinkOpened counts trunks established: the peer's hello landed.
	LinkOpened *metrics.Counter
	// LinkReused counts sessions that rode an already-open trunk instead
	// of paying a TCP handshake.
	LinkReused *metrics.Counter
	// LinkClosed counts established trunks torn down (idle timeout,
	// error, close), so LinkOpened − LinkClosed is the live trunk count.
	LinkClosed *metrics.Counter
	// Streams gauges live multiplexed streams.
	Streams *metrics.Gauge
	// StreamHighWater records the most concurrent streams observed on any
	// one link.
	StreamHighWater *metrics.Gauge
	// WindowHighWater records the largest receive window, in bytes, any
	// stream on any one link has granted (Link.WindowHighWater).
	WindowHighWater *metrics.Gauge
}

func (m *PoolMetrics) opened() {
	if m != nil && m.LinkOpened != nil {
		m.LinkOpened.Inc()
	}
}

func (m *PoolMetrics) reused() {
	if m != nil && m.LinkReused != nil {
		m.LinkReused.Inc()
	}
}

func (m *PoolMetrics) closed() {
	if m != nil && m.LinkClosed != nil {
		m.LinkClosed.Inc()
	}
}

// streams moves the live-stream gauge by delta and raises the high-water
// gauges to what l has seen.
func (m *PoolMetrics) streams(delta int, l *Link) {
	if m == nil {
		return
	}
	if m.Streams != nil {
		m.Streams.Add(int64(delta))
	}
	if m.StreamHighWater != nil {
		m.StreamHighWater.SetMax(int64(l.HighWater()))
	}
	if m.WindowHighWater != nil {
		m.WindowHighWater.SetMax(int64(l.WindowHighWater()))
	}
}

// PoolConfig tunes a link pool.
type PoolConfig struct {
	// Dial establishes trunk (and fallback) transport connections
	// (default net.Dialer).
	Dial Dialer
	// SockBuf sets SO_SNDBUF and SO_RCVBUF on every pool-dialed conn
	// (trunks and classic fallbacks); zero leaves kernel defaults.
	SockBuf int
	// Metrics observes the pool.
	Metrics *PoolMetrics
	// Logf, when set, receives one line per pool event.
	Logf func(format string, args ...interface{})

	// Test seams, which only in-package tests set:
	//
	// maxStreamsPerLink opens a second trunk to the same address once a
	// link carries this many live streams (default 64).
	maxStreamsPerLink int
	// idleTimeout closes a trunk that has carried no streams for this
	// long (default 60s; negative keeps idle trunks forever).
	idleTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Dial == nil {
		var d net.Dialer
		c.Dial = d.DialContext
	}
	if c.maxStreamsPerLink <= 0 {
		c.maxStreamsPerLink = 64
	}
	if c.idleTimeout == 0 {
		c.idleTimeout = 60 * time.Second
	}
	return c
}

// A peer that does not speak the trunk protocol refuses the hello within
// one round trip, since LSL targets and depots check its magic first; the
// pool then dials it classically for negativeTTL before probing again.
// No dial waits for that verdict: the first sessions send behind the
// hello at once (trunkConn). probeTimeout bounds the wait for the peer's
// hello — it only matters for an older peer that waits for a whole open
// header before answering — and the classic dial that replaces a refused
// trunk.
const (
	probeTimeout = 5 * time.Second
	negativeTTL  = 60 * time.Second
)

// Pool keeps warm trunks per destination address. DialContext matches
// core.Dialer, so a pool drops in anywhere a transport dialer goes: it
// returns a multiplexed stream when the peer speaks the trunk protocol
// and a classic per-session connection when it does not.
type Pool struct {
	cfg PoolConfig

	mu     sync.Mutex
	links  map[string][]*pooledLink
	nonMux map[string]time.Time // address → probe-again-after
	closed bool

	// retired, which only tests set, receives each trunk once it is dead,
	// counted closed and out of the pool.
	retired chan<- *Link
}

type pooledLink struct {
	link    *Link
	mu      sync.Mutex
	idle    *time.Timer
	streams int // live streams the gauge counts for this link
}

// NewPool builds a link pool.
func NewPool(cfg PoolConfig) *Pool {
	return &Pool{
		cfg:    cfg.withDefaults(),
		links:  make(map[string][]*pooledLink),
		nonMux: make(map[string]time.Time),
	}
}

func (p *Pool) logf(format string, args ...interface{}) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// DialContext opens a session transport to addr: a stream on a warm
// trunk when one has capacity, a stream on a fresh trunk when the peer is
// not known to refuse trunks, or a classic connection otherwise. It never
// waits for a trunk's hello: a stream on a trunk whose hello has not
// landed comes wrapped (trunkConn), and moves to a classic connection
// transparently if the peer refuses the hello. The returned conn is
// always usable exactly like a per-session TCP connection.
func (p *Pool) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if until, bad := p.nonMux[addr]; bad {
		if time.Now().Before(until) {
			p.mu.Unlock()
			return p.dialClassic(ctx, network, addr)
		}
		delete(p.nonMux, addr) // TTL expired: probe again
	}
	pl := p.pickLocked(addr)
	p.mu.Unlock()

	if pl != nil {
		if st, err := p.openOn(pl); err == nil {
			return p.session(ctx, network, addr, st), nil
		}
		// The warm link died under us (or filled up in a race); fall
		// through and dial fresh.
	}
	return p.dialTrunk(ctx, network, addr)
}

// pickLocked returns a live link to addr with stream capacity, pruning
// dead ones.
func (p *Pool) pickLocked(addr string) *pooledLink {
	live := p.links[addr][:0]
	var pick *pooledLink
	for _, pl := range p.links[addr] {
		if pl.link.Closed() {
			continue
		}
		live = append(live, pl)
		if pick == nil && pl.link.NumStreams() < p.cfg.maxStreamsPerLink {
			pick = pl
		}
	}
	if len(live) == 0 {
		delete(p.links, addr)
	} else {
		p.links[addr] = live
	}
	return pick
}

func (p *Pool) openOn(pl *pooledLink) (*Stream, error) {
	st, err := pl.link.OpenStream()
	if err != nil {
		return nil, err
	}
	p.cfg.Metrics.reused()
	return st, nil
}

// dialTrunk opens a fresh trunk to addr and a stream on it, without
// waiting for the peer's hello (see session). The hello's verdict arrives
// through helloVerdict.
func (p *Pool) dialTrunk(ctx context.Context, network, addr string) (net.Conn, error) {
	nc, err := p.cfg.Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	sockopt.Tune(nc, p.cfg.SockBuf)
	nc.SetReadDeadline(time.Now().Add(probeTimeout))
	pl := &pooledLink{}
	link, err := startClient(nc, LinkConfig{
		Logf:        p.cfg.Logf,
		StreamCount: func(int) { p.streamCountChanged(pl) },
		onHello:     func(err error) { p.helloVerdict(addr, err) },
	})
	if err != nil {
		nc.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.refused(addr, err)
		return p.dialClassic(ctx, network, addr)
	}
	pl.link = link
	// The first stream opens before the read loop starts: a peer that
	// refuses the hello at once cannot close the link ahead of it.
	st, _ := link.OpenStream() // a link not yet running is neither closed nor draining
	go link.readLoop()
	go p.watch(addr, pl)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		link.Close()
		return nil, ErrPoolClosed
	}
	p.links[addr] = append(p.links[addr], pl)
	p.mu.Unlock()
	return p.session(ctx, network, addr, st), nil
}

// helloVerdict takes a fresh trunk's hello verdict (LinkConfig.onHello).
// A trunk counts as opened once its hello lands. A peer that answered
// with anything else, or hung up, does not speak the trunk protocol
// (targets and non-mux depots close the conn on the bad magic): it goes
// into the negative cache, so later dials skip straight to classic until
// the TTL expires. A trunk the pool closed itself first is neither.
func (p *Pool) helloVerdict(addr string, err error) {
	switch {
	case err == nil:
		p.cfg.Metrics.opened()
		p.logf("mux: trunk to %s established", addr)
	case !errors.Is(err, ErrLinkClosed):
		p.refused(addr, err)
	}
}

func (p *Pool) refused(addr string, err error) {
	p.mu.Lock()
	p.nonMux[addr] = time.Now().Add(negativeTTL)
	p.mu.Unlock()
	p.logf("mux: %s is not trunk-capable (%v), falling back to per-session dialing", addr, err)
}

// watch retires a trunk once it is dead: counted closed if it was counted
// opened, and out of the pool. Waiting for the hello's verdict first keeps
// every close counted after its open, even for a trunk the pool closed
// before it reached the pool's map.
func (p *Pool) watch(addr string, pl *pooledLink) {
	link := pl.link
	<-link.hello
	<-link.Done()
	if link.helloErr == nil {
		p.cfg.Metrics.closed()
	}
	p.remove(addr, pl)
	if p.retired != nil {
		p.retired <- link
	}
}

// session returns the conn a session gets for st: the stream itself once
// its trunk's hello has landed, a trunkConn until then.
func (p *Pool) session(ctx context.Context, network, addr string, st *Stream) net.Conn {
	select {
	case <-st.link.hello:
		if st.link.helloErr == nil {
			return st
		}
	default:
	}
	return &trunkConn{st: st, pool: p, ctx: context.WithoutCancel(ctx), network: network, addr: addr, keeping: true}
}

func (p *Pool) dialClassic(ctx context.Context, network, addr string) (net.Conn, error) {
	nc, err := p.cfg.Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	sockopt.Tune(nc, p.cfg.SockBuf)
	return nc, nil
}

// streamCountChanged keeps the stream gauges and runs the idle timer: a
// trunk that hits zero streams gets idleTimeout to pick up a new session
// before it is closed; any new stream cancels the countdown. The link
// reports counts outside its locks, so reports can arrive out of order;
// re-reading the count under pl.mu makes the last one to run see the
// latest count, and the gauge moves by the change since the previous one.
func (p *Pool) streamCountChanged(pl *pooledLink) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := pl.link.NumStreams()
	p.cfg.Metrics.streams(n-pl.streams, pl.link)
	pl.streams = n
	if n > 0 {
		if pl.idle != nil {
			pl.idle.Stop()
			pl.idle = nil
		}
		return
	}
	if p.cfg.idleTimeout < 0 || pl.link.Closed() {
		return
	}
	if pl.idle != nil {
		pl.idle.Stop()
	}
	pl.idle = time.AfterFunc(p.cfg.idleTimeout, func() {
		if pl.link.NumStreams() == 0 {
			p.logf("mux: closing trunk to %v after %v idle", pl.link.RemoteAddr(), p.cfg.idleTimeout)
			pl.link.Drain()
		}
	})
}

func (p *Pool) remove(addr string, dead *pooledLink) {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.links[addr][:0]
	for _, pl := range p.links[addr] {
		if pl != dead {
			live = append(live, pl)
		}
	}
	if len(live) == 0 {
		delete(p.links, addr)
	} else {
		p.links[addr] = live
	}
}

// Links reports the live trunk count (observability and tests).
func (p *Pool) Links() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pls := range p.links {
		for _, pl := range pls {
			if !pl.link.Closed() {
				n++
			}
		}
	}
	return n
}

// Drain retires every trunk gracefully: live streams run to completion
// and each link closes once it empties. New dials still work (they open
// fresh trunks), so Drain is safe to call while sessions are in flight.
func (p *Pool) Drain() {
	p.mu.Lock()
	var all []*pooledLink
	for _, pls := range p.links {
		all = append(all, pls...)
	}
	p.mu.Unlock()
	for _, pl := range all {
		pl.link.Drain()
	}
}

// Close tears down every trunk; subsequent dials fail.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var all []*pooledLink
	for _, pls := range p.links {
		all = append(all, pls...)
	}
	p.links = make(map[string][]*pooledLink)
	p.mu.Unlock()
	for _, pl := range all {
		pl.link.Close()
	}
	return nil
}

// trunkConn is the session conn for a stream opened on a trunk whose
// hello has not landed: the session sends at once, behind the hello,
// instead of a round trip later. Until the verdict it keeps a copy of
// what the stream may have sent, which the trunk's initial window bounds:
// before the peer's hello nothing grants the stream more credit. When the
// hello lands the copy goes and every call passes to the stream. When the
// peer refuses it — a classic peer reads LSLM as a bad magic and hangs up
// — the session moves to a classic connection: the copy is replayed
// there, then the half-close if one was asked for, under the deadlines
// set so far, and every call goes there from then on. A stream error
// while the hello is pending waits for that verdict instead of failing
// the session; a deadline, a Write after CloseWrite or a Close is the
// caller's own and returns as it is.
type trunkConn struct {
	st      *Stream
	pool    *Pool
	ctx     context.Context // the dial's, without its cancellation: the classic dial outlives it
	network string
	addr    string

	onTrunk atomic.Bool // the hello landed: every call is the stream's

	wmu sync.Mutex // serializes Write and CloseWrite, and so the copy

	mu         sync.Mutex
	keeping    bool   // the copy is live: no verdict acted on yet
	sent       []byte // the copy
	closeWrite bool   // CloseWrite came while keeping
	rdl, wdl   time.Time
	closed     bool
	stopDial   context.CancelFunc
	classic    net.Conn // the conn moved to, set once dialed

	moveOnce sync.Once
	moveErr  error
}

// streamOf returns the trunk stream a write to w goes to directly, if
// any: w itself, or the stream under a trunkConn whose hello has landed.
// It keeps the hand-through (Stream.WriteBatchTo) on a session's first
// trunk.
func streamOf(w io.Writer) *Stream {
	switch w := w.(type) {
	case *Stream:
		return w
	case *trunkConn:
		if w.onTrunk.Load() {
			return w.st
		}
	}
	return nil
}

// settle acts on the hello's verdict after a stream call that ended with
// err (nil for a call that succeeded, or that found the copy already
// given up). Any other stream error than the caller's own — a deadline, a
// call after CloseWrite or Close — means the trunk is going down, so it
// waits for the verdict. It returns the classic conn to go on over when
// the peer refused the hello. Otherwise it returns nil and the error to
// report: err when the hello landed or is still pending, ErrPoolClosed
// when the pool closed the trunk first.
func (c *trunkConn) settle(err error) (net.Conn, error) {
	l := c.st.link
	if err != nil && err != ErrWriteClosed && err != ErrLinkClosed && !errors.Is(err, os.ErrDeadlineExceeded) {
		<-l.hello
	}
	select {
	case <-l.hello:
	default:
		return nil, err
	}
	switch {
	case l.helloErr == nil:
		if c.onTrunk.CompareAndSwap(false, true) {
			c.mu.Lock()
			c.keeping, c.sent = false, nil
			c.mu.Unlock()
		}
		return nil, err
	case errors.Is(l.helloErr, ErrLinkClosed):
		return nil, ErrPoolClosed
	}
	c.moveOnce.Do(func() { c.moveErr = c.move() })
	if c.moveErr != nil {
		return nil, c.moveErr
	}
	return c.classic, nil
}

// move carries the session over to a classic connection: it dials the
// peer, applies the deadlines set so far, and replays the copy and a
// half-close that came while the hello was pending. A Close cancels the
// dial.
func (c *trunkConn) move() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return net.ErrClosed
	}
	ctx, stop := context.WithTimeout(c.ctx, probeTimeout)
	c.stopDial = stop
	c.mu.Unlock()
	nc, err := c.pool.dialClassic(ctx, c.network, c.addr)
	stop()
	c.mu.Lock()
	if err == nil && c.closed {
		nc.Close()
		err = net.ErrClosed
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	nc.SetReadDeadline(c.rdl)
	nc.SetWriteDeadline(c.wdl)
	c.classic = nc
	sent, closeWrite := c.sent, c.closeWrite
	c.keeping, c.sent = false, nil
	c.mu.Unlock()
	if len(sent) > 0 {
		if _, err := nc.Write(sent); err != nil {
			return err
		}
	}
	if closeWrite {
		return halfClose(nc)
	}
	return nil
}

// halfClose half-closes a classic conn that can.
func halfClose(nc net.Conn) error {
	if cw, ok := nc.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// keep copies the head of p that the stream may send before the verdict;
// the copy never outgrows the trunk's initial window, the stream's credit
// until the peer's hello. It reports false once the copy is given up.
func (c *trunkConn) keep(p []byte) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.keeping {
		return 0, false
	}
	k := min(len(p), c.st.link.cfg.window-len(c.sent))
	c.sent = append(c.sent, p[:k]...)
	return k, true
}

// unkeep takes the last k copied bytes back off the copy, which the
// stream did not send after all; false if the copy was already given up.
func (c *trunkConn) unkeep(k int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.keeping {
		return false
	}
	c.sent = c.sent[:len(c.sent)-k]
	return true
}

// Write sends p on the stream, keeping a copy while the hello is pending,
// or on the classic conn the session moved to.
func (c *trunkConn) Write(p []byte) (int, error) {
	if c.onTrunk.Load() {
		return c.st.Write(p)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	k, kept := c.keep(p)
	if !kept {
		cl, err := c.settle(nil)
		switch {
		case err != nil:
			return 0, err
		case cl != nil:
			return cl.Write(p)
		}
		return c.st.Write(p)
	}
	n, err := c.st.Write(p)
	cl, err := c.settle(err)
	if cl == nil && err != nil && n < k && !c.unkeep(k-n) {
		cl, err = c.settle(err) // the copy moved on meanwhile
	}
	if cl == nil {
		return n, err
	}
	m, err := cl.Write(p[k:]) // the move replayed p[:k]
	return k + m, err
}

// CloseWrite half-closes the stream, or the classic conn the session
// moved to; one that came while the hello was pending is replayed there.
func (c *trunkConn) CloseWrite() error {
	if c.onTrunk.Load() {
		return c.st.CloseWrite()
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	kept := c.keeping
	c.closeWrite = kept
	c.mu.Unlock()
	if kept {
		cl, err := c.settle(c.st.CloseWrite())
		if cl != nil {
			return nil // the move replayed the half-close
		}
		return err
	}
	cl, err := c.settle(nil)
	switch {
	case err != nil:
		return err
	case cl != nil:
		return halfClose(cl)
	}
	return c.st.CloseWrite()
}

// Read reads from the stream, or from the classic conn the session moved
// to.
func (c *trunkConn) Read(p []byte) (int, error) {
	if c.onTrunk.Load() {
		return c.st.Read(p)
	}
	return c.read(p, nil)
}

// WriteBatchTo hands a batch of the stream's payload to w (Stream's
// WriteBatchTo), or one read's worth from the classic conn the session
// moved to.
func (c *trunkConn) WriteBatchTo(w io.Writer) (int, error) {
	if c.onTrunk.Load() {
		return c.st.WriteBatchTo(w)
	}
	return c.read(nil, w)
}

// read is Read into p, or WriteBatchTo to w when w is set, before the
// conn has settled on the stream. Payload arrives only behind the peer's
// hello, so any call that returns some settles it there.
func (c *trunkConn) read(p []byte, w io.Writer) (int, error) {
	cl := c.classicConn()
	if cl == nil {
		var n int
		var err error
		if w != nil {
			n, err = c.st.WriteBatchTo(w)
		} else {
			n, err = c.st.Read(p)
		}
		if cl, err = c.settle(err); cl == nil {
			return n, err
		}
	}
	if w == nil {
		return cl.Read(p)
	}
	bp := blocks.Get()
	defer putBlock(bp)
	n, err := cl.Read(*bp)
	if n == 0 {
		return 0, err
	}
	wrote, werr := w.Write((*bp)[:n])
	if werr == nil && wrote < n {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		return wrote, werr
	}
	return wrote, err
}

// classicConn returns the classic conn the session moved to, or nil. A
// reader may use it while the move still replays the copy.
func (c *trunkConn) classicConn() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.classic
}

// Close closes the stream and the classic conn, and cancels a move's dial.
func (c *trunkConn) Close() error {
	c.mu.Lock()
	c.closed = true
	cl, stop := c.classic, c.stopDial
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
	c.st.Close()
	if cl != nil {
		return cl.Close()
	}
	return nil
}

// SetDeadline sets both deadlines.
func (c *trunkConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the read deadline where the session is, and
// keeps it for a move.
func (c *trunkConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	cl := c.classic
	c.mu.Unlock()
	if cl != nil {
		return cl.SetReadDeadline(t)
	}
	return c.st.SetReadDeadline(t)
}

// SetWriteDeadline sets the write deadline where the session is, and
// keeps it for a move.
func (c *trunkConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	cl := c.classic
	c.mu.Unlock()
	if cl != nil {
		return cl.SetWriteDeadline(t)
	}
	return c.st.SetWriteDeadline(t)
}

// LocalAddr reports the local address of the conn the session is on.
func (c *trunkConn) LocalAddr() net.Addr {
	if cl := c.classicConn(); cl != nil {
		return cl.LocalAddr()
	}
	return c.st.LocalAddr()
}

// RemoteAddr reports the peer address of the conn the session is on.
func (c *trunkConn) RemoteAddr() net.Addr {
	if cl := c.classicConn(); cl != nil {
		return cl.RemoteAddr()
	}
	return c.st.RemoteAddr()
}

// Compile-time checks: streams and the conns wrapping them satisfy
// net.Conn, the half-close interface the relay's EOF propagation relies
// on, and the batch source the data plane hands blocks through.
var (
	_ net.Conn                        = (*Stream)(nil)
	_ interface{ CloseWrite() error } = (*Stream)(nil)
	_ xfer.BatchSource                = (*Stream)(nil)
	_ io.WriterTo                     = (*Stream)(nil)
	_ net.Conn                        = (*trunkConn)(nil)
	_ interface{ CloseWrite() error } = (*trunkConn)(nil)
	_ xfer.BatchSource                = (*trunkConn)(nil)
)
