// The link pool: warm trunks per destination on the dial side. The accept
// side is the accept front (front.go).
package mux

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
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
	// Dial establishes trunk (and classic) transport connections
	// (default net.Dialer).
	Dial Dialer
	// SockBuf sets SO_SNDBUF and SO_RCVBUF on every pool-dialed conn
	// (trunks and classic conns); zero leaves kernel defaults.
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

// Every depot and target serves trunks, so only a peer that predates them
// refuses the hello; it does so within one round trip, at the magic. The
// streams sent behind that hello fail with ErrTrunkRefused, and the pool
// dials the peer classically for negativeTTL before it offers a trunk
// again. probeTimeout bounds the wait for the peer's hello, which only a
// peer that waits for a whole open header before answering makes long.
const (
	probeTimeout = 5 * time.Second
	negativeTTL  = 60 * time.Second
)

// Pool keeps warm trunks per destination address. DialContext matches
// core.Dialer, so a pool drops in anywhere a transport dialer goes: it
// returns a multiplexed stream, or a classic per-session connection to a
// peer that recently refused a trunk.
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
	gauge
	idle *time.Timer // guarded by gauge.mu
}

// gauge follows one link's live stream count into m's stream gauges.
type gauge struct {
	m       *PoolMetrics
	link    *Link
	mu      sync.Mutex
	streams int // live streams the gauges count for this link
}

// updateLocked moves the gauges by the change in the link's stream count
// since the last update and returns the count; g.mu is held. The link
// reports counts outside its locks, so reports can arrive out of order;
// re-reading the count under g.mu makes the last one to run see the
// latest count.
func (g *gauge) updateLocked() int {
	n := g.link.NumStreams()
	g.m.streams(n-g.streams, g.link)
	g.streams = n
	return n
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

// DialContext opens a session transport to addr: a *Stream on a warm
// trunk when one has capacity, else a *Stream on a fresh trunk, or a
// classic connection to a peer that refused a trunk within negativeTTL.
// It never waits for a trunk's hello: a fresh trunk's first streams send
// behind it at once. If the peer refuses the hello, those streams fail
// with ErrTrunkRefused, and a retry goes classic.
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
		if st, err := pl.link.OpenStream(); err == nil {
			p.cfg.Metrics.reused()
			return st, nil
		}
		// The warm link died under us (or filled up in a race); fall
		// through and dial fresh.
	}
	return p.dialTrunk(ctx, network, addr)
}

// pickLocked returns a live link to addr with stream capacity, pruning
// dead ones.
func (p *Pool) pickLocked(addr string) *pooledLink {
	for _, pl := range p.pruneLocked(addr, func(pl *pooledLink) bool { return pl.link.Closed() }) {
		if pl.link.NumStreams() < p.cfg.maxStreamsPerLink {
			return pl
		}
	}
	return nil
}

// pruneLocked drops the links to addr that gone reports, and addr with
// its last link, and returns the links left.
func (p *Pool) pruneLocked(addr string, gone func(*pooledLink) bool) []*pooledLink {
	live := slices.DeleteFunc(p.links[addr], gone)
	if len(live) == 0 {
		delete(p.links, addr)
	} else {
		p.links[addr] = live
	}
	return live
}

// dialTrunk opens a fresh trunk to addr and a stream on it, without
// waiting for the peer's hello. The hello's verdict arrives through
// helloVerdict.
func (p *Pool) dialTrunk(ctx context.Context, network, addr string) (net.Conn, error) {
	nc, err := p.dialClassic(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(probeTimeout))
	pl := &pooledLink{gauge: gauge{m: p.cfg.Metrics}}
	link, err := startClient(nc, LinkConfig{
		Logf:        p.cfg.Logf,
		StreamCount: func(int) { p.streamCountChanged(pl) },
		onHello:     func(err error) { p.helloVerdict(addr, err) },
	})
	if err != nil {
		nc.Close()
		return nil, err
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
	return st, nil
}

// helloVerdict takes a fresh trunk's hello verdict (LinkConfig.onHello).
// A trunk counts as opened once its hello lands. A peer that answered
// with anything else, or hung up, predates trunks (it closes the conn on
// the bad magic): it goes into the negative cache, so later dials skip
// straight to classic until the TTL expires. A trunk the pool closed
// itself first is neither.
func (p *Pool) helloVerdict(addr string, err error) {
	switch {
	case err == nil:
		p.cfg.Metrics.opened()
		p.logf("mux: trunk to %s established", addr)
	case errors.Is(err, ErrTrunkRefused):
		p.mu.Lock()
		p.nonMux[addr] = time.Now().Add(negativeTTL)
		p.mu.Unlock()
		p.logf("mux: %s refused a trunk (%v), dialing it per session for %v", addr, err, negativeTTL)
	}
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
// before it is closed; any new stream cancels the countdown.
func (p *Pool) streamCountChanged(pl *pooledLink) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.updateLocked() > 0 {
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
	p.pruneLocked(addr, func(pl *pooledLink) bool { return pl == dead })
	p.mu.Unlock()
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

// Close tears down every trunk; their streams and subsequent dials fail
// with ErrPoolClosed.
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
		pl.link.closeWithError(ErrPoolClosed)
	}
	return nil
}

// Compile-time checks: streams satisfy net.Conn, the half-close interface
// the relay's EOF propagation relies on, and the batch source the data
// plane hands blocks through.
var (
	_ net.Conn                        = (*Stream)(nil)
	_ interface{ CloseWrite() error } = (*Stream)(nil)
	_ xfer.BatchSource                = (*Stream)(nil)
	_ io.WriterTo                     = (*Stream)(nil)
)
