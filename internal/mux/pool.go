// The link pool: warm trunks per destination, with transparent fallback
// to one-connection-per-session for peers that do not speak the trunk
// protocol, so mixed fleets interoperate.
package mux

import (
	"context"
	"errors"
	"io"
	"net"
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
	// LinkOpened counts trunks established (hello exchange completed).
	LinkOpened *metrics.Counter
	// LinkReused counts sessions that rode an already-open trunk instead
	// of paying a TCP handshake.
	LinkReused *metrics.Counter
	// LinkClosed counts trunks torn down (idle timeout, error, close).
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
	// MaxStreamsPerLink opens a second trunk to the same address once a
	// link carries this many live streams (default 64).
	MaxStreamsPerLink int
	// IdleTimeout closes a trunk that has carried no streams for this
	// long (default 60s; negative keeps idle trunks forever).
	IdleTimeout time.Duration
	// SockBuf sets SO_SNDBUF and SO_RCVBUF on every pool-dialed conn
	// (trunks and classic fallbacks); zero leaves kernel defaults.
	SockBuf int
	// Metrics observes the pool.
	Metrics *PoolMetrics
	// Logf, when set, receives one line per pool event.
	Logf func(format string, args ...interface{})
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Dial == nil {
		var d net.Dialer
		c.Dial = d.DialContext
	}
	if c.MaxStreamsPerLink <= 0 {
		c.MaxStreamsPerLink = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	return c
}

// A peer that does not speak the trunk protocol refuses the hello within
// one round trip, since LSL targets and depots check its magic first; the
// pool then dials it classically for negativeTTL before probing again.
// probeTimeout only bounds the probe of an older peer that waits for a
// whole open header before answering.
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
// trunk when one has capacity, a stream on a freshly probed trunk when
// the peer speaks mux, or a classic connection otherwise. The returned
// conn is always usable exactly like a per-session TCP connection.
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
	live := p.links[addr][:0]
	var pick *pooledLink
	for _, pl := range p.links[addr] {
		if pl.link.Closed() {
			continue
		}
		live = append(live, pl)
		if pick == nil && pl.link.NumStreams() < p.cfg.MaxStreamsPerLink {
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

// dialTrunk probes addr for trunk support: connect, hello, and either a
// multiplexed stream or — when the peer answers with anything but a
// trunk hello — a classic fallback connection plus a negative-cache
// entry so later dials skip straight to classic until the TTL expires.
func (p *Pool) dialTrunk(ctx context.Context, network, addr string) (net.Conn, error) {
	nc, err := p.cfg.Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	sockopt.Tune(nc, p.cfg.SockBuf)
	deadline := time.Now().Add(probeTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	nc.SetDeadline(deadline)
	pl := &pooledLink{}
	link, err := Client(nc, LinkConfig{
		Logf:        p.cfg.Logf,
		StreamCount: func(int) { p.streamCountChanged(pl) },
	})
	if err != nil {
		nc.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The peer is reachable but does not speak the trunk protocol
		// (targets and non-mux depots close the conn on the bad magic).
		// Remember that and fall back to a per-session connection.
		p.mu.Lock()
		p.nonMux[addr] = time.Now().Add(negativeTTL)
		p.mu.Unlock()
		p.logf("mux: %s is not trunk-capable (%v), falling back to per-session dialing", addr, err)
		return p.dialClassic(ctx, network, addr)
	}
	pl.link = link
	p.cfg.Metrics.opened()
	p.logf("mux: trunk to %s established", addr)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		link.Close()
		return nil, ErrPoolClosed
	}
	p.links[addr] = append(p.links[addr], pl)
	p.mu.Unlock()
	go func() {
		<-link.Done()
		p.cfg.Metrics.closed()
		p.remove(addr, pl)
		if p.retired != nil {
			p.retired <- link
		}
	}()
	st, err := link.OpenStream()
	if err != nil {
		return nil, err
	}
	return st, nil
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
// trunk that hits zero streams gets IdleTimeout to pick up a new session
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
	if p.cfg.IdleTimeout < 0 || pl.link.Closed() {
		return
	}
	if pl.idle != nil {
		pl.idle.Stop()
	}
	pl.idle = time.AfterFunc(p.cfg.IdleTimeout, func() {
		if pl.link.NumStreams() == 0 {
			p.logf("mux: closing trunk to %v after %v idle", pl.link.RemoteAddr(), p.cfg.IdleTimeout)
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

// Compile-time checks: streams satisfy net.Conn, the half-close interface
// the relay's EOF propagation relies on, and the batch source the data
// plane hands blocks through.
var (
	_ net.Conn                        = (*Stream)(nil)
	_ interface{ CloseWrite() error } = (*Stream)(nil)
	_ xfer.BatchSource                = (*Stream)(nil)
	_ io.WriterTo                     = (*Stream)(nil)
)
