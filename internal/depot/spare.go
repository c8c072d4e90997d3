package depot

import (
	"context"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lsl/internal/metrics"
	"lsl/internal/sockopt"
)

// Ready classic next hops (DESIGN.md §9): a depot without trunks keeps
// connected sockets ready for its slow hops. Background dials are no
// session's: they never reach the dial failure counter, OnSessionEnd or
// the planner.
const (
	spareSlow    = time.Millisecond // a hop keeps spares from this connect time; loopback and LAN take ~0.1 ms
	spareSlowRun = 2                // slow connects in a row that make a hop slow: one scheduler stall does not
	sparesPerHop = 2                // idle and dialing; each holds one of a peer's mux.MaxHandshakes, target or depot
	spareTTL     = 5 * time.Second  // far inside the 15 s a peer gives a connection to send its header
)

// spares holds a depot's ready next-hop sockets; slow, slowRun and ttl
// are test seams.
type spares struct {
	d         *Depot
	slow, ttl time.Duration
	slowRun   int
	ctx       context.Context // cancelled by close: ends every refill
	cancel    context.CancelFunc
	results   *metrics.CounterVec

	mu   sync.Mutex
	hops map[string]*hopSpares // hops found slow, until their spares expire
}

type hopSpares struct {
	slowRun int      // how many of its latest connects in a row took spareSlow or more
	idle    []*spare // oldest first; an expired one stays until a take passes it
	dialing int
}

type spare struct {
	net.Conn
	gone atomic.Bool // claimed by a take, its expiry or close
}

func newSpares(d *Depot) *spares {
	ctx, cancel := context.WithCancel(d.root)
	return &spares{d: d, slow: spareSlow, slowRun: spareSlowRun, ttl: spareTTL, ctx: ctx, cancel: cancel, hops: make(map[string]*hopSpares),
		results: d.reg.CounterVec("lsl_depot_next_hop_spares_total",
			"Ready classic next-hop sockets, by result: taken by a session, fresh from a background dial, expired unused, dead (closed by the peer) when taken, failed background dial.", "result")}
}

// count bumps a result and wakes WaitStats.
func (p *spares) count(result string) {
	p.results.With(result).Inc()
	p.d.notify()
}

// dial opens a session's classic next hop: a live spare when the hop has
// one, a fresh connection otherwise. Either way a slow hop gets a refill.
func (p *spares) dial(ctx context.Context, addr string) (nc net.Conn, err error) {
	if nc = p.take(addr); nc == nil {
		nc, err = p.connect(ctx, addr)
	}
	if err == nil {
		p.refill(addr)
	}
	return nc, err
}

// connect dials a fresh tuned connection and re-decides from its connect
// time whether the hop keeps spares: a fast connect ends its run of slow
// ones, and a hop keeps spares from its slowRun-th slow connect in a row.
func (p *spares) connect(ctx context.Context, addr string) (net.Conn, error) {
	start := time.Now()
	nc, err := p.d.cfg.Dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	slow := time.Since(start) >= p.slow
	sockopt.Tune(nc, p.d.cfg.SockBuf)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch h := p.hops[addr]; {
	case !slow && h != nil:
		h.slowRun = 0
		p.forgetLocked(addr, h)
	case h != nil:
		h.slowRun++
	case slow:
		h = &hopSpares{slowRun: 1}
		p.hops[addr] = h
		// A run starts with a TTL, as a spare does: a hop whose run stops
		// short of slowRun is forgotten, and a stall much later starts a
		// new run instead of extending this one.
		time.AfterFunc(p.ttl, func() {
			p.mu.Lock()
			p.forgetLocked(addr, h)
			p.mu.Unlock()
		})
	}
	return nc, nil
}

// take hands out the hop's oldest spare that is still open, passing
// expired ones and closing dead ones.
func (p *spares) take(addr string) net.Conn {
	for {
		p.mu.Lock()
		h := p.hops[addr]
		if h == nil || len(h.idle) == 0 {
			p.mu.Unlock()
			return nil
		}
		sp := h.idle[0]
		h.idle = h.idle[1:]
		p.mu.Unlock()
		switch {
		case !sp.gone.CompareAndSwap(false, true): // expired
		case peerSilent(sp.Conn):
			p.count("taken")
			return sp.Conn
		default:
			sp.Close()
			p.count("dead")
		}
	}
}

// refill starts one background dial, on the depot's wait group, for a
// slow hop below sparesPerHop. Its connection waits in the hop's idle
// list until a session takes it, its TTL expires, or close.
func (p *spares) refill(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.hops[addr]
	if p.ctx.Err() != nil || h == nil || h.slowRun < p.slowRun || len(h.idle)+h.dialing >= sparesPerHop {
		return
	}
	h.dialing++
	p.d.wg.Add(1)
	go func() {
		defer p.d.wg.Done()
		ctx, cancel := context.WithTimeout(p.ctx, p.d.cfg.DialTimeout)
		nc, err := p.connect(ctx, addr)
		cancel()
		p.mu.Lock()
		defer p.mu.Unlock()
		h.dialing--
		switch {
		case err != nil:
			p.forgetLocked(addr, h)
			if p.ctx.Err() == nil {
				p.count("failed")
			}
		case p.ctx.Err() != nil: // closed while dialing
			nc.Close()
		default:
			sp := &spare{Conn: nc}
			h.idle = append(h.idle, sp)
			p.count("fresh")
			time.AfterFunc(p.ttl, func() {
				if sp.gone.CompareAndSwap(false, true) {
					sp.Close()
					p.mu.Lock()
					p.forgetLocked(addr, h)
					p.mu.Unlock()
					p.count("expired")
				}
			})
		}
	}()
}

// forgetLocked drops a hop with no live spare and no refill in flight,
// so the map holds a hop only while its spares live or, for at most a
// TTL, its latest connects were slow; the next session dials it fresh
// and decides again.
func (p *spares) forgetLocked(addr string, h *hopSpares) {
	live := slices.ContainsFunc(h.idle, func(sp *spare) bool { return !sp.gone.Load() })
	if !live && h.dialing == 0 && p.hops[addr] == h {
		delete(p.hops, addr)
	}
}

// close cancels every refill in flight and closes every idle spare;
// Close and Kill then wait for the refills.
func (p *spares) close() {
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.hops {
		for _, sp := range h.idle {
			if sp.gone.CompareAndSwap(false, true) {
				sp.Close()
			}
		}
		h.idle = nil
	}
}
