package mux

import (
	"bytes"
	"io"
	"net"
	"sync"
	"time"

	"lsl/internal/sockopt"
	"lsl/internal/wire"
)

// The accept front's bounds, the same at targets and depots. Past
// MaxHandshakes, connections wait in the kernel's accept backlog and
// streams in their trunk's, so silent peers cannot grow goroutines
// without limit. A trunk holds one of MaxTrunks for its life, never a
// handshake slot its streams need; a hello past the bound is closed
// unanswered, which its dialer reads as ErrTrunkRefused.
const (
	MaxHandshakes = 64
	MaxTrunks     = 64
)

// A Handler is an owner's part of the accept front. It handshakes a
// connection or trunk stream whose first bytes the front read as head
// (err says why fewer than 4 came) while holding a handshake slot, with
// nc under the handshake deadline and closed by Front.Close. It returns
// nil once it has closed nc; or, with the header in, next: the front
// takes nc out of Close's reach, clears its deadlines and runs next, and
// the slot goes back when next returns.
type Handler func(nc net.Conn, head []byte, err error) (next func())

// FrontConfig tunes an accept front.
type FrontConfig struct {
	HandshakeTimeout time.Duration                            // bounds the first bytes and the Handler
	SockBuf          int                                      // sockopt.Tune's buffer size for accepted connections
	Logf             func(format string, args ...interface{}) // trunk events (nil: none)
	Metrics          *PoolMetrics                             // counts trunks as a pool does (may be nil)
	Go               func(func())                             // starts each goroutine (nil: go)
}

// Front is the accept side of every target and depot: a bounded accept
// loop that reads each connection's first bytes under the handshake
// timeout, serves a trunk hello as a trunk whose streams re-enter the
// front, quietly closes a connection that ends before its first byte,
// and hands anything else to its owner's Handler.
type Front struct {
	ln     net.Listener
	handle Handler
	cfg    FrontConfig
	slots  chan struct{} // one per connection or stream in a Handler or its next
	trunks chan struct{} // one per trunk served

	mu      sync.Mutex
	live    map[any]func() // how Close stops a connection in its handshake, or a trunk; nil once closed
	closing chan struct{}
}

// NewFront builds the accept front of ln; Serve runs it.
func NewFront(ln net.Listener, handle Handler, cfg FrontConfig) *Front {
	if cfg.Go == nil {
		cfg.Go = func(f func()) { go f() }
	}
	return &Front{ln: ln, handle: handle, cfg: cfg,
		slots: make(chan struct{}, MaxHandshakes), trunks: make(chan struct{}, MaxTrunks),
		live: make(map[any]func()), closing: make(chan struct{})}
}

// Addr returns the listener's address.
func (f *Front) Addr() net.Addr { return f.ln.Addr() }

// Close closes the listener and what is still in its handshake, and
// drains every trunk; what a Handler's next runs with is its owner's.
func (f *Front) Close() error {
	err := f.ln.Close() // first: Serve stops taking slots once closing
	f.mu.Lock()
	live := f.live
	if live != nil {
		close(f.closing)
		f.live = nil
	}
	f.mu.Unlock()
	for _, stop := range live {
		stop()
	}
	return err
}

// Serve takes connections off the listener until it fails, Close
// included, and returns why.
func (f *Front) Serve() error {
	for {
		select {
		case f.slots <- struct{}{}:
		case <-f.closing:
		}
		nc, err := f.ln.Accept()
		if err != nil {
			return err
		}
		sockopt.Tune(nc, f.cfg.SockBuf)
		f.start(nc, true)
	}
}

// track puts k in Close's reach unless Close has run.
func (f *Front) track(k any, stop func()) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.live != nil {
		f.live[k] = stop
	}
	return f.live != nil
}

// closed reports whether Close has run.
func (f *Front) closed() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.live == nil }

// untrack takes k out of Close's reach, reporting whether Close left it.
func (f *Front) untrack(k any) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.live[k]
	delete(f.live, k)
	return ok
}

// start handshakes nc, which holds a slot, on its own goroutine: a
// connection off the listener (raw) or a trunk stream.
func (f *Front) start(nc net.Conn, raw bool) {
	if !f.track(nc, func() { nc.Close() }) {
		nc.Close()
		<-f.slots
		return
	}
	f.cfg.Go(func() { f.serve(nc, raw) })
}

// serve reads the front of nc, a trunk's whole hello included, and
// dispatches it.
func (f *Front) serve(nc net.Conn, raw bool) {
	nc.SetDeadline(time.Now().Add(f.cfg.HandshakeTimeout))
	head := make([]byte, wire.OpenFixedLen)
	n, err := io.ReadAtLeast(nc, head, 4)
	head = head[:n]
	var next func()
	switch {
	case raw && err == nil && wire.IsMuxMagic(head):
		head = head[:max(n, wire.MuxHelloLen)]
		if _, err = io.ReadFull(nc, head[n:]); err != nil {
			nc.Close()
		}
		f.untrack(nc)
		<-f.slots
		if err == nil {
			f.serveTrunk(nc, head)
		}
		return
	case n == 0 && err == io.EOF, err != nil && f.closed():
		nc.Close() // a retired spare, or cut by Close: no protocol fault
	default:
		next = f.handle(nc, head, err)
	}
	if f.untrack(nc) && next != nil {
		nc.SetDeadline(time.Time{})
		next()
	}
	<-f.slots
}

// serveTrunk serves the trunk whose hello serve read as head until it
// ends, or closes it with every trunk slot taken.
func (f *Front) serveTrunk(nc net.Conn, head []byte) {
	select {
	case f.trunks <- struct{}{}:
		defer func() { <-f.trunks }()
	default:
		nc.Close()
		return
	}
	m := f.cfg.Metrics
	g := &gauge{m: m}
	link, err := startServer(Unread(nc, head), LinkConfig{
		Logf:        f.cfg.Logf,
		StreamCount: func(int) { g.mu.Lock(); g.updateLocked(); g.mu.Unlock() },
	})
	if err != nil {
		nc.Close()
		return
	}
	g.link = link
	if !f.track(link, link.Drain) {
		link.Drain()
	}
	defer f.untrack(link)
	f.cfg.Go(link.readLoop)
	m.opened()
	for first := true; ; first = false {
		st, err := link.AcceptStream()
		if err != nil {
			m.closed()
			link.logf("mux: trunk from %v closed: %v", link.RemoteAddr(), err)
			return
		}
		if !first {
			m.reused()
		}
		select {
		case f.slots <- struct{}{}:
			f.start(st, false)
		case <-f.closing:
			st.Close()
		}
	}
}

// Unread returns nc with head, bytes already read off it, put back in
// front of what is still to come.
func Unread(nc net.Conn, head []byte) net.Conn {
	return &prefixConn{nc, io.MultiReader(bytes.NewReader(head), nc)}
}

type prefixConn struct {
	net.Conn
	r io.Reader
}

func (p *prefixConn) Read(b []byte) (int, error) { return p.r.Read(b) }
