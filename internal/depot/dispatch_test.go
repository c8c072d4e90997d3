package depot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/stripe"
	"lsl/internal/wire"
)

// dispatchInput is the front of one inbound stream; eof ends the stream
// right behind the bytes.
type dispatchInput struct {
	name string
	data []byte
	eof  bool
}

// dispatchInputs covers every arm of the accept front and its owners'
// handlers: a session open, a trunk hello, a gossip digest, three things
// it must refuse — a stripe group header (a session's payload, not a
// session), junk, and a stream that ends inside its magic — and a stream
// that ends before its first byte (an upstream depot retiring a ready
// spare), closed without a rejection.
func dispatchInputs(tb testing.TB) []dispatchInput {
	open, err := (&wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      []string{"depot:1", "target:1"},
		ContentLen: wire.UnknownLength,
	}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	gossip, err := (&wire.GossipFrame{Kind: wire.GossipDigest, Self: "peer"}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return []dispatchInput{
		{name: "open", data: open},
		{name: "trunk", data: (&wire.MuxHello{Window: 64 << 10}).Encode()},
		{name: "gossip", data: gossip},
		{name: "stripe", data: (&stripe.GroupHeader{Count: 1, TotalLen: 10}).Encode()},
		{name: "junk", data: []byte{0x00, 0xff, 0x13, 0x37}},
		{name: "short", data: []byte("LS"), eof: true},
		{name: "empty", eof: true},
	}
}

// wantArm is where the front must send in: a trunk hello only from a raw
// connection, Mux or not, a gossip frame only to a set OnGossip (a
// Listener has none), and a session open always (a Listener refuses the
// depot route with an accept frame).
func wantArm(in string, raw, gossipOn bool) string {
	switch {
	case in == "open":
		return "session"
	case in == "trunk" && raw:
		return "trunk"
	case in == "gossip" && gossipOn:
		return "gossip"
	}
	return "refused"
}

// dispatchConfig builds a depot config whose next hops are all dead (a
// session open is answered with a route rejection) and whose gossip
// handler, when on, reports each exchange it is handed.
func dispatchConfig(muxOn, gossipOn bool, gossiped chan struct{}) Config {
	cfg := Config{
		Mux: muxOn,
		Dial: func(context.Context, string, string) (net.Conn, error) {
			return nil, errors.New("no next hop")
		},
	}
	if gossipOn {
		cfg.OnGossip = func(c net.Conn) {
			select {
			case gossiped <- struct{}{}:
			default:
			}
			c.Close()
		}
	}
	return cfg
}

// observeArm names the arm that answered on c within a second: the
// session path sends an accept frame, a trunk its hello, and the gossip
// handler and a refusal both close (told apart by gossiped).
func observeArm(c net.Conn, gossiped chan struct{}) string {
	c.SetReadDeadline(time.Now().Add(time.Second))
	var magic [4]byte
	_, err := io.ReadFull(c, magic[:])
	switch {
	case err == nil && string(magic[:]) == "LSLA":
		return "session"
	case err == nil && wire.IsMuxMagic(magic[:]):
		return "trunk"
	case err == nil:
		return fmt.Sprintf("reply %q", magic[:])
	case errors.Is(err, os.ErrDeadlineExceeded):
		return "nothing within 1s"
	}
	select {
	case <-gossiped:
		return "gossip"
	default:
		return "refused"
	}
}

// TestAcceptDispatch runs every input against a depot with every
// combination of Mux and OnGossip, and against a core.Listener, on raw
// connections and on trunk streams. Each must reach its arm, and each
// refusal must close within a second, far inside the handshake timeout.
// At a depot a refusal counts exactly one proto rejection — a stream
// that dies inside its magic included, but not one that ends before its
// first byte; a Listener hands none of them to Accept.
func TestAcceptDispatch(t *testing.T) {
	for _, in := range dispatchInputs(t) {
		for _, raw := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/listener/raw=%v", in.name, raw), func(t *testing.T) {
				l, err := core.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				accepted := make(chan *core.ServerConn, 1)
				go func() {
					if sc, err := l.Accept(); err == nil {
						accepted <- sc
					}
				}()
				c := dialDispatch(t, l.Addr().String(), raw)
				defer c.Close()
				sendInput(t, c, in)
				if got, want := observeArm(c, nil), wantArm(in.name, raw, false); got != want {
					t.Fatalf("reached %s, want %s", got, want)
				}
				select {
				case sc := <-accepted:
					sc.Close()
					t.Fatal("Accept returned a session")
				default:
				}
			})
		}
		for _, muxOn := range []bool{false, true} {
			for _, gossipOn := range []bool{false, true} {
				for _, raw := range []bool{true, false} {
					name := fmt.Sprintf("%s/mux=%v/gossip=%v/raw=%v", in.name, muxOn, gossipOn, raw)
					t.Run(name, func(t *testing.T) {
						gossiped := make(chan struct{}, 1)
						cfg := dispatchConfig(muxOn, gossipOn, gossiped)
						cfg.handshakeTimeout = 10 * time.Second
						d, addr := runDepot(t, cfg)
						c := dialDispatch(t, addr, raw)
						defer c.Close()
						sendInput(t, c, in)
						want := wantArm(in.name, raw, gossipOn)
						if got := observeArm(c, gossiped); got != want {
							t.Fatalf("reached %s, want %s", got, want)
						}
						wantProto := uint64(0)
						if want == "refused" && in.name != "empty" {
							wantProto = 1
						}
						if got := d.Stats().RejectedProto; got != wantProto {
							t.Fatalf("rejected{proto} = %d, want %d", got, wantProto)
						}
					})
				}
			}
		}
	}
}

// sendInput writes in on c, and ends c's write side behind it if it says
// so.
func sendInput(t *testing.T, c net.Conn, in dispatchInput) {
	t.Helper()
	if _, err := c.Write(in.data); err != nil {
		t.Fatal(err)
	}
	if in.eof {
		c.(interface{ CloseWrite() error }).CloseWrite()
	}
}

// dialDispatch opens a raw connection to addr, or a stream on a fresh
// trunk to it.
func dialDispatch(t *testing.T, addr string, raw bool) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if raw {
		return nc
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	link, err := mux.Client(nc, mux.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })
	st, err := link.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// listenOnce is a net.Listener that hands out one connection, then
// blocks until it is closed.
type listenOnce struct {
	nc     chan net.Conn
	addr   net.Addr
	closed chan struct{}
	once   sync.Once
}

func newListenOnce(nc net.Conn) *listenOnce {
	l := &listenOnce{nc: make(chan net.Conn, 1), addr: nc.LocalAddr(), closed: make(chan struct{})}
	l.nc <- nc
	return l
}

func (l *listenOnce) Accept() (net.Conn, error) {
	select {
	case nc := <-l.nc:
		return nc, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *listenOnce) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *listenOnce) Addr() net.Addr { return l.addr }

// hurried caps every deadline set through SetDeadline at d from now: a
// Listener's handshake timeout is not a knob, so a test shortens it on
// the connection.
type hurried struct {
	net.Conn
	d time.Duration
}

func (h hurried) SetDeadline(t time.Time) error {
	if cap := time.Now().Add(h.d); !t.IsZero() && t.After(cap) {
		t = cap
	}
	return h.Conn.SetDeadline(t)
}

// FuzzAcceptDispatch feeds arbitrary first bytes over net.Pipe, with a
// short handshake timeout, to the accept front of a depot with any
// combination of Mux and OnGossip (Depot.Serve), or of a core.Listener
// (Listener.Accept), each on a listener that hands out that one pipe.
// Within that timeout (plus scheduling slack) the owner must answer or
// close; it must never panic; and once the peer hangs up a depot's
// handling must end with every admission slot back.
func FuzzAcceptDispatch(f *testing.F) {
	for _, in := range dispatchInputs(f) {
		f.Add(in.data, false, false, false)
		f.Add(in.data, true, true, false)
	}
	for _, in := range dispatchInputs(f) {
		f.Add(in.data, false, false, true)
	}
	const handshake = 50 * time.Millisecond
	f.Fuzz(func(t *testing.T, data []byte, muxOn, gossipOn, listener bool) {
		c, s := net.Pipe()
		var d *Depot
		if listener {
			l := core.NewListener(newListenOnce(hurried{s, handshake}))
			defer l.Close()
			go func() {
				if sc, err := l.Accept(); err == nil {
					sc.Close()
				}
			}()
		} else {
			cfg := dispatchConfig(muxOn, gossipOn, make(chan struct{}, 1))
			cfg.handshakeTimeout = handshake
			cfg.writeTimeout = handshake
			cfg.DrainTimeout = handshake
			d = New(cfg)
			go d.Serve(newListenOnce(s))
		}
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			c.Write(data) // returns once the owner read it all or either end closed
		}()

		c.SetReadDeadline(time.Now().Add(handshake + time.Second))
		n, err := c.Read(make([]byte, 1))
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("front neither answered nor closed %q within its handshake timeout", data)
		}
		c.Close()
		<-wrote
		if d == nil {
			return
		}
		// The depot answered or closed, so it already handles the pipe on
		// its wait group.
		handled := make(chan struct{})
		go func() {
			d.wg.Wait()
			close(handled)
		}()
		select {
		case <-handled:
		case <-time.After(5 * time.Second):
			t.Fatalf("handling of %q still running after the peer hung up", data)
		}
		d.Close()
		if a := d.Stats().Active; a != 0 {
			t.Fatalf("%d admission slots held after %q", a, data)
		}
	})
}
