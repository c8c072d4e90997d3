package depot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

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

// dispatchInputs covers every arm of the accept dispatch: a session open,
// a trunk hello, a gossip digest, three things it must refuse — a stripe
// group header (a session's payload, not a session), junk, and a stream
// that ends inside its magic — and a stream that ends before its first
// byte (an upstream depot retiring a ready spare), closed without a
// rejection.
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

// wantArm is where the dispatch must send in: a trunk hello only from a
// raw connection, Mux or not, a gossip frame only to a set OnGossip, and
// a session open always.
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

// TestAcceptDispatch runs every input against every combination of Mux
// and OnGossip, on raw connections and on trunk streams.
// Each must reach its arm; each refusal must close within a second, far
// inside the handshake timeout, and count exactly one proto rejection —
// a stream that dies inside its magic included, but not one that ends
// before its first byte.
func TestAcceptDispatch(t *testing.T) {
	for _, in := range dispatchInputs(t) {
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
						if _, err := c.Write(in.data); err != nil {
							t.Fatal(err)
						}
						if in.eof {
							c.(interface{ CloseWrite() error }).CloseWrite()
						}
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

// dialDispatch opens a raw connection to the depot, or a stream on a
// fresh trunk to it.
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

// FuzzAcceptDispatch feeds arbitrary first bytes to the dispatch of a
// depot with any combination of Mux and OnGossip, over net.Pipe with a
// short handshake timeout. Within that timeout (plus scheduling slack)
// the depot must answer or close; it must never panic; and once the peer
// hangs up every admission slot must be back.
func FuzzAcceptDispatch(f *testing.F) {
	for _, in := range dispatchInputs(f) {
		f.Add(in.data, false, false)
		f.Add(in.data, true, true)
	}
	const handshake = 50 * time.Millisecond
	f.Fuzz(func(t *testing.T, data []byte, muxOn, gossipOn bool) {
		cfg := dispatchConfig(muxOn, gossipOn, make(chan struct{}, 1))
		cfg.handshakeTimeout = handshake
		cfg.writeTimeout = handshake
		cfg.DrainTimeout = handshake
		d := New(cfg)
		c, s := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.handle(d.root, s, true)
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			c.Write(data) // returns once the depot read it all or either end closed
		}()

		c.SetReadDeadline(time.Now().Add(handshake + time.Second))
		n, err := c.Read(make([]byte, 1))
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("depot neither answered nor closed %q within its handshake timeout", data)
		}
		c.Close()
		<-wrote
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("dispatch of %q still running after the peer hung up", data)
		}
		d.Close()
		if a := d.Stats().Active; a != 0 {
			t.Fatalf("%d admission slots held after %q", a, data)
		}
	})
}
