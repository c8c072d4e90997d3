package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// One connection that never sends its open header must not hold up the
// sessions behind it: the listener handshakes connections concurrently,
// so a real session that connects after a silent one (and after one
// sending garbage, which is still skipped) is accepted at once, not after
// the silent one's handshake timeout. Close then ends a blocked Accept
// and the handshake still waiting on the silent connection.
func TestListenerSilentConnDoesNotStallAccept(t *testing.T) {
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetHandshakeTimeout(time.Minute)
	addr := l.Addr().String()

	// Ahead of the session in the accept backlog: one connection that says
	// nothing, one that speaks HTTP.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	accepted := make(chan *core.ServerConn, 1)
	go func() {
		if sc, err := l.Accept(); err == nil {
			accepted <- sc
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := core.Dial(ctx, core.Route{Target: addr})
	if err != nil {
		t.Fatalf("session behind a silent connection: %v", err)
	}
	defer c.Close()
	select {
	case sc := <-accepted:
		defer sc.Close()
		if sc.SessionID() != c.SessionID() {
			t.Fatalf("accepted session %s, want %s", sc.SessionID(), c.SessionID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return the session queued behind a silent connection")
	}

	// The silent connection was taken off the backlog before the session,
	// so its handshake is still waiting: Close must end it and the Accept
	// blocked behind it.
	acceptErr := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		acceptErr <- err
	}()
	l.Close()
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("Accept after Close returned a session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Accept")
	}
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := silent.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("silent connection read %v after Close, want it closed", err)
	}
}

// dialN opens n connections to addr and writes b on each.
func dialN(t *testing.T, addr string, n int, b []byte) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

// expectClosed fails unless the listener closed c within 5 s.
func expectClosed(t *testing.T, c net.Conn, what string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.Copy(io.Discard, c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("%s still open after 5 s", what)
	}
}

// frontOwners are the two owners of the accept front, a target's
// Listener and a depot, each started on a fresh loopback port. Both get
// the front's bounds; only the Listener's handshake timeout can be
// shortened from here, so the rows below wait on neither's. probe
// reports whether a session opened within wait was handshaken: at a
// Listener, core.Dial succeeds and Accept returns that session (or the
// test fails); a depot, its last hop, answers a raw header with a route
// rejection.
var frontOwners = []struct {
	name  string
	start func(t *testing.T) (addr string, probe func(wait time.Duration) bool, stop func())
}{
	{"listener", func(t *testing.T) (string, func(time.Duration) bool, func()) {
		l, err := core.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		l.SetHandshakeTimeout(time.Minute)
		addr := l.Addr().String()
		accepted := make(chan *core.ServerConn, 1)
		go func() {
			for {
				sc, err := l.Accept()
				if err != nil {
					return
				}
				select {
				case accepted <- sc:
				default:
					sc.Close()
				}
			}
		}()
		probe := func(wait time.Duration) bool {
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			c, err := core.Dial(ctx, core.Route{Target: addr})
			if err != nil {
				return false
			}
			defer c.Close()
			select {
			case sc := <-accepted:
				sc.Close()
				if sc.SessionID() != c.SessionID() {
					t.Fatalf("accepted session %s, want %s", sc.SessionID(), c.SessionID())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Accept did not return the session")
			}
			return true
		}
		return addr, probe, func() { l.Close() }
	}},
	{"depot", func(t *testing.T) (string, func(time.Duration) bool, func()) {
		addr, d := startDepot(t, depot.Config{})
		return addr, func(wait time.Duration) bool { return answersRaw(t, addr, wait) }, func() { d.Close() }
	}},
}

// answersRaw reports whether the owner at addr answers a raw open header
// naming addr its last hop with an accept frame within wait.
func answersRaw(t *testing.T, addr string, wait time.Duration) bool {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr, err := (&wire.OpenHeader{Session: wire.NewSessionID(), Route: []string{addr}, ContentLen: wire.UnknownLength}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(wait))
	_, err = wire.ReadAcceptFrame(c)
	return err == nil
}

// A connection that says nothing, or sends the trunk magic and stops
// inside the rest of its hello, holds a handshake slot, as one that stops
// inside its open header does. 200 of them hold at most MaxHandshakes
// handshakes, at a target and at a depot alike: a real session waits for
// a slot, no goroutine is spent on the connections beyond the bound, and
// Close ends them all. Once their handshake timeout passes, a real
// session is accepted again.
func TestListenerBoundsSilentTrunkHellos(t *testing.T) {
	t.Run("held", func(t *testing.T) {
		for _, owner := range frontOwners {
			t.Run(owner.name, func(t *testing.T) {
				addr, probe, stop := owner.start(t)
				base := runtime.NumGoroutine()
				silent := dialN(t, addr, 100, nil)
				silent = append(silent, dialN(t, addr, 100, wire.MagicMux[:])...)
				if probe(500 * time.Millisecond) {
					t.Fatal("a session was handshaken while every slot was held by a silent connection")
				}
				if n := runtime.NumGoroutine() - base; n > mux.MaxHandshakes+8 {
					t.Fatalf("%d more goroutines with %d silent connections, want about %d", n, len(silent), mux.MaxHandshakes)
				}
				stop()
				for i, c := range silent {
					expectClosed(t, c, fmt.Sprintf("silent connection %d", i))
				}
			})
		}
	})
	t.Run("expired", func(t *testing.T) {
		l, err := core.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		l.SetHandshakeTimeout(200 * time.Millisecond)
		addr := l.Addr().String()
		accepted := make(chan *core.ServerConn, 1)
		go func() {
			if sc, err := l.Accept(); err == nil {
				accepted <- sc
			}
		}()
		dialN(t, addr, mux.MaxHandshakes+1, wire.MagicMux[:])
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c, err := core.Dial(ctx, core.Route{Target: addr})
		if err != nil {
			t.Fatalf("session behind silent trunk hellos that timed out: %v", err)
		}
		defer c.Close()
		select {
		case sc := <-accepted:
			sc.Close()
		case <-time.After(10 * time.Second):
			t.Fatal("Accept did not return the session")
		}
	})
}

// A target or a depot serves at most MaxTrunks trunks: the hello past
// them is closed unanswered, which a link pool reads as a refusal, and a
// classic session still gets in. Close ends the trunks it serves, idle as
// they are.
func TestListenerBoundsTrunks(t *testing.T) {
	for _, owner := range frontOwners {
		t.Run(owner.name, func(t *testing.T) {
			addr, probe, stop := owner.start(t)
			hello := (&wire.MuxHello{Window: 64 << 10}).Encode()
			var served []net.Conn
			refused := 0
			for _, c := range dialN(t, addr, mux.MaxTrunks+1, hello) {
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := wire.ReadMuxHello(c); err == nil {
					served = append(served, c)
					continue
				}
				refused++
				expectClosed(t, c, "the trunk hello past the bound")
			}
			if len(served) != mux.MaxTrunks || refused != 1 {
				t.Fatalf("%d trunks served and %d refused, want %d and 1", len(served), refused, mux.MaxTrunks)
			}

			pool := mux.NewPool(mux.PoolConfig{})
			defer pool.Close()
			c, err := pool.DialContext(context.Background(), "tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err = c.Write([]byte("LSL1")); err == nil {
				_, err = c.Read(make([]byte, 1))
			}
			c.Close()
			if !errors.Is(err, mux.ErrTrunkRefused) {
				t.Fatalf("a stream on the trunk past the bound ended with %v, want mux.ErrTrunkRefused", err)
			}

			if !probe(5 * time.Second) {
				t.Fatalf("no session handshaken beside %d trunks", mux.MaxTrunks)
			}
			stop()
			for i, c := range served {
				expectClosed(t, c, fmt.Sprintf("idle trunk %d", i))
			}
		})
	}
}

// Handshakes run concurrently with the application's reads, so a resumed
// sublink can be accepted while the one it replaces still holds unread
// payload. The resume takes the session over at the offset counted so
// far: the old sublink is closed and counts nothing more, and the new one
// carries the rest — the stream stays exact and its digest verifies.
func TestListenerResumeSupersedesDrainingSublink(t *testing.T) {
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scs := make(chan *core.ServerConn, 2)
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			scs <- sc
		}
	}()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16<<10)
	route := core.Route{Target: l.Addr().String()}
	id := wire.NewSessionID()
	opts := []core.Option{core.WithSession(id), core.WithDigest(), core.WithContentLength(int64(len(payload)))}

	c1, err := core.Dial(context.Background(), route, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	old := <-scs

	// The application has not read the first sublink yet.
	c2, err := core.Dial(context.Background(), route, append(opts, core.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Offset() != 0 {
		t.Fatalf("resume offset %d, want 0: nothing was read before the resume", c2.Offset())
	}
	resumed := <-scs
	if got, err := io.ReadAll(old); err == nil || len(got) != 0 {
		t.Fatalf("superseded sublink read %d bytes, err %v; want nothing and an error", len(got), err)
	}

	sent := make(chan error, 1)
	go func() { sent <- c2.SendReader(bytes.NewReader(payload)) }()
	got, err := io.ReadAll(resumed)
	if err != nil {
		t.Fatalf("resumed sublink: %v", err)
	}
	if !bytes.Equal(got, payload) || !resumed.Verified() {
		t.Fatalf("resumed sublink read %d of %d bytes, verified=%v", len(got), len(payload), resumed.Verified())
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// A digested open without a content length cannot be served: the target
// would not know where the trailer starts. The listener refuses it with
// CodeRejectProto before it registers resume state or answers CodeOK, and
// the next valid session is the first one Accept returns.
func TestListenerRefusesDigestWithoutLength(t *testing.T) {
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	accepted := make(chan *core.ServerConn, 1)
	go func() {
		if sc, err := l.Accept(); err == nil {
			accepted <- sc
		}
	}()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Flags:      wire.FlagDigest,
		Session:    wire.NewSessionID(),
		Route:      []string{addr},
		ContentLen: wire.UnknownLength,
	}
	enc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectProto {
		t.Fatalf("code=%s, want %s", wire.CodeString(acc.Code), wire.CodeString(wire.CodeRejectProto))
	}
	if n := l.ResumeStates(); n != 0 {
		t.Fatalf("ResumeStates=%d after a refused open, want 0", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := core.Dial(ctx, core.Route{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case sc := <-accepted:
		defer sc.Close()
		if sc.SessionID() != c.SessionID() {
			t.Fatalf("accepted session %s, want %s", sc.SessionID(), c.SessionID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return the valid session")
	}
}

// A target refuses to forward a non-final header. An initiator that
// pipelines its payload behind the header is still sending then, and the
// refusal must end the sublink without a reset: the reject frame, then a
// clean EOF, with the payload that kept arriving swallowed.
func TestListenerRefuseLingersBehindPipelinedPayload(t *testing.T) {
	addr, _ := startTarget(t, func(sc *core.ServerConn) { sc.Close() })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      []string{addr, "127.0.0.1:1"},
		ContentLen: wire.UnknownLength,
	}
	enc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.Write(append(enc, bytes.Repeat([]byte{0x5A}, 1<<20)...)) // the target need not take it all
	}()
	defer func() { nc.Close(); <-wrote }()

	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectRoute || acc.Session != hdr.Session {
		t.Fatalf("frame = %s for %s, want %s for this session",
			wire.CodeString(acc.Code), acc.Session, wire.CodeString(wire.CodeRejectRoute))
	}
	if rest, err := io.ReadAll(nc); err != nil || len(rest) != 0 {
		t.Fatalf("after the reject frame: %d bytes, %v; want a clean EOF, not a reset", len(rest), err)
	}
}
