package mux

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

// scriptedPeer listens on loopback and runs the i-th script on the i-th
// connection it accepts, closing the connection after. Each script's
// error, if any, is reported when the test ends.
func scriptedPeer(t *testing.T, scripts ...func(net.Conn) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(scripts))
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, script := range scripts {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			wg.Add(1)
			go func(i int, script func(net.Conn) error) {
				defer wg.Done()
				defer nc.Close()
				if err := script(nc); err != nil {
					errs <- fmt.Errorf("peer script %d: %w", i, err)
				}
			}(i, script)
		}
	}()
	return ln.Addr().String()
}

// dialerFrames reads a dialer's hello and then its frames until enough
// says it has seen enough, returning the DATA payload and the frame types
// in the order they came.
func dialerFrames(r io.Reader, enough func(payload int, last uint8) bool) ([]byte, []uint8, error) {
	if _, err := wire.ReadMuxHello(r); err != nil {
		return nil, nil, fmt.Errorf("dialer hello: %w", err)
	}
	var payload []byte
	var types []uint8
	for {
		f, err := wire.ReadMuxFrame(r)
		if err != nil {
			return payload, types, err
		}
		types = append(types, f.Type)
		payload = append(payload, f.Payload...)
		if enough(len(payload), f.Type) {
			return payload, types, nil
		}
	}
}

func sessionHeader(t *testing.T) []byte {
	t.Helper()
	hdr, err := (&wire.OpenHeader{Session: wire.NewSessionID(), Route: []string{"127.0.0.1:1"}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// await fails the test unless ch closes within a generous bound.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}

// TestPoolPipelinesStreamBehindHello: the first stream on a cold trunk
// sends behind the dialer's hello, before the peer's hello comes back. The
// scripted acceptor answers the hello only once it has read the stream's
// OPEN and session header, so a dialer that waits for the reply before
// sending never gets one.
func TestPoolPipelinesStreamBehindHello(t *testing.T) {
	hdr := sessionHeader(t)
	reply := []byte("accepted")
	addr := scriptedPeer(t, func(nc net.Conn) error {
		payload, types, err := dialerFrames(nc, func(n int, _ uint8) bool { return n >= len(hdr) })
		if err != nil {
			return err
		}
		if types[0] != wire.MuxOpen || !bytes.Equal(payload, hdr) {
			return fmt.Errorf("frames %v carried %x, want OPEN then the session header", types, payload)
		}
		out := (&wire.MuxHello{Window: initialWindow}).Encode()
		if _, err := nc.Write(wire.AppendMuxFrame(out, wire.MuxData, 1, reply)); err != nil {
			return err
		}
		io.Copy(io.Discard, nc) // until the pool closes the trunk
		return nil
	})
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("read %q (%v), want %q", got, err, reply)
	}
	if n := met.LinkOpened.Value(); n != 1 {
		t.Fatalf("opened %d trunks, want 1", n)
	}
	if _, ok := c.(*Stream); !ok {
		t.Fatalf("the pool dialed a %T, want a *Stream", c)
	}
}

// TestHelloWindowRule: before the peer's hello a dialer sends at most the
// window it announced. So an acceptor refuses a dialer that announces more
// than its own window, the dialer tops its early streams up when the reply
// grants more, and a reply that grants less fails the link.
func TestHelloWindowRule(t *testing.T) {
	const small = 64 << 10
	cases := []struct {
		name           string
		dialer, answer uint32 // windows: the dialer's, and the acceptor's reply (0: a real Server with window small)
		fails          string // what the link's verdict names, "" when the hello lands
	}{
		{"acceptor refuses a larger dialer window", initialWindow, 0, "hello"},
		{"dialer tops up a larger grant", small, initialWindow, ""},
		{"a smaller grant fails the hello", initialWindow, small, "below"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nc, peer := net.Pipe()
			defer peer.Close()
			release := make(chan struct{})
			srvErr := make(chan error, 1)
			go func() {
				if c.answer == 0 {
					_, err := Server(peer, LinkConfig{window: small})
					peer.Close()
					srvErr <- err
					return
				}
				_, err := wire.ReadMuxHello(peer)
				go io.Copy(io.Discard, peer)
				<-release
				if err == nil {
					_, err = peer.Write((&wire.MuxHello{Window: c.answer}).Encode())
				}
				srvErr <- err
			}()
			l, err := Client(nc, LinkConfig{window: int(c.dialer)})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			early, err := l.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			const sent = 16 << 10
			if c.answer != 0 {
				if _, err := early.Write(make([]byte, sent)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			await(t, l.hello, "the hello verdict never came")
			if c.answer == 0 {
				if err := <-srvErr; err == nil || !strings.Contains(err.Error(), "above") {
					t.Fatalf("acceptor took a %d-byte dialer window over its %d: %v", c.dialer, small, err)
				}
			}
			if c.fails != "" {
				if l.helloErr == nil || !strings.Contains(l.helloErr.Error(), c.fails) {
					t.Fatalf("hello verdict %v, want a failure naming %q", l.helloErr, c.fails)
				}
				await(t, l.Done(), "the link outlived a failed hello")
				if _, err := early.Write([]byte("x")); err == nil {
					t.Fatal("an early stream still writes after its hello failed")
				}
				return
			}
			if l.helloErr != nil {
				t.Fatalf("hello failed: %v", l.helloErr)
			}
			if credit := early.sendCredit; credit != c.answer-sent {
				t.Fatalf("early stream's credit %d after sending %d, want the grant %d less that", credit, sent, c.answer)
			}
			late, err := l.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			if late.sendCredit != c.answer {
				t.Fatalf("a stream opened after the hello starts with %d bytes of credit, want %d", late.sendCredit, c.answer)
			}
		})
	}
}

// writeParkSignal returns a channel that closes once a writer on s has
// parked waiting for credit (see parkSignal).
func writeParkSignal(s *Stream) <-chan struct{} {
	l := &signalLocker{Mutex: &s.mu, unlocked: make(chan struct{})}
	s.mu.Lock()
	s.writeCond = sync.NewCond(l)
	s.wdeadline.cond = s.writeCond
	s.mu.Unlock()
	return l.unlocked
}

// TestTrunkRefused: a peer that predates trunks refuses the hello, here
// once the first stream has sent a window behind it and its writer waits
// for credit. Every stream sent behind that hello fails with
// ErrTrunkRefused, the parked writer and a waiting reader on a second
// stream alike; the trunk never counts as opened, and the next dial to
// that peer goes classic.
func TestTrunkRefused(t *testing.T) {
	parked := make(chan (<-chan struct{}), 1)
	addr := scriptedPeer(t,
		func(nc net.Conn) error {
			_, _, err := dialerFrames(nc, func(n int, _ uint8) bool { return n >= initialWindow })
			<-<-parked // the writer waits for credit, then the refusal lands
			return err
		},
		func(nc net.Conn) error { return nil })
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx := context.Background()

	first, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if first.(*Stream).link != second.(*Stream).link {
		t.Fatal("the second dial opened a trunk of its own behind a pending hello")
	}
	read := make(chan error, 1)
	go func() {
		_, err := second.Read(make([]byte, 1))
		read <- err
	}()
	parked <- writeParkSignal(first.(*Stream))
	if n, err := first.Write(pattern(7, initialWindow+100<<10)); n != initialWindow || !errors.Is(err, ErrTrunkRefused) {
		t.Fatalf("the parked write took %d bytes and ended with %v, want a window and ErrTrunkRefused", n, err)
	}
	if err := <-read; !errors.Is(err, ErrTrunkRefused) {
		t.Fatalf("a read on the second stream ended with %v, want ErrTrunkRefused", err)
	}
	if n := met.LinkOpened.Value(); n != 0 {
		t.Fatalf("a refused trunk counted as opened (%d)", n)
	}
	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*net.TCPConn); !ok {
		t.Fatalf("the next dial after a refusal got %T, not a classic conn", c)
	}
}

// TestPendingHelloOverPipe: over a synchronous net.Pipe, Client writes
// only its hello before returning, so a stream opened at once moves more
// than a window each way while the peer's hello is still on its way.
func TestPendingHelloOverPipe(t *testing.T) {
	a, b := net.Pipe()
	srvc := make(chan *Link, 1)
	go func() {
		l, err := Server(b, LinkConfig{})
		if err != nil {
			b.Close()
		}
		srvc <- l
	}()
	client, err := Client(a, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvc
	if srv == nil {
		t.Fatal("server hello failed")
	}
	defer srv.Close()
	go func() {
		ss, err := srv.AcceptStream()
		if err != nil {
			return
		}
		io.Copy(ss, ss)
		ss.CloseWrite()
	}()
	payload := pattern(3, 3*initialWindow)
	go func() {
		s.Write(payload)
		s.CloseWrite()
	}()
	s.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(s)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("echoed %d of %d bytes (%v)", len(got), len(payload), err)
	}
}

// TestPoolCloseWhileHelloPending: a trunk counts as opened only once its
// hello lands, and every trunk counted opened is counted closed, so
// opened − closed is the live trunk count also when the pool closes
// around a trunk whose hello is still out. A session on such a trunk
// fails with ErrPoolClosed.
func TestPoolCloseWhileHelloPending(t *testing.T) {
	t.Run("hello after Close", func(t *testing.T) {
		read, gate := make(chan struct{}), make(chan struct{})
		addr := scriptedPeer(t, func(nc net.Conn) error {
			if _, err := wire.ReadMuxHello(nc); err != nil {
				return err
			}
			close(read)
			<-gate
			nc.Write((&wire.MuxHello{Window: initialWindow}).Encode()) // the dialer is gone
			io.Copy(io.Discard, nc)
			return nil
		})
		met, _ := poolMetrics(t)
		p := NewPool(PoolConfig{Metrics: met})
		retired := make(chan *Link, 1)
		p.retired = retired
		closed := make(chan struct{})
		res := make(chan error, 1)
		go func() {
			c, err := p.DialContext(context.Background(), "tcp", addr)
			if err == nil {
				<-closed
				_, err = c.Write([]byte("late"))
				c.Close()
			}
			res <- err
		}()
		await(t, read, "the dialer's hello never came")
		p.Close()
		close(closed)
		close(gate)
		if err := <-res; !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("a session on a trunk closed before its hello ended with %v, want ErrPoolClosed", err)
		}
		awaitRetired(t, retired, "the trunk was never retired")
		if o, c := met.LinkOpened.Value(), met.LinkClosed.Value(); o != c {
			t.Fatalf("opened %d, closed %d", o, c)
		}
		if _, err := p.DialContext(context.Background(), "tcp", addr); err != ErrPoolClosed {
			t.Fatalf("dial on a closed pool: %v, want ErrPoolClosed", err)
		}
	})
	t.Run("hello before Close", func(t *testing.T) {
		addr := muxEchoServer(t)
		met, _ := poolMetrics(t)
		p := NewPool(PoolConfig{Metrics: met})
		retired := make(chan *Link, 1)
		p.retired = retired
		c, err := p.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, "landed")
		p.Close()
		awaitRetired(t, retired, "the trunk was never retired")
		if o, c := met.LinkOpened.Value(), met.LinkClosed.Value(); o != 1 || c != 1 {
			t.Fatalf("opened %d, closed %d; want 1 and 1", o, c)
		}
	})
}
