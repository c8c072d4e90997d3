package core_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/wire"
)

// startDepot launches a depot on loopback and returns its address.
func startDepot(t *testing.T, cfg depot.Config) (addr string, d *depot.Depot) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d = depot.New(cfg)
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return ln.Addr().String(), d
}

// startTarget launches an LSL listener whose accepted sessions are handed
// to fn on a goroutine.
func startTarget(t *testing.T, fn func(*core.ServerConn)) (addr string, l *core.Listener) {
	t.Helper()
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go fn(sc)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), l
}

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// echoTarget collects the payload and reports it on a channel.
func collectTarget(t *testing.T) (addr string, got chan []byte, errs chan error) {
	got = make(chan []byte, 4)
	errs = make(chan error, 4)
	addr, _ = startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		data, err := io.ReadAll(sc)
		if err != nil {
			errs <- err
			return
		}
		got <- data
	})
	return
}

func TestDirectSessionNoDepot(t *testing.T) {
	addr, got, errs := collectTarget(t)
	payload := randBytes(100_000, 1)
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload mismatch")
		}
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestSingleDepotSession(t *testing.T) {
	addr, got, errs := collectTarget(t)
	dep, _ := startDepot(t, depot.Config{})
	payload := randBytes(1<<20, 2)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload mismatch through depot")
		}
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestThreeDepotCascade(t *testing.T) {
	addr, got, errs := collectTarget(t)
	d1, _ := startDepot(t, depot.Config{})
	d2, _ := startDepot(t, depot.Config{})
	d3, _ := startDepot(t, depot.Config{})
	payload := randBytes(512_000, 3)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{d1, d2, d3}, Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload mismatch through 3-depot cascade")
		}
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestDigestDetectsCorruption(t *testing.T) {
	// A corrupting "depot" flips one payload byte; the target must detect
	// the end-to-end digest mismatch even though every TCP hop was clean.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	targetAddr, _, errs := collectTarget(t)
	go func() {
		up, err := ln.Accept()
		if err != nil {
			return
		}
		hdr, err := wire.ReadOpenHeader(up)
		if err != nil {
			up.Close()
			return
		}
		next, _ := hdr.NextHop()
		down, err := net.Dial("tcp", next)
		if err != nil {
			up.Close()
			return
		}
		hdr.HopIndex++
		enc, _ := hdr.Encode()
		down.Write(enc)
		go io.Copy(up, down)
		// Corrupt the 1000th payload byte.
		buf := make([]byte, 4096)
		var seen int
		for {
			n, err := up.Read(buf)
			if n > 0 {
				if seen <= 1000 && seen+n > 1000 {
					buf[1000-seen] ^= 0xFF
				}
				seen += n
				down.Write(buf[:n])
			}
			if err != nil {
				if tc, ok := down.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
				return
			}
		}
	}()

	payload := randBytes(100_000, 4)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{ln.Addr().String()}, Target: targetAddr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	select {
	case err := <-errs:
		if !errors.Is(err, core.ErrDigestMismatch) {
			t.Fatalf("want digest mismatch, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("corruption not detected")
	}
	c.Close()
}

func TestBackwardChannel(t *testing.T) {
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		io.ReadAll(sc)
		sc.Write([]byte("ack-from-target"))
	})
	dep, _ := startDepot(t, depot.Config{})
	payload := []byte("hello across the cascade")
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: addr},
		core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	reply, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ack-from-target" {
		t.Fatalf("reply=%q", reply)
	}
	c.Close()
}

func TestSessionIDPropagates(t *testing.T) {
	ids := make(chan wire.SessionID, 1)
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		ids <- sc.SessionID()
		io.ReadAll(sc)
		sc.Close()
	})
	dep, _ := startDepot(t, depot.Config{})
	c, err := core.Dial(context.Background(), core.Route{Via: []string{dep}, Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("x"))
	c.CloseWrite()
	select {
	case id := <-ids:
		if id != c.SessionID() {
			t.Fatalf("session id mismatch: %s vs %s", id, c.SessionID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestRouteRecordedAtTarget(t *testing.T) {
	routes := make(chan []string, 1)
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		routes <- sc.Route()
		io.ReadAll(sc)
		sc.Close()
	})
	dep, _ := startDepot(t, depot.Config{})
	c, err := core.Dial(context.Background(), core.Route{Via: []string{dep}, Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	select {
	case r := <-routes:
		if len(r) != 2 || r[0] != dep || r[1] != addr {
			t.Fatalf("route=%v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestDepotBusyRejection(t *testing.T) {
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		io.Copy(io.Discard, sc)
		sc.Close()
	})
	dep, _ := startDepot(t, depot.Config{MaxSessions: 1})
	// Occupy the only slot with a long-lived session.
	c1, err := core.Dial(context.Background(), core.Route{Via: []string{dep}, Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// The second session must be rejected as busy.
	_, err = core.Dial(context.Background(), core.Route{Via: []string{dep}, Target: addr},
		core.WithHandshakeTimeout(3*time.Second))
	if err == nil || !errors.Is(err, core.ErrRejected) {
		t.Fatalf("want busy rejection, got %v", err)
	}
}

func TestDepotRouteUnreachable(t *testing.T) {
	dep, d := startDepot(t, depot.Config{DialTimeout: time.Second})
	_, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: "127.0.0.1:1"}, // nothing listens
		core.WithHandshakeTimeout(5*time.Second))
	if err == nil || !errors.Is(err, core.ErrRejected) {
		t.Fatalf("want route rejection, got %v", err)
	}
	if d.Stats().RejectedRoute == 0 {
		t.Fatal("depot should count the route rejection")
	}
}

func TestTargetRejectsMisroutedHeader(t *testing.T) {
	// A header whose route continues past this listener must be refused.
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Session: wire.NewSessionID(),
		Route:   []string{l.Addr().String(), "elsewhere:1"},
	}
	enc, _ := hdr.Encode()
	nc.Write(enc)
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectRoute {
		t.Fatalf("code=%v", wire.CodeString(acc.Code))
	}
}

func TestEagerDialDoesNotWait(t *testing.T) {
	addr, got, _ := collectTarget(t)
	dep, _ := startDepot(t, depot.Config{})
	payload := randBytes(10_000, 5)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: addr},
		core.WithEager(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("eager payload mismatch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

func TestResumeAfterInterruption(t *testing.T) {
	// The mobility case from the paper's §III: the transport connection
	// dies mid-transfer; the initiator re-dials with the same session ID
	// and continues from the target's confirmed offset, and the end-to-end
	// digest still verifies.
	payload := randBytes(400_000, 6)
	// The first (interrupted) sublink legitimately ends with a truncation
	// error; only a verified completion counts.
	done := make(chan bool, 2)
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		_, err := io.Copy(io.Discard, sc)
		done <- err == nil && sc.Verified()
	})

	id := wire.NewSessionID()
	c1, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))),
		core.WithSession(id), core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	// Send half, then kill the transport abruptly.
	half := len(payload) / 2
	if _, err := c1.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	// Once the target has read the dead sublink to its end, every byte
	// that landed is counted in the offset the resume is offered.
	select {
	case ok := <-done:
		if ok {
			t.Fatal("the interrupted sublink verified")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the target never saw the sublink die")
	}

	c2, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))),
		core.WithSession(id), core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	off := c2.Offset()
	if off <= 0 || off > int64(half) {
		t.Fatalf("resume offset %d, want in (0,%d]", off, half)
	}
	if err := c2.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("the resumed sublink did not verify")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for verified resumed completion")
	}
	c2.Close()
}

// SendReader on a resumed session without a digest must skip the
// confirmed prefix AND count it as written: Written reports the logical
// stream position, exactly as on the digest path.
func TestSendReaderResumeAccountingWithoutDigest(t *testing.T) {
	payload := randBytes(100_000, 7)
	half := int64(len(payload) / 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		hdr, err := wire.ReadOpenHeader(nc)
		if err != nil {
			return
		}
		// Claim half the payload already landed in an earlier sublink.
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session, Offset: uint64(half)}).Encode())
		data, _ := io.ReadAll(nc)
		got <- data
	}()
	c, err := core.Dial(context.Background(), core.Route{Target: ln.Addr().String()},
		core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Offset() != half {
		t.Fatalf("offset=%d, want %d", c.Offset(), half)
	}
	if err := c.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload[half:]) {
			t.Fatal("resumed suffix mismatch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	if c.Written() != int64(len(payload)) {
		t.Fatalf("Written()=%d, want %d (the confirmed prefix must count)", c.Written(), len(payload))
	}
}

func TestConcurrentSessionsThroughOneDepot(t *testing.T) {
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		io.Copy(io.Discard, sc)
	})
	dep, d := startDepot(t, depot.Config{MaxSessions: 64})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := randBytes(64_000, int64(100+i))
			c, err := core.Dial(context.Background(),
				core.Route{Via: []string{dep}, Target: addr},
				core.WithDigest(), core.WithContentLength(int64(len(payload))))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Write(payload); err != nil {
				errs <- err
				return
			}
			if err := c.CloseWrite(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.Stats().Accepted; got != n {
		t.Fatalf("depot accepted %d, want %d", got, n)
	}
}

func TestDialValidatesRoute(t *testing.T) {
	if _, err := core.Dial(context.Background(), core.Route{}); err == nil {
		t.Fatal("empty route accepted")
	}
	if _, err := core.Dial(context.Background(), core.Route{Target: "x:1"},
		core.WithDigest()); !errors.Is(err, core.ErrNeedLength) {
		t.Fatalf("digest without length: %v", err)
	}
}

func TestWriteAfterCloseWriteFails(t *testing.T) {
	addr, _, _ := collectTarget(t)
	c, err := core.Dial(context.Background(), core.Route{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.CloseWrite()
	if _, err := c.Write([]byte("x")); !errors.Is(err, core.ErrClosedWrite) {
		t.Fatalf("err=%v", err)
	}
}

func TestDigestMatchesStdlibMD5(t *testing.T) {
	// White-box check that the wire trailer is the plain MD5 of the stream.
	payload := randBytes(10_000, 7)
	want := md5.Sum(payload)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	trailer := make(chan []byte, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		hdr, err := wire.ReadOpenHeader(nc)
		if err != nil {
			return
		}
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
		body := make([]byte, len(payload))
		io.ReadFull(nc, body)
		tr := make([]byte, wire.DigestLen)
		io.ReadFull(nc, tr)
		trailer <- tr
	}()
	c, err := core.Dial(context.Background(), core.Route{Target: ln.Addr().String()},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	select {
	case tr := <-trailer:
		if !bytes.Equal(tr, want[:]) {
			t.Fatal("trailer is not plain MD5 of the stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}
