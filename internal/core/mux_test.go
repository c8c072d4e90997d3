package core_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/metrics"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// TestEagerFirstWriteCarriesHeader proves the eager dial stages the open
// header and the first payload write delivers header, payload, and digest
// trailer in order with correct accounting.
func TestEagerFirstWriteCarriesHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type serverResult struct {
		hdr     *wire.OpenHeader
		body    []byte
		trailer []byte
		err     error
	}
	done := make(chan serverResult, 1)
	payload := randBytes(100_000, 42)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		defer nc.Close()
		var r serverResult
		r.hdr, r.err = wire.ReadOpenHeader(nc)
		if r.err != nil {
			done <- r
			return
		}
		r.body = make([]byte, len(payload))
		if _, r.err = io.ReadFull(nc, r.body); r.err != nil {
			done <- r
			return
		}
		r.trailer = make([]byte, wire.DigestLen)
		_, r.err = io.ReadFull(nc, r.trailer)
		done <- r
	}()

	c, err := core.Dial(context.Background(),
		core.Route{Target: ln.Addr().String()},
		core.WithEager(), core.WithDigest(),
		core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Write(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Written counts payload only — the coalesced header must not inflate
	// the stream position (resume offsets depend on it).
	if n != len(payload) || c.Written() != int64(len(payload)) {
		t.Fatalf("write accounting: n=%d written=%d, want %d", n, c.Written(), len(payload))
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.hdr.Flags&wire.FlagEager == 0 {
		t.Fatal("header lost the eager flag")
	}
	if !bytes.Equal(r.body, payload) {
		t.Fatal("payload corrupted through the coalesced write")
	}
	sum := md5.Sum(payload)
	if !bytes.Equal(r.trailer, sum[:]) {
		t.Fatal("digest trailer mismatch")
	}
}

// TestEagerReadFlushesStagedHeader covers the other first-use path: an
// eager session that reads the backward channel before writing any
// payload must still deliver the open header first — and gets the peer's
// reply, not the accept frame that precedes it.
func TestEagerReadFlushesStagedHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
		nc.Write([]byte("pong"))
	}()

	c, err := core.Dial(context.Background(),
		core.Route{Target: ln.Addr().String()}, core.WithEager())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Fatalf("backward channel read %q", buf)
	}
}

// TestDialWithMuxTrunksIntoListener: a target's Listener serves trunks.
// A pool carries two digest-verified sessions into it on one trunk; a
// session cut off on its stream resumes on another at the offset the
// target counted; and Close ends the trunk.
func TestDialWithMuxTrunksIntoListener(t *testing.T) {
	verified := make(chan bool, 4)
	addr, l := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		_, err := io.Copy(io.Discard, sc)
		verified <- err == nil && sc.Verified()
	})
	reg := metrics.NewRegistry()
	met := &mux.PoolMetrics{
		LinkOpened: reg.Counter("opened", "t"),
		LinkReused: reg.Counter("reused", "t"),
	}
	// The trunk's socket reports when the listener hangs up on it.
	hungUp := make(chan struct{})
	var once sync.Once
	pool := mux.NewPool(mux.PoolConfig{Metrics: met, Logf: t.Logf,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			nc, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &hangupConn{Conn: nc, hungUp: func() { once.Do(func() { close(hungUp) }) }}, nil
		}})
	defer pool.Close()
	payload := randBytes(200_000, 7)
	dial := func(opts ...core.Option) *core.Conn {
		t.Helper()
		opts = append([]core.Option{core.WithDialer(pool.DialContext), core.WithDigest(),
			core.WithContentLength(int64(len(payload)))}, opts...)
		c, err := core.Dial(context.Background(), core.Route{Target: addr}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	expect := func(want bool, what string) {
		t.Helper()
		select {
		case ok := <-verified:
			if ok != want {
				t.Fatalf("%s: verified %v, want %v", what, ok, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the target never finished the session", what)
		}
	}

	for i := 0; i < 2; i++ {
		c := dial()
		if err := c.SendReader(bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		expect(true, "a session on the trunk")
		c.Close()
	}

	id := wire.NewSessionID()
	c1 := dial(core.WithSession(id), core.WithResume())
	half := len(payload) / 2
	if _, err := c1.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	expect(false, "the interrupted stream")
	c2 := dial(core.WithSession(id), core.WithResume())
	if off := c2.Offset(); off <= 0 || off > int64(half) {
		t.Fatalf("resume offset %d, want in (0,%d]", off, half)
	}
	if err := c2.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	expect(true, "the resumed stream")
	c2.Close()
	if o, r := met.LinkOpened.Value(), met.LinkReused.Value(); o != 1 || r != 3 {
		t.Fatalf("opened %d trunks and reused them %d times, want 1 and 3", o, r)
	}

	// Every session on the trunk is closed, so Close ends it at once.
	l.Close()
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("the trunk outlived the listener's Close")
	}
}

// hangupConn calls hungUp once a Read on it fails.
type hangupConn struct {
	net.Conn
	hungUp func()
}

func (c *hangupConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.hungUp()
	}
	return n, err
}

// TestDialWithMuxEagerThroughDepot combines the two new dial paths: an
// eager session with a staged header, over a multiplexed stream from the
// pool, relayed by a mux depot — digest verified at the target.
func TestDialWithMuxEagerThroughDepot(t *testing.T) {
	addr, got, errs := collectTarget(t)
	dep, _ := startDepot(t, depot.Config{Mux: true})
	pool := mux.NewPool(mux.PoolConfig{Logf: t.Logf})
	defer pool.Close()

	payload := randBytes(500_000, 8)
	for i := 0; i < 2; i++ {
		c, err := core.Dial(context.Background(),
			core.Route{Via: []string{dep}, Target: addr},
			core.WithDialer(pool.DialContext), core.WithEager(), core.WithDigest(),
			core.WithContentLength(int64(len(payload))))
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
		case <-time.After(10 * time.Second):
			t.Fatal("timeout")
		}
		c.Close()
	}
	if pool.Links() != 1 {
		t.Fatalf("pool holds %d trunks to the depot, want 1 warm trunk", pool.Links())
	}
}
