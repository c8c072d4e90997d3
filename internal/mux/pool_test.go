package mux

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/metrics"
	"lsl/internal/wire"
)

// muxEchoServer accepts trunks and echoes every stream.
func muxEchoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				l, err := Server(nc, LinkConfig{})
				if err != nil {
					nc.Close()
					return
				}
				for {
					s, err := l.AcceptStream()
					if err != nil {
						return
					}
					go func(s *Stream) {
						defer s.Close()
						io.Copy(s, s)
						s.CloseWrite()
					}(s)
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// classicServer is a session target that predates trunks. It reads an
// open header first, so a trunk hello is refused as a bad magic; it
// counts those refused probes and echoes each session's payload.
func classicServer(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var probes atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				if _, err := wire.ReadOpenHeader(nc); err != nil {
					if err == wire.ErrBadMagic {
						probes.Add(1)
					}
					return
				}
				io.Copy(nc, nc)
			}(nc)
		}
	}()
	return ln.Addr().String(), &probes
}

func poolMetrics(t *testing.T) (*PoolMetrics, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	return &PoolMetrics{
		LinkOpened:      reg.Counter("lsl_link_opened_total", "t"),
		LinkReused:      reg.Counter("lsl_link_reused_total", "t"),
		LinkClosed:      reg.Counter("lsl_link_closed_total", "t"),
		Streams:         reg.Gauge("lsl_mux_streams", "t"),
		StreamHighWater: reg.Gauge("lsl_mux_stream_high_water", "t"),
	}, reg
}

func roundTrip(t *testing.T, c net.Conn, msg string) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != msg {
		t.Fatalf("echo mismatch: %q", buf)
	}
}

// awaitRetired waits for the pool to report a trunk retired: dead, counted
// closed and out of the pool.
func awaitRetired(t *testing.T, retired <-chan *Link, msg string) {
	t.Helper()
	select {
	case <-retired:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

func TestPoolReusesTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, "ping")
		c.Close()
	}
	if got := met.LinkOpened.Value(); got != 1 {
		t.Fatalf("expected 1 trunk, opened %d", got)
	}
	if got := met.LinkReused.Value(); got != 4 {
		t.Fatalf("expected 4 reuses, got %d", got)
	}
	if p.Links() != 1 {
		t.Fatalf("expected 1 live link, got %d", p.Links())
	}
}

func TestPoolMaxStreamsOpensSecondTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, maxStreamsPerLink: 2})
	defer p.Close()
	ctx := context.Background()

	var conns []net.Conn
	for i := 0; i < 5; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		roundTrip(t, c, "hi")
	}
	// A trunk counts as opened once its hello lands, which a round trip on
	// each of its streams has seen.
	if got := met.LinkOpened.Value(); got != 3 { // ceil(5/2)
		t.Fatalf("expected 3 trunks for 5 concurrent streams at max 2, got %d", got)
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestPoolFallsBackToClassic dials a peer that predates trunks three
// times: the first session's trunk is refused within a round trip and the
// session fails with ErrTrunkRefused; the negative cache sends the other
// two classic, with no probe of their own.
func TestPoolFallsBackToClassic(t *testing.T) {
	addr, probes := classicServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx := context.Background()
	hdr, err := (&wire.OpenHeader{Session: wire.NewSessionID(), Route: []string{addr}}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err = c.Write(hdr); err == nil {
		_, err = c.Read(make([]byte, 1))
	}
	if !errors.Is(err, ErrTrunkRefused) {
		t.Fatalf("a session on a refused trunk ended with %v, want ErrTrunkRefused", err)
	}
	c.Close()
	for i := 0; i < 2; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(*Stream); ok {
			t.Fatal("got a mux stream from a peer that refused a trunk")
		}
		if _, err := c.Write(hdr); err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, "classic session")
		c.Close()
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("three dials took %v: the probe waited out a timeout", took)
	}
	if got := met.LinkOpened.Value(); got != 0 {
		t.Fatalf("no trunks should open against a pre-trunk peer, got %d", got)
	}
	if got := probes.Load(); got != 1 {
		t.Fatalf("peer saw %d trunk probes across three dials, want 1", got)
	}
}

// TestPoolStreamGauge checks the dial side drives the live-stream gauge:
// two open streams read 2, and 0 once both close.
func TestPoolStreamGauge(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx := context.Background()

	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, "open")
		conns = append(conns, c)
	}
	if got := met.Streams.Value(); got != 2 {
		t.Fatalf("gauge reads %d with two streams open, want 2", got)
	}
	if got := met.StreamHighWater.Value(); got != 2 {
		t.Fatalf("high water reads %d, want 2", got)
	}
	for _, c := range conns {
		c.Close()
	}
	if got := met.Streams.Value(); got != 0 {
		t.Fatalf("gauge reads %d after both streams closed, want 0", got)
	}
}

func TestPoolIdleTimeoutClosesTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, idleTimeout: 100 * time.Millisecond})
	defer p.Close()
	retired := make(chan *Link, 1)
	p.retired = retired
	ctx := context.Background()

	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, "one")
	c.Close()

	awaitRetired(t, retired, "idle trunk never closed")
	if n := p.Links(); n != 0 {
		t.Fatalf("pool still holds %d links after the idle trunk closed", n)
	}
	if met.LinkClosed.Value() != 1 {
		t.Fatalf("expected 1 link close, got %d", met.LinkClosed.Value())
	}

	// The next session transparently opens a fresh trunk.
	c2, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c2, "two")
	c2.Close()
	if met.LinkOpened.Value() != 2 {
		t.Fatalf("expected a second trunk after idle close, got %d opens", met.LinkOpened.Value())
	}
}

// TestPoolReplacesDeadTrunk kills the TCP conn under a warm trunk and
// checks the next dial gets a fresh working link instead of the corpse.
func TestPoolReplacesDeadTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	var mu sync.Mutex
	var raw []net.Conn
	dial := func(ctx context.Context, network, a string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, network, a)
		if err == nil {
			mu.Lock()
			raw = append(raw, nc)
			mu.Unlock()
		}
		return nc, err
	}
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, Dial: dial})
	defer p.Close()
	retired := make(chan *Link, 1)
	p.retired = retired
	ctx := context.Background()

	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, "before")
	c.Close()

	mu.Lock()
	raw[0].Close() // the trunk dies
	mu.Unlock()

	// Once the pool has let the dead link go, the next dial opens a fresh
	// trunk and works at the first try.
	awaitRetired(t, retired, "the dead trunk was never retired")
	c2, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c2, "after")
	c2.Close()
	if met.LinkOpened.Value() < 2 {
		t.Fatalf("expected a replacement trunk, opens=%d", met.LinkOpened.Value())
	}
}

func TestPoolCloseFailsDials(t *testing.T) {
	addr := muxEchoServer(t)
	p := NewPool(PoolConfig{})
	c, err := p.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	p.Close()
	if _, err := p.DialContext(context.Background(), "tcp", addr); err != ErrPoolClosed {
		t.Fatalf("expected ErrPoolClosed, got %v", err)
	}
}
