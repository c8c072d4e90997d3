package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/wire"
)

func TestDialHandshakeTimeoutAgainstSilentPeer(t *testing.T) {
	// A listener that accepts but never speaks LSL: Dial must give up
	// within the handshake timeout rather than hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			_ = nc // hold it open silently
		}
	}()
	start := time.Now()
	_, err = core.Dial(context.Background(), core.Route{Target: ln.Addr().String()},
		core.WithHandshakeTimeout(500*time.Millisecond))
	if err == nil {
		t.Fatal("dial should fail against a silent peer")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honored")
	}
}

func TestDialContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			if nc, err := ln.Accept(); err == nil {
				_ = nc
			} else {
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = core.Dial(ctx, core.Route{Target: ln.Addr().String()})
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("context deadline ignored: err=%v", err)
	}
}

func TestSendReaderFreshSession(t *testing.T) {
	payload := randBytes(150_000, 77)
	done := make(chan bool, 1)
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		_, err := io.Copy(io.Discard, sc)
		done <- err == nil && sc.Verified()
	})
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("stream not verified")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTruncatedStreamDetected(t *testing.T) {
	// Initiator declares 1000 bytes, sends 500, closes: the target must
	// report truncation, not silently accept, whether or not the session
	// carries a digest.
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"digest", []core.Option{core.WithDigest(), core.WithContentLength(1000)}},
		{"length-only", []core.Option{core.WithContentLength(1000)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(chan error, 1)
			addr, _ := startTarget(t, func(sc *core.ServerConn) {
				defer sc.Close()
				_, err := io.Copy(io.Discard, sc)
				errs <- err
			})
			c, err := core.Dial(context.Background(), core.Route{Target: addr}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			c.Write(make([]byte, 500))
			c.Close() // abort short of the declared length
			select {
			case err := <-errs:
				if err == nil {
					t.Fatal("truncation not detected")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("timeout")
			}
		})
	}
}

func TestResumeWithoutPriorSessionStartsAtZero(t *testing.T) {
	addr, _, _ := collectTarget(t)
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithSession(wire.NewSessionID()), core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Offset() != 0 {
		t.Fatalf("fresh resume offset=%d", c.Offset())
	}
	c.CloseWrite()
}

func TestListenerSessionTableBounded(t *testing.T) {
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetMaxSessions(4)
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				// Hold sessions open un-finished so their resumable state
				// stays in the table.
				<-hold
				sc.Close()
			}()
		}
	}()
	// Open more resumable sessions than the table admits; all must work.
	for i := 0; i < 10; i++ {
		c, err := core.Dial(context.Background(), core.Route{Target: l.Addr().String()},
			core.WithResume(), core.WithSession(wire.NewSessionID()))
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Write([]byte("x"))
		c.Close()
	}
}

func TestDepotChainPartialFailureSurfacesAsRejection(t *testing.T) {
	// depot1 -> depot2 where depot2 is down: the rejection must propagate
	// back to the initiator through depot1.
	d2ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := d2ln.Addr().String()
	d2ln.Close() // now nothing listens there

	d1ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d1 := depot.New(depot.Config{DialTimeout: time.Second})
	go d1.Serve(d1ln)
	defer d1.Close()

	_, err = core.Dial(context.Background(),
		core.Route{Via: []string{d1ln.Addr().String(), deadAddr}, Target: "127.0.0.1:1"},
		core.WithHandshakeTimeout(5*time.Second))
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("want rejection through the chain, got %v", err)
	}
}

func TestRouteHopLimitEnforced(t *testing.T) {
	route := core.Route{Target: "t:1"}
	for i := 0; i < wire.MaxRouteEntries; i++ {
		route.Via = append(route.Via, "d:1")
	}
	if err := route.Validate(); err == nil {
		t.Fatal("oversized route accepted")
	}
}

func TestLargeTransferThroughDepotLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 32MB through loopback")
	}
	addr, _ := startTarget(t, func(sc *core.ServerConn) {
		defer sc.Close()
		io.Copy(io.Discard, sc)
	})
	dep, d := startDepot(t, depot.Config{})
	payload := randBytes(32<<20, 5)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The relay completes once the target has read everything and hung
	// up; its byte counters are final by then.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := d.WaitStats(ctx, func(st depot.Stats) bool { return st.Completed > 0 }); err != nil {
		t.Fatalf("relay never completed: %v", err)
	}
	if got := d.Stats().BytesForward; got < uint64(len(payload)) {
		t.Fatalf("depot forwarded %d of %d", got, len(payload))
	}
}
