package resilience_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/resilience"
	"lsl/internal/wire"
)

// preTrunkListener is the transport of a target that predates trunks: it
// closes a connection that opens with the trunk hello as soon as the
// magic is in, as such a target's header decoder does, and hands every
// other connection on.
type preTrunkListener struct {
	net.Listener
	probes atomic.Int32
}

func (l *preTrunkListener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		head := make([]byte, 4)
		if _, err := io.ReadFull(nc, head); err == nil && !wire.IsMuxMagic(head) {
			return mux.Unread(nc, head), nil
		} else if err == nil {
			l.probes.Add(1)
		}
		nc.Close()
	}
}

// TestTransferHealsTrunkRefusal: against a target that predates trunks,
// the first session on a pool fails with the transient ErrTrunkRefused,
// the next two dials go classic with no probe of their own, and a
// Transfer on a fresh pool heals the refusal with one retry.
func TestTransferHealsTrunkRefusal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pt := &preTrunkListener{Listener: ln}
	l := core.NewListener(pt)
	t.Cleanup(func() { l.Close() })
	verified := make(chan bool, 4)
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			_, err = io.Copy(io.Discard, sc)
			verified <- err == nil && sc.Verified()
			sc.Close()
		}
	}()
	addr := ln.Addr().String()
	payload := randBytes(64<<10, 11)

	pool := mux.NewPool(mux.PoolConfig{Logf: t.Logf})
	defer pool.Close()
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDialer(pool.DialContext), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err == nil {
		err = c.SendReader(bytes.NewReader(payload))
		c.Close()
	}
	if !errors.Is(err, mux.ErrTrunkRefused) {
		t.Fatalf("a session on a refused trunk ended with %v, want ErrTrunkRefused", err)
	}
	if resilience.Permanent(err) {
		t.Fatalf("Permanent(%v) = true: a refused trunk must be retried", err)
	}
	for i := 0; i < 2; i++ {
		nc, err := pool.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.Close()
		if _, ok := nc.(*mux.Stream); ok {
			t.Fatal("a dial after the refusal offered a trunk again")
		}
	}
	if n := pt.probes.Load(); n != 1 {
		t.Fatalf("the target saw %d trunk probes, want 1", n)
	}

	fresh := mux.NewPool(mux.PoolConfig{Logf: t.Logf})
	defer fresh.Close()
	res, err := resilience.Transfer(context.Background(), core.Route{Target: addr},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fresh.DialContext),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("a Transfer through a refused trunk took %d attempts, want 2", res.Attempts)
	}
	if ok := <-verified; !ok {
		t.Fatal("the retried session did not verify")
	}
}
