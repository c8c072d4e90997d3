package core_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
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

// TestDialWithMuxFallsBackAgainstClassicTarget dials a plain session
// target through a link pool: the probe fails, the pool falls back to a
// classic connection, and the session works end to end with no trunk
// left behind.
func TestDialWithMuxFallsBackAgainstClassicTarget(t *testing.T) {
	addr, got, errs := collectTarget(t)
	pool := mux.NewPool(mux.PoolConfig{Logf: t.Logf})
	defer pool.Close()

	payload := randBytes(64_000, 7)
	start := time.Now()
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDialer(pool.DialContext), core.WithDigest(),
		core.WithContentLength(int64(len(payload))))
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
	// The target refuses the trunk hello within a round trip.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("transfer took %v: the trunk probe waited out its timeout", took)
	}
	if pool.Links() != 0 {
		t.Fatalf("pool kept %d trunks to a classic target", pool.Links())
	}
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
