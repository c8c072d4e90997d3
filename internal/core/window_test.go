package core_test

import (
	"bytes"
	"crypto/md5"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// windowHop is a scripted first hop for the first-window tests: it hands
// the test every sublink dialed at it, so the test decides what arrives
// before it answers, and whether it answers at all.
func windowHop(t *testing.T, trunk bool) (string, <-chan net.Conn) {
	t.Helper()
	dialed := make(chan net.Conn, 1)
	return serveSublinks(t, trunk, func(nc net.Conn) { dialed <- nc }), dialed
}

// opened takes the next sublink off the hop and reads its open header.
func opened(t *testing.T, dialed <-chan net.Conn) net.Conn {
	t.Helper()
	nc := <-dialed
	t.Cleanup(func() { nc.Close() })
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadOpenHeader(nc); err != nil {
		t.Fatalf("scripted hop: open header: %v", err)
	}
	return nc
}

// eachTransport runs fn over a classic connection and over a trunk stream.
func eachTransport(t *testing.T, fn func(t *testing.T, trunk bool)) {
	for _, trunk := range []bool{false, true} {
		name := "classic"
		if trunk {
			name = "trunk"
		}
		t.Run(name, func(t *testing.T) { fn(t, trunk) })
	}
}

// withTrailer is payload followed by its MD5 digest, as a digesting
// session puts it on the wire.
func withTrailer(payload []byte) []byte {
	sum := md5.Sum(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// A pipelined session puts at most one window of payload on the wire
// before the verdict: a Write that crosses it sends up to the window,
// waits for the accept, and then sends the rest.
func TestPipelinedWindowWaitsForAccept(t *testing.T) {
	eachTransport(t, func(t *testing.T, trunk bool) {
		addr, dialed := windowHop(t, trunk)
		payload := randBytes(3*wire.FirstWindow+12345, 61)
		c := dialEager(t, addr, trunk, core.WithDigest(), core.WithContentLength(int64(len(payload))))
		c.SetDeadline(time.Now().Add(10 * time.Second))
		sent := make(chan error, 1)
		go func() {
			n, err := c.Write(payload)
			if err == nil && n != len(payload) {
				err = io.ErrShortWrite
			}
			if err == nil {
				err = c.CloseWrite()
			}
			sent <- err
		}()

		nc := opened(t, dialed)
		first := make([]byte, wire.FirstWindow)
		if _, err := io.ReadFull(nc, first); err != nil {
			t.Fatalf("reading the first window: %v", err)
		}
		// The writer is parked in the gate now; a byte past the window
		// would already be on its way. The probe cannot fail a correct
		// gate, only miss a broken one.
		nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		var ne net.Error
		if n, err := nc.Read(make([]byte, 1)); n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("past the first window before any accept: read %d bytes, %v", n, err)
		}
		select {
		case err := <-sent:
			t.Fatalf("Write returned %v before the accept", err)
		default:
		}

		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: c.SessionID()}).Encode()); err != nil {
			t.Fatal(err)
		}
		rest, err := io.ReadAll(nc)
		if err != nil {
			t.Fatalf("after the accept: %v", err)
		}
		if got := append(first, rest...); !bytes.Equal(got, withTrailer(payload)) {
			t.Fatalf("hop received %d bytes, want the %d-byte payload and its trailer", len(got), len(payload))
		}
		if err := <-sent; err != nil {
			t.Fatalf("Write/CloseWrite after the accept: %v", err)
		}
	})
}

// A payload that ends within the first window leaves whole — payload,
// trailer and FIN — with no accept ever sent. The target's read that
// completes a digesting payload waits for the trailer, so an initiator
// holding the trailer back for the verdict would stall every small
// session by a cascade round trip.
func TestPipelinedWindowNeverHoldsTheEnd(t *testing.T) {
	eachTransport(t, func(t *testing.T, trunk bool) {
		for _, size := range []int{wire.FirstWindow - 1, wire.FirstWindow} {
			addr, dialed := windowHop(t, trunk)
			payload := randBytes(size, int64(size))
			c := dialEager(t, addr, trunk, core.WithDigest(), core.WithContentLength(int64(size)))
			c.SetDeadline(time.Now().Add(10 * time.Second))
			sent := make(chan error, 1)
			go func() {
				_, err := c.Write(payload)
				if err == nil {
					err = c.CloseWrite()
				}
				sent <- err
			}()
			nc := opened(t, dialed)
			got, err := io.ReadAll(nc)
			if err != nil {
				t.Fatalf("%d-byte payload: the stream did not end without an accept: %v", size, err)
			}
			if !bytes.Equal(got, withTrailer(payload)) {
				t.Fatalf("%d-byte payload: hop received %d bytes, want payload and trailer", size, len(got))
			}
			if err := <-sent; err != nil {
				t.Fatalf("%d-byte payload: Write/CloseWrite: %v", size, err)
			}
		}
	})
}

// A refusal that comes back once the first window is in ends the Write
// with ErrRejected, and not one byte past the window reaches the wire.
func TestPipelinedWindowRefusal(t *testing.T) {
	eachTransport(t, func(t *testing.T, trunk bool) {
		addr, dialed := windowHop(t, trunk)
		payload := randBytes(2*wire.FirstWindow, 62)
		c := dialEager(t, addr, trunk, core.WithContentLength(int64(len(payload))))
		c.SetDeadline(time.Now().Add(10 * time.Second))
		type result struct {
			n   int
			err error
		}
		sent := make(chan result, 1)
		go func() {
			n, err := c.Write(payload)
			sent <- result{n, err}
			c.Close()
		}()

		nc := opened(t, dialed)
		if _, err := io.ReadFull(nc, make([]byte, wire.FirstWindow)); err != nil {
			t.Fatalf("reading the first window: %v", err)
		}
		if _, err := nc.Write((&wire.AcceptFrame{Code: wire.CodeRejectBusy, Session: c.SessionID()}).Encode()); err != nil {
			t.Fatal(err)
		}
		r := <-sent
		if !errors.Is(r.err, core.ErrRejected) || r.n != wire.FirstWindow {
			t.Fatalf("Write = %d, %v; want the first window and ErrRejected", r.n, r.err)
		}
		// The initiator has hung up; whatever it sent is in by EOF.
		if extra, _ := io.Copy(io.Discard, nc); extra != 0 {
			t.Fatalf("%d bytes past the first window reached the hop behind a refusal", extra)
		}
	})
}
