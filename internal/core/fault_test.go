package core_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/faultnet"
	"lsl/internal/wire"
)

// deadAddr reserves a port and releases it, yielding an address that
// refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialRefusedFirstHopIsDialError(t *testing.T) {
	fn := faultnet.New(nil)
	dead := deadAddr(t)
	fn.Script(dead, faultnet.Step{RefuseDial: true})

	_, err := core.Dial(context.Background(),
		core.Route{Via: []string{dead}, Target: "127.0.0.1:9"},
		core.WithDialer(fn.DialContext), core.WithEager(),
		core.WithContentLength(4))
	if err == nil {
		t.Fatal("dial against a refusing depot succeeded")
	}
	var de *core.DialError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *core.DialError", err, err)
	}
	if de.Hop != dead {
		t.Fatalf("DialError.Hop = %q, want %q", de.Hop, dead)
	}
	if !errors.Is(err, faultnet.ErrDialRefused) {
		t.Fatalf("err = %v, want to unwrap to faultnet.ErrDialRefused", err)
	}
	if fn.Dials(dead) != 1 {
		t.Fatalf("dials = %d, want 1", fn.Dials(dead))
	}
}

func TestEagerDialAgainstRejectingCascade(t *testing.T) {
	// The depot is up but its next hop refuses connections. Eager mode
	// means Dial returns before the cascade has finished dialing — the
	// rejection must then surface on the backward channel instead of
	// hanging the initiator.
	dep, _ := startDepot(t, depot.Config{DialTimeout: 2 * time.Second})
	payload := randBytes(10_000, 50)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep}, Target: deadAddr(t)},
		core.WithEager(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatalf("eager dial must succeed before the cascade resolves: %v", err)
	}
	defer c.Close()

	// The depot absorbs some payload while dialing, then rejects. The
	// refusal comes back on the backward channel, where the first Read
	// consumes the frame and names it — the application parses nothing.
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.Write(payload)
	c.CloseWrite()
	n, err := c.Read(make([]byte, 64))
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("Read = %d, %v; want ErrRejected", n, err)
	}
	if n != 0 {
		t.Fatalf("Read handed %d bytes of the reject frame to the application", n)
	}
	if want := wire.CodeString(wire.CodeRejectRoute); !strings.Contains(err.Error(), want) {
		t.Fatalf("rejection %q does not carry the depot's code %q", err, want)
	}
}

func TestEagerWritesFailFastOnCrashingCascade(t *testing.T) {
	// The first hop resets mid-stream (a crashing depot, injected
	// deterministically). Eager writes must surface the reset as an
	// error promptly rather than blocking or silently dropping bytes.
	addr, _, _ := collectTarget(t)
	fn := faultnet.New(nil)
	const resetAt = 64 << 10
	fn.Script(addr, faultnet.Step{ResetAfterBytes: resetAt})

	payload := randBytes(1<<20, 51)
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDialer(fn.DialContext), core.WithEager(),
		core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	written, start := 0, time.Now()
	var werr error
	for written < len(payload) {
		n, err := c.Write(payload[written:])
		written += n
		if err != nil {
			werr = err
			break
		}
	}
	if werr == nil {
		t.Fatal("writes past the injected reset never failed")
	}
	if !errors.Is(werr, faultnet.ErrReset) {
		t.Fatalf("write error = %v, want faultnet.ErrReset", werr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("reset took %v to surface", elapsed)
	}
	// The wrapper delivers exactly the scripted prefix before resetting:
	// the session header plus resetAt bytes minus what the header used.
	if written >= len(payload) || written == 0 {
		t.Fatalf("written = %d of %d, want a strict mid-stream prefix", written, len(payload))
	}
	if fn.Resets() != 1 {
		t.Fatalf("resets = %d, want 1", fn.Resets())
	}
}

func TestEagerDialRefusedMidCascadeDoesNotHang(t *testing.T) {
	// Two depots; the second is scripted dead for every dial. The first
	// depot's relay must reject the session (its dial to the next hop
	// fails) and tear the sublink down so the eager initiator's drain
	// unblocks — no stuck goroutines, no indefinite hang.
	dead := deadAddr(t)
	dep, d := startDepot(t, depot.Config{DialTimeout: 2 * time.Second})
	payload := randBytes(10_000, 52)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{dep, dead}, Target: "127.0.0.1:9"},
		core.WithEager(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.Write(payload)
	c.CloseWrite()
	// Drain the backward channel: the rejection unwinds it. EOF or a
	// connection error are both fine (the depot may RST while the eager
	// payload is still in flight) — what must not happen is a hang, which
	// the deadline above converts into a timeout error we can detect.
	if _, err := io.Copy(io.Discard, c); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("backward drain hung until the deadline: %v", err)
		}
	}
	if d.Stats().DialFailures == 0 {
		t.Fatal("depot recorded no next-hop dial failures")
	}
}
