package resilience_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/metrics"
	"lsl/internal/resilience"
	"lsl/internal/stripe"
	"lsl/internal/wire"
)

// Every stripe session opens pipelined: the group header and the first
// frame leave right behind the open header, without waiting a cascade
// round trip for the accept. The target here proves it by withholding its
// accept until it holds both — a stripe that waited for the accept before
// sending would sit out the handshake timeout instead.
func TestStripedTransferPipelinesOpen(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out bytes.Buffer
	recv := stripe.NewReceiver(&out)
	early := make(chan int, 4) // bytes each session carried ahead of its accept
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				hdr, err := wire.ReadOpenHeader(nc)
				if err != nil {
					t.Errorf("open header: %v", err)
					return
				}
				var seen bytes.Buffer
				tee := io.TeeReader(nc, &seen)
				if _, err := stripe.ReadGroupHeader(tee); err != nil {
					t.Errorf("group header before the accept: %v", err)
					return
				}
				var fh [12]byte // offset u64 | length u32
				if _, err := io.ReadFull(tee, fh[:]); err != nil {
					t.Errorf("frame header before the accept: %v", err)
					return
				}
				d := wire.NewDec(fh[:])
				d.U64()
				if _, err := io.CopyN(io.Discard, tee, int64(d.U32())); err != nil {
					t.Errorf("first frame before the accept: %v", err)
					return
				}
				early <- seen.Len()
				if _, err := nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode()); err != nil {
					return
				}
				recv.Attach(struct {
					io.Reader
					io.Writer
				}{io.MultiReader(&seen, nc), nc})
			}()
		}
	}()

	payload := randBytes(256<<10, 41)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := resilience.StripedTransfer(ctx,
		[]core.Route{{Target: ln.Addr().String()}},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithFrameSize(32<<10),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("striped transfer against an accept that waits for the first frame: %v", err)
	}
	if n := <-early; n != 31+12+32<<10 {
		t.Fatalf("%d bytes arrived ahead of the accept, want group header + one 32 KiB frame", n)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatalf("reassembled %d of %d bytes", recv.Written(), len(payload))
	}
	if res.Heals != 0 || res.Abandoned != 0 || res.Superseded != 0 {
		t.Fatalf("heals=%d abandoned=%d superseded=%d, want a clean run", res.Heals, res.Abandoned, res.Superseded)
	}
}

// A stripe whose depot refuses it (the next hop cannot be dialed) is
// abandoned — a refusal is permanent — and the survivor carries every
// byte. The survivor's transport comes up only once the refusing stripe
// has a frame on its way behind the open header, so the dispatcher hands
// the opening frames to the refusing stripe, and its depot refuses only
// then: at 48 KiB every frame fits in the socket buffers and only the
// accept read hears the refusal, at 600 000 B a write may break on it
// too. Either way it is a stripe-down whose frames requeue, not a group
// failure. (A synchronous open sends no frame ahead of its accept; the
// depot then refuses after a second, and the survivor starts after it.)
func TestStripedTransferAbandonsRefusedStripe(t *testing.T) {
	for _, size := range []int{48 << 10, 600_000} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			st := newStripedTarget(t)
			goodAddr, _ := startDepot(t, depot.Config{})
			var framedOnce, refusedOnce sync.Once
			framed := make(chan struct{})  // a frame left toward the refusing depot
			refused := make(chan struct{}) // the refusing depot has refused
			refusing, d := startDepot(t, depot.Config{
				Dial: func(ctx context.Context, _, _ string) (net.Conn, error) {
					select {
					case <-framed:
					case <-time.After(time.Second):
					case <-ctx.Done():
					}
					refusedOnce.Do(func() { close(refused) })
					return nil, errors.New("next hop unreachable")
				},
			})
			dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
				if addr == goodAddr {
					select {
					case <-framed:
					case <-refused:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if addr == refusing && err == nil {
					nc = &frameTap{Conn: nc, framed: func() { framedOnce.Do(func() { close(framed) }) }}
				}
				return nc, err
			}
			payload := randBytes(size, 42)
			res, err := resilience.StripedTransfer(context.Background(),
				[]core.Route{
					{Via: []string{goodAddr}, Target: st.addr()},
					{Via: []string{refusing}, Target: st.addr()},
				},
				bytes.NewReader(payload), int64(len(payload)),
				resilience.WithPolicy(fastPolicy()),
				resilience.WithDialer(dial),
				resilience.WithFrameSize(16<<10),
				resilience.WithMetrics(resilience.NewMetrics(metrics.NewRegistry())),
				resilience.WithLogf(t.Logf))
			if err != nil {
				t.Fatalf("group should survive a refused stripe: %v", err)
			}
			st.wait(t, payload)
			if res.Abandoned != 1 {
				t.Fatalf("abandoned=%d, want 1", res.Abandoned)
			}
			if res.StripeBytes[0] != int64(size) || res.StripeBytes[1] != 0 {
				t.Fatalf("stripe bytes %v, want all %d on the survivor", res.StripeBytes, size)
			}
			if got := d.Stats().RejectedRoute; got != 1 {
				t.Fatalf("refusing depot rejected %d sessions, want 1 (a refusal is not retried)", got)
			}
			t.Logf("frames reassigned off the refused stripe: %d", res.FramesReassigned)
		})
	}
}

// frameTap reports the first stripe frame written on a connection: a
// Write of at least one 16 KiB frame's payload.
type frameTap struct {
	net.Conn
	framed func()
}

func (c *frameTap) Write(p []byte) (int, error) {
	if len(p) >= 16<<10 {
		c.framed()
	}
	return c.Conn.Write(p)
}

func (c *frameTap) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

// A first hop that accepts the TCP connection and then never reads or
// answers must degrade the group, not wedge it: with no accept within the
// stuck timeout the stripe counts as wedged and is superseded, its frames
// requeued onto the healthy stripe — well inside a context far shorter
// than one handshake timeout.
func TestStripedTransferBlackHoleFirstHop(t *testing.T) {
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		for {
			nc, err := hole.Accept()
			if err != nil {
				return
			}
			go func() { <-release; nc.Close() }()
		}
	}()
	st := newStripedTarget(t)
	goodAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(2<<20, 43)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := resilience.StripedTransfer(ctx,
		[]core.Route{
			{Via: []string{goodAddr}, Target: st.addr()},
			{Via: []string{hole.Addr().String()}, Target: st.addr()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithFrameSize(32<<10),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("a black-hole first hop wedged the group: %v", err)
	}
	st.wait(t, payload)
	if res.Superseded != 1 || res.Abandoned != 0 {
		t.Fatalf("superseded=%d abandoned=%d, want the silent stripe superseded", res.Superseded, res.Abandoned)
	}
	var sum int64
	for _, b := range res.StripeBytes {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes %v sum to %d, want %d", res.StripeBytes, sum, len(payload))
	}
}
