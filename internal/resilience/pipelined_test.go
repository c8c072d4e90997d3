package resilience_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/faultnet"
	"lsl/internal/mux"
	"lsl/internal/resilience"
	"lsl/internal/wire"
)

// headerTap is a dialer that keeps the open header each sublink sent: the
// first Write on a tapped connection is the header, alone when the open is
// synchronous and as the first element of the gathered header+payload
// write when it is pipelined.
type headerTap struct {
	mu      sync.Mutex
	headers []*wire.OpenHeader
}

type tappedConn struct {
	net.Conn
	tap  *headerTap
	seen bool
}

func (h *headerTap) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: nc, tap: h}, nil
}

func (c *tappedConn) Write(p []byte) (int, error) {
	if !c.seen {
		c.seen = true
		if hdr, err := wire.ReadOpenHeader(bytes.NewReader(p)); err == nil {
			c.tap.mu.Lock()
			c.tap.headers = append(c.tap.headers, hdr)
			c.tap.mu.Unlock()
		}
	}
	return c.Conn.Write(p)
}

func (c *tappedConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

// The engine's first attempt has nothing to resume: it opens a fresh,
// pipelined session. Only the retry, after the injected reset, asks the
// target where to continue — and the two sublinks still add up to the
// exact stream, digest verified.
func TestTransferFirstAttemptPipelined(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(2<<20, 31)

	tap := &headerTap{}
	fn := faultnet.New(tap.dial)
	fn.Script(vt.addr(), faultnet.Step{ResetAfterBytes: 400_000})

	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fn.DialContext),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	vt.wait(t, payload)
	if res.Attempts != 2 || fn.Resets() != 1 {
		t.Fatalf("attempts=%d resets=%d, want one reset healed by one retry", res.Attempts, fn.Resets())
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.headers) != 2 {
		t.Fatalf("tapped %d open headers, want 2", len(tap.headers))
	}
	first, retry := tap.headers[0], tap.headers[1]
	if first.Flags&wire.FlagResume != 0 || first.Flags&wire.FlagEager == 0 {
		t.Fatalf("attempt 1 flags %#x: want a fresh pipelined open (eager, no resume)", first.Flags)
	}
	if retry.Flags&wire.FlagResume == 0 || retry.Flags&wire.FlagEager != 0 {
		t.Fatalf("attempt 2 flags %#x: want a synchronous resume", retry.Flags)
	}
	if first.Session != retry.Session || first.Session != res.Session {
		t.Fatal("the retry must resume the session the first attempt opened")
	}
}

// A depot that refuses a session whose payload is already on its way must
// still be heard: the refusal comes back as ErrRejected on the one attempt
// that met it, whether the payload fit in the socket buffers (the confirm
// drain reads the frame) or not (the write that breaks reads it), on a
// classic connection and on a trunk stream.
func TestTransferRejectedBehindPipelinedPayload(t *testing.T) {
	// A holder accepts a sublink and then says nothing, so a session routed
	// at it pins its depot's admission slot for as long as the test runs.
	// A trunk-speaking depot first probes its next hop; that holder answers
	// the hello (and only the hello) so the probe does not sit out its
	// timeout.
	startHolder := func(t *testing.T, trunk bool) string {
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
				defer nc.Close()
				if trunk {
					if link, err := mux.Server(nc, mux.LinkConfig{}); err == nil {
						defer link.Close()
					}
				}
			}
		}()
		return ln.Addr().String()
	}
	for _, trunk := range []bool{false, true} {
		for _, refusal := range []string{"dead-next-hop", "busy"} {
			for _, size := range []int{1 << 10, 32 << 20} {
				transport := "classic"
				if trunk {
					transport = "trunk"
				}
				t.Run(fmt.Sprintf("%s/%s/%dKiB", transport, refusal, size>>10), func(t *testing.T) {
					// The held session never unwinds on its own; do not wait
					// for it when the depot closes.
					cfg := depot.Config{Mux: trunk, DrainTimeout: 10 * time.Millisecond}
					target := "127.0.0.1:1" // refuses connections
					wantCode := wire.CodeRejectRoute
					if refusal == "busy" {
						cfg.MaxSessions = 1
						target = startHolder(t, trunk)
						wantCode = wire.CodeRejectBusy
					}
					dep, d := startDepot(t, cfg)
					if refusal == "busy" {
						held, err := core.Dial(context.Background(),
							core.Route{Via: []string{dep}, Target: target}, core.WithEager())
						if err != nil {
							t.Fatal(err)
						}
						defer held.Close()
						held.Write([]byte("x")) // carries the header; the accept never comes
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						if err := d.WaitStats(ctx, func(st depot.Stats) bool { return st.Active > 0 }); err != nil {
							t.Fatal("the held session never took the depot's slot")
						}
					}
					opts := []resilience.Option{
						resilience.WithPolicy(fastPolicy()),
						resilience.WithLogf(t.Logf),
					}
					if trunk {
						pool := mux.NewPool(mux.PoolConfig{})
						defer pool.Close()
						opts = append(opts, resilience.WithDialer(pool.DialContext))
					}
					payload := randBytes(size, 32)
					res, err := resilience.Transfer(context.Background(),
						core.Route{Via: []string{dep}, Target: target},
						bytes.NewReader(payload), int64(len(payload)), opts...)
					if !errors.Is(err, core.ErrRejected) {
						t.Fatalf("err = %v, want ErrRejected", err)
					}
					if want := wire.CodeString(wantCode); !strings.Contains(err.Error(), want) {
						t.Fatalf("rejection %q does not carry the depot's code %q", err, want)
					}
					if res.Attempts != 1 {
						t.Fatalf("a refusal cost %d attempts, want 1", res.Attempts)
					}
					if st := d.Stats(); st.ControlWriteFailures != 0 {
						t.Fatalf("depot dropped %d control frames", st.ControlWriteFailures)
					}
				})
			}
		}
	}
}

// The engine resumes only what it started itself. A second Transfer call
// under a pinned session ID is a new transfer: it replaces the state the
// dead first call left at the target and delivers from byte 0.
func TestTransferPinnedSessionRestartsAcrossCalls(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(2<<20, 33)
	id := wire.NewSessionID()

	// The target handshakes sublinks concurrently and reads them in the
	// order their handshakes finish; one reset before its open is
	// answered may finish after call 2's, or never. So call 1 dies only
	// past its first window, after its accept is back, and call 2 starts
	// once the target has ended call 1's sublink.
	fn := faultnet.New(nil)
	fn.Script(vt.addr(), faultnet.Step{ResetAfterBytes: wire.FirstWindow + 400_000})
	once := fastPolicy()
	once.MaxAttempts = 1
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(once),
		resilience.WithSession(id),
		resilience.WithDialer(fn.DialContext))
	if !errors.Is(err, resilience.ErrExhausted) || res.Attempts != 1 {
		t.Fatalf("call 1: err=%v attempts=%d, want its one attempt killed mid-stream", err, res.Attempts)
	}
	select {
	case <-vt.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the target never ended call 1's sublink")
	}

	res, err = resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithSession(id))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Session != id {
		t.Fatalf("call 2: %+v", res)
	}
	select {
	case <-vt.done:
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for verified delivery")
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if len(vt.frags) != 2 {
		t.Fatalf("target saw %d sublinks, want call 1's torso and call 2's stream", len(vt.frags))
	}
	if n := len(vt.frags[0]); n == 0 || n >= len(payload) {
		t.Fatalf("call 1 left %d bytes at the target, want a strict prefix", n)
	}
	if !bytes.Equal(vt.frags[1], payload) {
		t.Fatalf("call 2 delivered %d bytes, want the whole %d-byte payload from byte 0", len(vt.frags[1]), len(payload))
	}
}

// A first hop that takes the connection and never reads it must not hold a
// pipelined attempt past the transfer's context: the payload is far larger
// than the socket buffers, so the write blocks, and only tearing the
// sublink down under it ends the attempt.
func TestTransferWedgedFirstHopHonoursContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-release; nc.Close() }()
		}
	}()

	payload := make([]byte, 64<<20)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	res, err := resilience.Transfer(ctx,
		core.Route{Via: []string{ln.Addr().String()}, Target: "target.invalid:1"},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithLogf(t.Logf))
	if err == nil {
		t.Fatal("transfer into a wedged hop succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("transfer outlived its 1s context by %v: %v", elapsed-time.Second, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrRejected) {
		t.Fatalf("err = %v, want the context's deadline (silence is not a refusal)", err)
	}
	t.Logf("ended after %d attempt(s): %v", res.Attempts, err)
}
