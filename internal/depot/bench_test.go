package depot

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// benchSink accepts raw transport connections, answers each open header
// with an accept frame, and discards the payload.
func benchSink(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
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
					return
				}
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				io.Copy(io.Discard, nc)
			}()
		}
	}()
	return ln.Addr().String()
}

func benchDepot(b *testing.B, cfg Config) (*Depot, string) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	d := New(cfg)
	go d.Serve(ln)
	b.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

func benchOpen(b *testing.B, depotAddr, targetAddr string) net.Conn {
	b.Helper()
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		b.Fatal(err)
	}
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      []string{depotAddr, targetAddr},
		ContentLen: wire.UnknownLength,
	}
	enc, err := hdr.Encode()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nc.Write(enc); err != nil {
		b.Fatal(err)
	}
	if _, err := wire.ReadAcceptFrame(nc); err != nil {
		b.Fatal(err)
	}
	return nc
}

// BenchmarkRelayThroughput measures the steady-state relay loop: one
// long-lived session pumps fixed chunks loopback initiator -> depot ->
// sink target. Per-op allocations must stay at zero — the relay loop
// itself may not allocate while bytes move.
func BenchmarkRelayThroughput(b *testing.B) {
	targetAddr := benchSink(b)
	_, depotAddr := benchDepot(b, Config{})
	nc := benchOpen(b, depotAddr, targetAddr)
	defer nc.Close()
	chunk := make([]byte, 64<<10)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nc.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkRelaySessionChurn opens and tears down one complete session
// per op — this is where per-session relay-buffer allocations show up
// (two fresh BufferSize buffers per session before the pool refactor).
func BenchmarkRelaySessionChurn(b *testing.B) {
	targetAddr := benchSink(b)
	_, depotAddr := benchDepot(b, Config{})
	chunk := make([]byte, 4<<10)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := benchOpen(b, depotAddr, targetAddr)
		if _, err := nc.Write(chunk); err != nil {
			b.Fatal(err)
		}
		nc.Close()
	}
	b.StopTimer()
}

// sinkSession terminates one session transport: read the open header,
// acknowledge, discard the payload.
func sinkSession(c net.Conn) {
	defer c.Close()
	hdr, err := wire.ReadOpenHeader(c)
	if err != nil {
		return
	}
	c.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
	io.Copy(io.Discard, c)
}

// muxSink is a session target that speaks both transports: classic
// one-connection-per-session and trunk links (each stream served as a
// session), dispatching on the 4-byte magic like the depot does.
func muxSink(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				probe := make([]byte, 4)
				if _, err := io.ReadFull(nc, probe); err != nil {
					nc.Close()
					return
				}
				pc := &prefixConn{Conn: nc, prefix: probe}
				if !wire.IsMuxMagic(probe) {
					sinkSession(pc)
					return
				}
				link, err := mux.Server(pc, mux.LinkConfig{})
				if err != nil {
					nc.Close()
					return
				}
				for {
					st, err := link.AcceptStream()
					if err != nil {
						return
					}
					go sinkSession(st)
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// churnOnce runs one complete cascade session: dial (or reuse a trunk
// to) the first depot, open end to end, push one small chunk, tear down.
func churnOnce(dial mux.Dialer, route []string, chunk []byte) error {
	nc, err := dial(context.Background(), "tcp", route[0])
	if err != nil {
		return err
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      route,
		ContentLen: wire.UnknownLength,
	}
	enc, err := hdr.Encode()
	if err != nil {
		return err
	}
	if _, err := nc.Write(enc); err != nil {
		return err
	}
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		return err
	}
	if acc.Code != wire.CodeOK {
		return fmt.Errorf("rejected: %s", wire.CodeString(acc.Code))
	}
	_, err = nc.Write(chunk)
	return err
}

// benchConnectRTT models the round trip a TCP connect handshake costs
// on a real network path (loopback connects in ~30us, which hides
// exactly the latency persistent trunks exist to remove). Every
// transport dial in the churn benchmark — initiator's and both
// depots' — pays it; warm trunks pay it once per link instead of once
// per session.
const benchConnectRTT = 2 * time.Millisecond

// delayDial wraps the real dialer with the modeled connect round trip.
func delayDial(d time.Duration) mux.Dialer {
	var nd net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		return nd.DialContext(ctx, network, addr)
	}
}

// BenchmarkCascadeSetupChurn measures session setup rate through a full
// cascade (initiator -> depot -> depot -> sink), one complete session
// per op, opens issued in parallel, with each fresh transport connect
// costing benchConnectRTT. The classic variant pays three connects per
// session, serialized along the chain; the mux variant rides warm
// trunks on every hop.
func BenchmarkCascadeSetupChurn(b *testing.B) {
	run := func(b *testing.B, useMux bool) {
		targetAddr := muxSink(b)
		cfg := Config{
			Mux:         useMux,
			MaxSessions: 8192,
			Dial:        core.Dialer(delayDial(benchConnectRTT)),
		}
		_, addr2 := benchDepot(b, cfg)
		_, addr1 := benchDepot(b, cfg)
		dial := delayDial(benchConnectRTT)
		if useMux {
			pool := mux.NewPool(mux.PoolConfig{Dial: dial})
			b.Cleanup(func() { pool.Close() })
			dial = pool.DialContext
		}
		route := []string{addr1, addr2, targetAddr}
		chunk := make([]byte, 1<<10)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := churnOnce(dial, route, chunk); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.Run("classic", func(b *testing.B) { run(b, false) })
	b.Run("mux", func(b *testing.B) { run(b, true) })
}
