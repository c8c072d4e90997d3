package lsl_test

// BenchmarkStripedThroughput measures what planner-driven striping buys
// on asymmetric paths: one logical stream over two emulated WAN paths
// (a fast one and a slow one, each shaped by internal/emu) against the
// same stream on the fast path alone. The striped variant should
// approach the sum of the path rates; the single variant is capped by
// the best path. CI's bench-regression smoke job runs both at
// -benchtime=1x and alarms on order-of-magnitude collapse (see
// BENCH_stripe.json for recorded baselines).

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"lsl"
	"lsl/internal/emu"
)

// benchStripedEnv is the shared fixture: a session target, two depots,
// and a shaped emu proxy in front of each depot (the proxy address is
// the route's first hop, so each stripe's traffic rides its own
// bottleneck).
type benchStripedEnv struct {
	routes  []lsl.Route
	payload []byte
}

const (
	benchStripedFastBps = 250e6
	benchStripedSlowBps = 150e6
	benchStripedDelay   = 500 * time.Microsecond
	benchStripedSize    = 32 << 20
)

func newBenchStripedEnv(b *testing.B, drain func(io.Reader) error) *benchStripedEnv {
	b.Helper()
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			sc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sc.Close()
				_ = drain(sc)
			}()
		}
	}()

	rates := []float64{benchStripedFastBps, benchStripedSlowBps}
	routes := make([]lsl.Route, len(rates))
	for i, rate := range rates {
		dln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		d := lsl.NewDepot(lsl.DepotConfig{})
		go d.Serve(dln)
		b.Cleanup(func() { d.Close() })
		p := emu.NewProxy(dln.Addr().String(),
			emu.Shape{Delay: benchStripedDelay, RateBps: rate},
			emu.Shape{Delay: benchStripedDelay})
		pAddr, err := p.Start()
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Close)
		routes[i] = lsl.Route{Via: []string{pAddr}, Target: ln.Addr().String()}
	}

	payload := make([]byte, benchStripedSize)
	rand.New(rand.NewSource(7)).Read(payload)
	return &benchStripedEnv{routes: routes, payload: payload}
}

func reportMbps(b *testing.B, bytesPerOp int64, elapsed time.Duration) {
	b.Helper()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(bytesPerOp*8*int64(b.N))/s/1e6, "Mbit/s")
	}
}

func BenchmarkStripedThroughput(b *testing.B) {
	drain := func(r io.Reader) error { _, err := io.Copy(io.Discard, r); return err }

	b.Run("single", func(b *testing.B) {
		env := newBenchStripedEnv(b, drain)
		b.SetBytes(benchStripedSize)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			_, err := lsl.Transfer(context.Background(), env.routes[0],
				bytes.NewReader(env.payload), benchStripedSize,
				lsl.WithoutTransferDigest())
			if err != nil {
				b.Fatal(err)
			}
		}
		reportMbps(b, benchStripedSize, time.Since(start))
	})

	b.Run("striped", func(b *testing.B) {
		// The striped receiver must reassemble (frames interleave across
		// paths), so its target runs a StripeReceiver per group instead
		// of a flat drain. One listener per iteration keeps groups apart.
		env := newBenchStripedEnv(b, func(r io.Reader) error { return nil })
		b.SetBytes(benchStripedSize)
		b.ResetTimer()
		var busy time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ln, err := lsl.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			routes := make([]lsl.Route, len(env.routes))
			for j, r := range env.routes {
				routes[j] = lsl.Route{Via: r.Via, Target: ln.Addr().String()}
			}
			recvDone := make(chan error, 1)
			go func() {
				_, rerr := lsl.StripedReceive(ln, len(routes), io.Discard)
				recvDone <- rerr
			}()
			b.StartTimer()
			t0 := time.Now()
			// Small frames and an early rebalance keep the slow path from
			// hoarding work: with 1:1 starting weights the dispatcher
			// needs observed throughput quickly to skew toward the fast
			// path, and a 64 KiB frame bounds the tail a slow stripe can
			// hold hostage at the end of the stream.
			_, err = lsl.StripedTransfer(context.Background(), routes,
				bytes.NewReader(env.payload), benchStripedSize,
				lsl.WithStripeFrameSize(64<<10),
				lsl.WithStripeRebalanceBytes(512<<10))
			if err != nil {
				b.Fatal(err)
			}
			if rerr := <-recvDone; rerr != nil {
				b.Fatal(rerr)
			}
			busy += time.Since(t0)
			b.StopTimer()
			ln.Close()
			b.StartTimer()
		}
		reportMbps(b, benchStripedSize, busy)
	})
}

// BenchmarkStripedTail isolates the end-of-stream tail on a short
// transfer, where the slow path's buffered backlog dominates wall time
// unless the tail-reclamation machinery (receiver acks, adaptive
// in-flight bounding, work stealing, speculative tail replication) keeps
// the fast path busy. The "reclaim" sub-benchmark name is what CI's
// ceiling matches.
func BenchmarkStripedTail(b *testing.B) {
	const tailSize = 8 << 20
	b.Run("reclaim", func(b *testing.B) {
		env := newBenchStripedEnv(b, func(r io.Reader) error { return nil })
		b.SetBytes(tailSize)
		var busy, tail time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ln, err := lsl.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			routes := make([]lsl.Route, len(env.routes))
			for j, r := range env.routes {
				routes[j] = lsl.Route{Via: r.Via, Target: ln.Addr().String()}
			}
			recvDone := make(chan error, 1)
			go func() {
				_, rerr := lsl.StripedReceive(ln, len(routes), io.Discard)
				recvDone <- rerr
			}()
			b.StartTimer()
			t0 := time.Now()
			res, err := lsl.StripedTransfer(context.Background(), routes,
				bytes.NewReader(env.payload[:tailSize]), tailSize,
				lsl.WithStripeFrameSize(64<<10),
				lsl.WithStripeRebalanceBytes(512<<10))
			if err != nil {
				b.Fatal(err)
			}
			if rerr := <-recvDone; rerr != nil {
				b.Fatal(rerr)
			}
			busy += time.Since(t0)
			tail += res.Tail
			b.StopTimer()
			ln.Close()
			b.StartTimer()
		}
		reportMbps(b, tailSize, busy)
		b.ReportMetric(float64(tail.Nanoseconds())/float64(b.N), "tail_ns/op")
	})
}
