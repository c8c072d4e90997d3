package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"lsl"
	"lsl/internal/emu"
	"lsl/internal/tcpmodel"
	"lsl/internal/wire"
)

// layerFixture is a bare fixture for the path fixtures below: a registry,
// session IDs and a seeded payload, with targets, depots and proxies
// added by the caller.
func layerFixture(lr *layerRun, name string, size int) *fixture {
	fx := &fixture{w: &workload{name: name, size: size, clients: 1}, seed: lr.seed,
		tmpDir: lr.tmpDir, reg: newRegistry(), ids: newSessionIDs(lr.seed, name)}
	fx.payload = genPayload(lr.seed, name, size)
	return fx
}

// bareTimes are the phases of one session driven step by step through
// the public lsl.Dial API, without the resilient transfer engine.
type bareTimes struct {
	connectMs, acceptMs float64 // Conn.DialDuration, Conn.AcceptDuration
	writeMs, confirmMs  float64 // SendReader; CloseWrite returned -> backward EOF
	sessionMs           float64
}

// bareSession is what one attempt of lsl.Transfer does, spelled out:
// dial, stream the payload, half-close, drain the backward channel until
// the cascade unwinds.
func bareSession(ctx context.Context, route lsl.Route, rec *opRec, opts ...lsl.Option) (bareTimes, error) {
	var bt bareTimes
	all := append([]lsl.Option{lsl.WithContentLength(rec.bytes), lsl.WithSession(rec.id)}, opts...)
	rec.start = now()
	c, err := lsl.Dial(ctx, route, all...)
	if err != nil {
		return bt, err
	}
	defer c.Close()
	bt.connectMs, bt.acceptMs = ms(int64(c.DialDuration())), ms(int64(c.AcceptDuration()))
	t1 := now()
	if err := c.SendReader(&rec.src); err != nil {
		return bt, fmt.Errorf("send: %w", err)
	}
	t2 := now()
	c.SetDeadline(time.Now().Add(deliveryLimit))
	if _, err := io.Copy(io.Discard, c); err != nil {
		return bt, fmt.Errorf("confirm drain: %w", err)
	}
	rec.end = now()
	bt.writeMs, bt.confirmMs, bt.sessionMs = ms(t2-t1), ms(rec.end-t2), ms(rec.end-rec.start)
	awaitDelivery(rec, deliveryLimit)
	if !rec.ok() {
		return bt, fmt.Errorf("session %s did not verify at the target", rec.id)
	}
	return bt, nil
}

// layerPaths measures core, resilience and the depot's added latency on
// the small_wan_classic shape: the same 64 KiB digested session direct,
// through one depot step by step, and through one depot via lsl.Transfer,
// all at 4 ms one-way end to end.
func layerPaths(lr *layerRun) error {
	const samples = 20
	ctx := context.Background()
	delay := emu.Shape{Delay: wanDelay}
	twice := emu.Shape{Delay: 2 * wanDelay}

	fx := layerFixture(lr, "layer/paths", 64<<10)
	defer fx.close()
	target, err := fx.startTarget(false)
	if err != nil {
		return err
	}
	pDirect, err := fx.startProxy(target, twice, twice)
	if err != nil {
		return err
	}
	pTarget, err := fx.startProxy(target, delay, delay)
	if err != nil {
		return err
	}
	connect := rttDial(2 * wanDelay)
	depot, err := fx.startDepot(lsl.DepotConfig{Dial: connect})
	if err != nil {
		return err
	}
	pDepot, err := fx.startProxy(depot, delay, delay)
	if err != nil {
		return err
	}
	direct := lsl.Route{Target: pDirect}
	cascade := lsl.Route{Via: []string{pDepot}, Target: pTarget}

	var directMs, bareMs, xferMs, connectMs, acceptMs, confirmMs []float64
	attempts := 0
	for i := 0; i < samples; i++ {
		bt, err := bareSession(ctx, direct, fx.newOp(0), lsl.WithDigest(), lsl.WithDialer(rttDial(4*wanDelay)))
		if err != nil {
			return fmt.Errorf("direct: %w", err)
		}
		directMs = append(directMs, bt.sessionMs)

		bt, err = bareSession(ctx, cascade, fx.newOp(0), lsl.WithDigest(), lsl.WithDialer(connect))
		if err != nil {
			return fmt.Errorf("one depot: %w", err)
		}
		bareMs = append(bareMs, bt.sessionMs)
		connectMs = append(connectMs, bt.connectMs)
		acceptMs = append(acceptMs, bt.acceptMs)
		confirmMs = append(confirmMs, bt.confirmMs)

		rec := fx.newOp(0)
		fx.transferOp(cascade, lsl.WithTransferDialer(connect))(ctx, rec)
		if !rec.ok() {
			return fmt.Errorf("lsl.Transfer through one depot failed: %v", rec.err)
		}
		xferMs = append(xferMs, ms(rec.end-rec.start))
		attempts += rec.attempts
	}
	lr.add("core", "core.dial_connect_ms_p50", median(connectMs), "ms", samples)
	lr.add("core", "core.dial_accept_ms_p50", median(acceptMs), "ms", samples)
	lr.add("core", "core.direct_session_ms_p50", median(directMs), "ms", samples)
	lr.add("core", "core.confirm_ms_p50", median(confirmMs), "ms", samples)
	lr.add("depot", "depot.hop_added_ms_p50", median(bareMs)-median(directMs), "ms", samples)
	lr.add("resilience", "resilience.transfer_overhead_ms_p50", median(xferMs)-median(bareMs), "ms", samples)

	// The open question: how far is the real stack from what the analytic
	// model predicts for this path? Two hops of 4 ms RTT, no loss, rate
	// bounded only by loopback (taken as 10 Gbit/s).
	hop := tcpmodel.PathParams{RTTSeconds: (2 * wanDelay).Seconds(), BottleneckBps: 10e9}
	model := tcpmodel.CascadeTransferSeconds(int64(len(fx.payload)), []tcpmodel.PathParams{hop, hop}, 0)
	lr.add("core", "core.model_ratio", median(bareMs)/1e3/model, "ratio", samples)

	// Conn.Write cost and the digest's share of it: 64 MiB straight into
	// an unshaped target, digest off and on.
	big := layerFixture(lr, "layer/write", 64<<20)
	defer big.close()
	bigTarget, err := big.startTarget(false)
	if err != nil {
		return err
	}
	kib := float64(len(big.payload)) / 1024
	var plain, digested []float64
	for i := 0; i < 3; i++ {
		bt, err := bareSession(ctx, lsl.Route{Target: bigTarget}, big.newOp(0))
		if err != nil {
			return err
		}
		plain = append(plain, bt.writeMs*1e6/kib)
		bt, err = bareSession(ctx, lsl.Route{Target: bigTarget}, big.newOp(0), lsl.WithDigest())
		if err != nil {
			return err
		}
		digested = append(digested, bt.writeMs*1e6/kib)
	}
	lr.add("core", "core.write_ns_per_KiB", median(plain), "ns", len(plain))
	lr.add("core", "core.digest_ns_per_KiB", median(digested)-median(plain), "ns", len(digested))
	return nil
}

// layerDepot measures what each depot hop costs on the bulk_classic
// shape (0, 1 and 2 depots) and the depot's own handshake.
func layerDepot(lr *layerRun) error {
	ctx := context.Background()
	const size = 64 << 20
	const xfers = 3
	goodput := make([]float64, 3)
	cpuPerKiB := make([]float64, 3)
	var allocsPerMiB float64
	for depots := 0; depots <= 2; depots++ {
		fx := layerFixture(lr, fmt.Sprintf("layer/depot%d", depots), size)
		target, err := fx.startTarget(false)
		if err != nil {
			fx.close()
			return err
		}
		route := lsl.Route{Target: target}
		for i := 0; i < depots; i++ {
			d, err := fx.startDepot(lsl.DepotConfig{})
			if err != nil {
				fx.close()
				return err
			}
			route.Via = append(route.Via, d)
		}
		op := fx.transferOp(route, lsl.WithoutTransferDigest())
		var mbps []float64
		var cpu float64
		run := func() error {
			for i := 0; i <= xfers; i++ { // the first warms the path
				rec := fx.newOp(0)
				c0 := cpuSeconds()
				op(ctx, rec)
				if !rec.ok() {
					return fmt.Errorf("%d depots: transfer failed: %v", depots, rec.err)
				}
				if i > 0 {
					cpu += cpuSeconds() - c0
					mbps = append(mbps, float64(size)/1e6/(float64(rec.end-rec.start)/1e9))
				}
			}
			return nil
		}
		var rerr error
		allocs := mallocsDuring(func() { rerr = run() })
		fx.close()
		if rerr != nil {
			return rerr
		}
		goodput[depots] = median(mbps)
		cpuPerKiB[depots] = cpu * 1e9 / (xfers * size / 1024)
		if depots == 1 {
			allocsPerMiB = float64(allocs) / ((xfers + 1) * size >> 20)
		}
		settle()
	}
	lr.add("depot", "depot.hop_goodput_ratio", goodput[1]/goodput[0], "ratio", xfers)
	lr.add("depot", "depot.hop2_goodput_ratio", goodput[2]/goodput[0], "ratio", xfers)
	lr.add("depot", "depot.hop_cpu_ns_per_KiB", (cpuPerKiB[2]-cpuPerKiB[0])/2, "ns", xfers)
	lr.add("depot", "depot.relay_allocs_per_MiB", allocsPerMiB, "count", xfers+1)

	// Handshake: a raw connection writes an open header at a depot and
	// waits for the accept frame that returns from a bare sink target.
	sinkLn, err := listenLoopback()
	if err != nil {
		return err
	}
	defer sinkLn.Close()
	go func() {
		for {
			nc, err := sinkLn.Accept()
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
	fx := layerFixture(lr, "layer/handshake", 0)
	defer fx.close()
	depot, err := fx.startDepot(lsl.DepotConfig{})
	if err != nil {
		return err
	}
	var us []float64
	for i := 0; i < 200; i++ {
		enc, err := (&wire.OpenHeader{Session: fx.nextID(), Route: []string{depot, sinkLn.Addr().String()},
			ContentLen: wire.UnknownLength}).Encode()
		if err != nil {
			return err
		}
		nc, err := net.Dial("tcp", depot)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := nc.Write(enc); err != nil {
			nc.Close()
			return err
		}
		acc, err := wire.ReadAcceptFrame(nc)
		el := time.Since(t0)
		nc.Close()
		if err != nil {
			return err
		}
		if acc.Code != wire.CodeOK {
			return fmt.Errorf("depot handshake refused: %s", wire.CodeString(acc.Code))
		}
		us = append(us, float64(el)/1e3)
	}
	lr.add("depot", "depot.handshake_us_p50", median(us), "us", len(us))
	return nil
}
