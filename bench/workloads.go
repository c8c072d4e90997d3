package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lsl"
	"lsl/internal/emu"
	"lsl/internal/mux"
)

// workload names one of the six traffic shapes. The names are stable:
// later changes cite them.
type workload struct {
	name    string
	size    int
	clients int
	build   func(fx *fixture) error
}

// Why each workload exists is recorded in README.md and BENCHMARK.json.
var workloads = []*workload{
	{"bulk_classic", 128 << 20, 1, buildBulk(false)},
	{"bulk_mux", 128 << 20, 1, buildBulk(true)},
	{"small_wan_classic", 64 << 10, 2, buildSmallWAN(false)},
	{"small_wan_mux", 64 << 10, 2, buildSmallWAN(true)},
	{"striped_wan", 16 << 20, 1, buildStriped},
	{"staged_local", 256 << 10, 2, buildStaged},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Emulated path constants. They are part of the workload definitions.
const (
	wanDelay      = 2 * time.Millisecond // one way, per sublink
	stripeFastBps = 250e6
	stripeSlowBps = 150e6
	stripeDelay   = 500 * time.Microsecond
	stripeFrame   = 64 << 10
	stripeRebal   = 512 << 10
	deliveryLimit = 20 * time.Second
	transferLimit = 60 * time.Second
)

// fixture is one workload's running system: target, depots, emulated
// paths, trunk pool and journal, all in this process on loopback.
type fixture struct {
	w       *workload
	seed    int64
	tmpDir  string
	payload []byte
	reg     *registry
	depots  []*lsl.Depot

	idMu sync.Mutex
	ids  *sessionIDs

	// do runs one transfer through the public API, filling rec.
	do func(ctx context.Context, rec *opRec)

	closers []func() // run in reverse order
}

func (fx *fixture) onClose(f func()) { fx.closers = append(fx.closers, f) }

func (fx *fixture) close() {
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
	fx.closers = nil
}

func (fx *fixture) nextID() lsl.SessionID {
	fx.idMu.Lock()
	defer fx.idMu.Unlock()
	return fx.ids.next()
}

// newOp prepares the record of the next transfer and registers it with
// the target.
func (fx *fixture) newOp(client int) *opRec {
	rec := &opRec{id: fx.nextID(), client: client, bytes: int64(len(fx.payload)), done: make(chan struct{})}
	rec.src.reset(fx.payload)
	fx.reg.add(rec)
	return rec
}

// buildFixture generates the workload's inputs from the seed, stands its
// system up and pushes one verified transfer through it, which opens
// every trunk and proves the fixture works before anything is measured.
// The caller times it: this is the set-up cost.
func buildFixture(w *workload, seed int64, tmpDir string) (*fixture, error) {
	fx := &fixture{w: w, seed: seed, tmpDir: tmpDir, reg: newRegistry(), ids: newSessionIDs(seed, w.name)}
	fx.payload = genPayload(seed, w.name, w.size)
	if err := w.build(fx); err != nil {
		fx.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := fx.newOp(0)
	fx.do(context.Background(), rec)
	if rec.err == nil {
		awaitDelivery(rec, deliveryLimit)
	}
	if !rec.ok() {
		fx.close()
		return nil, fmt.Errorf("%s: first transfer through the fixture failed: %v", w.name, rec.err)
	}
	return fx, nil
}

// startTarget binds the session target and starts its sink. With trunks
// the transport listener also accepts mux links.
func (fx *fixture) startTarget(trunks bool) (string, error) {
	ln, err := listenLoopback()
	if err != nil {
		return "", err
	}
	var tl net.Listener = ln
	if trunks {
		tl = newMuxListener(ln)
	}
	s := startSink(lsl.NewListener(tl), fx.reg, fx.payload)
	fx.onClose(s.close)
	return ln.Addr().String(), nil
}

// startDepot serves a depot on an ephemeral loopback port.
func (fx *fixture) startDepot(cfg lsl.DepotConfig) (string, error) {
	ln, err := listenLoopback()
	if err != nil {
		return "", err
	}
	cfg.DrainTimeout = 2 * time.Second
	d := lsl.NewDepot(cfg)
	go d.Serve(ln)
	fx.depots = append(fx.depots, d)
	fx.onClose(func() { d.Close() })
	return ln.Addr().String(), nil
}

// startProxy puts an emulated path in front of target.
func (fx *fixture) startProxy(target string, up, down emu.Shape) (string, error) {
	p := emu.NewProxy(target, up, down)
	addr, err := p.Start()
	if err != nil {
		return "", err
	}
	fx.onClose(p.Close)
	return addr, nil
}

// transferOp returns the op for the classic and trunk workloads: one
// lsl.Transfer call along route.
func (fx *fixture) transferOp(route lsl.Route, opts ...lsl.TransferOption) func(context.Context, *opRec) {
	return func(ctx context.Context, rec *opRec) {
		ctx, cancel := context.WithTimeout(ctx, transferLimit)
		defer cancel()
		all := append([]lsl.TransferOption{lsl.WithTransferSession(rec.id)}, opts...)
		rec.start = now()
		res, err := lsl.Transfer(ctx, route, &rec.src, rec.bytes, all...)
		rec.end = now()
		rec.err = err
		if res != nil {
			rec.attempts = res.Attempts
		}
		if err == nil {
			awaitDelivery(rec, deliveryLimit)
		}
	}
}

// rttDial is a transport dialer whose every fresh connect costs one round
// trip of the emulated path first. An emu proxy delays data, but its
// accept is local, so without this a connect over a "2 ms" path would be
// free and the round trip that warm trunks exist to remove would not be
// on the path at all.
func rttDial(rtt time.Duration) lsl.Dialer {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t := time.NewTimer(rtt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return d.DialContext(ctx, network, addr)
	}
}

// trunkPool builds the initiator's link pool for the all-trunk workloads;
// dial opens its trunks (nil for the plain dialer).
func (fx *fixture) trunkPool(dial lsl.Dialer) *lsl.LinkPool {
	pool := lsl.NewLinkPool(lsl.LinkPoolConfig{Dial: mux.Dialer(dial)})
	fx.onClose(func() { pool.Close() })
	return pool
}

// buildBulk is I -> D -> D -> T on unshaped loopback, digest off.
func buildBulk(trunks bool) func(*fixture) error {
	return func(fx *fixture) error {
		target, err := fx.startTarget(trunks)
		if err != nil {
			return err
		}
		d2, err := fx.startDepot(lsl.DepotConfig{Mux: trunks})
		if err != nil {
			return err
		}
		d1, err := fx.startDepot(lsl.DepotConfig{Mux: trunks})
		if err != nil {
			return err
		}
		route := lsl.Route{Via: []string{d1, d2}, Target: target}
		opts := []lsl.TransferOption{lsl.WithoutTransferDigest()}
		if trunks {
			opts = append(opts, lsl.WithTransferDialer(fx.trunkPool(nil).DialContext))
		}
		fx.do = fx.transferOp(route, opts...)
		return nil
	}
}

// buildSmallWAN is I -> D -> T with 2 ms one way on each sublink (so a
// fresh connect on either costs 4 ms) and no rate cap, digest on.
func buildSmallWAN(trunks bool) func(*fixture) error {
	return func(fx *fixture) error {
		target, err := fx.startTarget(trunks)
		if err != nil {
			return err
		}
		delay := emu.Shape{Delay: wanDelay}
		pTarget, err := fx.startProxy(target, delay, delay)
		if err != nil {
			return err
		}
		connect := rttDial(2 * wanDelay)
		depot, err := fx.startDepot(lsl.DepotConfig{Mux: trunks, Dial: connect})
		if err != nil {
			return err
		}
		pDepot, err := fx.startProxy(depot, delay, delay)
		if err != nil {
			return err
		}
		route := lsl.Route{Via: []string{pDepot}, Target: pTarget}
		opts := []lsl.TransferOption{lsl.WithTransferDialer(connect)}
		if trunks {
			opts[0] = lsl.WithTransferDialer(fx.trunkPool(connect).DialContext)
		}
		fx.do = fx.transferOp(route, opts...)
		return nil
	}
}

// stripedPaths stands up one depot behind a shaped path per rate and
// returns the first-hop addresses.
func (fx *fixture) stripedPaths() ([]string, error) {
	var via []string
	for _, rate := range []float64{stripeFastBps, stripeSlowBps} {
		depot, err := fx.startDepot(lsl.DepotConfig{})
		if err != nil {
			return nil, err
		}
		p, err := fx.startProxy(depot,
			emu.Shape{Delay: stripeDelay, RateBps: rate}, emu.Shape{Delay: stripeDelay})
		if err != nil {
			return nil, err
		}
		via = append(via, p)
	}
	return via, nil
}

// stripedOnce runs one striped transfer to a fresh target (one listener
// per stripe group keeps groups apart) and fills rec from both ends.
func stripedOnce(ctx context.Context, via []string, payload []byte, rec *opRec) (*lsl.StripedTransferResult, error) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	routes := make([]lsl.Route, len(via))
	for i, v := range via {
		routes[i] = lsl.Route{Via: []string{v}, Target: ln.Addr().String()}
	}
	out := &crcWriter{}
	wantLen, wantCRC := int64(len(payload)), crc32c(payload)
	go func() {
		n, rerr := lsl.StripedReceive(ln, len(routes), out)
		rec.firstByte, rec.delivered = out.first, out.last
		rec.verified = rerr == nil && n == wantLen && out.n == wantLen && out.crc == wantCRC
		close(rec.done)
	}()
	ctx, cancel := context.WithTimeout(ctx, transferLimit)
	defer cancel()
	rec.start = now()
	res, err := lsl.StripedTransfer(ctx, routes, &rec.src, rec.bytes,
		lsl.WithStripeFrameSize(stripeFrame), lsl.WithStripeRebalanceBytes(stripeRebal),
		lsl.WithTransferDialer(rttDial(2*stripeDelay)))
	rec.end = now()
	rec.err = err
	if res != nil {
		rec.attempts = 1 + res.Heals
	}
	if err == nil {
		awaitDelivery(rec, deliveryLimit)
	} else {
		ln.Close() // unblocks the receiver so its goroutine ends
		<-rec.done
	}
	return res, err
}

// buildStriped is two routes of one depot each, one shaped path per route.
func buildStriped(fx *fixture) error {
	via, err := fx.stripedPaths()
	if err != nil {
		return err
	}
	fx.do = func(ctx context.Context, rec *opRec) {
		fx.reg.take(rec.id) // striped groups bring their own target
		stripedOnce(ctx, via, fx.payload, rec)
	}
	return nil
}

// buildStaged is I -> D(custody journal, no fsync) -> T on unshaped
// loopback. The initiator is released at the custody ack; the target's
// verdict is collected off the critical path.
func buildStaged(fx *fixture) error {
	dir, err := os.MkdirTemp(fx.tmpDir, "custody-")
	if err != nil {
		return err
	}
	fx.onClose(func() { os.RemoveAll(dir) })
	j, err := lsl.OpenCustody(filepath.Join(dir, "journal"), lsl.CustodyConfig{Fsync: lsl.FsyncNever})
	if err != nil {
		return err
	}
	fx.onClose(func() { j.Close() })
	target, err := fx.startTarget(false)
	if err != nil {
		return err
	}
	depot, err := fx.startDepot(lsl.DepotConfig{Custody: j})
	if err != nil {
		return err
	}
	route := lsl.Route{Via: []string{depot}, Target: target}
	fx.do = func(ctx context.Context, rec *opRec) {
		ctx, cancel := context.WithTimeout(ctx, transferLimit)
		defer cancel()
		rec.attempts = 1
		rec.start = now()
		rec.err = stagedSession(ctx, route, rec)
		rec.end = now()
	}
	return nil
}

// stagedSession uploads rec's payload into depot custody and returns at
// the custody ack.
func stagedSession(ctx context.Context, route lsl.Route, rec *opRec) error {
	c, err := lsl.Dial(ctx, route, lsl.WithStaged(), lsl.WithDigest(),
		lsl.WithContentLength(rec.bytes), lsl.WithSession(rec.id))
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SendReader(&rec.src); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return c.AwaitCustody()
}
