package resilience_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/faultnet"
	"lsl/internal/logistics"
	"lsl/internal/metrics"
	"lsl/internal/resilience"
	"lsl/internal/route"
	"lsl/internal/stripe"
)

// stripedTarget is a session target that reassembles a stripe group:
// every accepted session is fed into one stripe.Receiver on its own
// goroutine, per-stream errors are tolerated (a dead stripe's
// replacement arrives as a fresh session), and done fires once the
// logical stream is byte-complete.
type stripedTarget struct {
	l    *core.Listener
	recv *stripe.Receiver
	buf  bytes.Buffer
	done chan struct{}
	once sync.Once
}

func newStripedTarget(t *testing.T) *stripedTarget {
	t.Helper()
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &stripedTarget{l: l, done: make(chan struct{})}
	st.recv = stripe.NewReceiver(&st.buf)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				// Attach errors are expected: this stream may be the
				// half a faultnet reset left behind.
				if aerr := st.recv.Attach(sc); aerr != nil {
					t.Logf("striped target: stream error (tolerated): %v", aerr)
				}
				// Close unwinds the cascade, which finishes the
				// sender's stripe.
				sc.Close()
				if st.recv.Complete() {
					st.once.Do(func() { close(st.done) })
				}
			}()
		}
	}()
	return st
}

func (st *stripedTarget) addr() string { return st.l.Addr().String() }

func (st *stripedTarget) wait(t *testing.T, want []byte) {
	t.Helper()
	select {
	case <-st.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("timeout: striped target has %d/%d bytes", st.recv.Written(), len(want))
	}
	got := st.buf.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembled stream differs: got %d bytes, want %d", len(got), len(want))
	}
	if md5.Sum(got) != md5.Sum(want) {
		t.Fatal("end-to-end MD5 mismatch")
	}
}

// The striped acceptance case: the planner proposes three link-disjoint
// routes (two real depot cascades plus the direct path), the engine
// stripes one stream across them with predicted weights, and faultnet
// resets the fastest stripe mid-flow. The group must heal that stripe
// (redial, replay its in-flight frames), keep rebalancing weights from
// observed throughput, and deliver byte-exact — all visible in the
// lsl_stripe_* counters.
func TestStripedTransferHealsDeadStripe(t *testing.T) {
	st := newStripedTarget(t)
	depAAddr, _ := startDepot(t, depot.Config{DrainTimeout: 0})
	depBAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(4<<20, 21)

	// Planning graph over the live addresses. The direct edge has the
	// lowest RTT (so the direct candidate's router-level path is the
	// edge itself, link-disjoint from both cascades) but the least
	// bandwidth, so the depot cascades outrank it.
	g := route.NewGraph()
	g.AddNode(route.Node{ID: "client"})
	g.AddNode(route.Node{ID: "depA", Depot: true, Addr: depAAddr})
	g.AddNode(route.Node{ID: "depB", Depot: true, Addr: depBAddr})
	g.AddNode(route.Node{ID: "server", Addr: st.addr()})
	fast := route.Metrics{RTTSeconds: 0.005, BandwidthBps: 100e6, LossProb: 2.5e-4}
	mid := route.Metrics{RTTSeconds: 0.020, BandwidthBps: 50e6, LossProb: 2.5e-4}
	g.AddDuplex("client", "depA", fast)
	g.AddDuplex("depA", "server", fast)
	g.AddDuplex("client", "depB", mid)
	g.AddDuplex("depB", "server", mid)
	g.AddDuplex("client", "server", route.Metrics{RTTSeconds: 0.008, BandwidthBps: 20e6, LossProb: 2.5e-4})

	pl, err := logistics.New(g, "client")
	if err != nil {
		t.Fatal(err)
	}
	pl.SetMetrics(logistics.NewMetrics(metrics.NewRegistry()))

	// Sanity: three disjoint routes, predicted-fastest via depA.
	routes, weights, err := pl.PlanStripes(st.addr(), int64(len(payload)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("PlanStripes proposed %d routes, want 3: %+v", len(routes), routes)
	}
	if len(routes[0].Via) != 1 || routes[0].Via[0] != depAAddr {
		t.Fatalf("fastest stripe route %+v, want via depA %s", routes[0], depAAddr)
	}
	if weights[0] < weights[1] || weights[1] < weights[2] {
		t.Fatalf("stripe weights not descending: %v", weights)
	}

	// Pace every first-hop link so the group genuinely shares the flow
	// (unpaced loopback would let whichever stripe attaches first finish
	// the whole stream), and kill the predicted-fastest stripe mid-flow:
	// the first session through depA is reset after 300 KB. The redial
	// consumes no step and passes clean.
	fn := faultnet.New(nil)
	pace := 500 * time.Microsecond
	fn.Script(depAAddr, faultnet.Step{WriteLatency: pace, ResetAfterBytes: 300_000})
	fn.Script(depBAddr, faultnet.Step{WriteLatency: pace})
	fn.Script(st.addr(), faultnet.Step{WriteLatency: pace})

	smet := resilience.NewMetrics(metrics.NewRegistry())
	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{{Target: st.addr()}}, // planner overrides this
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithStripes(3),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fn.DialContext),
		resilience.WithPlanner(pl),
		resilience.WithFrameSize(32<<10),
		resilience.WithRebalanceBytes(256<<10),
		resilience.WithMetrics(smet),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("striped transfer did not heal: %v", err)
	}
	st.wait(t, payload)

	if res.Stripes != 3 || len(res.StripeBytes) != 3 {
		t.Fatalf("result fan-out %d/%v, want 3 stripes", res.Stripes, res.StripeBytes)
	}
	var sum int64
	for _, b := range res.StripeBytes {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d", sum, len(payload))
	}
	if res.Heals < 1 {
		t.Fatalf("heals=%d, want >= 1", res.Heals)
	}
	if res.Abandoned != 0 {
		t.Fatalf("abandoned=%d, want 0", res.Abandoned)
	}
	if res.FramesReassigned < 1 {
		t.Fatalf("frames reassigned=%d, want >= 1 after a mid-flow reset", res.FramesReassigned)
	}
	if res.Rebalances < 1 {
		t.Fatalf("rebalances=%d, want >= 1", res.Rebalances)
	}
	if got := smet.StripeHeals.Value(); got < 1 {
		t.Fatalf("lsl_stripe_stripe_heals_total=%d, want >= 1", got)
	}
	if got := smet.Rebalances.Value(); got < 1 {
		t.Fatalf("lsl_stripe_rebalances_total=%d, want >= 1", got)
	}
	if got := smet.FramesReassigned.Value(); got < 1 {
		t.Fatalf("lsl_stripe_frames_reassigned_total=%d, want >= 1", got)
	}
	if got := smet.Groups.Value(); got != 1 {
		t.Fatalf("lsl_stripe_groups_total=%d, want 1", got)
	}
}

// Plannerless striped transfer over explicit routes: two depot cascades,
// no faults, byte-exact delivery and per-stripe accounting.
func TestStripedTransferCleanPath(t *testing.T) {
	st := newStripedTarget(t)
	depAAddr, _ := startDepot(t, depot.Config{})
	depBAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(1<<20, 22)

	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{
			{Via: []string{depAAddr}, Target: st.addr()},
			{Via: []string{depBAddr}, Target: st.addr()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithFrameSize(64<<10),
		resilience.WithMetrics(resilience.NewMetrics(metrics.NewRegistry())),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	st.wait(t, payload)
	if res.Stripes != 2 || res.Heals != 0 || res.Abandoned != 0 {
		t.Fatalf("clean path result %+v", res)
	}
	var sum int64
	for _, b := range res.StripeBytes {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d", sum, len(payload))
	}
}

// The end-of-stream tail acceptance case: one of two stripes wedges —
// its connection stays up but writes block forever — with frames still
// in flight. The group must supersede the dead weight, requeue its
// unconfirmed frames onto the healthy stripe, and confirm by receiver
// ack — byte-exact, with no frame double-counted in the per-stripe
// attribution.
func TestStripedTransferReclaimsStalledStripe(t *testing.T) {
	st := newStripedTarget(t)
	depAAddr, _ := startDepot(t, depot.Config{})
	depBAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(2<<20, 24)

	// Stripe 1's first session wedges after 200 KB: alive, paced slow,
	// never delivering another byte. Stripe 0 is paced but healthy. The
	// pacing leaves stripe 1 twelve or more 32 KiB frames, so the wedge
	// lands mid-share (at 400 KB it fell just past a twelve-frame share).
	fn := faultnet.New(nil)
	fn.Script(depAAddr, faultnet.Step{WriteLatency: 200 * time.Microsecond})
	fn.Script(depBAddr, faultnet.Step{WriteLatency: time.Millisecond, StallAfterBytes: 200_000})

	smet := resilience.NewMetrics(metrics.NewRegistry())
	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{
			{Via: []string{depAAddr}, Target: st.addr()},
			{Via: []string{depBAddr}, Target: st.addr()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fn.DialContext),
		resilience.WithFrameSize(32<<10),
		resilience.WithMetrics(smet),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("striped transfer did not reclaim the stalled tail: %v", err)
	}
	st.wait(t, payload)

	if res.FramesReassigned < 1 {
		t.Fatalf("frames reassigned=%d, want >= 1 (the wedged in-flight frame)", res.FramesReassigned)
	}
	if res.Superseded < 1 {
		t.Fatalf("superseded=%d, want >= 1 — the wedged stripe cannot end on its own", res.Superseded)
	}
	if !res.Confirmed {
		t.Fatal("group should confirm via receiver ack")
	}
	var sum int64
	for _, b := range res.StripeBytes {
		if b < 0 {
			t.Fatalf("negative stripe attribution: %v", res.StripeBytes)
		}
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d — a duplicate was double-counted (%v)",
			sum, len(payload), res.StripeBytes)
	}
	if got := smet.FramesReassigned.Value(); got < 1 {
		t.Fatalf("lsl_stripe_frames_reassigned_total=%d, want >= 1", got)
	}
	if got := smet.Tail.Count(); got != 1 {
		t.Fatalf("lsl_stripe_tail_ns count=%d, want 1 observation", got)
	}
	if res.Heals != 0 {
		t.Fatalf("heals=%d, want 0 — supersession must not trigger a redial", res.Heals)
	}
}

// tailDeathConn passes a stripe session's open and group headers
// through, then swallows every frame — closing framed on the first and
// holding the rest until hold closes — and resets the connection when the
// stripe half-closes: the frames count as written, and they die with the
// connection before the receiver sees one.
type tailDeathConn struct {
	net.Conn
	head   []byte // what passed through
	framed chan struct{}
	hold   <-chan struct{}
	reset  chan struct{}
}

func (c *tailDeathConn) Write(p []byte) (int, error) {
	if i := bytes.Index(c.head, []byte("LSLT")); i < 0 || len(c.head) < i+31 {
		c.head = append(c.head, p...)
		return c.Conn.Write(p)
	}
	if c.framed != nil {
		close(c.framed)
		c.framed = nil
	} else {
		<-c.hold
	}
	return len(p), nil
}

func (c *tailDeathConn) CloseWrite() error {
	c.Conn.(*net.TCPConn).SetLinger(0)
	c.Conn.Close()
	close(c.reset)
	return nil
}

// A stripe whose connection is reset after all its frames are written,
// while the receiver acks and before the group is confirmed, goes down
// like a stripe that dies mid-flow: its frames requeue and the one heal
// loop re-attaches it. The two stripes take turns at the start — stripe
// 0's transport comes up once stripe 1 has written a frame, and stripe 1
// writes its next once stripe 0 has — so both carry frames, and only
// stripe 0's reach the receiver and are acked.
func TestStripedTransferHealsTailDeath(t *testing.T) {
	st := newStripedTarget(t)
	depAAddr, _ := startDepot(t, depot.Config{})
	depBAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(512<<10, 26)

	framed, released, reset := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var onceA, onceB, release sync.Once
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if addr == depAAddr {
			select {
			case <-framed:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		switch addr {
		case depAAddr:
			onceA.Do(func() {
				c = &frameTap{Conn: c, framed: func() { release.Do(func() { close(released) }) }}
			})
		case depBAddr:
			onceB.Do(func() { c = &tailDeathConn{Conn: c, framed: framed, hold: released, reset: reset} })
		}
		return c, nil
	}
	smet := resilience.NewMetrics(metrics.NewRegistry())
	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{
			{Via: []string{depAAddr}, Target: st.addr()},
			{Via: []string{depBAddr}, Target: st.addr()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(dial),
		resilience.WithFrameSize(32<<10),
		resilience.WithMetrics(smet),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("striped transfer did not heal the tail death: %v", err)
	}
	st.wait(t, payload)
	select {
	case <-reset:
	default:
		t.Fatal("stripe 1's first session never half-closed")
	}
	if res.Heals != 1 || res.Abandoned != 0 {
		t.Fatalf("heals=%d abandoned=%d, want 1/0", res.Heals, res.Abandoned)
	}
	if !res.Confirmed {
		t.Fatal("the healed group should confirm by receiver ack")
	}
	if got := smet.FramesReassigned.Value(); got < 1 {
		t.Fatalf("lsl_stripe_frames_reassigned_total=%d, want >= 1: the dead stripe's frames were re-sent", got)
	}
}

// A stripe whose depot refuses every dial is abandoned after its budget
// and the survivors deliver its share.
func TestStripedTransferAbandonsHopelessStripe(t *testing.T) {
	st := newStripedTarget(t)
	depAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(600_000, 23)

	pol := fastPolicy()
	pol.MaxAttempts = 3
	// Keep plannerless failover from dropping the dead depot and dialing
	// the target directly — this case wants the budget to run out.
	pol.SetFailoverAfter(100)
	fn := faultnet.New(nil)
	deadDepot := "127.0.0.1:1" // nothing listens here
	fn.Script(deadDepot,
		faultnet.Step{RefuseDial: true},
		faultnet.Step{RefuseDial: true},
		faultnet.Step{RefuseDial: true})

	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{
			{Via: []string{depAddr}, Target: st.addr()},
			{Via: []string{deadDepot}, Target: st.addr()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(pol),
		resilience.WithDialer(fn.DialContext),
		resilience.WithFrameSize(32<<10),
		resilience.WithMetrics(resilience.NewMetrics(metrics.NewRegistry())),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("group should survive an abandoned stripe: %v", err)
	}
	st.wait(t, payload)
	if res.Abandoned != 1 {
		t.Fatalf("abandoned=%d, want 1", res.Abandoned)
	}
	if res.StripeBytes[1] != 0 {
		t.Fatalf("dead stripe carried %d bytes, want 0", res.StripeBytes[1])
	}
	if res.StripeBytes[0] != int64(len(payload)) {
		t.Fatalf("surviving stripe carried %d, want all %d", res.StripeBytes[0], len(payload))
	}
}

// A stripe's route dies between the data phase and the confirm: every
// frame and both end frames are in, but depot B vanishes before its
// cascade unwinds. The stripe goes down like one that dies mid-flow, so
// re-sending its frames follows the same policy as any heal — two
// refused dials at the dead first hop, then failover past it — and lands
// on the direct route.
func TestStripedTransferConfirmReplayFailsOver(t *testing.T) {
	depAAddr, _ := startDepot(t, depot.Config{})
	depBAddr, _ := startDepot(t, depot.Config{})
	payload := randBytes(1<<20, 25)

	// A target that never acks (it reads each session through a read-only
	// view), so the group has to confirm stripe by stripe, and that holds
	// every session open until the route has been killed.
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var buf bytes.Buffer
	recv := stripe.NewReceiver(&buf)
	ended := make(chan struct{}, 8) // one token per stream whose end frame arrived
	release := make(chan struct{})
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				if recv.Attach(struct{ io.Reader }{sc}) == nil {
					ended <- struct{}{}
				}
				<-release
				sc.Close()
			}()
		}
	}()

	var mu sync.Mutex
	var viaB []net.Conn
	dead := false
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if addr == depBAddr && dead {
			return nil, errors.New("depot B is gone")
		}
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil && addr == depBAddr {
			viaB = append(viaB, c)
		}
		return c, err
	}
	go func() {
		<-ended
		<-ended
		mu.Lock()
		dead = true
		for _, c := range viaB {
			c.Close()
		}
		mu.Unlock()
		close(release)
	}()

	res, err := resilience.StripedTransfer(context.Background(),
		[]core.Route{
			{Via: []string{depAAddr}, Target: l.Addr().String()},
			{Via: []string{depBAddr}, Target: l.Addr().String()},
		},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(dial),
		resilience.WithFrameSize(32<<10),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("confirm did not heal around the dead depot: %v", err)
	}
	if !recv.Complete() || !bytes.Equal(buf.Bytes(), payload) {
		t.Fatalf("reassembled %d of %d bytes", recv.Written(), len(payload))
	}
	if res.Confirmed {
		t.Fatal("an ackless target cannot confirm by ack")
	}
	if len(res.Routes[1].Via) != 0 {
		t.Fatalf("stripe 1 finished on %v, want the direct route", res.Routes[1].Hops())
	}
	if res.Heals != 1 || res.Replans != 1 || res.Abandoned != 0 {
		t.Fatalf("heals=%d replans=%d abandoned=%d, want 1/1/0", res.Heals, res.Replans, res.Abandoned)
	}
}
