package lsl_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"lsl"
	"lsl/internal/faultnet"
)

// TestStripedTransferThroughDepots stripes one logical stream over three
// sessions, each routed through its own depot — parallel TCP streams plus
// multi-path loose source routing in one transfer (paper §VII).
func TestStripedTransferThroughDepots(t *testing.T) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const stripes = 3
	routes := make([]lsl.Route, stripes)
	for i := 0; i < stripes; i++ {
		dln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d := lsl.NewDepot(lsl.DepotConfig{})
		go d.Serve(dln)
		defer d.Close()
		routes[i] = lsl.Route{Via: []string{dln.Addr().String()}, Target: ln.Addr().String()}
	}

	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(42)).Read(payload)

	type result struct {
		n   int64
		err error
		buf *bytes.Buffer
	}
	got := make(chan result, 1)
	go func() {
		var out bytes.Buffer
		n, err := lsl.StripedReceive(ln, stripes, &out)
		got <- result{n, err, &out}
	}()

	res, err := lsl.StripedTransfer(context.Background(), routes,
		bytes.NewReader(payload), int64(len(payload)), lsl.WithStripeFrameSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stripes != stripes || res.Heals != 0 || res.Abandoned != 0 {
		t.Fatalf("clean striped transfer did recovery work: %+v", res)
	}

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.n != int64(len(payload)) {
			t.Fatalf("received %d", r.n)
		}
		if !bytes.Equal(r.buf.Bytes(), payload) {
			t.Fatal("striped payload mismatch")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("timeout")
	}
}

// A mid-group accept failure must abort the whole group: StripedReceive
// returns the accept error AND tears down the sessions it had already
// attached, instead of leaking their goroutines against a stream that
// can never complete.
func TestStripedReceiveAbortsGroupOnAcceptError(t *testing.T) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		n   int64
		err error
	}
	got := make(chan result, 1)
	go func() {
		var out bytes.Buffer
		n, rerr := lsl.StripedReceive(ln, 2, &out)
		got <- result{n, rerr}
	}()

	// First stripe attaches (Dial returning proves its accept completed)…
	c, err := lsl.Dial(context.Background(), lsl.Route{Target: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// …then the listener dies before the second stripe arrives.
	ln.Close()

	select {
	case r := <-got:
		if r.err == nil {
			t.Fatalf("StripedReceive returned nil error for a half-accepted group (%d bytes)", r.n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StripedReceive hung on a mid-group accept error")
	}

	// The already-attached session was cancelled, not leaked: the sender
	// side observes the close instead of blocking forever.
	readDone := make(chan error, 1)
	go func() {
		_, rerr := c.Read(make([]byte, 1))
		readDone <- rerr
	}()
	select {
	case rerr := <-readDone:
		if rerr == nil {
			t.Fatal("attached session still readable after group abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("attached session leaked: sender read still blocked after group abort")
	}
}

// The public self-healing striped path: two depot routes, the first
// session through depot A is reset mid-flow, and StripedTransfer +
// StripedReceive still deliver byte-exact with the heal visible in the
// result.
func TestStripedTransferHealsViaPublicAPI(t *testing.T) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	depots := make([]string, 2)
	for i := range depots {
		dln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d := lsl.NewDepot(lsl.DepotConfig{})
		go d.Serve(dln)
		defer d.Close()
		depots[i] = dln.Addr().String()
	}
	routes := []lsl.Route{
		{Via: []string{depots[0]}, Target: ln.Addr().String()},
		{Via: []string{depots[1]}, Target: ln.Addr().String()},
	}

	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(43)).Read(payload)

	// Pace both first hops so the stripes share the flow, and reset the
	// first session through depot 0 after 200 KB; its redial is clean.
	fn := faultnet.New(nil)
	pace := 500 * time.Microsecond
	fn.Script(depots[0], faultnet.Step{WriteLatency: pace, ResetAfterBytes: 200_000})
	fn.Script(depots[1], faultnet.Step{WriteLatency: pace})

	type result struct {
		n   int64
		err error
		buf *bytes.Buffer
	}
	got := make(chan result, 1)
	go func() {
		var out bytes.Buffer
		n, rerr := lsl.StripedReceive(ln, len(routes), &out)
		got <- result{n, rerr, &out}
	}()

	res, err := lsl.StripedTransfer(context.Background(), routes,
		bytes.NewReader(payload), int64(len(payload)),
		lsl.WithTransferPolicy(lsl.TransferPolicy{MaxAttempts: 10}),
		lsl.WithTransferDialer(fn.DialContext),
		lsl.WithStripeFrameSize(32<<10),
		lsl.WithTransferLogf(t.Logf))
	if err != nil {
		t.Fatalf("striped transfer did not heal: %v", err)
	}
	if res.Heals < 1 {
		t.Fatalf("heals=%d, want >= 1", res.Heals)
	}

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.n != int64(len(payload)) || !bytes.Equal(r.buf.Bytes(), payload) {
			t.Fatalf("received %d bytes, mismatch with %d sent", r.n, len(payload))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for striped receive")
	}
}

// TestParallelStreamsPublicAPI exercises the simulator's PSockets baseline
// through the facade.
func TestParallelStreamsPublicAPI(t *testing.T) {
	e := lsl.NewSimEngine(1)
	const msec = 1_000_000
	f := lsl.NewSimLink(e, "f", 1e8, 20*msec, 0, 5e-4)
	r := lsl.NewSimLink(e, "r", 0, 20*msec, 0, 0)
	res := lsl.RunSimParallel(e, lsl.NewSimPath(e, f), lsl.NewSimPath(e, r),
		lsl.DefaultTCPConfig(), 4, 8<<20)
	if res.Bytes != 8<<20 {
		t.Fatalf("bytes=%d", res.Bytes)
	}
}
