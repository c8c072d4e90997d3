package lsl_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"lsl"
)

// TestPublicAPIEndToEnd drives the whole public surface: a depot, a
// target, a digested session through the cascade.
func TestPublicAPIEndToEnd(t *testing.T) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		data, err := io.ReadAll(sc)
		if err == nil && sc.Verified() {
			got <- data
		}
	}()

	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := lsl.NewDepot(lsl.DepotConfig{})
	go d.Serve(dln)
	defer d.Close()

	payload := bytes.Repeat([]byte("logistical"), 20000)
	c, err := lsl.Dial(context.Background(),
		lsl.Route{Via: []string{dln.Addr().String()}, Target: ln.Addr().String()},
		lsl.WithDigest(), lsl.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload mismatch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	if d.Stats().Accepted != 1 {
		t.Fatal("depot did not carry the session")
	}
}

// TestPublicTransferAPI drives the self-healing surface end to end: a
// clean transfer through a depot, then one against a dead route that must
// classify, retry, and exhaust — all via the re-exported names.
func TestPublicTransferAPI(t *testing.T) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		for {
			sc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sc.Close()
				data, err := io.ReadAll(sc)
				if err == nil && sc.Verified() {
					got <- data
				}
			}()
		}
	}()

	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := lsl.NewDepot(lsl.DepotConfig{})
	go d.Serve(dln)
	defer d.Close()

	reg := lsl.NewMetricsRegistry()
	met := lsl.NewTransferMetrics(reg)
	payload := bytes.Repeat([]byte("heal"), 25000)
	res, err := lsl.Transfer(context.Background(),
		lsl.Route{Via: []string{dln.Addr().String()}, Target: ln.Addr().String()},
		bytes.NewReader(payload), int64(len(payload)),
		lsl.WithTransferMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Retries != 0 {
		t.Fatalf("clean path took %d attempts, %d retries", res.Attempts, res.Retries)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload mismatch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}

	// A dead world exhausts the budget with a classified error.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	_, err = lsl.Transfer(context.Background(),
		lsl.Route{Target: deadAddr}, bytes.NewReader(payload), int64(len(payload)),
		lsl.WithTransferMetrics(met),
		lsl.WithTransferPolicy(lsl.TransferPolicy{MaxAttempts: 2}))
	if err == nil {
		t.Fatal("transfer to a dead target succeeded")
	}
	if !errors.Is(err, lsl.ErrTransferExhausted) {
		t.Fatalf("err = %v, want ErrTransferExhausted", err)
	}
	if lsl.TransferPermanent(err) {
		t.Fatal("an exhausted transient error must not classify as permanent")
	}
	if met.Retries.Value() != 1 {
		t.Fatalf("retries counter = %d, want 1", met.Retries.Value())
	}
	// The one injected struct carries both families: what the transfers
	// above recorded, and the striped engine's counters next to it.
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lsl_transfer_retries_total 1",
		`lsl_transfers_total{outcome="delivered"} 1`,
		`lsl_transfers_total{outcome="exhausted"} 1`,
		"lsl_stripe_groups_total 0",
		"lsl_stripe_tail_ns_count 0",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text.String())
		}
	}
}

// TestPublicSimAPI builds a custom two-hop cascade with the exported
// simulator types and checks conservation.
func TestPublicSimAPI(t *testing.T) {
	e := lsl.NewSimEngine(1)
	const msec = 1_000_000 // SimTime is nanoseconds
	f1 := lsl.NewSimLink(e, "f1", 1e8, 5*msec, 0, 0)
	r1 := lsl.NewSimLink(e, "r1", 0, 5*msec, 0, 0)
	f2 := lsl.NewSimLink(e, "f2", 1e8, 5*msec, 0, 0)
	r2 := lsl.NewSimLink(e, "r2", 0, 5*msec, 0, 0)
	hops := []lsl.SimHop{
		{Fwd: lsl.NewSimPath(e, f1), Rev: lsl.NewSimPath(e, r1), TCP: lsl.DefaultTCPConfig()},
		{Fwd: lsl.NewSimPath(e, f2), Rev: lsl.NewSimPath(e, r2), TCP: lsl.DefaultTCPConfig()},
	}
	res := lsl.RunSimCascade(e, hops, lsl.DefaultSessionConfig(), 1<<20)
	if res.Bytes != 1<<20 {
		t.Fatalf("bytes=%d", res.Bytes)
	}
	if res.Mbps() <= 0 {
		t.Fatal("no throughput")
	}
}

// TestPublicScenarioAndFigures exercises the experiment surface.
func TestPublicScenarioAndFigures(t *testing.T) {
	if len(lsl.Scenarios()) != 4 {
		t.Fatal("want 4 scenarios")
	}
	if len(lsl.AllFigures()) != 27 {
		t.Fatal("want 27 figures")
	}
	spec, err := lsl.FigureByID("fig29")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		return
	}
	spec.Sizes = spec.Sizes[:2]
	data, err := lsl.RunFigure(spec, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 2 {
		t.Fatalf("rows=%d", len(data.Rows))
	}
}

// TestPublicPlanning exercises the route/forecast surface.
func TestPublicPlanning(t *testing.T) {
	g := lsl.NewGraph()
	g.AddNode(lsl.GraphNode{ID: "a"})
	g.AddNode(lsl.GraphNode{ID: "mid", Depot: true})
	g.AddNode(lsl.GraphNode{ID: "b"})
	g.AddDuplex("a", "mid", lsl.LinkMetrics{RTTSeconds: 0.03, BandwidthBps: 1e8, LossProb: 2e-4})
	g.AddDuplex("mid", "b", lsl.LinkMetrics{RTTSeconds: 0.03, BandwidthBps: 1e8, LossProb: 2e-4})
	plans, err := g.RankCandidates("a", "b", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan := plans[0]
	if !plan.UsesDepots() {
		t.Fatal("large lossy transfer should cascade")
	}

	s := lsl.NewForecastSeries("bw")
	for i := 0; i < 20; i++ {
		s.Observe(10)
	}
	if f := s.Forecast(); f < 9.9 || f > 10.1 {
		t.Fatalf("forecast=%v", f)
	}

	if got := lsl.MathisThroughputBps(1460, 0.064, 3e-4); got < 10e6 || got > 16e6 {
		t.Fatalf("mathis=%v", got)
	}
}
