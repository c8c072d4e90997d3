package gossip_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/faultnet"
	"lsl/internal/gossip"
	"lsl/internal/logistics"
	"lsl/internal/metrics"
	"lsl/internal/resilience"
	"lsl/internal/route"
)

// pairGraph is a minimal two-depot overlay both ends of a unit-test
// exchange share.
func pairGraph() *route.Graph {
	g := route.NewGraph()
	g.AddNode(route.Node{ID: "depA", Depot: true, Addr: "depa:1"})
	g.AddNode(route.Node{ID: "depB", Depot: true, Addr: "depb:1"})
	g.AddNode(route.Node{ID: "server", Addr: "server:1"})
	m := route.Metrics{RTTSeconds: 0.01, BandwidthBps: 1e8, LossProb: 1e-4}
	g.AddDuplex("depA", "depB", m)
	g.AddDuplex("depA", "server", m)
	g.AddDuplex("depB", "server", m)
	return g
}

func newPlanner(t *testing.T, self route.NodeID) *logistics.Planner {
	t.Helper()
	p, err := logistics.New(pairGraph(), self)
	if err != nil {
		t.Fatal(err)
	}
	p.SetMetrics(logistics.NewMetrics(metrics.NewRegistry()))
	return p
}

// serveGossip runs a bare accept loop that hands every connection to g,
// standing in for the depot's LSLG dispatch.
// serveGossip accepts gossip exchanges for g on loopback and reports on
// served each time ServeConn returns, its merge done.
func serveGossip(t *testing.T, g *gossip.Gossiper) (addr string, served chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served = make(chan struct{}, 16) // more than any test's exchanges: the acceptor never blocks
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				g.ServeConn(c)
				served <- struct{}{}
			}()
		}
	}()
	return ln.Addr().String(), served
}

func TestNewValidates(t *testing.T) {
	pl := newPlanner(t, "depA")
	if _, err := gossip.New(gossip.Config{Peers: []string{"x:1"}}); err == nil {
		t.Error("nil planner accepted")
	}
	if _, err := gossip.New(gossip.Config{Planner: pl}); err == nil {
		t.Error("empty peer set accepted")
	}
	if _, err := gossip.New(gossip.Config{Planner: pl, Peers: []string{"", ""}}); err == nil {
		t.Error("all-blank peer set accepted")
	}
	g, err := gossip.New(gossip.Config{Planner: pl, Peers: []string{"x:1", "x:1", "y:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Status(); len(st.Peers) != 2 {
		t.Fatalf("duplicate peers kept: %+v", st.Peers)
	}
}

// One push-pull round moves knowledge both ways: the dialer learns the
// acceptor's observations from the delta, and the acceptor learns the
// dialer's from the reverse delta.
func TestExchangeMovesObservationsBothWays(t *testing.T) {
	plA, plB := newPlanner(t, "depA"), newPlanner(t, "depB")
	plA.ObserveLoss("depA", "server", logistics.DeadEdgeLoss)
	plB.ObserveBandwidth("depB", "server", 80e6)

	metA, metB := gossip.NewMetrics(metrics.NewRegistry()), gossip.NewMetrics(metrics.NewRegistry())
	gA, err := gossip.New(gossip.Config{Planner: plA, Peers: []string{"unused:1"}, Metrics: metA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addrA, servedA := serveGossip(t, gA)
	gB, err := gossip.New(gossip.Config{Planner: plB, Peers: []string{addrA}, Metrics: metB, Seed: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	if n := gB.RunRound(context.Background()); n != 1 {
		t.Fatalf("dialer merged %d, want 1", n)
	}
	// Dialer side: depA's poisoned loss arrived. The remote word lands in
	// the blended planning metrics (not the local NWS series, which stays
	// untouched by gossip).
	if m, _, ok := plB.EdgeState("depA", "server"); !ok || m.LossProb < 0.4 {
		t.Fatalf("depA->server planning loss at depB = %v (ok=%v), want >= 0.4", m.LossProb, ok)
	}
	// Acceptor side: depB's bandwidth observation arrived via the
	// reverse delta (ServeConn merges asynchronously from RunRound's
	// perspective — it finishes when the conn closes).
	select {
	case <-servedA:
	case <-time.After(5 * time.Second):
		t.Fatal("the acceptor never finished the exchange")
	}
	if n := plA.RemoteObsCount(); n != 1 {
		t.Fatalf("acceptor holds %d remote observations, want 1", n)
	}
	if metB.Rounds.Value() != 1 || metB.ObservationsMerged.Value() != 1 {
		t.Fatalf("dialer metrics rounds=%d merged=%d, want 1/1",
			metB.Rounds.Value(), metB.ObservationsMerged.Value())
	}
	if metA.ObservationsMerged.Value() != 1 {
		t.Fatalf("acceptor merged counter %d, want 1", metA.ObservationsMerged.Value())
	}
	if metB.PeersUnreachable.Value() != 0 {
		t.Fatalf("unreachable=%d on a clean exchange", metB.PeersUnreachable.Value())
	}

	// A second identical round is a no-op: anti-entropy has converged.
	if n := gB.RunRound(context.Background()); n != 0 {
		t.Fatalf("converged round merged %d, want 0", n)
	}
	st := gB.Status()
	if len(st.Peers) != 1 || st.Peers[0].Merged != 1 || st.Peers[0].Attempts != 2 || st.Peers[0].Fails != 0 {
		t.Fatalf("status %+v", st.Peers)
	}
	if st.RemoteObs != 1 {
		t.Fatalf("status remote_observations=%d, want 1", st.RemoteObs)
	}
}

// A dead peer costs one dial per backoff window, not one per round, and
// never an error: failures are absorbed into peer state.
func TestRoundBacksOffUnreachablePeer(t *testing.T) {
	// A listener that is already closed: connection refused, quickly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	met := gossip.NewMetrics(metrics.NewRegistry())
	g, err := gossip.New(gossip.Config{
		Planner: newPlanner(t, "depA"),
		Peers:   []string{dead},
		Metrics: met,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetBackoff(backoff.Policy{Base: time.Minute, Max: time.Minute})
	if n := g.RunRound(context.Background()); n != 0 {
		t.Fatalf("merged %d from a dead peer", n)
	}
	if met.PeersUnreachable.Value() != 1 {
		t.Fatalf("unreachable=%d, want 1", met.PeersUnreachable.Value())
	}
	// Immediately after, the peer is inside its backoff window: the next
	// round must skip it without dialing.
	if g.RunRound(context.Background()); met.PeersUnreachable.Value() != 1 {
		t.Fatalf("backoff window not honored: unreachable=%d", met.PeersUnreachable.Value())
	}
	st := g.Status()
	if st.Peers[0].Fails != 1 || st.Peers[0].LastError == "" || st.Peers[0].Attempts != 1 {
		t.Fatalf("peer status %+v", st.Peers[0])
	}
}

// Garbage on the accept side must neither panic nor wedge the handler.
func TestServeConnToleratesGarbage(t *testing.T) {
	g, err := gossip.New(gossip.Config{
		Planner: newPlanner(t, "depA"),
		Peers:   []string{"unused:1"},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetExchangeTimeout(500 * time.Millisecond)
	for _, payload := range [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		[]byte("LSLG\x01\x01\xff\xff\xff\xff\xff\xff"),
		bytes.Repeat([]byte{0xaa}, 4096),
	} {
		client, srv := net.Pipe()
		done := make(chan struct{})
		go func() { g.ServeConn(srv); close(done) }()
		if len(payload) > 0 {
			client.SetWriteDeadline(time.Now().Add(time.Second))
			client.Write(payload)
		}
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("ServeConn wedged on %d-byte garbage", len(payload))
		}
	}
}

// Gossip exchanges ride mux trunks: with two mux depots, the dialer
// side uses the depot's trunk dialer, the exchange arrives as a mux
// stream, and the LSLG probe in the accept path still dispatches it to
// the gossip handler — while classic sessions keep relaying.
func TestGossipRidesMuxTrunks(t *testing.T) {
	plA, plB := newPlanner(t, "depA"), newPlanner(t, "depB")
	plA.ObserveLoss("depA", "server", logistics.DeadEdgeLoss)

	var gA, gB *gossip.Gossiper
	serve := func(g **gossip.Gossiper) func(net.Conn) {
		return func(c net.Conn) {
			if *g != nil {
				(*g).ServeConn(c)
			} else {
				c.Close()
			}
		}
	}
	addrA, _ := startDepot(t, depot.Config{Mux: true, OnGossip: serve(&gA)})
	_, depB := startDepot(t, depot.Config{Mux: true, OnGossip: serve(&gB)})

	var err error
	gA, err = gossip.New(gossip.Config{Planner: plA, Peers: []string{"unused:1"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gB, err = gossip.New(gossip.Config{
		Planner: plB, Peers: []string{addrA},
		Dial: depB.Dialer(), // a stream on a warm trunk, not a fresh conn
		Seed: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := gB.RunRound(context.Background()); n != 1 {
		t.Fatalf("merged %d over mux trunk, want 1", n)
	}
	if m, _, ok := plB.EdgeState("depA", "server"); !ok || m.LossProb < 0.4 {
		t.Fatalf("poison did not arrive over the trunk: loss=%v ok=%v", m.LossProb, ok)
	}
	// A second round reuses the warm trunk and stays converged.
	if n := gB.RunRound(context.Background()); n != 0 {
		t.Fatalf("second trunk round merged %d, want 0", n)
	}
}

// Run gossips until canceled and stops promptly.
func TestRunStopsOnCancel(t *testing.T) {
	dialed := make(chan struct{})
	once := sync.OnceFunc(func() { close(dialed) })
	g, err := gossip.New(gossip.Config{
		Planner:  newPlanner(t, "depA"),
		Peers:    []string{"127.0.0.1:1"},
		Interval: 10 * time.Millisecond,
		Seed:     1,
		Dial: func(context.Context, string) (net.Conn, error) {
			once()
			return nil, errors.New("unreachable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetBackoff(backoff.Policy{Base: time.Hour, Max: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { g.Run(ctx); close(done) }()
	<-dialed // a round ran
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// ---- the acceptance case ----

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// verifyingTarget reassembles a session's payload across sublinks and
// reports the full stream once a sublink completes with the digest
// verified (same shape as the resilience acceptance harness).
type verifyingTarget struct {
	l    *core.Listener
	mu   sync.Mutex
	data bytes.Buffer
	done chan []byte
}

func newVerifyingTarget(t *testing.T) *verifyingTarget {
	t.Helper()
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vt := &verifyingTarget{l: l, done: make(chan []byte, 1)}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			frag, rerr := io.ReadAll(sc)
			vt.mu.Lock()
			vt.data.Write(frag)
			if rerr == nil && sc.Verified() {
				full := append([]byte(nil), vt.data.Bytes()...)
				select {
				case vt.done <- full:
				default:
				}
			}
			vt.mu.Unlock()
			sc.Close()
		}
	}()
	return vt
}

func (vt *verifyingTarget) addr() string { return vt.l.Addr().String() }

func (vt *verifyingTarget) wait(t *testing.T, want []byte) {
	t.Helper()
	select {
	case got := <-vt.done:
		if !bytes.Equal(got, want) {
			t.Fatalf("reassembled stream differs: got %d bytes, want %d", len(got), len(want))
		}
		if md5.Sum(got) != md5.Sum(want) {
			t.Fatal("end-to-end MD5 mismatch")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for verified delivery")
	}
}

func startDepot(t *testing.T, cfg depot.Config) (string, *depot.Depot) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := depot.New(cfg)
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return ln.Addr().String(), d
}

// clientGraph builds the overlay a client colocated with depot `ownID`
// plans over: its own depot and depA both reach the server, depA's
// path predicted faster — so every fresh planner ranks routes through
// edge E (depA -> server) first.
func clientGraph(self, ownID, ownAddr, depAAddr, serverAddr string) *route.Graph {
	g := route.NewGraph()
	g.AddNode(route.Node{ID: route.NodeID(self)})
	g.AddNode(route.Node{ID: "depA", Depot: true, Addr: depAAddr})
	g.AddNode(route.Node{ID: route.NodeID(ownID), Depot: true, Addr: ownAddr})
	g.AddNode(route.Node{ID: "server", Addr: serverAddr})
	fast := route.Metrics{RTTSeconds: 0.005, BandwidthBps: 100e6, LossProb: 2.5e-4}
	mid := route.Metrics{RTTSeconds: 0.030, BandwidthBps: 50e6, LossProb: 2.5e-4}
	g.AddDuplex(route.NodeID(self), "depA", fast)
	g.AddDuplex("depA", "server", fast) // edge E
	g.AddDuplex(route.NodeID(self), route.NodeID(ownID), mid)
	g.AddDuplex(route.NodeID(ownID), "server", mid)
	return g
}

// TestGossipConvergenceAcceptance is the end-to-end acceptance case:
// three depots, only depot A relays over edge E (depA -> server), and a
// fault harness kills E under depot A alone. Depots B and C never see
// the failure first-hand — within three gossip rounds they must learn
// it, stop ranking routes through E first, and a client of depot B must
// then deliver byte-exact over the alternate path with zero replans.
func TestGossipConvergenceAcceptance(t *testing.T) {
	vt := newVerifyingTarget(t)
	serverAddr := vt.addr()

	// Depot A: its dialer refuses the server, so its first relayed
	// session fails the next-hop dial and the depot hook poisons edge E
	// in A's own planner — first-hand knowledge, at exactly one depot.
	gA := route.NewGraph()
	gA.AddNode(route.Node{ID: "depA", Depot: true})
	gA.AddNode(route.Node{ID: "server", Addr: serverAddr})
	gA.AddEdge("depA", "server", route.Metrics{RTTSeconds: 0.005, BandwidthBps: 100e6, LossProb: 2.5e-4})
	plA, err := logistics.New(gA, "depA")
	if err != nil {
		t.Fatal(err)
	}
	plA.SetMetrics(logistics.NewMetrics(metrics.NewRegistry()))

	fn := faultnet.New(nil)
	fn.Script(serverAddr, faultnet.Step{RefuseDial: true}, faultnet.Step{RefuseDial: true})

	var gossiperA, gossiperB, gossiperC *gossip.Gossiper
	onGossip := func(g **gossip.Gossiper) func(net.Conn) {
		return func(c net.Conn) {
			if *g != nil {
				(*g).ServeConn(c)
			} else {
				c.Close()
			}
		}
	}
	depAAddr, depA := startDepot(t, depot.Config{
		Dial:         fn.DialContext,
		OnSessionEnd: plA.DepotHook(),
		OnGossip:     onGossip(&gossiperA),
	})
	depBAddr, depB := startDepot(t, depot.Config{OnGossip: onGossip(&gossiperB)})
	depCAddr, _ := startDepot(t, depot.Config{OnGossip: onGossip(&gossiperC)})

	// Depots B and C plan for their local clients; both rank edge E
	// first while it is healthy.
	plB, err := logistics.New(clientGraph("clientB", "depB", depBAddr, depAAddr, serverAddr), "clientB")
	if err != nil {
		t.Fatal(err)
	}
	lmetB := logistics.NewMetrics(metrics.NewRegistry())
	plB.SetMetrics(lmetB)
	plC, err := logistics.New(clientGraph("clientC", "depC", depCAddr, depAAddr, serverAddr), "clientC")
	if err != nil {
		t.Fatal(err)
	}
	plC.SetMetrics(logistics.NewMetrics(metrics.NewRegistry()))

	for name, pl := range map[string]*logistics.Planner{"B": plB, "C": plC} {
		routes, err := pl.PlanRoutes(serverAddr, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(routes) == 0 || len(routes[0].Via) != 1 || routes[0].Via[0] != depAAddr {
			t.Fatalf("depot %s: fresh plan %+v, want via depA %s", name, routes, depAAddr)
		}
	}

	// Gossip overlay is a chain A <- B <- C: C never talks to A, so its
	// knowledge of E must arrive transitively through B. Exchanges ride
	// the depot listeners themselves (LSLG dispatch), and depot B's
	// gossiper dials through the depot's own trunk dialer.
	metB, metC := gossip.NewMetrics(depB.Metrics()), gossip.NewMetrics(metrics.NewRegistry())
	gossiperA, err = gossip.New(gossip.Config{Planner: plA, Peers: []string{depBAddr}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gossiperB, err = gossip.New(gossip.Config{
		Planner: plB, Peers: []string{depAAddr},
		Dial:    depB.Dialer(),
		Metrics: metB, Seed: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gossiperC, err = gossip.New(gossip.Config{
		Planner: plC, Peers: []string{depBAddr},
		Metrics: metC, Seed: 3, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill edge E under depot A: one client session relayed by A fails
	// its next-hop dial.
	_, err = resilience.Transfer(context.Background(),
		core.Route{Via: []string{depAAddr}, Target: serverAddr},
		bytes.NewReader(randBytes(10_000, 7)), 10_000,
		resilience.WithPolicy(resilience.Policy{MaxAttempts: 2}))
	if err == nil {
		t.Fatal("probe transfer through depA succeeded; edge E was not killed")
	}
	// The depot hook runs on the session goroutine, before the session's
	// rejection counter moves.
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := depA.WaitStats(wctx, func(st depot.Stats) bool { return st.RejectedRoute > 0 }); err != nil {
		t.Fatalf("depot A never rejected the session: %v", err)
	}
	if _, lossFc, ok := plA.EdgeState("depA", "server"); !ok || lossFc < 0.4 {
		t.Fatal("depot A's planner never saw the dial failure")
	}

	// Convergence: within <= 3 rounds both B and C must replan off E.
	ctx := context.Background()
	rounds := 0
	for rounds < 3 {
		rounds++
		gossiperB.RunRound(ctx) // B pulls from A
		gossiperC.RunRound(ctx) // C pulls from B
		if offE(t, plB, serverAddr, depAAddr) && offE(t, plC, serverAddr, depAAddr) {
			break
		}
	}
	if !offE(t, plB, serverAddr, depAAddr) {
		t.Fatalf("depot B still ranks edge E first after %d rounds", rounds)
	}
	if !offE(t, plC, serverAddr, depAAddr) {
		t.Fatalf("depot C still ranks edge E first after %d rounds", rounds)
	}
	t.Logf("converged in %d round(s)", rounds)
	if metB.ObservationsMerged.Value() == 0 {
		t.Fatal("depot B: lsl_gossip_observations_merged_total == 0")
	}
	if metC.ObservationsMerged.Value() == 0 {
		t.Fatal("depot C: lsl_gossip_observations_merged_total == 0")
	}
	// The depot's registry exports the gossip families.
	var prom strings.Builder
	if err := depB.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "lsl_gossip_observations_merged_total") {
		t.Fatal("lsl_gossip_observations_merged_total not exported on depot B")
	}

	// A client of depot B now transfers: the plan must route over the
	// alternate path (its own depot), deliver byte-exact, and never
	// replan — the fleet routed around E before this client ever felt it.
	payload := randBytes(2<<20, 21)
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: serverAddr},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(resilience.Policy{MaxAttempts: 4}),
		resilience.WithPlanner(plB),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("post-convergence transfer: %v", err)
	}
	vt.wait(t, payload)
	if len(res.Route.Via) != 1 || res.Route.Via[0] != depBAddr {
		t.Fatalf("final route via %v, want the alternate depot %s", res.Route.Via, depBAddr)
	}
	if res.Attempts != 1 || res.Failovers != 0 {
		t.Fatalf("attempts=%d failovers=%d, want a first-try delivery", res.Attempts, res.Failovers)
	}
	if got := lmetB.Replans.Value(); got != 0 {
		t.Fatalf("lsl_logistics_replans_total=%d, want 0 (the fleet replanned before the client had to)", got)
	}
}

// offE reports whether pl's best route to target no longer crosses edge
// E (i.e. is not via depot A).
func offE(t *testing.T, pl *logistics.Planner, target, depAAddr string) bool {
	t.Helper()
	routes, err := pl.PlanRoutes(target, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("no routes planned")
	}
	for _, via := range routes[0].Via {
		if via == depAAddr {
			return false
		}
	}
	return true
}
