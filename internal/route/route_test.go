package route

import (
	"errors"
	"math"
	"testing"
)

// diamond builds:  src --a-- mid1 --b-- dst
//
//	\---c--- mid2 --d---/
func diamond(a, b, c, d Metrics) *Graph {
	g := NewGraph()
	for _, n := range []Node{{ID: "src"}, {ID: "mid1", Depot: true}, {ID: "mid2", Depot: true}, {ID: "dst"}} {
		g.AddNode(n)
	}
	g.AddDuplex("src", "mid1", a)
	g.AddDuplex("mid1", "dst", b)
	g.AddDuplex("src", "mid2", c)
	g.AddDuplex("mid2", "dst", d)
	return g
}

func TestMinLatencyPicksShorter(t *testing.T) {
	g := diamond(
		Metrics{RTTSeconds: 0.01}, Metrics{RTTSeconds: 0.01},
		Metrics{RTTSeconds: 0.05}, Metrics{RTTSeconds: 0.05},
	)
	path, rtt, err := g.MinLatencyPath("src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != "mid1" {
		t.Fatalf("path=%v", path)
	}
	if math.Abs(rtt-0.02) > 1e-12 {
		t.Fatalf("rtt=%v", rtt)
	}
}

func TestMinLatencyNoPath(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a"})
	g.AddNode(Node{ID: "b"})
	if _, _, err := g.MinLatencyPath("a", "b"); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err=%v", err)
	}
}

func TestMinLatencyUnknownNodes(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a"})
	if _, _, err := g.MinLatencyPath("a", "zz"); err == nil {
		t.Fatal("unknown dst accepted")
	}
	if _, _, err := g.MinLatencyPath("zz", "a"); err == nil {
		t.Fatal("unknown src accepted")
	}
}

func TestAddEdgeRequiresNodes(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a"})
	if err := g.AddEdge("a", "ghost", Metrics{}); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge("ghost", "a", Metrics{}); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
}

// paperGraph models Case 1: a lossy long-RTT direct path with a depot at
// the midpoint that halves each leg's RTT.
func paperGraph() *Graph {
	g := NewGraph()
	g.AddNode(Node{ID: "ucsb", Addr: "ucsb:7000"})
	g.AddNode(Node{ID: "denver", Depot: true, Addr: "denver:5000"})
	g.AddNode(Node{ID: "uiuc", Addr: "uiuc:7000"})
	g.AddDuplex("ucsb", "denver", Metrics{RTTSeconds: 0.031, BandwidthBps: 1e8, LossProb: 2.5e-4})
	g.AddDuplex("denver", "uiuc", Metrics{RTTSeconds: 0.035, BandwidthBps: 1e8, LossProb: 2.5e-4})
	return g
}

// best is the head of the ranking: the plan a caller executes.
func best(t *testing.T, g *Graph, src, dst NodeID, size int64) Plan {
	t.Helper()
	plans, err := g.RankCandidates(src, dst, size)
	if err != nil {
		t.Fatal(err)
	}
	return plans[0]
}

func TestPlanPrefersDepotForLargeTransfers(t *testing.T) {
	g := paperGraph()
	plan := best(t, g, "ucsb", "uiuc", 64<<20)
	if !plan.UsesDepots() {
		t.Fatalf("64MB plan should cascade: %+v", plan)
	}
	if plan.Hops[1] != "denver" {
		t.Fatalf("hops=%v", plan.Hops)
	}
	if plan.Improvement() <= 0 {
		t.Fatalf("improvement=%v", plan.Improvement())
	}
}

func TestPlanPrefersDirectForTinyTransfers(t *testing.T) {
	g := paperGraph()
	plan := best(t, g, "ucsb", "uiuc", 8<<10)
	if plan.UsesDepots() {
		t.Fatalf("8KB plan should stay direct: %+v", plan)
	}
	if plan.PredictedSeconds != plan.DirectSeconds {
		t.Fatal("direct plan must carry direct estimate")
	}
}

func TestPlanAddrs(t *testing.T) {
	g := paperGraph()
	plan := best(t, g, "ucsb", "uiuc", 64<<20)
	via, target, err := plan.Addrs(g)
	if err != nil {
		t.Fatal(err)
	}
	if target != "uiuc:7000" {
		t.Fatalf("target=%s", target)
	}
	if len(via) != 1 || via[0] != "denver:5000" {
		t.Fatalf("via=%v", via)
	}
}

func TestPlanAddrsMissing(t *testing.T) {
	g := paperGraph()
	g.AddNode(Node{ID: "uiuc"}) // clobber the address
	plan := best(t, g, "ucsb", "uiuc", 64<<20)
	if _, _, err := plan.Addrs(g); err == nil {
		t.Fatal("missing addr should error")
	}
}

func TestRankCandidatesSorted(t *testing.T) {
	g := paperGraph()
	g.AddNode(Node{ID: "slowdepot", Depot: true, Addr: "slow:5000"})
	g.AddDuplex("ucsb", "slowdepot", Metrics{RTTSeconds: 0.2, BandwidthBps: 1e6, LossProb: 1e-3})
	g.AddDuplex("slowdepot", "uiuc", Metrics{RTTSeconds: 0.2, BandwidthBps: 1e6, LossProb: 1e-3})
	plans, err := g.RankCandidates("ucsb", "uiuc", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("plans=%d", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].PredictedSeconds < plans[i-1].PredictedSeconds {
			t.Fatal("not sorted")
		}
	}
	// The worst plan must cascade through the slow depot (with two-depot
	// candidates enumerated, the very worst chains it with another hop).
	last := plans[len(plans)-1]
	viaSlow := false
	for _, h := range last.Hops[1 : len(last.Hops)-1] {
		if h == "slowdepot" {
			viaSlow = true
		}
	}
	if !viaSlow {
		t.Fatalf("worst plan: %v", last.Hops)
	}
}

func TestTwoDepotCascadeConsidered(t *testing.T) {
	// A chain where only src->d1->d2->dst has good legs.
	g := NewGraph()
	for _, n := range []Node{{ID: "s"}, {ID: "d1", Depot: true}, {ID: "d2", Depot: true}, {ID: "t"}} {
		g.AddNode(n)
	}
	leg := Metrics{RTTSeconds: 0.02, BandwidthBps: 1e8, LossProb: 2e-4}
	g.AddDuplex("s", "d1", leg)
	g.AddDuplex("d1", "d2", leg)
	g.AddDuplex("d2", "t", leg)
	plan := best(t, g, "s", "t", 128<<20)
	if len(plan.Hops) != 4 {
		t.Fatalf("want two-depot cascade, got %v", plan.Hops)
	}
}

func TestLegParamsAggregation(t *testing.T) {
	g := paperGraph()
	path, _, err := g.MinLatencyPath("ucsb", "uiuc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.legParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.RTTSeconds-0.066) > 1e-9 {
		t.Fatalf("rtt=%v", p.RTTSeconds)
	}
	if p.BottleneckBps != 1e8 {
		t.Fatalf("bw=%v", p.BottleneckBps)
	}
	want := 1 - (1-2.5e-4)*(1-2.5e-4)
	if math.Abs(p.LossProb-want) > 1e-12 {
		t.Fatalf("loss=%v want %v", p.LossProb, want)
	}
}

func TestNodesSorted(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "zeta"})
	g.AddNode(Node{ID: "alpha"})
	ns := g.Nodes()
	if ns[0] != "alpha" || ns[1] != "zeta" {
		t.Fatalf("nodes=%v", ns)
	}
}
