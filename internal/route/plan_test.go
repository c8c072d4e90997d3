package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lsl/internal/tcpmodel"
)

// oracleCascade is tryCascade as it was before legs came from
// shortest-path trees: one point-to-point MinLatencyPath per leg.
func oracleCascade(g *Graph, src, dst NodeID, size int64, directSec float64, via ...NodeID) (Plan, bool) {
	hops := append(append([]NodeID{src}, via...), dst)
	var legs []tcpmodel.PathParams
	var legPaths [][]NodeID
	for i := 0; i+1 < len(hops); i++ {
		path, _, err := g.MinLatencyPath(hops[i], hops[i+1])
		if err != nil {
			return Plan{}, false
		}
		leg, err := g.legParams(path)
		if err != nil {
			return Plan{}, false
		}
		legs = append(legs, leg)
		legPaths = append(legPaths, path)
	}
	sec := tcpmodel.CascadeTransferSeconds(size, legs, DepotDelaySeconds)
	return Plan{
		Hops:             hops,
		LegPaths:         legPaths,
		PredictedSeconds: sec,
		DirectSeconds:    directSec,
	}, true
}

// oracleDirect is the direct plan every oracle starts from.
func oracleDirect(g *Graph, src, dst NodeID, size int64) (Plan, error) {
	directPath, _, err := g.MinLatencyPath(src, dst)
	if err != nil {
		return Plan{}, fmt.Errorf("route: no direct path %s->%s: %w", src, dst, err)
	}
	directLeg, err := g.legParams(directPath)
	if err != nil {
		return Plan{}, err
	}
	directSec := directLeg.TransferSeconds(size)
	return Plan{
		Hops:             []NodeID{src, dst},
		LegPaths:         [][]NodeID{directPath},
		PredictedSeconds: directSec,
		DirectSeconds:    directSec,
	}, nil
}

// oraclePlanTransfer is the best plan as it was picked before it became
// the head of RankCandidates: its own enumeration (direct, one depot, two
// depots) and a strict-less-than scan, so the first plan enumerated wins
// a tie.
func oraclePlanTransfer(g *Graph, src, dst NodeID, size int64) (Plan, error) {
	best, err := oracleDirect(g, src, dst, size)
	if err != nil {
		return Plan{}, err
	}
	directSec := best.DirectSeconds
	depots := g.depotList(src, dst)
	for _, d := range depots {
		if plan, ok := oracleCascade(g, src, dst, size, directSec, d); ok && plan.PredictedSeconds < best.PredictedSeconds {
			best = plan
		}
	}
	for i, d1 := range depots {
		for j, d2 := range depots {
			if i == j {
				continue
			}
			if plan, ok := oracleCascade(g, src, dst, size, directSec, d1, d2); ok && plan.PredictedSeconds < best.PredictedSeconds {
				best = plan
			}
		}
	}
	return best, nil
}

// oracleRankCandidates is RankCandidates as it was before legs came from
// shortest-path trees: the same enumeration and stable sort, with every
// leg its own point-to-point search.
func oracleRankCandidates(g *Graph, src, dst NodeID, size int64) ([]Plan, error) {
	direct, err := oracleDirect(g, src, dst, size)
	if err != nil {
		return nil, err
	}
	plans := []Plan{direct}
	depots := g.depotList(src, dst)
	for _, d := range depots {
		if p, ok := oracleCascade(g, src, dst, size, direct.DirectSeconds, d); ok {
			plans = append(plans, p)
		}
	}
	for i, d1 := range depots {
		for j, d2 := range depots {
			if i == j {
				continue
			}
			if p, ok := oracleCascade(g, src, dst, size, direct.DirectSeconds, d1, d2); ok {
				plans = append(plans, p)
			}
		}
	}
	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].PredictedSeconds < plans[j].PredictedSeconds
	})
	return plans, nil
}

// randomGraph draws a small overlay: 3–8 nodes, about half of them
// depots, sparse random duplex links. Metrics come from short menus so
// that equal predicted times — the tie-break case — are common, and some
// graphs leave dst unreachable.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	n := 3 + rng.Intn(6)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%d", i))
		g.AddNode(Node{ID: ids[i], Depot: i > 0 && i < n-1 && rng.Intn(3) > 0})
	}
	rtts := []float64{0.005, 0.01, 0.02, 0.04}
	bws := []float64{0, 1e7, 1e8}
	losses := []float64{0, 1e-4, 1e-3}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			g.AddDuplex(ids[i], ids[j], Metrics{
				RTTSeconds:   rtts[rng.Intn(len(rtts))],
				BandwidthBps: bws[rng.Intn(len(bws))],
				LossProb:     losses[rng.Intn(len(losses))],
			})
		}
	}
	return g
}

// ringOverlay draws a 50-node overlay shaped like the benchmark's: hosts
// "src" and "dst", depots d00..d47 on a ring with one seeded chord each,
// each host attached to four depots on opposite sides of the ring, and a
// slow direct src–dst edge. rtts, when set, is a menu of edge RTTs in
// seconds, so that equal-latency legs are common; otherwise RTTs are
// drawn from 2–60 ms.
func ringOverlay(seed int64, rtts []float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	const depots = 48
	name := func(i int) NodeID { return NodeID(fmt.Sprintf("d%02d", i)) }
	g := NewGraph()
	g.AddNode(Node{ID: "src", Addr: "10.0.255.1:7000"})
	g.AddNode(Node{ID: "dst", Addr: "10.0.255.2:7000"})
	for i := 0; i < depots; i++ {
		g.AddNode(Node{ID: name(i), Depot: true, Addr: fmt.Sprintf("10.0.0.%d:5000", 1+i)})
	}
	seen := map[[2]NodeID]bool{}
	edge := func(a, b NodeID) {
		if a == b || seen[[2]NodeID{a, b}] || seen[[2]NodeID{b, a}] {
			return
		}
		seen[[2]NodeID{a, b}] = true
		rtt := 0.002 + 0.058*rng.Float64()
		if rtts != nil {
			rtt = rtts[rng.Intn(len(rtts))]
		}
		g.AddDuplex(a, b, Metrics{
			RTTSeconds:   rtt,
			BandwidthBps: (50 + 950*rng.Float64()) * 1e6,
			LossProb:     0.00005 + 0.001*rng.Float64(),
		})
	}
	for i := 0; i < depots; i++ {
		edge(name(i), name((i+1)%depots))
	}
	for i := 0; i < depots; i++ {
		edge(name(i), name((i+2+rng.Intn(depots-3))%depots))
	}
	for k := 0; k < 4; k++ {
		edge("src", name(rng.Intn(depots/2)))
		edge("dst", name(depots/2+rng.Intn(depots/2)))
	}
	g.AddDuplex("src", "dst", Metrics{RTTSeconds: 0.08 + 0.04*rng.Float64(), BandwidthBps: (20 + 30*rng.Float64()) * 1e6, LossProb: 0.001})
	return g
}

type oracleCase struct {
	name     string
	g        *Graph
	src, dst NodeID
}

// oracleCases is the fixtures plus 300 seeded random graphs.
func oracleCases() []oracleCase {
	leg := Metrics{RTTSeconds: 0.02, BandwidthBps: 1e8, LossProb: 2e-4}
	chain := NewGraph()
	for _, n := range []Node{{ID: "s"}, {ID: "d1", Depot: true}, {ID: "d2", Depot: true}, {ID: "t"}} {
		chain.AddNode(n)
	}
	chain.AddDuplex("s", "d1", leg)
	chain.AddDuplex("d1", "d2", leg)
	chain.AddDuplex("d2", "t", leg)
	cases := []oracleCase{
		{"paper", paperGraph(), "ucsb", "uiuc"},
		{"diamond-tied", diamond(leg, leg, leg, leg), "src", "dst"},
		{"diamond", diamond(
			Metrics{RTTSeconds: 0.01, BandwidthBps: 5e6}, Metrics{RTTSeconds: 0.01, BandwidthBps: 5e6},
			Metrics{RTTSeconds: 0.05, BandwidthBps: 1e8}, Metrics{RTTSeconds: 0.05, BandwidthBps: 1e8},
		), "src", "dst"},
		{"multipath", multiPath(), "src", "dst"},
		{"chain", chain, "s", "t"},
		{"unknown-src", chain, "zz", "t"},
		{"unknown-dst", chain, "s", "zz"},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		g := randomGraph(rng)
		ids := g.Nodes()
		cases = append(cases, oracleCase{fmt.Sprintf("random-%d", i), g, "n0", ids[len(ids)-1]})
	}
	return cases
}

var oracleSizes = []int64{8 << 10, 1 << 20, 64 << 20, 512 << 20}

func sameErr(got, want error) bool {
	return (want == nil) == (got == nil) && (want == nil || want.Error() == got.Error())
}

// The head of RankCandidates must be exactly what the old enumeration and
// strict-less-than scan picked: same hops, same leg paths, same
// prediction, same error, on the fixtures and on 300 seeded random graphs.
func TestPlanTransferMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		for _, size := range oracleSizes {
			want, wantErr := oraclePlanTransfer(c.g, c.src, c.dst, size)
			var got Plan
			plans, gotErr := c.g.RankCandidates(c.src, c.dst, size)
			if gotErr == nil {
				got = plans[0]
			}
			if !sameErr(gotErr, wantErr) {
				t.Fatalf("%s size %d: err %v, want %v", c.name, size, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got.Hops, want.Hops) || !reflect.DeepEqual(got.LegPaths, want.LegPaths) ||
				got.PredictedSeconds != want.PredictedSeconds || got.DirectSeconds != want.DirectSeconds {
				t.Fatalf("%s size %d: got %v %v %.9g, want %v %v %.9g", c.name, size,
					got.Hops, got.LegPaths, got.PredictedSeconds, want.Hops, want.LegPaths, want.PredictedSeconds)
			}
		}
	}
}

// The whole ranking — order, ties, hops, leg paths, both predictions,
// errors — must match one point-to-point search per leg, so a tree that
// hands back a different equal-latency leg shows even deep in the list.
// Beyond the head-oracle cases it runs two 50-node ring overlays at
// 64 MiB, one with RTTs from a menu so that equal-latency legs abound.
func TestRankCandidatesMatchesOracle(t *testing.T) {
	type sized struct {
		oracleCase
		size int64
	}
	var cases []sized
	for _, c := range oracleCases() {
		for _, size := range oracleSizes {
			cases = append(cases, sized{c, size})
		}
	}
	cases = append(cases,
		sized{oracleCase{"ring-1", ringOverlay(1, nil), "src", "dst"}, 64 << 20},
		sized{oracleCase{"ring-2-menu", ringOverlay(2, []float64{0.01, 0.02, 0.03}), "src", "dst"}, 64 << 20})
	for _, c := range cases {
		want, wantErr := oracleRankCandidates(c.g, c.src, c.dst, c.size)
		got, gotErr := c.g.RankCandidates(c.src, c.dst, c.size)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("%s size %d: err %v, want %v", c.name, c.size, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s size %d: %d plans, want %d", c.name, c.size, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s size %d: plan %d is %v %v %.9g, want %v %v %.9g", c.name, c.size, i,
					got[i].Hops, got[i].LegPaths, got[i].PredictedSeconds, want[i].Hops, want[i].LegPaths, want[i].PredictedSeconds)
			}
		}
	}
}

// BenchmarkRankCandidates ranks every candidate of a 64 MiB transfer on
// a 50-node ring overlay (48 depots: 2 305 plans).
func BenchmarkRankCandidates(b *testing.B) {
	g := ringOverlay(1, nil)
	for i := 0; i < b.N; i++ {
		if _, err := g.RankCandidates("src", "dst", 64<<20); err != nil {
			b.Fatal(err)
		}
	}
}
