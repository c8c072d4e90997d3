package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// oraclePlanTransfer is PlanTransfer as it was before it became the head
// of RankCandidates: its own enumeration (direct, one depot, two depots)
// and a strict-less-than scan, so the first plan enumerated wins a tie.
func oraclePlanTransfer(g *Graph, src, dst NodeID, size int64) (Plan, error) {
	directPath, _, err := g.MinLatencyPath(src, dst)
	if err != nil {
		return Plan{}, fmt.Errorf("route: no direct path %s->%s: %w", src, dst, err)
	}
	directLeg, err := g.legParams(directPath)
	if err != nil {
		return Plan{}, err
	}
	directSec := directLeg.TransferSeconds(size)

	best := Plan{
		Hops:             []NodeID{src, dst},
		LegPaths:         [][]NodeID{directPath},
		PredictedSeconds: directSec,
		DirectSeconds:    directSec,
	}

	depots := g.depotList(src, dst)
	for _, d := range depots {
		if plan, ok := g.tryCascade(src, dst, size, directSec, d); ok && plan.PredictedSeconds < best.PredictedSeconds {
			best = plan
		}
	}
	for i, d1 := range depots {
		for j, d2 := range depots {
			if i == j {
				continue
			}
			if plan, ok := g.tryCascade(src, dst, size, directSec, d1, d2); ok && plan.PredictedSeconds < best.PredictedSeconds {
				best = plan
			}
		}
	}
	return best, nil
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

// PlanTransfer must pick exactly what its own enumeration and
// strict-less-than scan picked: same hops, same leg paths, same
// prediction, same error, on the fixtures and on 300 seeded random graphs.
func TestPlanTransferMatchesOracle(t *testing.T) {
	type tc struct {
		name     string
		g        *Graph
		src, dst NodeID
	}
	leg := Metrics{RTTSeconds: 0.02, BandwidthBps: 1e8, LossProb: 2e-4}
	chain := NewGraph()
	for _, n := range []Node{{ID: "s"}, {ID: "d1", Depot: true}, {ID: "d2", Depot: true}, {ID: "t"}} {
		chain.AddNode(n)
	}
	chain.AddDuplex("s", "d1", leg)
	chain.AddDuplex("d1", "d2", leg)
	chain.AddDuplex("d2", "t", leg)
	cases := []tc{
		{"paper", paperGraph(), "ucsb", "uiuc"},
		{"diamond-tied", diamond(leg, leg, leg, leg), "src", "dst"},
		{"diamond", diamond(
			Metrics{RTTSeconds: 0.01, BandwidthBps: 5e6}, Metrics{RTTSeconds: 0.01, BandwidthBps: 5e6},
			Metrics{RTTSeconds: 0.05, BandwidthBps: 1e8}, Metrics{RTTSeconds: 0.05, BandwidthBps: 1e8},
		), "src", "dst"},
		{"multipath", multiPath(), "src", "dst"},
		{"chain", chain, "s", "t"},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		g := randomGraph(rng)
		ids := g.Nodes()
		cases = append(cases, tc{fmt.Sprintf("random-%d", i), g, "n0", ids[len(ids)-1]})
	}
	sizes := []int64{8 << 10, 1 << 20, 64 << 20, 512 << 20}
	for _, c := range cases {
		for _, size := range sizes {
			want, wantErr := oraclePlanTransfer(c.g, c.src, c.dst, size)
			got, gotErr := c.g.PlanTransfer(c.src, c.dst, size)
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
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
