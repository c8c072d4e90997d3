package route

import (
	"fmt"
	"sort"

	"lsl/internal/tcpmodel"
)

// Plan is a chosen session route with its predicted completion time.
type Plan struct {
	// Hops is the node sequence of session-layer hops: source, zero or
	// more depots, destination. (Not the underlying router-level path.)
	Hops []NodeID
	// LegPaths holds the router-level node sequence of each session hop.
	LegPaths [][]NodeID
	// PredictedSeconds is the model's completion-time estimate.
	PredictedSeconds float64
	// DirectSeconds is the baseline direct-TCP estimate, for reporting the
	// expected improvement.
	DirectSeconds float64
}

// Improvement returns the predicted throughput gain of the plan over the
// direct connection (0.6 = +60%).
func (p Plan) Improvement() float64 {
	if p.PredictedSeconds <= 0 {
		return 0
	}
	return p.DirectSeconds/p.PredictedSeconds - 1
}

// UsesDepots reports whether the plan cascades through at least one depot.
func (p Plan) UsesDepots() bool { return len(p.Hops) > 2 }

// DepotDelaySeconds is the per-depot forwarding cost assumed by the
// planner (header parsing, buffer copy, dial).
const DepotDelaySeconds = 0.002

func (g *Graph) depotList(src, dst NodeID) []NodeID {
	var out []NodeID
	for _, id := range g.Nodes() {
		n := g.nodes[id]
		if n.Depot && id != src && id != dst {
			out = append(out, id)
		}
	}
	return out
}

// tryCascade evaluates hops[0] -> ... -> hops[len-1], reading each leg
// from the shortest-path tree rooted at its first node.
func (g *Graph) tryCascade(trees map[NodeID]spTree, size int64, directSec float64, hops ...NodeID) (Plan, bool) {
	var legs []tcpmodel.PathParams
	var legPaths [][]NodeID
	for i := 0; i+1 < len(hops); i++ {
		path, _, err := trees[hops[i]].path(hops[i+1])
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

// Addrs resolves the plan's intermediate and final hops to dialable
// addresses (skipping the source), for execution against the real stack.
// Nodes without an Addr yield an error.
func (p Plan) Addrs(g *Graph) (via []string, target string, err error) {
	if len(p.Hops) < 2 {
		return nil, "", fmt.Errorf("route: degenerate plan")
	}
	for _, id := range p.Hops[1:] {
		n, ok := g.Node(id)
		if !ok || n.Addr == "" {
			return nil, "", fmt.Errorf("route: node %s has no address", id)
		}
		if id == p.Hops[len(p.Hops)-1] {
			target = n.Addr
		} else {
			via = append(via, n.Addr)
		}
	}
	return via, target, nil
}

// RankCandidates evaluates the direct connection and every single- and
// two-depot cascade over the graph's depot nodes, using the analytic TCP
// model on each leg's min-latency path, and returns the plans sorted by
// predicted completion time; ties keep that enumeration order, so the
// first plan is the one to use (which may be the direct one — LSL is
// "voluntarily utilized ... can be employed selectively"). Every leg
// starts at src or at a depot, so one shortest-path tree per such node
// serves them all. It is the candidate list consumed by the live planner
// (internal/logistics) and the diagnostic output of cmd/lslplan.
func (g *Graph) RankCandidates(src, dst NodeID, size int64) ([]Plan, error) {
	if err := g.checkEnds(src, dst); err != nil {
		return nil, fmt.Errorf("route: no direct path %s->%s: %w", src, dst, err)
	}
	trees := map[NodeID]spTree{src: g.shortestPaths(src, nil)}
	directPath, _, err := trees[src].path(dst)
	if err != nil {
		return nil, fmt.Errorf("route: no direct path %s->%s: %w", src, dst, err)
	}
	directLeg, err := g.legParams(directPath)
	if err != nil {
		return nil, err
	}
	directSec := directLeg.TransferSeconds(size)
	plans := []Plan{{
		Hops:             []NodeID{src, dst},
		LegPaths:         [][]NodeID{directPath},
		PredictedSeconds: directSec,
		DirectSeconds:    directSec,
	}}
	depots := g.depotList(src, dst)
	for _, d := range depots {
		trees[d] = g.shortestPaths(d, nil)
		if p, ok := g.tryCascade(trees, size, directSec, src, d, dst); ok {
			plans = append(plans, p)
		}
	}
	for i, d1 := range depots {
		for j, d2 := range depots {
			if i == j {
				continue
			}
			if p, ok := g.tryCascade(trees, size, directSec, src, d1, d2, dst); ok {
				plans = append(plans, p)
			}
		}
	}
	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].PredictedSeconds < plans[j].PredictedSeconds
	})
	return plans, nil
}
