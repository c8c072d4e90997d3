// Package route makes the "network logistics" decisions the session layer
// exists for (paper §I, §III): given a graph of hosts and depots annotated
// with measured or forecast link performance (package nws), it selects the
// loose source route — direct, or through one or more depots — that the
// analytic TCP model (package tcpmodel) predicts will finish a transfer of
// a given size soonest.
package route

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lsl/internal/tcpmodel"
)

// NodeID names a host or depot.
type NodeID string

// Node is a graph vertex. Depot nodes may appear as intermediate session
// hops; plain hosts may only terminate sessions.
type Node struct {
	ID    NodeID
	Depot bool
	// Addr is the dialable address used when a plan is executed against
	// the real stack (host:port). Optional for pure planning.
	Addr string
}

// Metrics describes one directed edge's forecast performance.
type Metrics struct {
	RTTSeconds   float64 // round-trip time attributable to this edge
	BandwidthBps float64 // available bandwidth (0 = unknown/unlimited)
	LossProb     float64 // segment loss probability on this edge
}

// Edge is a directed link with metrics.
type Edge struct {
	From, To NodeID
	M        Metrics
}

// Graph is the depot overlay map.
type Graph struct {
	nodes map[NodeID]Node
	adj   map[NodeID][]Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[NodeID]Node{}, adj: map[NodeID][]Edge{}}
}

// AddNode inserts or replaces a node.
func (g *Graph) AddNode(n Node) { g.nodes[n.ID] = n }

// Node looks a node up.
func (g *Graph) Node(id NodeID) (Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all node IDs, sorted for determinism.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddEdge inserts a directed edge; both endpoints must exist.
func (g *Graph) AddEdge(from, to NodeID, m Metrics) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("route: unknown node %s", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("route: unknown node %s", to)
	}
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, M: m})
	return nil
}

// AddDuplex inserts the edge in both directions with the same metrics.
func (g *Graph) AddDuplex(a, b NodeID, m Metrics) error {
	if err := g.AddEdge(a, b, m); err != nil {
		return err
	}
	return g.AddEdge(b, a, m)
}

// SetEdge replaces the metrics of the directed edge from->to, inserting
// the edge if it does not exist yet. This is the live-update path: the
// logistics control plane (internal/logistics) folds fresh NWS forecasts
// into the planning graph between transfers.
func (g *Graph) SetEdge(from, to NodeID, m Metrics) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("route: unknown node %s", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("route: unknown node %s", to)
	}
	for i := range g.adj[from] {
		if g.adj[from][i].To == to {
			g.adj[from][i].M = m
			return nil
		}
	}
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, M: m})
	return nil
}

// Edges returns every directed edge, sorted by (From, To) for
// determinism.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, id := range g.Nodes() {
		out = append(out, g.adj[id]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// ErrNoPath is returned when src cannot reach dst.
var ErrNoPath = errors.New("route: no path")

// MinLatencyPath runs Dijkstra on edge RTTs and returns the node sequence
// (inclusive of src and dst) and the summed RTT.
func (g *Graph) MinLatencyPath(src, dst NodeID) ([]NodeID, float64, error) {
	const inf = math.MaxFloat64
	dist := map[NodeID]float64{}
	prev := map[NodeID]NodeID{}
	visited := map[NodeID]bool{}
	for id := range g.nodes {
		dist[id] = inf
	}
	if _, ok := g.nodes[src]; !ok {
		return nil, 0, fmt.Errorf("route: unknown source %s", src)
	}
	if _, ok := g.nodes[dst]; !ok {
		return nil, 0, fmt.Errorf("route: unknown destination %s", dst)
	}
	dist[src] = 0
	ids := g.Nodes()
	for {
		// Linear extract-min: depot overlays are small. Scanning in ID
		// order makes the lowest ID win a tie, so equal-latency paths
		// resolve the same way on every call.
		var u NodeID
		best := inf
		found := false
		for _, id := range ids {
			if d := dist[id]; !visited[id] && d < best {
				u, best, found = id, d, true
			}
		}
		if !found {
			break
		}
		if u == dst {
			break
		}
		visited[u] = true
		for _, e := range g.adj[u] {
			if nd := dist[u] + e.M.RTTSeconds; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
			}
		}
	}
	if dist[dst] == inf {
		return nil, 0, ErrNoPath
	}
	return rebuild(prev, src, dst), dist[dst], nil
}

// WidestPath maximizes the bottleneck bandwidth from src to dst (edges
// with zero bandwidth are treated as unconstrained).
func (g *Graph) WidestPath(src, dst NodeID) ([]NodeID, float64, error) {
	width := map[NodeID]float64{}
	prev := map[NodeID]NodeID{}
	visited := map[NodeID]bool{}
	if _, ok := g.nodes[src]; !ok {
		return nil, 0, fmt.Errorf("route: unknown source %s", src)
	}
	if _, ok := g.nodes[dst]; !ok {
		return nil, 0, fmt.Errorf("route: unknown destination %s", dst)
	}
	width[src] = math.Inf(1)
	ids := g.Nodes()
	for {
		var u NodeID
		best := 0.0
		found := false
		for _, id := range ids { // ID order: the lowest ID wins a tie
			if w := width[id]; !visited[id] && w > best {
				u, best, found = id, w, true
			}
		}
		if !found {
			break
		}
		if u == dst {
			break
		}
		visited[u] = true
		for _, e := range g.adj[u] {
			bw := e.M.BandwidthBps
			if bw == 0 {
				bw = math.Inf(1)
			}
			w := math.Min(width[u], bw)
			if w > width[e.To] {
				width[e.To] = w
				prev[e.To] = u
			}
		}
	}
	if width[dst] == 0 {
		return nil, 0, ErrNoPath
	}
	return rebuild(prev, src, dst), width[dst], nil
}

func rebuild(prev map[NodeID]NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for at := dst; ; {
		rev = append(rev, at)
		if at == src {
			break
		}
		at = prev[at]
	}
	out := make([]NodeID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// legParams aggregates the edges of a node sequence into one TCP hop for
// the analytic model: RTTs add, bandwidth bottlenecks, loss combines.
func (g *Graph) legParams(path []NodeID) (tcpmodel.PathParams, error) {
	p := tcpmodel.PathParams{MSSBytes: 1460, DelayedAcks: true}
	survive := 1.0
	for i := 0; i+1 < len(path); i++ {
		e, err := g.edge(path[i], path[i+1])
		if err != nil {
			return p, err
		}
		p.RTTSeconds += e.M.RTTSeconds
		if e.M.BandwidthBps > 0 && (p.BottleneckBps == 0 || e.M.BandwidthBps < p.BottleneckBps) {
			p.BottleneckBps = e.M.BandwidthBps
		}
		survive *= 1 - e.M.LossProb
	}
	p.LossProb = 1 - survive
	return p, nil
}

func (g *Graph) edge(from, to NodeID) (Edge, error) {
	for _, e := range g.adj[from] {
		if e.To == to {
			return e, nil
		}
	}
	return Edge{}, fmt.Errorf("route: no edge %s->%s", from, to)
}
