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
	if err := g.checkEnds(src, dst); err != nil {
		return nil, 0, err
	}
	return g.shortestPaths(src, &dst).path(dst)
}

func (g *Graph) checkEnds(src, dst NodeID) error {
	if _, ok := g.nodes[src]; !ok {
		return fmt.Errorf("route: unknown source %s", src)
	}
	if _, ok := g.nodes[dst]; !ok {
		return fmt.Errorf("route: unknown destination %s", dst)
	}
	return nil
}

// spTree is a shortest-path tree on edge RTTs rooted at ids[root].
type spTree struct {
	ids  []NodeID // every node, sorted
	idx  map[NodeID]int
	root int
	dist []float64 // math.MaxFloat64: not reached
	prev []int
}

// shortestPaths runs Dijkstra on edge RTTs (which must not be negative)
// from src, which must be a node, until it settles *stop, or over every
// node src reaches when stop is nil. A node's path is final once it is
// settled, so a whole tree returns the same path to each node as a
// search stopped at that node.
func (g *Graph) shortestPaths(src NodeID, stop *NodeID) spTree {
	ids := g.Nodes()
	t := spTree{ids: ids, idx: make(map[NodeID]int, len(ids)), dist: make([]float64, len(ids)), prev: make([]int, len(ids))}
	for i, id := range ids {
		t.idx[id] = i
		t.dist[i] = math.MaxFloat64
	}
	t.root = t.idx[src]
	t.dist[t.root] = 0
	visited := make([]bool, len(ids))
	for {
		// Linear extract-min: depot overlays are small. Scanning in ID
		// order makes the lowest ID win a tie, so equal-latency paths
		// resolve the same way on every call.
		u, best := -1, math.MaxFloat64
		for i, d := range t.dist {
			if !visited[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 || stop != nil && ids[u] == *stop {
			break
		}
		visited[u] = true
		for _, e := range g.adj[ids[u]] {
			v := t.idx[e.To]
			if nd := t.dist[u] + e.M.RTTSeconds; nd < t.dist[v] {
				t.dist[v] = nd
				t.prev[v] = u
			}
		}
	}
	return t
}

// path returns the tree's node sequence from its root to dst (inclusive)
// and the summed RTT.
func (t spTree) path(dst NodeID) ([]NodeID, float64, error) {
	v, ok := t.idx[dst]
	if !ok || t.dist[v] == math.MaxFloat64 {
		return nil, 0, ErrNoPath
	}
	n := 1
	for at := v; at != t.root; at = t.prev[at] {
		n++
	}
	out := make([]NodeID, n)
	for at := v; n > 0; at = t.prev[at] {
		n--
		out[n] = t.ids[at]
	}
	return out, t.dist[v], nil
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
