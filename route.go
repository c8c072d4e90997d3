package lsl

import (
	"io"

	"lsl/internal/gossip"
	"lsl/internal/logistics"
	"lsl/internal/nws"
	"lsl/internal/overlay"
	"lsl/internal/route"
	"lsl/internal/tcpmodel"
)

// The planning surface: depot graphs, forecasting, and the transfer-time
// objective that decides when to cascade.

// Graph is the depot overlay map used for planning.
type Graph = route.Graph

// GraphNode is a host or depot vertex.
type GraphNode = route.Node

// NodeID names a graph vertex.
type NodeID = route.NodeID

// LinkMetrics annotates a graph edge with forecast performance.
type LinkMetrics = route.Metrics

// ForecastSeries is a named measurement stream with its selector.
type ForecastSeries = nws.Series

// NewGraph returns an empty planning graph.
func NewGraph() *Graph { return route.NewGraph() }

// NewForecastSeries builds a measurement stream with the default NWS
// predictor bank.
func NewForecastSeries(name string) *ForecastSeries { return nws.NewSeries(name) }

// MathisThroughputBps is the macroscopic steady-state TCP bound
// MSS/RTT * C/sqrt(p), in bits per second.
func MathisThroughputBps(mssBytes int, rttSeconds, lossProb float64) float64 {
	return tcpmodel.MathisThroughputBps(mssBytes, rttSeconds, lossProb)
}

// ParseOverlay reads the textual depot-overlay format (see cmd/lslplan
// and internal/overlay) into a planning graph.
func ParseOverlay(r io.Reader) (*Graph, error) { return overlay.Parse(r) }

// --- live route selection (internal/logistics) ---

// Planner is the live logistics control plane: it owns a planning graph,
// keeps one NWS forecast series per (edge, metric) pair, ingests
// measurements from real transfers, and ranks candidate session routes by
// predicted completion time. Pass it to Transfer with WithPlanner to
// close the measure->forecast->plan->transfer loop.
type Planner = logistics.Planner

// PlannerMetrics is the planner's counter set (lsl_logistics_*): link
// observations, replans, and the winning predictors' mean squared error.
type PlannerMetrics = logistics.Metrics

// PlannerView is the planner's observable state (the depot admin /plan
// payload): nodes, per-edge live metrics with forecast provenance, and
// totals.
type PlannerView = logistics.View

// PlannerFromOverlay parses an overlay description and builds a planner
// planning from self.
func PlannerFromOverlay(r io.Reader, self NodeID) (*Planner, error) {
	return logistics.FromOverlay(r, self)
}

// NewPlannerMetrics registers the lsl_logistics_* families on reg; hand
// the set to Planner.SetMetrics (a planner given none records none).
func NewPlannerMetrics(reg *MetricsRegistry) *PlannerMetrics { return logistics.NewMetrics(reg) }

// --- forecast gossip (internal/gossip) ---

// Gossiper shares the planner's edge observations with peer depots by
// periodic anti-entropy exchange, so every depot plans on what the whole
// fleet has measured — including routing around an edge only one depot
// saw die. Wire one up with NewGossiper, hand its ServeConn to
// DepotConfig.OnGossip, and run it with Run (or drive rounds explicitly
// with RunRound in tests).
type Gossiper = gossip.Gossiper

// GossipConfig configures a Gossiper: the planner to share, the peer
// depot addresses to exchange with, and the round cadence. An exchange's
// bounds are fixed (3s to dial, 5s for the exchange), and a failing peer
// is retried after a jittered backoff from 100ms doubling to 10s.
type GossipConfig = gossip.Config

// GossipMetrics is the gossiper's counter set (lsl_gossip_*).
type GossipMetrics = gossip.Metrics

// GossipStatus is the gossiper's diagnostic view, served under "gossip"
// in the depot's /plan JSON.
type GossipStatus = gossip.Status

// NewGossiper validates cfg and builds a Gossiper (no goroutines are
// started; call Run).
func NewGossiper(cfg GossipConfig) (*Gossiper, error) { return gossip.New(cfg) }

// NewGossipMetrics registers the lsl_gossip_* families on reg.
func NewGossipMetrics(reg *MetricsRegistry) *GossipMetrics { return gossip.NewMetrics(reg) }
