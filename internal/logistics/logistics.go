// Package logistics closes the paper's measure->forecast->plan->transfer
// loop: it owns a planning route.Graph, keeps one NWS forecast series per
// (directed edge, metric) pair, ingests measurements from real transfers
// — client-side dial RTT and achieved throughput (internal/core,
// internal/resilience) and per-next-hop relay statistics (internal/depot)
// — and re-ranks candidate session routes by the analytic TCP model over
// the forecast-updated graph. This is the "network logistics" decision
// surface of the paper made live: the session layer no longer merely
// cascades a given route, it chooses the route, and keeps choosing as
// conditions change.
//
// The Planner satisfies resilience.Planner, so a resilient transfer with
// resilience.WithPlanner starts on the predicted-fastest route, fails
// over to the next-best predicted route on transient failure, and feeds
// every attempt's measurements back into the forecasters. Dead links are
// not tombstoned: a failure is recorded as a loss observation, which the
// TCP model punishes heavily (Mathis: throughput ~ 1/sqrt(p)), and later
// successes decay the loss forecast back down — a recovered depot regains
// traffic without operator action.
package logistics

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/metrics"
	"lsl/internal/nws"
	"lsl/internal/overlay"
	"lsl/internal/route"
)

// DeadEdgeLoss is the loss probability observed on an edge implicated in
// a transfer failure. Folded through the Mathis bound it makes the edge
// rank far behind any healthy alternative, while remaining a legitimate
// probability the forecasters can decay when successes return.
const DeadEdgeLoss = 0.5

// maxLossProb caps the loss forecast folded into the planning graph so
// the TCP model never sees a certain-loss edge (which would predict zero
// throughput and defeat decay).
const maxLossProb = 0.99

// Metrics is the planner's counter set (see NewMetrics).
type Metrics struct {
	// Observations is lsl_logistics_observations_total.
	Observations *metrics.Counter
	// Replans is lsl_logistics_replans_total.
	Replans *metrics.Counter
	// ForecastMSE is lsl_logistics_forecast_mse.
	ForecastMSE *metrics.FloatGauge
}

// NewMetrics registers the lsl_logistics_* families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Observations: reg.Counter("lsl_logistics_observations_total",
			"Link measurements fed into the NWS forecast banks."),
		Replans: reg.Counter("lsl_logistics_replans_total",
			"Transfers re-routed onto the next-best predicted route after a failure."),
		ForecastMSE: reg.FloatGauge("lsl_logistics_forecast_mse",
			"Mean squared error of the winning NWS predictors, averaged over all live series."),
	}
}

// edgeKey names one directed edge.
type edgeKey struct{ from, to route.NodeID }

// edgeSeries is the forecast state of one directed edge: one NWS series
// per metric, plus the static metrics the overlay declared (used until a
// series has data, and as the fallback when a forecast is unusable).
// Local series are annotated with the newest underlying observation's
// wall-clock time — the freshness the gossip layer advertises — and
// remote holds forecast summaries learned from other depots via gossip,
// keyed by (origin, metric) with last-writer-wins timestamps so merges
// are idempotent and order-independent.
type edgeSeries struct {
	base route.Metrics
	rtt  *nws.Series
	bw   *nws.Series
	loss *nws.Series
	// Newest local observation per metric (zero = never observed here).
	rttTime  time.Time
	bwTime   time.Time
	lossTime time.Time
	// Gossip-learned summaries from other depots.
	remote map[remoteKey]remoteObs
}

// remoteKey identifies one remote contributor's summary of one metric.
type remoteKey struct {
	origin string
	metric ObsMetric
}

// remoteObs is one gossip-learned forecast summary.
type remoteObs struct {
	value float64
	count uint32
	hops  uint8
	t     time.Time
}

// Planner is the live logistics control plane. All methods are safe for
// concurrent use; the planning graph is only ever read or mutated under
// the planner's lock.
type Planner struct {
	mu     sync.Mutex
	graph  *route.Graph
	self   route.NodeID
	series map[edgeKey]*edgeSeries
	byAddr map[string]route.NodeID
	met    *Metrics
	// now is the planner's clock (observation timestamps, remote-summary
	// aging). Overridden in tests for deterministic gossip merges.
	now func() time.Time
}

// New builds a planner over g, planning from the named local node. The
// graph is owned by the planner from here on: forecasts are folded into
// its edge metrics in place.
func New(g *route.Graph, self route.NodeID) (*Planner, error) {
	if _, ok := g.Node(self); !ok {
		return nil, fmt.Errorf("logistics: unknown self node %s", self)
	}
	p := &Planner{
		graph:  g,
		self:   self,
		series: make(map[edgeKey]*edgeSeries),
		byAddr: make(map[string]route.NodeID),
		met:    &Metrics{}, // nil metrics are no-op sinks
		now:    time.Now,
	}
	for _, id := range g.Nodes() {
		n, _ := g.Node(id)
		if n.Addr != "" {
			p.byAddr[n.Addr] = id
		}
	}
	for _, e := range g.Edges() {
		p.series[edgeKey{e.From, e.To}] = &edgeSeries{
			base:   e.M,
			rtt:    nws.NewSeries(fmt.Sprintf("%s->%s/rtt", e.From, e.To)),
			bw:     nws.NewSeries(fmt.Sprintf("%s->%s/bandwidth", e.From, e.To)),
			loss:   nws.NewSeries(fmt.Sprintf("%s->%s/loss", e.From, e.To)),
			remote: make(map[remoteKey]remoteObs),
		}
	}
	return p, nil
}

// FromOverlay parses an overlay description (internal/overlay format) and
// builds a planner planning from self.
func FromOverlay(r io.Reader, self route.NodeID) (*Planner, error) {
	g, err := overlay.Parse(r)
	if err != nil {
		return nil, err
	}
	return New(g, self)
}

// SetMetrics directs the planner's counters at m (see NewMetrics); a
// planner given none records none.
func (p *Planner) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	p.mu.Lock()
	p.met = m
	p.mu.Unlock()
}

// Self returns the node the planner plans from.
func (p *Planner) Self() route.NodeID { return p.self }

// ---- observation ingestion ----

// ObserveRTT feeds one round-trip-time measurement (seconds) for the
// directed edge and refreshes the planning graph with the new forecast.
func (p *Planner) ObserveRTT(from, to route.NodeID, seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked(from, to, func(es *edgeSeries) { es.rtt.Observe(seconds) })
}

// ObserveBandwidth feeds one achieved-throughput measurement (bytes/sec
// converted to bits/sec by the caller is NOT expected — pass bits/sec).
func (p *Planner) ObserveBandwidth(from, to route.NodeID, bps float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked(from, to, func(es *edgeSeries) { es.bw.Observe(bps) })
}

// ObserveLoss feeds one loss-probability observation.
func (p *Planner) ObserveLoss(from, to route.NodeID, prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked(from, to, func(es *edgeSeries) { es.loss.Observe(clamp(prob, 0, maxLossProb)) })
}

// observeLocked runs one observation against the edge's series, then
// folds the refreshed forecasts into the planning graph. Unknown edges
// (not declared in the overlay) are ignored: the planner never invents
// topology from measurements, it only re-weights declared links.
func (p *Planner) observeLocked(from, to route.NodeID, obs func(*edgeSeries)) {
	es, ok := p.series[edgeKey{from, to}]
	if !ok {
		return
	}
	rttN, bwN, lossN := es.rtt.Len(), es.bw.Len(), es.loss.Len()
	obs(es)
	// Stamp whichever metric streams grew, so gossip can advertise (and
	// age) each summary by the real measurement time.
	now := p.now()
	if es.rtt.Len() > rttN {
		es.rttTime = now
	}
	if es.bw.Len() > bwN {
		es.bwTime = now
	}
	if es.loss.Len() > lossN {
		es.lossTime = now
	}
	p.refreshEdgeLocked(from, to, es)
	p.met.Observations.Inc()
	p.met.ForecastMSE.Set(p.meanMSELocked())
}

// refreshEdgeLocked rebuilds the edge's planning metrics: each component
// uses its forecast when the series has data and the forecast is usable,
// and falls back to the overlay's static value otherwise. Gossip-learned
// remote summaries are then blended in, weighted down by age and hop
// count so local measurement always dominates — but on an edge this node
// has never measured, fresh remote observations govern outright.
func (p *Planner) refreshEdgeLocked(from, to route.NodeID, es *edgeSeries) {
	m := es.base
	now := p.now()
	if v := es.rtt.Forecast(); es.rtt.Len() > 0 && !math.IsNaN(v) && v > 0 {
		m.RTTSeconds = v
	}
	if v := es.bw.Forecast(); es.bw.Len() > 0 && !math.IsNaN(v) && v > 0 {
		m.BandwidthBps = v
	}
	if v := es.loss.Forecast(); es.loss.Len() > 0 && !math.IsNaN(v) {
		m.LossProb = clamp(v, 0, maxLossProb)
	}
	if len(es.remote) > 0 {
		m.RTTSeconds = blendRemote(es, ObsRTT, m.RTTSeconds, es.rtt.Len() > 0, now)
		m.BandwidthBps = blendRemote(es, ObsBandwidth, m.BandwidthBps, es.bw.Len() > 0, now)
		m.LossProb = clamp(blendRemote(es, ObsLoss, m.LossProb, es.loss.Len() > 0, now), 0, maxLossProb)
	}
	// Both nodes exist by construction; SetEdge cannot fail here.
	p.graph.SetEdge(from, to, m)
}

// meanMSELocked averages the winning predictor's MSE across every series
// with enough history to have been scored.
func (p *Planner) meanMSELocked() float64 {
	var sum float64
	var n int
	for _, es := range p.series {
		for _, s := range []*nws.Series{es.rtt, es.bw, es.loss} {
			if s.Len() < 2 {
				continue // first observation is never scored against a forecast
			}
			if v := s.Selector.MSE(); !math.IsNaN(v) {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---- planning (resilience.Planner) ----

// PlanRoutes ranks candidate session routes from the planner's node to
// the target address, best predicted completion time first. Plans whose
// hops lack dialable addresses are skipped.
func (p *Planner) PlanRoutes(target string, size int64) ([]core.Route, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst, ok := p.byAddr[target]
	if !ok {
		return nil, fmt.Errorf("logistics: target %s not in planning graph", target)
	}
	plans, err := p.graph.RankCandidates(p.self, dst, size)
	if err != nil {
		return nil, err
	}
	var routes []core.Route
	for _, pl := range plans {
		via, tgt, err := pl.Addrs(p.graph)
		if err != nil {
			continue
		}
		routes = append(routes, core.Route{Via: via, Target: tgt})
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("logistics: no dialable route to %s", target)
	}
	return routes, nil
}

// PlanStripes returns up to k edge-disjoint session routes to the target
// plus a predicted-throughput weight (bits/sec over the forecast graph)
// for each — the initial dispatch weights of a striped transfer. The
// fastest route is always included; fewer than k routes come back when
// the overlay cannot support more disjoint paths. Per-stripe feedback
// flows through the same ObserveSuccess/ObserveFailure used for
// single-path transfers, so each stripe's fate re-weights exactly the
// edges it crossed.
func (p *Planner) PlanStripes(target string, size int64, k int) ([]core.Route, []float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst, ok := p.byAddr[target]
	if !ok {
		return nil, nil, fmt.Errorf("logistics: target %s not in planning graph", target)
	}
	plans, err := p.graph.DisjointRoutes(p.self, dst, size, k)
	if err != nil {
		return nil, nil, err
	}
	var routes []core.Route
	var weights []float64
	for _, pl := range plans {
		via, tgt, err := pl.Addrs(p.graph)
		if err != nil {
			continue
		}
		w := 1.0
		if pl.PredictedSeconds > 0 && size > 0 {
			w = float64(size) * 8 / pl.PredictedSeconds
		}
		routes = append(routes, core.Route{Via: via, Target: tgt})
		weights = append(weights, w)
	}
	if len(routes) == 0 {
		return nil, nil, fmt.Errorf("logistics: no dialable disjoint route to %s", target)
	}
	return routes, weights, nil
}

// ObserveSuccess feeds back a delivered attempt: achieved throughput and
// a zero-loss observation on every underlying edge the session route
// crossed, plus the first-hop dial RTT when the first leg is a single
// edge.
func (p *Planner) ObserveSuccess(r core.Route, bytes int64, seconds, dialSeconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	legs := p.routeLegsLocked(r)
	for i, leg := range legs {
		for j := 0; j+1 < len(leg); j++ {
			from, to := leg[j], leg[j+1]
			p.observeLocked(from, to, func(es *edgeSeries) {
				if seconds > 0 && bytes > 0 {
					es.bw.Observe(float64(bytes) * 8 / seconds)
				}
				es.loss.Observe(0)
			})
			if i == 0 && len(leg) == 2 && dialSeconds > 0 {
				p.observeLocked(from, to, func(es *edgeSeries) { es.rtt.Observe(dialSeconds) })
			}
		}
	}
}

// ObserveFailure records a failed attempt as loss observations. When the
// failed hop is known (a first-hop dial error), only the legs up to and
// including that hop are poisoned; otherwise the failure cannot be
// attributed and every edge the route crossed takes the hit — later
// successes on the healthy edges decay them back immediately.
func (p *Planner) ObserveFailure(r core.Route, hop string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	legs := p.routeLegsLocked(r)
	limit := len(legs)
	if hop != "" {
		if id, ok := p.byAddr[hop]; ok {
			for i, leg := range legs {
				if len(leg) > 0 && leg[len(leg)-1] == id {
					limit = i + 1
					break
				}
			}
		}
	}
	for i := 0; i < limit && i < len(legs); i++ {
		leg := legs[i]
		for j := 0; j+1 < len(leg); j++ {
			p.observeLocked(leg[j], leg[j+1], func(es *edgeSeries) { es.loss.Observe(DeadEdgeLoss) })
		}
	}
}

// RecordReplan counts one failover onto the next-best predicted route.
func (p *Planner) RecordReplan() {
	p.mu.Lock()
	p.met.Replans.Inc()
	p.mu.Unlock()
}

// routeLegsLocked resolves a session route's hop addresses back to graph
// nodes and expands each session leg into its underlying min-latency
// router path, so observations land on the real edges that carried the
// bytes. Routes naming unknown addresses resolve to nil (nothing to
// attribute).
func (p *Planner) routeLegsLocked(r core.Route) [][]route.NodeID {
	ids := []route.NodeID{p.self}
	for _, a := range r.Hops() {
		id, ok := p.byAddr[a]
		if !ok {
			return nil
		}
		ids = append(ids, id)
	}
	var legs [][]route.NodeID
	for i := 0; i+1 < len(ids); i++ {
		path, _, err := p.graph.MinLatencyPath(ids[i], ids[i+1])
		if err != nil {
			continue
		}
		legs = append(legs, path)
	}
	return legs
}

// ---- depot-side ingestion ----

// DepotHook returns a depot.Config.OnSessionEnd callback feeding the
// depot's per-session relay statistics into the planner: completed relay
// sessions observe achieved forward throughput (and zero loss) on the
// edge toward their next hop; next-hop dial failures poison it.
func (p *Planner) DepotHook() func(depot.SessionInfo) {
	return func(info depot.SessionInfo) {
		if info.NextHop == "" {
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		to, ok := p.byAddr[info.NextHop]
		if !ok {
			return
		}
		switch info.Outcome {
		case depot.OutcomeCompleted, depot.OutcomeStagedDeliver:
			p.observeLocked(p.self, to, func(es *edgeSeries) {
				if info.DurationSeconds > 0 && info.BytesForward > 0 {
					es.bw.Observe(float64(info.BytesForward) * 8 / info.DurationSeconds)
				}
				es.loss.Observe(0)
			})
		case depot.OutcomeDialFailed:
			p.observeLocked(p.self, to, func(es *edgeSeries) { es.loss.Observe(DeadEdgeLoss) })
		}
	}
}

// ---- snapshot (admin /plan) ----

// EdgeView is one directed edge's live planning state.
type EdgeView struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Current metrics as the planner will feed them to the TCP model.
	RTTSeconds   float64 `json:"rtt_seconds"`
	BandwidthBps float64 `json:"bandwidth_bps"`
	LossProb     float64 `json:"loss_prob"`
	// Per-metric observation counts and winning predictors.
	RTTObs        int    `json:"rtt_observations"`
	BandwidthObs  int    `json:"bandwidth_observations"`
	LossObs       int    `json:"loss_observations"`
	RTTPredictor  string `json:"rtt_predictor,omitempty"`
	BWPredictor   string `json:"bandwidth_predictor,omitempty"`
	LossPredictor string `json:"loss_predictor,omitempty"`
	// Newest local observation per metric, unix nanoseconds (0 = never
	// observed locally). Carried through snapshot save/load so restored
	// forecasts keep their real measurement age — gossip must not re-share
	// pre-restart observations as fresh.
	RTTUpdatedUnixNano  int64 `json:"rtt_updated_unix_nano,omitempty"`
	BWUpdatedUnixNano   int64 `json:"bandwidth_updated_unix_nano,omitempty"`
	LossUpdatedUnixNano int64 `json:"loss_updated_unix_nano,omitempty"`
	// RemoteObs counts gossip-learned summaries currently blended into
	// this edge's planning metrics.
	RemoteObs int `json:"remote_observations,omitempty"`
}

// NodeView is one graph vertex.
type NodeView struct {
	ID    string `json:"id"`
	Depot bool   `json:"depot,omitempty"`
	Addr  string `json:"addr,omitempty"`
}

// View is the planner's observable state, served as JSON on the depot
// admin /plan endpoint.
type View struct {
	Self  string     `json:"self"`
	Nodes []NodeView `json:"nodes"`
	Edges []EdgeView `json:"edges"`
	// Totals from the planner's metric sink.
	Observations uint64  `json:"observations"`
	Replans      uint64  `json:"replans"`
	ForecastMSE  float64 `json:"forecast_mse"`
}

// Snapshot captures the planner's current graph, forecasts and counters.
// All values are JSON-safe (no NaN/Inf).
func (p *Planner) Snapshot() View {
	p.mu.Lock()
	defer p.mu.Unlock()
	met := p.met
	v := View{
		Self:         string(p.self),
		Observations: met.Observations.Value(),
		Replans:      met.Replans.Value(),
		ForecastMSE:  jsonSafe(met.ForecastMSE.Value()),
	}
	for _, id := range p.graph.Nodes() {
		n, _ := p.graph.Node(id)
		v.Nodes = append(v.Nodes, NodeView{ID: string(n.ID), Depot: n.Depot, Addr: n.Addr})
	}
	for _, e := range p.graph.Edges() {
		ev := EdgeView{
			From:         string(e.From),
			To:           string(e.To),
			RTTSeconds:   jsonSafe(e.M.RTTSeconds),
			BandwidthBps: jsonSafe(e.M.BandwidthBps),
			LossProb:     jsonSafe(e.M.LossProb),
		}
		if es, ok := p.series[edgeKey{e.From, e.To}]; ok {
			ev.RTTObs = es.rtt.Len()
			ev.BandwidthObs = es.bw.Len()
			ev.LossObs = es.loss.Len()
			ev.RemoteObs = len(es.remote)
			if es.rtt.Len() > 0 {
				ev.RTTPredictor = es.rtt.Selector.BestName()
				ev.RTTUpdatedUnixNano = unixNano(es.rttTime)
			}
			if es.bw.Len() > 0 {
				ev.BWPredictor = es.bw.Selector.BestName()
				ev.BWUpdatedUnixNano = unixNano(es.bwTime)
			}
			if es.loss.Len() > 0 {
				ev.LossPredictor = es.loss.Selector.BestName()
				ev.LossUpdatedUnixNano = unixNano(es.lossTime)
			}
		}
		v.Edges = append(v.Edges, ev)
	}
	return v
}

// PlanView adapts Snapshot to the opaque closure depot.Config.PlanView
// expects.
func (p *Planner) PlanView() func() interface{} {
	return func() interface{} { return p.Snapshot() }
}

// EdgeState returns the live metrics and loss forecast of one directed
// edge (tests, diagnostics).
func (p *Planner) EdgeState(from, to route.NodeID) (m route.Metrics, lossForecast float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	es, found := p.series[edgeKey{from, to}]
	if !found {
		return route.Metrics{}, 0, false
	}
	m = es.base
	for _, e := range p.graph.Edges() {
		if e.From == from && e.To == to {
			m = e.M
			break
		}
	}
	lf := es.loss.Forecast()
	if math.IsNaN(lf) {
		lf = 0
	}
	return m, lf, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}
