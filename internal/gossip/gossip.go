// Package gossip shares the planner's edge observations between depots
// by anti-entropy exchange, closing the logistics loop fleet-wide: a
// depot only measures the edges its own sessions cross, but with gossip
// it also plans on what every other depot has measured — including
// failure-poisoned loss forecasts, so the whole overlay routes around a
// dead edge within a few rounds of the first depot noticing.
//
// Each round the gossiper picks a few peers (jittered interval, capped
// fanout) and runs a push-pull exchange over one connection framed with
// the LSLG wire format (internal/wire): the dialer sends a DIGEST of its
// shareable observations (keys, timestamps, and hop counts only — no
// values), the acceptor answers with a DELTA of the entries the dialer
// lacks or holds stale plus its own DIGEST, and the dialer closes the
// loop with the reverse DELTA. Merging is last-writer-wins per (edge,
// metric, origin) with a hop ceiling and staleness clamp — the planner's
// MergeRemote — so exchanges are idempotent and peer-order-independent,
// and a partitioned depot converges as soon as any path of gossip hops
// reconnects it.
//
// The gossiper never blocks the data plane: rounds run on their own
// goroutine, per-peer failures are absorbed into capped-exponential
// backoff (internal/backoff) rather than retried hot, and the accept
// side serves each exchange on the connection the depot hands it and
// nothing else.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/logistics"
	"lsl/internal/metrics"
	"lsl/internal/wire"
)

// DefaultInterval is the mean round interval when Config.Interval is zero.
const DefaultInterval = 5 * time.Second

// An exchange's bounds and a failing peer's backoff. They are not knobs:
// only tests change the last two, on a Gossiper before it runs.
const (
	// dialTimeout bounds connection establishment; exchangeTimeout the
	// whole framed exchange after that.
	dialTimeout     = 3 * time.Second
	exchangeTimeout = 5 * time.Second
	// A failing peer is retried after a delay from backoffBase doubling to
	// backoffMax, jittered.
	backoffBase = 100 * time.Millisecond
	backoffMax  = 10 * time.Second
)

// DefaultFanout is how many eligible peers one round dials.
const DefaultFanout = 2

// Metrics is the gossiper's counter set (lsl_gossip_*).
type Metrics struct {
	// Rounds is lsl_gossip_rounds_total.
	Rounds *metrics.Counter
	// ObservationsMerged is lsl_gossip_observations_merged_total.
	ObservationsMerged *metrics.Counter
	// PeersUnreachable is lsl_gossip_peers_unreachable_total.
	PeersUnreachable *metrics.Counter
	// RoundNS is lsl_gossip_round_ns.
	RoundNS *metrics.Histogram
}

// NewMetrics registers the lsl_gossip_* families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Rounds: reg.Counter("lsl_gossip_rounds_total",
			"Anti-entropy gossip rounds attempted (one per dialed peer)."),
		ObservationsMerged: reg.Counter("lsl_gossip_observations_merged_total",
			"Remote edge observations folded into the local planner."),
		PeersUnreachable: reg.Counter("lsl_gossip_peers_unreachable_total",
			"Gossip exchanges abandoned because the peer could not be reached or the exchange failed."),
		RoundNS: reg.Histogram("lsl_gossip_round_ns",
			"Wall-clock duration of one gossip exchange, dial to merge (ns).",
			[]float64{1e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 1e9, 5e9}),
	}
}

// Config configures a Gossiper. Planner and Peers are required; every
// other field has a usable zero value.
type Config struct {
	// Planner supplies the observations to share and absorbs the merged
	// remote knowledge.
	Planner *logistics.Planner
	// Peers are the depot gossip addresses to exchange with. The local
	// depot's own address may be present; exchanges that report the
	// planner's own node as Self are dropped harmlessly.
	Peers []string
	// Interval is the mean time between rounds (default 5s); actual
	// spacing is jittered uniformly over [0.5, 1.5) of it so depots
	// started together do not gossip in lockstep.
	Interval time.Duration
	// Dial opens a connection to a peer. Defaults to a plain net dialer;
	// the depot passes its trunk-pool dialer so gossip rides warm
	// multiplexed trunks where they exist.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Metrics receives the lsl_gossip_* counters when set.
	Metrics *Metrics
	// Logf, when set, receives one line per failed exchange.
	Logf func(format string, args ...interface{})
	// Seed makes peer selection and jitter deterministic in tests
	// (0 = seeded from the wall clock).
	Seed int64
}

// peerState tracks one peer's failure history for backoff.
type peerState struct {
	addr     string
	fails    int       // consecutive failures
	nextTry  time.Time // eligible again at
	lastOK   time.Time
	lastErr  string
	merged   uint64 // observations merged from this peer, lifetime
	attempts uint64
}

// Gossiper runs the anti-entropy rounds for one depot.
type Gossiper struct {
	cfg  Config
	self string

	mu    sync.Mutex
	rng   *rand.Rand
	peers []*peerState

	// Test seams (export_test.go), set by New to exchangeTimeout and
	// backoffBase doubling to backoffMax.
	exchangeTimeout time.Duration
	backoff         backoff.Policy
}

// New validates cfg and builds a Gossiper. It does not start any
// goroutines; call Run for the periodic loop or RunRound to drive rounds
// explicitly.
func New(cfg Config) (*Gossiper, error) {
	if cfg.Planner == nil {
		return nil, errors.New("gossip: Config.Planner is required")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("gossip: Config.Peers is empty")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	g := &Gossiper{
		cfg:             cfg,
		self:            string(cfg.Planner.Self()),
		rng:             rand.New(rand.NewSource(seed)),
		exchangeTimeout: exchangeTimeout,
		backoff:         backoff.Policy{Base: backoffBase, Max: backoffMax},
	}
	seen := make(map[string]bool)
	for _, addr := range cfg.Peers {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		g.peers = append(g.peers, &peerState{addr: addr})
	}
	if len(g.peers) == 0 {
		return nil, errors.New("gossip: Config.Peers has no usable addresses")
	}
	return g, nil
}

// Run gossips until ctx is done: one round, then a jittered interval,
// repeated. It never returns a non-ctx error — peer failures are
// absorbed into backoff state.
func (g *Gossiper) Run(ctx context.Context) {
	timer := time.NewTimer(g.jitter())
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		g.RunRound(ctx)
		timer.Reset(g.jitter())
	}
}

func (g *Gossiper) jitter() time.Duration {
	g.mu.Lock()
	f := 0.5 + g.rng.Float64() // [0.5, 1.5)
	g.mu.Unlock()
	return time.Duration(float64(g.cfg.Interval) * f)
}

// RunRound dials up to Fanout eligible peers and exchanges with each,
// sequentially (rounds are cheap; sequencing keeps the connection churn
// bounded). It returns the total number of observations merged, which
// tests use to drive convergence deterministically.
func (g *Gossiper) RunRound(ctx context.Context) int {
	targets := g.pickPeers()
	merged := 0
	for _, ps := range targets {
		if ctx.Err() != nil {
			break
		}
		n, err := g.exchangeWith(ctx, ps)
		merged += n
		g.settle(ps, n, err)
	}
	return merged
}

// pickPeers selects up to Fanout peers whose backoff window has passed,
// in random order.
func (g *Gossiper) pickPeers() []*peerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	var eligible []*peerState
	for _, ps := range g.peers {
		if now.Before(ps.nextTry) {
			continue
		}
		eligible = append(eligible, ps)
	}
	g.rng.Shuffle(len(eligible), func(i, j int) {
		eligible[i], eligible[j] = eligible[j], eligible[i]
	})
	if len(eligible) > DefaultFanout {
		eligible = eligible[:DefaultFanout]
	}
	return eligible
}

// settle records one exchange's outcome in the peer's backoff state.
func (g *Gossiper) settle(ps *peerState, merged int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ps.attempts++
	if m := g.cfg.Metrics; m != nil {
		m.Rounds.Inc()
		if merged > 0 {
			m.ObservationsMerged.Add(uint64(merged))
		}
	}
	now := time.Now()
	if err != nil {
		ps.fails++
		ps.lastErr = err.Error()
		ps.nextTry = now.Add(g.backoff.Delay(ps.fails, g.rng))
		if m := g.cfg.Metrics; m != nil {
			m.PeersUnreachable.Inc()
		}
		if g.cfg.Logf != nil {
			g.cfg.Logf("gossip: peer %s: %v (failure %d)", ps.addr, err, ps.fails)
		}
		return
	}
	ps.fails = 0
	ps.lastErr = ""
	ps.lastOK = now
	ps.merged += uint64(merged)
}

// exchangeWith runs the dialer side of one push-pull exchange.
func (g *Gossiper) exchangeWith(ctx context.Context, ps *peerState) (merged int, err error) {
	start := time.Now()
	defer func() {
		if m := g.cfg.Metrics; m != nil {
			m.RoundNS.Observe(float64(time.Since(start)))
		}
	}()
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	conn, err := g.cfg.Dial(dctx, ps.addr)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(g.exchangeTimeout))

	mine := g.cfg.Planner.ExportObservations(wire.MaxGossipEntries)

	// 1. Offer our digest.
	if err := writeFrame(conn, &wire.GossipFrame{
		Kind: wire.GossipDigest, Self: g.self, Obs: toWire(mine),
	}); err != nil {
		return 0, fmt.Errorf("send digest: %w", err)
	}
	// 2. Their delta: what we lack.
	delta, err := wire.ReadGossipFrame(conn)
	if err != nil {
		return 0, fmt.Errorf("read delta: %w", err)
	}
	if delta.Kind != wire.GossipDelta {
		return 0, fmt.Errorf("peer sent %s, want delta", wire.GossipKindString(delta.Kind))
	}
	merged = g.cfg.Planner.MergeRemote(fromWire(delta.Obs))
	// 3. Their digest: what they hold.
	theirs, err := wire.ReadGossipFrame(conn)
	if err != nil {
		return merged, fmt.Errorf("read digest: %w", err)
	}
	if theirs.Kind != wire.GossipDigest {
		return merged, fmt.Errorf("peer sent %s, want digest", wire.GossipKindString(theirs.Kind))
	}
	// 4. Close the loop: send what they lack.
	want := selectDelta(mine, fromWire(theirs.Obs), wire.MaxGossipEntries)
	if err := writeFrame(conn, &wire.GossipFrame{
		Kind: wire.GossipDelta, Self: g.self, Obs: toWire(want),
	}); err != nil {
		return merged, fmt.Errorf("send delta: %w", err)
	}
	return merged, nil
}

// ServeConn runs the acceptor side of one exchange on conn (which the
// depot hands over after sniffing the LSLG magic) and closes it. Errors
// are absorbed: a malformed or abandoned exchange must never disturb the
// serving depot.
func (g *Gossiper) ServeConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(g.exchangeTimeout))

	theirs, err := wire.ReadGossipFrame(conn)
	if err != nil || theirs.Kind != wire.GossipDigest {
		return
	}
	mine := g.cfg.Planner.ExportObservations(wire.MaxGossipEntries)
	// Answer with the entries their digest lacks or holds stale...
	want := selectDelta(mine, fromWire(theirs.Obs), wire.MaxGossipEntries)
	if err := writeFrame(conn, &wire.GossipFrame{
		Kind: wire.GossipDelta, Self: g.self, Obs: toWire(want),
	}); err != nil {
		return
	}
	// ...then our own digest, and merge the reverse delta.
	if err := writeFrame(conn, &wire.GossipFrame{
		Kind: wire.GossipDigest, Self: g.self, Obs: toWire(mine),
	}); err != nil {
		return
	}
	delta, err := wire.ReadGossipFrame(conn)
	if err != nil || delta.Kind != wire.GossipDelta {
		return
	}
	if n := g.cfg.Planner.MergeRemote(fromWire(delta.Obs)); n > 0 {
		if m := g.cfg.Metrics; m != nil {
			m.ObservationsMerged.Add(uint64(n))
		}
	}
}

// obsKey identifies one digest line: an (edge, metric, origin) tuple.
type obsKey struct {
	from, to, origin string
	metric           logistics.ObsMetric
}

// selectDelta picks the entries of mine that the peer's digest shows it
// lacks or holds stale: absent key, older timestamp, or same timestamp
// reachable in fewer hops after the transfer (the receiver stores at
// hops+1). Capped at max, newest first (mine is already sorted so).
func selectDelta(mine, theirDigest []logistics.EdgeObservation, max int) []logistics.EdgeObservation {
	have := make(map[obsKey]logistics.EdgeObservation, len(theirDigest))
	for _, o := range theirDigest {
		have[obsKey{o.From, o.To, o.Origin, o.Metric}] = o
	}
	var out []logistics.EdgeObservation
	for _, o := range mine {
		cur, ok := have[obsKey{o.From, o.To, o.Origin, o.Metric}]
		if ok {
			if cur.Time.After(o.Time) {
				continue
			}
			if cur.Time.Equal(o.Time) && int(cur.Hops) <= int(o.Hops)+1 {
				continue
			}
		}
		out = append(out, o)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// toWire converts planner observations to wire entries.
func toWire(obs []logistics.EdgeObservation) []wire.GossipObs {
	if len(obs) == 0 {
		return nil
	}
	out := make([]wire.GossipObs, 0, len(obs))
	for _, o := range obs {
		out = append(out, wire.GossipObs{
			From: o.From, To: o.To, Origin: o.Origin,
			Metric: uint8(o.Metric), Hops: o.Hops,
			TimeUnixNano: o.Time.UnixNano(),
			Value:        o.Value, Count: o.Count,
		})
	}
	return out
}

// fromWire converts wire entries back to planner observations. Entries
// with a non-positive timestamp decode to the zero time, which
// MergeRemote rejects.
func fromWire(obs []wire.GossipObs) []logistics.EdgeObservation {
	if len(obs) == 0 {
		return nil
	}
	out := make([]logistics.EdgeObservation, 0, len(obs))
	for _, o := range obs {
		var t time.Time
		if o.TimeUnixNano > 0 {
			t = time.Unix(0, o.TimeUnixNano)
		}
		out = append(out, logistics.EdgeObservation{
			From: o.From, To: o.To, Origin: o.Origin,
			Metric: logistics.ObsMetric(o.Metric), Hops: o.Hops,
			Time: t, Value: o.Value, Count: o.Count,
		})
	}
	return out
}

// writeFrame encodes and writes one frame.
func writeFrame(conn net.Conn, f *wire.GossipFrame) error {
	b, err := f.Encode()
	if err != nil {
		return err
	}
	_, err = conn.Write(b)
	return err
}

// PeerStatus is one peer's exchange history, for the /plan endpoint.
type PeerStatus struct {
	Addr       string `json:"addr"`
	Attempts   uint64 `json:"attempts"`
	Merged     uint64 `json:"merged"`
	Fails      int    `json:"consecutive_failures,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	LastOKUnix int64  `json:"last_ok_unix,omitempty"`
}

// Status is the gossiper's diagnostic view, served under "gossip" in the
// depot's /plan JSON.
type Status struct {
	Self      string       `json:"self"`
	Interval  string       `json:"interval"`
	Fanout    int          `json:"fanout"`
	RemoteObs int          `json:"remote_observations"`
	Peers     []PeerStatus `json:"peers"`
}

// Status reports the gossiper's current peer and overlay state.
func (g *Gossiper) Status() Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Status{
		Self:      g.self,
		Interval:  g.cfg.Interval.String(),
		Fanout:    DefaultFanout,
		RemoteObs: g.cfg.Planner.RemoteObsCount(),
	}
	for _, ps := range g.peers {
		st := PeerStatus{
			Addr: ps.addr, Attempts: ps.attempts, Merged: ps.merged,
			Fails: ps.fails, LastError: ps.lastErr,
		}
		if !ps.lastOK.IsZero() {
			st.LastOKUnix = ps.lastOK.Unix()
		}
		s.Peers = append(s.Peers, st)
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr < s.Peers[j].Addr })
	return s
}
