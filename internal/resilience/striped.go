// Striped self-healing transfers: one logical stream over N concurrent
// sessions on (ideally) link-disjoint routes, scheduled by the weighted
// credit dispatcher of internal/stripe. Each stripe is one path of the
// shared heal loop (path.go), so a stripe that dies mid-flow is re-dialed
// — after a replan onto the best disjoint route when a planner is
// attached — and the frames it had in flight are reassigned; a stripe
// whose attempt budget runs out is abandoned and its share flows through
// the survivors. Delivery is confirmed by the receiver's acks or, per
// stripe, by the cascade unwinding; both are part of the stripe's
// lifecycle in stripe.Sender, so a stripe that fails to confirm goes down
// and heals through the same loop as one that dies mid-flow.

package resilience

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"lsl/internal/core"
	"lsl/internal/metrics"
	"lsl/internal/stripe"
	"lsl/internal/wire"
)

// StripePlanner extends Planner with disjoint multi-path planning.
// Implemented by internal/logistics; a plain Planner still works with
// StripedTransfer (replans use PlanRoutes), it just cannot propose
// link-disjoint route sets or predicted stripe weights.
type StripePlanner interface {
	Planner
	// PlanStripes returns up to k edge-disjoint routes to the target,
	// best predicted first, with a predicted-throughput weight for each.
	PlanStripes(target string, size int64, k int) ([]core.Route, []float64, error)
}

// WithStripes sets the stripe count (default: one per provided route).
func WithStripes(n int) Option { return func(c *config) { c.stripes = n } }

// WithFrameSize sets the striping granularity in bytes.
func WithFrameSize(n int) Option { return func(c *config) { c.frameSize = n } }

// WithRebalanceBytes recomputes stripe weights from observed throughput
// every n bytes written (<= 0 disables mid-flow rebalancing).
func WithRebalanceBytes(n int64) Option { return func(c *config) { c.rebalanceBytes = n } }

// StripedResult reports how a striped transfer was achieved.
type StripedResult struct {
	// Group identifies the stripe group (not a session ID: each stripe
	// session draws its own).
	Group wire.SessionID
	// Stripes is the group fan-out.
	Stripes int
	// Routes is the final route each stripe delivered over.
	Routes []core.Route
	// StripeBytes is the payload bytes each stripe carried.
	StripeBytes []int64
	// Bytes is the logical stream length.
	Bytes int64
	// Heals counts stripes successfully re-attached after a failure.
	Heals int
	// Replans counts stripes moved onto a different route.
	Replans int
	// Abandoned counts stripes whose budget ran out (their frames were
	// delivered by the survivors).
	Abandoned int
	// Rebalances counts mid-flow weight recomputations.
	Rebalances int64
	// FramesReassigned counts frames requeued off dead, abandoned or
	// superseded stripes.
	FramesReassigned int64
	// FramesStolen and FramesSpeculated are always 0: the sender neither
	// steals queued frames nor duplicates tail frames (a wedged stripe is
	// superseded and its frames requeue, counted in FramesReassigned).
	FramesStolen, FramesSpeculated int64
	// Superseded counts wedged stripes retired with their frames
	// re-delivered elsewhere.
	Superseded int
	// Confirmed reports whether the receiver acked the whole stream as
	// flushed (in which case StripeBytes is the receiver's attribution of
	// which stripe landed each byte first).
	Confirmed bool
	// Tail is how long the group spent between the frame source running
	// dry and the last stripe draining.
	Tail time.Duration
	// Duration is wall-clock time for the whole group.
	Duration time.Duration
}

// StripedTransfer delivers size bytes from src over len(routes) (or
// WithStripes(n)) concurrent stripe sessions and heals individual
// stripes through transient failures. With a StripePlanner attached
// (WithPlanner), the provided routes become a fallback: the planner
// proposes up to n edge-disjoint routes with predicted throughput
// weights, stripes map onto them cyclically, and every stripe's fate is
// fed back into the forecasts. Every route must name the same target.
//
// src must support concurrent ReadAt (frames are re-read on
// reassignment). The MD5 digest trailer is not used — integrity rides on
// per-frame offsets, TCP checksums, and the receiver's completeness
// check; pair with an end-to-end digest at a higher layer if required.
func StripedTransfer(ctx context.Context, routes []core.Route, src io.ReaderAt, size int64, opts ...Option) (*StripedResult, error) {
	if len(routes) == 0 {
		return nil, fmt.Errorf("resilience: striped transfer needs at least one route")
	}
	target := routes[0].Target
	for _, r := range routes {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if r.Target != target {
			return nil, fmt.Errorf("resilience: stripe routes disagree on target (%s vs %s)", r.Target, target)
		}
	}
	if size < 0 {
		return nil, fmt.Errorf("resilience: striped transfer needs a known size")
	}
	ps := begin("group", opts, target, size)
	met, logf := ps.met, ps.logf
	n := ps.stripes
	if n <= 0 {
		n = len(routes)
	}
	if n > stripe.MaxStripes {
		return nil, fmt.Errorf("resilience: %d stripes over limit %d", n, stripe.MaxStripes)
	}

	// Let the planner propose disjoint routes and weights; the caller's
	// routes remain the fallback when planning is unavailable.
	var weights []float64
	if sp, ok := ps.planner.(StripePlanner); ok {
		if pr, pw, perr := sp.PlanStripes(target, size, n); perr == nil && len(pr) > 0 {
			routes, weights = pr, pw
			logf("resilience: striped planner proposed %d disjoint routes for %d stripes", len(pr), n)
		} else if perr != nil {
			logf("resilience: striped planner unavailable (%v); using provided routes", perr)
		}
	}

	// Map stripes onto routes cyclically; stripes sharing a route split
	// its predicted weight.
	shares := make([]int, len(routes))
	for i := 0; i < n; i++ {
		shares[i%len(routes)]++
	}
	paths := make([]*path, n)
	dialSeconds := make([]float64, n) // guarded by ps.mu
	stripeWeights := make([]float64, n)
	for i := 0; i < n; i++ {
		paths[i] = ps.addPath(routes[i%len(routes)])
		w := 1.0
		if len(weights) > 0 && weights[i%len(weights)] > 0 {
			w = weights[i%len(weights)] / float64(shares[i%len(routes)])
		}
		stripeWeights[i] = w
	}

	res := &StripedResult{Group: ps.session, Stripes: n, Bytes: size}
	met.Groups.Inc()
	start := time.Now()

	type downEvent struct {
		idx int
		err error
	}
	// Each stripe can die at most once per attach and attach at most
	// MaxAttempts times, so the channel never blocks the scheduler.
	downCh := make(chan downEvent, n*(ps.pol.MaxAttempts+2))
	snd, err := stripe.NewSender(ps.session, src, size, n, stripe.SenderConfig{
		FrameSize:      ps.frameSize,
		Weights:        stripeWeights,
		RebalanceBytes: ps.rebalanceBytes,
		OnStripeDown:   func(i int, err error) { downCh <- downEvent{i, err} },
		Logf:           logf,
	})
	if err != nil {
		return nil, err
	}

	// abandon retires stripe idx for good; its share flows through the
	// survivors.
	abandon := func(idx int, err error) {
		if ctx.Err() == nil {
			ps.mu.Lock()
			res.Abandoned++
			ps.mu.Unlock()
			logf("resilience: %s stripe %d abandoned: %v", ps, idx, err)
		}
		snd.Abandon(idx, err)
	}

	// attach brings stripe idx up (initial attach or heal) within the
	// stripe's attempt budget, abandoning it when the heal loop gives up.
	// Every stripe session opens pipelined: the dial returns once the
	// first hop's transport is up, and the open header leaves coalesced
	// with the group header, the first frames right behind it. The Sender
	// owns the session from then on: its backward channel from accept to
	// unwind (a refusal is a stripe-down, a missing accept a wedge, a
	// channel that fails before the group is confirmed another
	// stripe-down; see stripe.Sender.Attach), and its close when the
	// stripe's generation ends.
	attach := func(idx int, heal bool) {
		err := paths[idx].run(ctx, func(r core.Route) error {
			c, err := core.Dial(ctx, r, core.WithSession(wire.NewSessionID()), core.WithEager(), core.WithDialer(ps.dial))
			if err != nil {
				return err
			}
			ps.mu.Lock()
			dialSeconds[idx] = c.DialDuration().Seconds()
			ps.mu.Unlock()
			return snd.Attach(idx, c)
		})
		if err != nil {
			abandon(idx, err)
		} else if heal {
			met.StripeHeals.Inc()
			ps.mu.Lock()
			res.Heals++
			ps.mu.Unlock()
			logf("resilience: %s stripe %d re-attached", ps, idx)
		}
	}

	runDone := make(chan error, 1)
	go func() { runDone <- snd.Run(ctx) }()

	// Sample each stripe's committed bytes into the queued-bytes gauge
	// while the group runs, and take this group's share back out on the
	// way, so a stuck gauge cannot outlive its group.
	if met.QueuedBytes != nil {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			q := queuedSampler{gauge: met.QueuedBytes, last: make([]int64, n)}
			defer q.sample(make([]int64, n))
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					q.sample(snd.Stats().QueuedBytes)
				case <-stop:
					return
				}
			}
		}()
		defer func() { close(stop); <-stopped }()
	}

	var healWG sync.WaitGroup
	spawn := func(idx int, heal bool) {
		healWG.Add(1)
		go func() {
			defer healWG.Done()
			attach(idx, heal)
		}()
	}
	for i := 0; i < n; i++ {
		spawn(i, false)
	}

	var runErr error
events:
	for {
		select {
		case ev := <-downCh:
			if paths[ev.idx].failed(ev.err) {
				abandon(ev.idx, ev.err)
			} else {
				spawn(ev.idx, true)
			}
		case runErr = <-runDone:
			break events
		}
	}
	healWG.Wait()

	// Fill in the result from the Sender's snapshot (Run has closed every
	// stripe), feed a delivered group's per-stripe fates to the planner,
	// and count the group's scheduling events and terminal outcome.
	st := snd.Stats()
	ps.mu.Lock()
	res.Replans = ps.failovers
	res.Rebalances = st.Rebalances
	res.FramesReassigned = st.Reassigned
	res.Superseded = int(st.Superseded)
	res.Confirmed = st.Confirmed
	res.Tail = st.Tail
	res.StripeBytes = st.Delivered
	res.Routes = make([]core.Route, n)
	res.Duration = time.Since(start)
	for i, p := range paths {
		res.Routes[i] = p.route
		if runErr == nil && ps.planner != nil && st.Delivered[i] > 0 {
			ps.planner.ObserveSuccess(p.route, st.Delivered[i], res.Duration.Seconds(), dialSeconds[i])
		}
	}
	ps.mu.Unlock()
	met.Rebalances.Add(uint64(res.Rebalances))
	met.FramesReassigned.Add(uint64(res.FramesReassigned))
	met.Transfers.With(outcomeOf(ctx, runErr)).Inc()
	if runErr != nil {
		return res, fmt.Errorf("resilience: %s: %w", ps, runErr)
	}
	if res.Confirmed {
		logf("resilience: %s confirmed by receiver ack", ps)
	}
	if res.Tail > 0 {
		met.Tail.Observe(float64(res.Tail.Nanoseconds()))
	}
	return res, nil
}

// queuedSampler mirrors one group's per-stripe committed bytes into the
// shared lsl_stripe_queued_bytes gauge. Groups that share a Metrics share
// its children, so each group adds only the change since its own last
// sample: the gauge reads the sum over the live groups.
type queuedSampler struct {
	gauge *metrics.GaugeVec
	last  []int64
}

// sample moves this group's share of the gauge to cur; sampling zeros
// takes the share out.
func (q *queuedSampler) sample(cur []int64) {
	for i, v := range cur {
		q.gauge.With(strconv.Itoa(i)).Add(v - q.last[i])
		q.last[i] = v
	}
}
