package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"lsl/internal/backoff"
	"lsl/internal/core"
)

// pathSet is what the paths of one transfer share: the caller's options
// (planner, sinks), the policy with its defaults filled in, and the
// sibling routes a replan must avoid. A Transfer is a set of one path; a
// striped group has one path per stripe.
type pathSet struct {
	*config
	pol    Policy
	kind   string // "session" or "group", for log lines
	target string
	size   int64

	mu        sync.Mutex // guards every path's fields and failovers
	paths     []*path
	failovers int // replans plus dead first hops dropped, all paths
}

// path is the heal loop of one transport path: it decides what happens
// when an attempt on its route fails. Transfer drives one; StripedTransfer
// drives one per stripe, for initial attach and every heal alike.
type path struct {
	set           *pathSet
	index         int
	route         core.Route
	attempts      int // attempts charged to the budget so far
	firstHopFails int // consecutive dial failures at route.Via[0]
	rng           *rand.Rand
	lastErr       error
}

// String names the transfer in log lines and errors.
func (ps *pathSet) String() string { return ps.kind + " " + ps.session.String() }

// addPath appends a path starting on r, with its own jitter stream
// derived from the policy's seed.
func (ps *pathSet) addPath(r core.Route) *path {
	p := &path{
		set:   ps,
		index: len(ps.paths),
		route: r,
		rng:   rand.New(rand.NewSource(ps.pol.jitterSeed + int64(len(ps.paths))*7919)),
	}
	ps.paths = append(ps.paths, p)
	return p
}

// current returns the route the next attempt should dial.
func (p *path) current() core.Route {
	p.set.mu.Lock()
	defer p.set.mu.Unlock()
	return p.route
}

// run drives attempt over the path until it succeeds, fails permanently,
// spends the attempt budget, or ctx ends. The returned error is nil,
// permanent (see Permanent), the context's, or wraps ErrExhausted.
func (p *path) run(ctx context.Context, attempt func(core.Route) error) error {
	for {
		if err := p.next(ctx); err != nil {
			return err
		}
		err := attempt(p.current())
		if err == nil || ctx.Err() != nil || p.failed(err) {
			return err
		}
	}
}

// next admits one more attempt: it charges the budget and, from the
// second attempt on, sleeps the jittered backoff delay.
func (p *path) next(ctx context.Context) error {
	ps := p.set
	ps.mu.Lock()
	if p.attempts >= ps.pol.MaxAttempts {
		err := fmt.Errorf("%w after %d attempts: %w", ErrExhausted, p.attempts, p.lastErr)
		ps.mu.Unlock()
		return err
	}
	p.attempts++
	n := p.attempts
	ps.mu.Unlock()
	if n == 1 {
		return ctx.Err()
	}
	ps.met.Retries.Inc()
	return backoff.Sleep(ctx, ps.pol.backoff.Delay(n-1, p.rng))
}

// failed digests a failed attempt and reports whether the error is
// permanent. A transient failure is attributed to a hop (a dial error
// names the dead one; an in-session break poisons the whole route), fed
// to the planner, and answered by moving the path: onto the best planned
// candidate no sibling path holds, or — without a planner — past a first
// hop that refused failoverAfter dials in a row (the paper's loose source
// routes are advisory: the cascade degrades rather than dies).
func (p *path) failed(err error) bool {
	ps := p.set
	ps.mu.Lock()
	p.lastErr = err
	r := p.route
	ps.mu.Unlock()
	if Permanent(err) {
		return true
	}
	ps.logf("resilience: %s path %d attempt on %v failed: %v", ps, p.index, r.Hops(), err)
	hop := ""
	var de *core.DialError
	if errors.As(err, &de) {
		hop = de.Hop
	}
	var cand []core.Route
	if ps.planner != nil {
		ps.planner.ObserveFailure(r, hop)
		cand = ps.candidates()
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(p.route.Via) > 0 && hop == p.route.Via[0] {
		p.firstHopFails++
	} else {
		p.firstHopFails = 0
	}
	moved := false
	if len(cand) > 0 {
		held := make(map[string]bool)
		for _, o := range ps.paths {
			if o != p {
				held[routeKey(o.route)] = true
			}
		}
		next := cand[0]
		for _, c := range cand {
			if !held[routeKey(c)] {
				next = c
				break
			}
		}
		if routeKey(next) != routeKey(p.route) {
			p.route, moved = next, true
			ps.planner.RecordReplan()
		}
	} else if ps.planner == nil && ps.pol.failoverAfter > 0 && p.firstHopFails >= ps.pol.failoverAfter {
		p.route.Via, moved = p.route.Via[1:], true
	}
	if moved {
		p.firstHopFails = 0
		ps.failovers++
		ps.met.Failovers.Inc()
		ps.logf("resilience: %s path %d moved %v -> %v", ps, p.index, r.Hops(), p.route.Hops())
	}
	return false
}

func routeKey(r core.Route) string {
	return strings.Join(r.Via, ",") + "|" + r.Target
}

// candidates asks the planner for replacement routes, best first: the
// link-disjoint set when several paths share the transfer and the planner
// can propose one, the plain ranking otherwise. Planning failures are
// soft — the path then stays where it is.
func (ps *pathSet) candidates() []core.Route {
	if sp, ok := ps.planner.(StripePlanner); ok && len(ps.paths) > 1 {
		rs, _, _ := sp.PlanStripes(ps.target, ps.size, 0)
		return rs
	}
	rs, _ := ps.planner.PlanRoutes(ps.target, ps.size)
	return rs
}

// outcomeOf labels a finished transfer for lsl_transfers_total.
func outcomeOf(ctx context.Context, err error) string {
	switch {
	case err == nil:
		return OutcomeDelivered
	case ctx.Err() != nil:
		return OutcomeCanceled
	case Permanent(err):
		return OutcomeRejected
	}
	return OutcomeExhausted
}
