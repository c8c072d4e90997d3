package resilience

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/core"
)

// fakePlanner answers every plan with a fixed ranking and records what
// the heal loop fed back.
type fakePlanner struct {
	ranking []core.Route
	hops    []string // ObserveFailure's hop argument, per call
	replans int
}

func (f *fakePlanner) PlanRoutes(string, int64) ([]core.Route, error)     { return f.ranking, nil }
func (f *fakePlanner) ObserveSuccess(core.Route, int64, float64, float64) {}
func (f *fakePlanner) ObserveFailure(_ core.Route, hop string)            { f.hops = append(f.hops, hop) }
func (f *fakePlanner) RecordReplan()                                      { f.replans++ }

func via(hops ...string) core.Route { return core.Route{Via: hops, Target: "t:1"} }

func dialErr(hop string) error {
	return &core.DialError{Hop: hop, Err: errors.New("refused")}
}

// The shared heal loop, driven without sockets or sleeps: a scripted dial
// func stands in for the attempt, a fake planner for the forecasts, and
// the backoff is one nanosecond.
func TestPathHealLoop(t *testing.T) {
	errReset := errors.New("connection reset by peer")
	cases := []struct {
		name     string
		pol      Policy
		routes   []core.Route // path under test first, then its siblings
		ranking  []core.Route // nil: no planner
		script   []error      // result of each successive attempt
		cancelOn int          // cancel the context while digesting this attempt's failure

		wantErr      []error
		wantOutcome  string
		wantDialed   []core.Route
		wantAttempts int // budget charged; 0 means one per dial
		wantFailover int
		wantReplans  int
		wantHops     []string
	}{
		{
			name:        "permanent error stops at attempt 1",
			routes:      []core.Route{via("a:1")},
			script:      []error{core.ErrRejected, nil},
			wantErr:     []error{core.ErrRejected},
			wantOutcome: OutcomeRejected,
			wantDialed:  []core.Route{via("a:1")},
		},
		{
			name:        "budget spent wraps ErrExhausted with the last error",
			pol:         Policy{MaxAttempts: 3, failoverAfter: -1},
			routes:      []core.Route{via("a:1")},
			script:      []error{dialErr("a:1"), dialErr("a:1"), errReset, nil},
			wantErr:     []error{ErrExhausted, errReset},
			wantOutcome: OutcomeExhausted,
			wantDialed:  []core.Route{via("a:1"), via("a:1"), via("a:1")},
		},
		{
			name:        "first-hop dial failures drop Via[0]; other failures reset the count",
			pol:         Policy{failoverAfter: 2},
			routes:      []core.Route{via("a:1", "b:1")},
			script:      []error{dialErr("a:1"), errReset, dialErr("a:1"), dialErr("a:1"), nil},
			wantOutcome: OutcomeDelivered,
			wantDialed: []core.Route{
				via("a:1", "b:1"), via("a:1", "b:1"), via("a:1", "b:1"), via("a:1", "b:1"), via("b:1"),
			},
			wantFailover: 1,
		},
		{
			name:         "replan takes the best candidate no sibling holds",
			routes:       []core.Route{via("a:1"), via("b:1")},
			ranking:      []core.Route{via("b:1"), via("c:1"), via("d:1")},
			script:       []error{dialErr("a:1"), nil},
			wantOutcome:  OutcomeDelivered,
			wantDialed:   []core.Route{via("a:1"), via("c:1")},
			wantFailover: 1,
			wantReplans:  1,
			wantHops:     []string{"a:1"},
		},
		{
			name:        "cancel during backoff",
			pol:         Policy{backoff: backoff.Policy{Base: time.Hour, Max: time.Hour}},
			routes:      []core.Route{via("a:1")},
			script:      []error{errReset, nil},
			cancelOn:    1,
			wantErr:     []error{context.Canceled},
			wantOutcome: OutcomeCanceled,
			wantDialed:  []core.Route{via("a:1")},
			// The second attempt was admitted before its backoff was cut short.
			wantAttempts: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pol := tc.pol
			if pol.backoff.Base == 0 {
				pol.backoff = backoff.Policy{Base: 1, Max: 1}
			}
			pol.jitterSeed = 1
			var attempts int
			ps := &pathSet{config: &config{met: &Metrics{}}, pol: pol.withDefaults(), target: "t:1"}
			// failed logs once per transient failure, before it backs off.
			ps.logf = func(string, ...interface{}) {
				if attempts == tc.cancelOn {
					cancel()
				}
			}
			var pl *fakePlanner
			if tc.ranking != nil {
				pl = &fakePlanner{ranking: tc.ranking}
				ps.planner = pl
			}
			for _, r := range tc.routes {
				ps.addPath(r)
			}
			p := ps.paths[0]

			var dialed []core.Route
			err := p.run(ctx, func(r core.Route) error {
				dialed = append(dialed, r)
				attempts++
				return tc.script[attempts-1]
			})

			for _, want := range tc.wantErr {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %v", err, want)
				}
			}
			if got := outcomeOf(ctx, err); got != tc.wantOutcome {
				t.Errorf("outcome %q (err %v), want %q", got, err, tc.wantOutcome)
			}
			if !reflect.DeepEqual(dialed, tc.wantDialed) {
				t.Errorf("dialed %v, want %v", dialed, tc.wantDialed)
			}
			wantAttempts := tc.wantAttempts
			if wantAttempts == 0 {
				wantAttempts = len(tc.wantDialed)
			}
			if p.attempts != wantAttempts {
				t.Errorf("attempts charged %d, want %d", p.attempts, wantAttempts)
			}
			if ps.failovers != tc.wantFailover {
				t.Errorf("failovers %d, want %d", ps.failovers, tc.wantFailover)
			}
			if pl != nil {
				if pl.replans != tc.wantReplans {
					t.Errorf("RecordReplan called %d times, want %d", pl.replans, tc.wantReplans)
				}
				if !reflect.DeepEqual(pl.hops, tc.wantHops) {
					t.Errorf("ObserveFailure hops %v, want %v", pl.hops, tc.wantHops)
				}
			}
		})
	}
}
