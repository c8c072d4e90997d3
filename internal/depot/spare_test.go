package depot

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// spareDial is a Config.Dial whose first call connects at once and whose
// later calls run then (nil: connect at once too). Every hop is slow to a
// depot from runSpareDepot, so each of its dials after a session's first
// is a background refill unless the test says otherwise.
type spareDial struct {
	calls atomic.Int32
	then  func(ctx context.Context, call int32, addr string) (net.Conn, error)
}

func (s *spareDial) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	call := s.calls.Add(1)
	if call == 1 || s.then == nil {
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	return s.then(ctx, call, addr)
}

// runSpareDepot is runDepot dialing through sd, with the spare seams set
// before Serve: every hop is slow from its first connect (any connect
// takes a nanosecond, and one slow connect is a run) unless slow says
// otherwise, and ttl replaces the TTL unless zero.
func runSpareDepot(t *testing.T, cfg Config, sd *spareDial, slow, ttl time.Duration) (*Depot, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dial = sd.dial
	d := New(cfg)
	d.spares.slow = max(slow, time.Nanosecond)
	d.spares.slowRun = 1
	if ttl != 0 {
		d.spares.ttl = ttl
	}
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

// sendThrough pushes one verified session through the depot at depotAddr
// to target.
func sendThrough(t *testing.T, depotAddr, target string, got chan []byte) {
	t.Helper()
	payload := bytes.Repeat([]byte("spare"), 1000)
	sendDigestPayload(t, core.Route{Via: []string{depotAddr}, Target: target}, payload)
	expectPayload(t, got, payload)
}

// eofWatch is a listener that reports each connection it accepts once
// the peer has closed it without sending a byte.
func eofWatch(t *testing.T) (addr string, closed chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	closed = make(chan struct{}, 4) // a test parks at most two spares here
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if n, err := nc.Read(make([]byte, 1)); n == 0 && err == io.EOF {
					closed <- struct{}{}
				}
			}()
		}
	}()
	return ln.Addr().String(), closed
}

func awaitClosed(t *testing.T, closed chan struct{}, what string) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s was never closed", what)
	}
}

func dialPlain(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// TestSpareSecondSessionTakesIt: a slow hop's first session connects and
// starts a background dial; the session finishes while that dial is
// still blocked (it runs off the session path); once it lands, the
// second session takes the spare and makes no dial of its own, since
// every dial after the first blocks until the test releases it.
func TestSpareSecondSessionTakesIt(t *testing.T) {
	target, got := startTarget(t)
	entered := make(chan int32, 2) // the refill after each of the two sessions
	release := make(chan struct{})
	sd := &spareDial{then: func(ctx context.Context, call int32, addr string) (net.Conn, error) {
		entered <- call
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return dialPlain(ctx, addr)
	}}
	d, addr := runSpareDepot(t, Config{}, sd, 0, 0)

	sendThrough(t, addr, target, got)
	waitStats(t, d, "first session", func(st Stats) bool { return st.Completed == 1 })
	if call := <-entered; call != 2 {
		t.Fatalf("dial %d blocked, want the refill (2)", call)
	}
	if st := d.Stats(); st.SparesFresh != 0 || st.SparesTaken != 0 {
		t.Fatalf("spares before the refill landed: %+v", st)
	}
	release <- struct{}{}
	waitStats(t, d, "a spare", func(st Stats) bool { return st.SparesFresh == 1 })

	sendThrough(t, addr, target, got)
	waitStats(t, d, "second session", func(st Stats) bool { return st.Completed == 2 })
	if st := d.Stats(); st.SparesTaken != 1 || st.DialFailures != 0 || st.SparesFailed != 0 {
		t.Fatalf("second session: %+v, want one spare taken", st)
	}
	if call := <-entered; call != 3 {
		t.Fatalf("dial %d after the take, want its refill (3)", call)
	}
	_, exposition := adminGET(t, AdminHandler(d), "/metrics")
	for result, want := range map[string]float64{"taken": 1, "fresh": 1, "expired": 0, "dead": 0, "failed": 0} {
		if got := metricValue(t, exposition, `lsl_depot_next_hop_spares_total{result="`+result+`"}`); got != want {
			t.Errorf("spares{%s} = %v, want %v", result, got, want)
		}
	}
}

// TestSpareSlowAfterTwoSlowConnects: one slow connect — a scheduler
// stall on a fast hop looks like one — starts no refill; a fast connect
// ends the run; the second slow connect in a row starts one, unless the
// first one's run expired before it.
func TestSpareSlowAfterTwoSlowConnects(t *testing.T) {
	watch, _ := eofWatch(t)
	sd := &spareDial{}
	d := New(Config{Dial: sd.dial})
	defer d.Close()
	p := d.spares
	refilling := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		h := p.hops[watch]
		return h != nil && h.dialing+len(h.idle) > 0
	}
	ctx := context.Background()
	for i, slow := range []time.Duration{time.Nanosecond, time.Hour, time.Nanosecond, time.Nanosecond} {
		p.slow = slow // no refill runs yet to read it
		nc, err := p.dial(ctx, watch)
		if err != nil {
			t.Fatal(err)
		}
		nc.Close()
		if got, want := refilling(), i == 3; got != want {
			t.Fatalf("connect %d (threshold %v): refilling %v, want %v", i+1, slow, got, want)
		}
	}
	waitStats(t, d, "a spare", func(st Stats) bool { return st.SparesFresh == 1 })
	if n := sd.calls.Load(); n != 5 {
		t.Fatalf("%d dials, want four sessions and one refill", n)
	}

	// A run that stops short of two expires with the TTL: the hop is
	// forgotten, and the next slow connect starts a new run, no refill.
	sd = &spareDial{}
	d = New(Config{Dial: sd.dial})
	defer d.Close()
	p = d.spares
	p.slow, p.ttl = time.Nanosecond, time.Millisecond
	hops := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.hops)
	}
	for i := 0; i < 2; i++ {
		nc, err := p.dial(ctx, watch)
		if err != nil {
			t.Fatal(err)
		}
		nc.Close()
		for deadline := time.Now().Add(5 * time.Second); hops() > 0; {
			if time.Now().After(deadline) {
				t.Fatalf("slow connect %d: hop still remembered 5 s after its run's 1 ms TTL", i+1)
			}
			time.Sleep(time.Millisecond) // waits out the run's 1 ms TTL timer
		}
	}
	d.Close() // waits for any refill
	if n := sd.calls.Load(); n != 2 {
		t.Fatalf("%d dials, want two sessions and no refill", n)
	}
}

// TestSpareNeverOnFastHop: a hop whose connects take less than the
// threshold keeps no spare, so every session dials once and no more.
func TestSpareNeverOnFastHop(t *testing.T) {
	target, got := startTarget(t)
	sd := &spareDial{}
	d, addr := runSpareDepot(t, Config{}, sd, time.Hour, 0)
	for i := 0; i < 3; i++ {
		sendThrough(t, addr, target, got)
	}
	waitStats(t, d, "three sessions", func(st Stats) bool { return st.Completed == 3 })
	if n := sd.calls.Load(); n != 3 {
		t.Fatalf("%d dials for 3 sessions", n)
	}
	st := d.Stats()
	if st.SparesTaken+st.SparesFresh+st.SparesExpired+st.SparesDead+st.SparesFailed != 0 {
		t.Fatalf("spare counters on a fast hop: %+v", st)
	}
	d.spares.mu.Lock()
	defer d.spares.mu.Unlock()
	if len(d.spares.hops) != 0 {
		t.Fatalf("fast hop remembered: %v", d.spares.hops)
	}
}

// TestSpareDeadIsDiscarded: the refill's connection is closed by its
// peer before the next session comes (the dialer returns it only once
// its EOF has arrived). The session discards it and dials fresh.
func TestSpareDeadIsDiscarded(t *testing.T) {
	target, got := startTarget(t)
	closer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	go func() {
		for {
			nc, err := closer.Accept()
			if err != nil {
				return
			}
			nc.Close()
		}
	}()
	sd := &spareDial{then: func(ctx context.Context, call int32, addr string) (net.Conn, error) {
		if call != 2 {
			return dialPlain(ctx, addr)
		}
		nc, err := dialPlain(ctx, closer.Addr().String())
		if err != nil {
			return nil, err
		}
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("closed spare read %d, %v", n, err)
		}
		return nc, nil
	}}
	d, addr := runSpareDepot(t, Config{}, sd, 0, 0)
	sendThrough(t, addr, target, got)
	waitStats(t, d, "a spare", func(st Stats) bool { return st.SparesFresh == 1 })
	sendThrough(t, addr, target, got)
	waitStats(t, d, "second session", func(st Stats) bool { return st.Completed == 2 })
	if st := d.Stats(); st.SparesDead != 1 || st.SparesTaken != 0 || st.DialFailures != 0 {
		t.Fatalf("after a dead spare: %+v, want it discarded and a fresh dial", st)
	}
}

// TestSpareExpiresUnused: a spare nobody takes within the TTL is closed.
func TestSpareExpiresUnused(t *testing.T) {
	target, got := startTarget(t)
	watch, closed := eofWatch(t)
	sd := &spareDial{then: func(ctx context.Context, _ int32, _ string) (net.Conn, error) {
		return dialPlain(ctx, watch)
	}}
	d, addr := runSpareDepot(t, Config{}, sd, 0, time.Nanosecond)
	sendThrough(t, addr, target, got)
	waitStats(t, d, "an expiry", func(st Stats) bool { return st.SparesExpired == 1 })
	awaitClosed(t, closed, "the expired spare")
	if st := d.Stats(); st.SparesTaken != 0 || st.SparesFresh != 1 {
		t.Fatalf("after an expiry: %+v", st)
	}
	d.spares.mu.Lock()
	defer d.spares.mu.Unlock()
	if len(d.spares.hops) != 0 {
		t.Fatalf("idle hop still remembered after its spare expired: %v", d.spares.hops)
	}
}

// TestSpareShutdown: Close and Kill close an idle spare, and cancel a
// refill blocked in Dial and wait for it. The blocked dial connects
// anyway once cancelled, so the depot must close what it returns.
func TestSpareShutdown(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blocked bool
		stop    func(*Depot)
	}{
		{"CloseIdle", false, func(d *Depot) { d.Close() }},
		{"KillIdle", false, (*Depot).Kill},
		{"CloseDialing", true, func(d *Depot) { d.Close() }},
		{"KillDialing", true, (*Depot).Kill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target, got := startTarget(t)
			watch, closed := eofWatch(t)
			entered, returned := make(chan struct{}), make(chan struct{})
			sd := &spareDial{then: func(ctx context.Context, _ int32, _ string) (net.Conn, error) {
				if tc.blocked {
					close(entered)
					<-ctx.Done()
					defer close(returned)
				}
				return dialPlain(context.Background(), watch)
			}}
			// Only the stop may close the spare.
			d, addr := runSpareDepot(t, Config{}, sd, 0, time.Hour)
			sendThrough(t, addr, target, got)
			if tc.blocked {
				<-entered
			} else {
				waitStats(t, d, "a spare", func(st Stats) bool { return st.SparesFresh == 1 })
			}
			tc.stop(d)
			if tc.blocked {
				select {
				case <-returned:
				default:
					t.Fatal("stop returned while the refill was still in Dial")
				}
			}
			awaitClosed(t, closed, "the spare")
			if st := d.Stats(); st.SparesFailed != 0 || st.SparesTaken != 0 {
				t.Fatalf("after stop: %+v", st)
			}
		})
	}
}

// TestSpareNotForGossipOrTrunks: the gossip dialer neither takes nor
// refills a spare, and a Mux depot's pool neither keeps nor uses one.
func TestSpareNotForGossipOrTrunks(t *testing.T) {
	t.Run("gossip", func(t *testing.T) {
		target, got := startTarget(t)
		sd := &spareDial{}
		d, addr := runSpareDepot(t, Config{}, sd, 0, 0)
		sendThrough(t, addr, target, got)
		waitStats(t, d, "a spare", func(st Stats) bool { return st.SparesFresh == 1 })
		nc, err := d.Dialer()(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		nc.Close()
		if n := sd.calls.Load(); n != 3 {
			t.Fatalf("%d dials, want session + refill + gossip", n)
		}
		d.spares.mu.Lock()
		idle := len(d.spares.hops[target].idle)
		d.spares.mu.Unlock()
		if st := d.Stats(); st.SparesTaken != 0 || idle != 1 {
			t.Fatalf("gossip touched the spare: %+v, %d idle", st, idle)
		}
	})
	t.Run("trunks", func(t *testing.T) {
		target, got := startTarget(t)
		sd := &spareDial{}
		d, addr := runSpareDepot(t, Config{Mux: true}, sd, 0, 0)
		for i := 0; i < 2; i++ {
			sendThrough(t, addr, target, got)
		}
		waitStats(t, d, "two sessions", func(st Stats) bool { return st.Completed == 2 })
		st := d.Stats()
		if st.SparesTaken+st.SparesFresh+st.SparesExpired+st.SparesDead+st.SparesFailed != 0 {
			t.Fatalf("spare counters on a Mux depot: %+v", st)
		}
		d.spares.mu.Lock()
		defer d.spares.mu.Unlock()
		if len(d.spares.hops) != 0 {
			t.Fatalf("Mux depot remembered hops: %v", d.spares.hops)
		}
	})
}

// TestSessionClockStartsAtFirstByte: a connection that idles before its
// header (an upstream depot's spare) is not billed for the wait. The
// empty write returns only once the accept front is reading, so the
// session would have started before sent if the clock ran from accept.
func TestSessionClockStartsAtFirstByte(t *testing.T) {
	d := New(Config{Dial: func(context.Context, string, string) (net.Conn, error) {
		return nil, errors.New("no next hop")
	}})
	defer d.Close()
	c, s := net.Pipe()
	defer c.Close()
	go d.Serve(newListenOnce(s))
	if _, err := c.Write(nil); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	enc, err := (&wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      []string{"depot:1", "target:1"},
		ContentLen: wire.UnknownLength,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadAcceptFrame(c); err != nil {
		t.Fatal(err)
	}
	recent := d.Sessions().Recent
	if len(recent) != 1 || recent[0].Outcome != OutcomeDialFailed {
		t.Fatalf("recent = %+v, want one dial-failed session", recent)
	}
	if recent[0].Started.Before(sent) {
		t.Fatalf("session started %v before its header was sent", sent.Sub(recent[0].Started))
	}
}
