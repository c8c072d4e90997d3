package depot

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// holdTarget accepts connections, completes the session handshake, and
// then holds every connection open without reading payload or closing —
// a receiver that never lets the relay drain.
func holdTarget(t *testing.T) (addr string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				hdr, err := wire.ReadOpenHeader(nc)
				if err != nil {
					return
				}
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				<-hold
			}()
		}
	}()
	var once bool
	return ln.Addr().String(), func() {
		if !once {
			once = true
			close(hold)
			ln.Close()
		}
	}
}

// Close under load: relays mid-stream and a staged delivery mid-retry
// must not pin shutdown past the drain timeout — they are cancelled,
// recorded with the "canceled" outcome, and Close returns promptly.
func TestDepotCloseCancelsInFlightSessions(t *testing.T) {
	targetAddr, release := holdTarget(t)
	defer release()
	d, depotAddr := runDepot(t, Config{
		DrainTimeout:       200 * time.Millisecond,
		DialTimeout:        300 * time.Millisecond,
		StageRetryInterval: 100 * time.Millisecond,
		StageDeadline:      time.Hour, // only cancellation may stop the retries
	})

	// Two relay sessions mid-stream against a receiver that never drains.
	for i := 0; i < 2; i++ {
		nc := openThrough(t, depotAddr, targetAddr)
		defer nc.Close()
		if _, err := wire.ReadAcceptFrame(nc); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write([]byte("mid-stream payload")); err != nil {
			t.Fatal(err)
		}
	}

	// One staged session whose next hop is unreachable: the delivery
	// goroutine loops dial-fail -> backoff when Close arrives.
	payload := bytes.Repeat([]byte("stuck"), 1000)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: "127.0.0.1:1"},
		core.WithStaged(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	c.Close()
	waitStats(t, d, "custody", func(st Stats) bool { return st.Staged > 0 })
	if d.Stats().Staged != 1 {
		t.Fatalf("staged session never took custody: %+v", d.Stats())
	}

	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	elapsed := time.Since(start)
	// Drain timeout plus teardown slack; without cancellation the staged
	// retry loop alone would pin Close for the full stage deadline.
	if elapsed > 3*time.Second {
		t.Fatalf("Close took %v, want < 3s", elapsed)
	}

	st := d.Stats()
	if st.Canceled != 3 {
		t.Fatalf("canceled=%d, want 3 (2 relays + 1 staged): %+v", st.Canceled, st)
	}
	if st.Active != 0 {
		t.Fatalf("active=%d after Close", st.Active)
	}

	snap := d.Sessions()
	if len(snap.Live) != 0 {
		t.Fatalf("live sessions survived Close: %+v", snap.Live)
	}
	var canceledRelay, canceledStaged int
	for _, info := range snap.Recent {
		if info.Outcome != OutcomeCanceled {
			continue
		}
		switch info.Kind {
		case KindRelay:
			canceledRelay++
		case KindStaged:
			canceledStaged++
		}
	}
	if canceledRelay != 2 || canceledStaged != 1 {
		t.Fatalf("ring canceled outcomes: relay=%d staged=%d (recent: %+v)",
			canceledRelay, canceledStaged, snap.Recent)
	}

	// The metrics surface agrees with the ring.
	var buf bytes.Buffer
	if err := d.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("lsd_sessions_canceled_total 3")) {
		t.Fatalf("canceled counter missing from metrics:\n%s", buf.String())
	}
}

// A depot with nothing in flight must close instantly, well inside the
// drain timeout, and report no cancellations.
func TestDepotCloseIdleIsImmediate(t *testing.T) {
	d, _ := runDepot(t, Config{DrainTimeout: 10 * time.Second})
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle Close took %v", elapsed)
	}
	if got := d.Stats().Canceled; got != 0 {
		t.Fatalf("canceled=%d on idle close", got)
	}
	// Close is idempotent.
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestDepotStopCutsHandshakes: Close and Kill close what is still in its
// handshake at once instead of waiting out the handshake timeout — a
// silent connection, a trunk stream stopped inside its magic, and an
// upstream depot's ready spare parked on this depot. Each case parks its
// connection and then refuses junk behind it: the accept front takes
// connections off the listener and streams off a trunk in order, so once
// the junk is refused the parked one is in its handshake. What the stop
// cuts is not counted as a protocol rejection.
func TestDepotStopCutsHandshakes(t *testing.T) {
	const handshake = time.Minute
	for _, park := range []struct {
		name string
		park func(t *testing.T, addr string) (behind net.Conn)
	}{
		{"silent", func(t *testing.T, addr string) net.Conn {
			dialRaw(t, addr)
			return dialRaw(t, addr)
		}},
		{"trunk-magic", func(t *testing.T, addr string) net.Conn {
			link, err := mux.Client(dialRaw(t, addr), mux.LinkConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { link.Close() })
			var st [2]*mux.Stream
			for i := range st {
				if st[i], err = link.OpenStream(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st[0].Write(wire.MagicMux[:2]); err != nil {
				t.Fatal(err)
			}
			return st[1]
		}},
		{"spare", func(t *testing.T, addr string) net.Conn {
			target, got := startTarget(t)
			up, upAddr := runSpareDepot(t, Config{}, &spareDial{}, 0, time.Hour)
			payload := bytes.Repeat([]byte("spare"), 1000)
			sendDigestPayload(t, core.Route{Via: []string{upAddr, addr}, Target: target}, payload)
			expectPayload(t, got, payload)
			waitStats(t, up, "a spare parked on the next depot", func(st Stats) bool { return st.SparesFresh == 1 })
			return dialRaw(t, addr)
		}},
	} {
		for _, stop := range []struct {
			name string
			stop func(*Depot)
		}{
			{"Close", func(d *Depot) { d.Close() }},
			{"Kill", (*Depot).Kill},
		} {
			t.Run(park.name+"/"+stop.name, func(t *testing.T) {
				cfg := Config{}
				cfg.handshakeTimeout = handshake
				d, addr := runDepot(t, cfg)
				behind := park.park(t, addr)
				defer behind.Close()
				if _, err := behind.Write([]byte("junk")); err != nil {
					t.Fatal(err)
				}
				waitStats(t, d, "the junk refused", func(st Stats) bool { return st.RejectedProto == 1 })
				start := time.Now()
				stop.stop(d)
				if took := time.Since(start); took > handshake/10 {
					t.Fatalf("%s took %v with a connection in its handshake", stop.name, took)
				}
				if n := d.Stats().RejectedProto; n != 1 {
					t.Fatalf("%d proto rejections after %s, want the junk's 1: what it cut is no protocol fault", n, stop.name)
				}
			})
		}
	}
}

// dialRaw opens a connection to addr, closed when the test ends.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}
