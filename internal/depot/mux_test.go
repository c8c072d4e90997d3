package depot

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/rand"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
)

// startDepot runs a depot on loopback and tears it down with the test.
func startDepot(t *testing.T, cfg Config) (*Depot, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

// startTarget runs a session target that verifies digests and records
// received payloads.
func startTarget(t *testing.T) (string, chan []byte) {
	t.Helper()
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got := make(chan []byte, 16)
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go func(sc *core.ServerConn) {
				defer sc.Close()
				data, err := io.ReadAll(sc)
				if err != nil {
					return
				}
				got <- data
			}(sc)
		}
	}()
	return l.Addr().String(), got
}

func sendDigestPayload(t *testing.T, route core.Route, payload []byte, opts ...core.Option) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts = append([]core.Option{
		core.WithDigest(),
		core.WithContentLength(int64(len(payload))),
	}, opts...)
	c, err := core.Dial(ctx, route, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	// Confirm: the cascade unwinds with EOF once the target drained.
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("confirm drain: %v", err)
	}
}

func expectPayload(t *testing.T, got chan []byte, want []byte) {
	t.Helper()
	select {
	case data := <-got:
		if md5.Sum(data) != md5.Sum(want) {
			t.Fatalf("payload corrupted: got %d bytes, want %d", len(data), len(want))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("target never received the payload")
	}
}

// TestMuxedCascadeEndToEnd sends a digest-verified payload through two
// mux-enabled depots over warm trunks, twice, and checks the second
// session reused the trunks instead of dialing.
func TestMuxedCascadeEndToEnd(t *testing.T) {
	targetAddr, got := startTarget(t)
	d2, addr2 := startDepot(t, Config{Mux: true})
	d1, addr1 := startDepot(t, Config{Mux: true})

	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	route := core.Route{Via: []string{addr1, addr2}, Target: targetAddr}

	payload := make([]byte, 512<<10)
	rand.Read(payload)
	for i := 0; i < 2; i++ {
		sendDigestPayload(t, route, payload, core.WithDialer(pool.DialContext))
		expectPayload(t, got, payload)
	}

	// Registry recorded the muxed sessions with normal outcomes. Session
	// teardown at the depot trails the client's confirm drain; the ring
	// entry is written before the counter.
	ringCompleted := func() int {
		n := 0
		for _, s := range d1.Sessions().Recent {
			if s.Outcome == OutcomeCompleted {
				n++
			}
		}
		return n
	}
	waitStats(t, d1, "two completions", func(st Stats) bool { return st.Completed >= 2 })
	if n := ringCompleted(); n != 2 {
		t.Errorf("depot1 ring has %d completed sessions, want 2", n)
	}
	if got := d1.Stats().Completed; got != 2 {
		t.Fatalf("depot1 completed %d sessions, want 2", got)
	}
	// Both depots ran their sessions over trunks: the first depot saw an
	// accept-side trunk from the initiator and opened a dial-side trunk
	// to the second.
	if v := d1.linkOpened.With("accept").Value(); v != 1 {
		t.Errorf("depot1 accept-side trunks = %d, want 1", v)
	}
	if v := d1.linkOpened.With("dial").Value(); v != 1 {
		t.Errorf("depot1 dial-side trunks = %d, want 1", v)
	}
	if v := d1.linkReused.With("dial").Value(); v != 1 {
		t.Errorf("depot1 dial-side reuses = %d, want 1 (second session)", v)
	}
	// The target serves trunks too: depot2 carried both sessions to it on
	// one.
	if v := d2.linkOpened.With("dial").Value(); v != 1 {
		t.Errorf("depot2 opened %d trunks to the target, want 1", v)
	}
}

// TestMixedFleetInterop is the acceptance scenario: a mux client
// completes digest-verified transfers through a depot running WITHOUT
// mux, then a mux depot, to a target. The depot without mux dials its
// next hop classically, but it serves the client's trunk like any depot,
// and no dial waits out a probe timeout.
func TestMixedFleetInterop(t *testing.T) {
	targetAddr, got := startTarget(t)
	_, addr2 := startDepot(t, Config{Mux: true})
	d1, addr1 := startDepot(t, Config{}) // classic depot: no mux

	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	route := core.Route{Via: []string{addr1, addr2}, Target: targetAddr}

	payload := make([]byte, 256<<10)
	rand.Read(payload)
	start := time.Now()
	for i := 0; i < 2; i++ {
		sendDigestPayload(t, route, payload, core.WithDialer(pool.DialContext))
		expectPayload(t, got, payload)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("mixed-fleet transfers took %v: a trunk probe waited out its timeout", took)
	}
	if pool.Links() != 1 {
		t.Fatalf("client holds %d trunks to the depot without mux, want 1", pool.Links())
	}
	if o, r := d1.linkOpened.With("accept").Value(), d1.linkReused.With("accept").Value(); o != 1 || r != 1 {
		t.Fatalf("the depot without mux accepted %d trunks and reused them %d times, want 1 and 1", o, r)
	}
	// Session teardown at the depot trails the client's confirm drain.
	waitStats(t, d1, "two completions", func(st Stats) bool { return st.Completed >= 2 })
	if gotN := d1.Stats().Completed; gotN != 2 {
		t.Fatalf("classic depot completed %d sessions, want 2", gotN)
	}
}

// TestMuxDepotServesClassicClients checks the reverse direction of the
// mixed fleet: an old client with no mux support dials a mux-enabled
// depot with an ordinary per-session connection.
func TestMuxDepotServesClassicClients(t *testing.T) {
	targetAddr, got := startTarget(t)
	_, addr1 := startDepot(t, Config{Mux: true})

	payload := make([]byte, 64<<10)
	rand.Read(payload)
	route := core.Route{Via: []string{addr1}, Target: targetAddr}
	start := time.Now()
	sendDigestPayload(t, route, payload) // no trunk pool: classic dialing
	expectPayload(t, got, payload)
	// The depot dials the target on a trunk, which the target serves.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("transfer took %v: the depot's trunk probe waited out its timeout", took)
	}
}

// TestMuxDepotDrainsTrunksOnClose opens a trunk, finishes its sessions,
// and checks Close returns promptly (the idle accept-side link must not
// pin the drain).
func TestMuxDepotDrainsTrunksOnClose(t *testing.T) {
	targetAddr, got := startTarget(t)
	d1, addr1 := startDepot(t, Config{Mux: true, DrainTimeout: 5 * time.Second})

	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	payload := []byte("drain me")
	route := core.Route{Via: []string{addr1}, Target: targetAddr}
	sendDigestPayload(t, route, payload, core.WithDialer(pool.DialContext))
	expectPayload(t, got, payload)

	start := time.Now()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Close took %v with only an idle trunk open", elapsed)
	}
}
