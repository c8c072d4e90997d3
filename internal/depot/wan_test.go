package depot

import (
	"crypto/rand"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/emu"
	"lsl/internal/mux"
)

// raceEnabled is set when the tests run under the race detector, which
// slows the emulated paths' relays too much for a throughput bound.
var raceEnabled bool

// trunkListener is a target's transport listener that speaks only trunks:
// every accepted connection becomes a mux link, and its streams are what
// Accept returns, so a core.Listener on top takes sessions over trunks.
type trunkListener struct {
	net.Listener
	streams chan net.Conn
	done    chan struct{}

	mu    sync.Mutex
	links []*mux.Link
}

func newTrunkListener(t *testing.T) *trunkListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trunkListener{Listener: ln, streams: make(chan net.Conn), done: make(chan struct{})}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go tl.serve(nc)
		}
	}()
	return tl
}

func (tl *trunkListener) serve(nc net.Conn) {
	link, err := mux.Server(nc, mux.LinkConfig{})
	if err != nil {
		nc.Close()
		return
	}
	tl.mu.Lock()
	tl.links = append(tl.links, link)
	tl.mu.Unlock()
	for {
		st, err := link.AcceptStream()
		if err != nil {
			return
		}
		select {
		case tl.streams <- st:
		case <-tl.done:
			st.Close()
			return
		}
	}
}

func (tl *trunkListener) Accept() (net.Conn, error) {
	select {
	case st := <-tl.streams:
		return st, nil
	case <-tl.done:
		return nil, net.ErrClosed
	}
}

func (tl *trunkListener) Close() error {
	select {
	case <-tl.done:
		return nil
	default:
	}
	close(tl.done)
	err := tl.Listener.Close()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, l := range tl.links {
		l.Close()
	}
	return err
}

// windowHighWater is the largest receive window on the target's trunks.
func (tl *trunkListener) windowHighWater() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	high := 0
	for _, l := range tl.links {
		high = max(high, l.WindowHighWater())
	}
	return high
}

// TestTrunkWindowOpensOnWANSublinks: 16 MiB from an initiator through one
// depot to a target, every sublink a warm trunk over an emulated path of
// 15 ms each way at 250 Mbit/s. A fixed 256 KiB window caps a trunk stream
// at 256 KiB per 30 ms round trip, about 8.7 MB/s, whatever the path could
// carry; autotuned windows must move the session at least twice as fast,
// byte-exact, with the receive windows on both sublinks grown past 256 KiB.
func TestTrunkWindowOpensOnWANSublinks(t *testing.T) {
	const window, rtt = 256 << 10, 30 * time.Millisecond
	fixedCap := float64(window) / rtt.Seconds() // bytes/s a fixed window allows

	tl := newTrunkListener(t)
	t.Cleanup(func() { tl.Close() })
	target := core.NewListener(tl)
	got := make(chan []byte, 1)
	done := make(chan time.Time, 1)
	go func() {
		for {
			sc, err := target.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sc.Close()
				data, err := io.ReadAll(sc)
				done <- time.Now()
				if err == nil {
					got <- data
				}
			}()
		}
	}()
	d, depotAddr := startDepot(t, Config{Mux: true})
	shape := emu.Shape{Delay: rtt / 2, RateBps: 250e6}
	hops, proxies, err := emu.Chain([]string{depotAddr, tl.Addr().String()}, shape, shape)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // a proxy's Close waits for the trunks through it
		d.Close()
		tl.Close()
		for _, p := range proxies {
			p.Close()
		}
	})
	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	route := core.Route{Via: []string{hops[0]}, Target: hops[1]}

	// A first small session opens both trunks; the timed one rides them.
	warm := make([]byte, 4<<10)
	rand.Read(warm)
	sendDigestPayload(t, route, warm, core.WithDialer(pool.DialContext))
	<-done
	expectPayload(t, got, warm)

	payload := make([]byte, 16<<20)
	rand.Read(payload)
	start := time.Now()
	sendDigestPayload(t, route, payload, core.WithDialer(pool.DialContext))
	took := (<-done).Sub(start)
	expectPayload(t, got, payload)
	goodput := float64(len(payload)) / took.Seconds()
	t.Logf("16 MiB over two trunked 30 ms sublinks in %v: %.1f MB/s (fixed-window cap %.1f MB/s)", took, goodput/1e6, fixedCap/1e6)
	if !raceEnabled && goodput < 2*fixedCap {
		t.Errorf("trunk goodput %.1f MB/s, want at least twice the fixed-window cap of %.1f MB/s", goodput/1e6, fixedCap/1e6)
	}
	hw := tl.windowHighWater()
	t.Logf("the target's trunk granted windows up to %d KiB", hw>>10)
	if hw <= window {
		t.Errorf("the target's trunk windows stayed at %d bytes", hw)
	}
	// The depot samples its trunks' window high water as each stream opens
	// and closes: one more session shows what the first sublink grew to.
	sendDigestPayload(t, route, warm, core.WithDialer(pool.DialContext))
	<-done
	expectPayload(t, got, warm)
	if hw := d.acceptMetrics.WindowHighWater.Value(); hw <= int64(window) {
		t.Errorf("lsl_mux_window_high_water_bytes = %d on the depot, want past %d", hw, window)
	}
}
