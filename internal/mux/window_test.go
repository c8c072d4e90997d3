package mux

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

// tunedScript is an accept-side link on a fake clock that the test feeds
// one frame at a time, with no read loop: the test decides what arrives
// when, and reads the WINDOW grants the link sends back.
type tunedScript struct {
	t       *testing.T
	l       *Link
	in, out bytes.Buffer
	frame   []byte // encoding scratch
	buf     []byte // read scratch
	now     time.Time
}

// scriptPeer is the conn under a tunedScript.
type scriptPeer struct {
	net.Conn // nil: a link calls only the methods below
	ts       *tunedScript
}

func (c scriptPeer) Read(p []byte) (int, error)       { return c.ts.in.Read(p) }
func (c scriptPeer) Write(p []byte) (int, error)      { return c.ts.out.Write(p) }
func (c scriptPeer) Close() error                     { return nil }
func (c scriptPeer) SetWriteDeadline(time.Time) error { return nil }

func newTunedScript(t *testing.T) *tunedScript {
	ts := &tunedScript{t: t, now: time.Unix(1000, 0), buf: make([]byte, maxStreamWindow)}
	cfg := LinkConfig{}.withDefaults()
	ts.l = newLink(scriptPeer{ts: ts}, cfg, false, uint32(cfg.window))
	ts.l.now = func() time.Time { return ts.now }
	return ts
}

// feed hands one frame to the link's read path.
func (ts *tunedScript) feed(typ uint8, id uint32, payload []byte) {
	ts.t.Helper()
	ts.frame = wire.AppendMuxFrame(ts.frame[:0], typ, id, payload)
	ts.in.Write(ts.frame)
	if err := ts.l.readFrame(); err != nil {
		ts.t.Fatal(err)
	}
}

// open has the peer open stream id.
func (ts *tunedScript) open(id uint32) *Stream {
	ts.feed(wire.MuxOpen, id, nil)
	return <-ts.l.accepts
}

// send has the peer send n bytes on s in full DATA frames, all arriving at
// the current instant.
func (ts *tunedScript) send(s *Stream, n int) {
	ts.t.Helper()
	for n > 0 {
		k := min(n, wire.MaxMuxPayload)
		ts.feed(wire.MuxData, s.id, pattern(int(s.id), k))
		n -= k
	}
}

// drain reads everything s holds in one Read, so the grant that goes out
// finds the buffer empty.
func (ts *tunedScript) drain(s *Stream) {
	ts.t.Helper()
	if _, err := s.Read(ts.buf); err != nil {
		ts.t.Fatal(err)
	}
	if s.buffered != 0 {
		ts.t.Fatalf("stream %d still buffers %d bytes", s.id, s.buffered)
	}
}

// round has the peer send s a full window and the reader drain it at
// once: a window-limited stream whose reader keeps up.
func (ts *tunedScript) round(s *Stream) {
	ts.t.Helper()
	ts.send(s, rxWindowOf(s))
	ts.drain(s)
}

func (ts *tunedScript) advance(d time.Duration) { ts.now = ts.now.Add(d) }

// granted sums the WINDOW credit the link has sent on stream id.
func (ts *tunedScript) granted(id uint32) int {
	ts.t.Helper()
	r := bytes.NewReader(ts.out.Bytes())
	total := 0
	for {
		f, err := wire.ReadMuxFrame(r)
		if err == io.EOF {
			return total
		}
		if err != nil {
			ts.t.Fatal(err)
		}
		if f.Type == wire.MuxWindow && f.Stream == id {
			total += int(f.Credit)
		}
	}
}

const initialWindow = 256 << 10

// crossStamp has the peer send s just enough to pass the credit limit of
// its newest grant stamp by one byte.
func (ts *tunedScript) crossStamp(s *Stream) {
	ts.t.Helper()
	s.mu.Lock()
	w := &s.rx
	n := w.stamps[(w.first+w.n-1)%grantStamps].limit - w.rcvd + 1
	s.mu.Unlock()
	ts.send(s, n)
}

// TestWindowRTTClock: a grant's stamp becomes a round-trip sample only
// when data beyond the limit it replaced arrives — data inside it may have
// left before the grant reached the peer — and the link keeps the smallest
// sample.
func TestWindowRTTClock(t *testing.T) {
	ts := newTunedScript(t)
	s := ts.open(1)
	ts.send(s, initialWindow/2)
	ts.drain(s) // a grant at t0, replacing the limit at 256 KiB
	ts.advance(4 * time.Millisecond)
	ts.send(s, initialWindow/2-1) // up to the old limit, less a byte
	if rtt := ts.l.rtt.Load(); rtt != 0 {
		t.Fatalf("data inside the replaced limit gave a sample of %v", time.Duration(rtt))
	}
	ts.advance(3 * time.Millisecond)
	ts.send(s, 2) // past the old limit at t0+7ms
	if rtt := time.Duration(ts.l.rtt.Load()); rtt != 7*time.Millisecond {
		t.Fatalf("round trip = %v, want 7ms", rtt)
	}
	for _, c := range []struct{ sample, want time.Duration }{
		{2 * time.Millisecond, 2 * time.Millisecond},
		{9 * time.Millisecond, 2 * time.Millisecond}, // the minimum stays
	} {
		ts.drain(s)
		ts.advance(c.sample)
		ts.crossStamp(s)
		if rtt := time.Duration(ts.l.rtt.Load()); rtt != c.want {
			t.Fatalf("round trip = %v after a %v sample, want %v", rtt, c.sample, c.want)
		}
	}
	// A second stream inherits the link's round trip before it has a
	// sample of its own: its first full window, drained at once, doubles it.
	s2 := ts.open(3)
	ts.round(s2)
	if w := rxWindowOf(s2); w != 2*initialWindow {
		t.Fatalf("a new stream's first full window left it at %d bytes, want %d", w, 2*initialWindow)
	}
}

// TestWindowGrowthRule: the window doubles per round trip while the
// stream is window-limited and the reader keeps up, up to the stream cap;
// the growth goes out as credit on top of the bytes consumed. It does not
// grow when the reader falls behind or when the data trickles in.
func TestWindowGrowthRule(t *testing.T) {
	const rtt = 10 * time.Millisecond
	warm := func(t *testing.T) (*tunedScript, *Stream) {
		ts := newTunedScript(t)
		s := ts.open(1)
		ts.send(s, initialWindow)
		if _, err := s.Read(ts.buf[:1]); err != nil {
			t.Fatal(err)
		}
		ts.drain(s) // the first grant: stamped, no round trip known yet, no growth
		ts.advance(rtt)
		return ts, s
	}
	t.Run("window-limited", func(t *testing.T) {
		ts, s := warm(t)
		var sizes []int
		for i := 0; i < 6; i++ {
			ts.round(s)
			sizes = append(sizes, rxWindowOf(s))
			ts.advance(rtt)
		}
		want := []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 4 << 20, 4 << 20}
		if fmt.Sprint(sizes) != fmt.Sprint(want) {
			t.Fatalf("windows after each round = %v, want %v", sizes, want)
		}
		// The peer's limit is the initial window plus every grant: what it
		// has sent plus a full window, nothing owed.
		if limit := initialWindow + ts.granted(s.id); limit != s.rx.rcvd+maxStreamWindow {
			t.Fatalf("peer may send up to byte %d, want %d (received %d + a %d-byte window)",
				limit, s.rx.rcvd+maxStreamWindow, s.rx.rcvd, maxStreamWindow)
		}
		if hw := ts.l.WindowHighWater(); hw != maxStreamWindow {
			t.Fatalf("window high water = %d, want %d", hw, maxStreamWindow)
		}
	})
	t.Run("reader behind", func(t *testing.T) {
		ts, s := warm(t)
		for i := 0; i < 4; i++ {
			ts.send(s, initialWindow) // a full window at once: window-limited
			if _, err := s.Read(ts.buf[:initialWindow/2]); err != nil {
				t.Fatal(err) // a grant with half the window still buffered
			}
			ts.advance(2 * rtt) // the rest is read later than a round trip
			ts.drain(s)
		}
		if w := rxWindowOf(s); w != initialWindow {
			t.Fatalf("a reader slower than the link grew the window to %d", w)
		}
	})
	t.Run("trickle", func(t *testing.T) {
		ts, s := warm(t)
		for i := 0; i < 16; i++ {
			ts.send(s, initialWindow/4) // a quarter window per 1.5 round trips
			ts.drain(s)
			ts.advance(rtt * 3 / 2)
		}
		if w := rxWindowOf(s); w != initialWindow {
			t.Fatalf("data arriving slower than half a window per round trip grew the window to %d", w)
		}
	})
	t.Run("fixed peer", func(t *testing.T) {
		ts := newTunedScript(t)
		ts.l.cfg.maxWindow = ts.l.cfg.window
		s := ts.open(1)
		for i := 0; i < 4; i++ {
			ts.round(s)
			ts.advance(rtt)
		}
		if w := rxWindowOf(s); w != initialWindow {
			t.Fatalf("a link pinned to its initial window grew a stream to %d", w)
		}
	})
}

// grownSum is the sum of the grown parts of streams' windows.
func grownSum(streams []*Stream) int {
	n := 0
	for _, s := range streams {
		if s != nil {
			n += rxWindowOf(s) - initialWindow
		}
	}
	return n
}

// TestWindowLinkBudget: 64 window-limited streams with readers that keep
// up, on one link. Together their windows may grow by linkWindowBudget
// and no more; a stream that meets the budget keeps its window, and the
// budget comes back when a grown stream closes.
func TestWindowLinkBudget(t *testing.T) {
	ts := newTunedScript(t)
	streams := make([]*Stream, 64)
	for i := range streams {
		streams[i] = ts.open(uint32(2*i + 1))
		ts.round(streams[i]) // stamps the first grant; no round trip known yet
	}
	check := func(when string) {
		t.Helper()
		if sum, grown := grownSum(streams), ts.l.grown.Load(); int64(sum) != grown || grown > linkWindowBudget {
			t.Fatalf("%s: windows grew by %d bytes, link accounts %d, budget %d", when, sum, grown, linkWindowBudget)
		}
	}
	for r := 0; r < 3; r++ {
		ts.advance(10 * time.Millisecond)
		for _, s := range streams {
			ts.round(s)
			check(fmt.Sprintf("round %d, stream %d", r, s.id))
		}
	}
	// 64 doublings from 256 KiB spend the budget exactly; after that no
	// stream grows and none shrinks.
	for _, s := range streams {
		if w := rxWindowOf(s); w != 2*initialWindow {
			t.Fatalf("stream %d window = %d, want %d", s.id, w, 2*initialWindow)
		}
	}
	if ts.l.grown.Load() != linkWindowBudget {
		t.Fatalf("link accounts %d grown bytes, want the whole budget", ts.l.grown.Load())
	}
	// Two closed streams give back 512 KiB: room for one more doubling.
	for _, i := range []int{0, 1} {
		streams[i].Close()
		streams[i] = nil
	}
	check("after two closes")
	ts.advance(10 * time.Millisecond)
	for _, s := range streams[2:] {
		ts.round(s)
		check(fmt.Sprintf("last round, stream %d", s.id))
	}
	if w := rxWindowOf(streams[2]); w != 4*initialWindow {
		t.Fatalf("the first stream to ask after the closes has %d bytes, want %d", w, 4*initialWindow)
	}
	for _, s := range streams[3:] {
		if w := rxWindowOf(s); w != 2*initialWindow {
			t.Fatalf("stream %d window = %d past the budget, want %d kept", s.id, w, 2*initialWindow)
		}
	}
}

// TestWindowGrowsOverDelayedLink: one stream over a trunk whose every
// direction is 5 ms long, with a reader that keeps up. 256 KiB per 10 ms
// round trip is all a fixed window allows; the window must grow past it,
// and the payload arrive byte-exact.
func TestWindowGrowsOverDelayedLink(t *testing.T) {
	client, srv := linkPairVia(t, LinkConfig{}, LinkConfig{}, 5*time.Millisecond)
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	payload := pattern(5, 8<<20)
	go func() {
		cs.Write(payload)
		cs.CloseWrite()
	}()
	ss := acceptOne(t, srv)
	defer ss.Close()
	got, err := io.ReadAll(ss)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d of %d bytes (%v), or corrupted", len(got), len(payload), err)
	}
	if w := rxWindowOf(ss); w <= initialWindow {
		t.Fatalf("a window-limited stream on a 10 ms round trip kept a %d-byte window", w)
	}
	if hw := srv.WindowHighWater(); hw != rxWindowOf(ss) {
		t.Fatalf("link window high water = %d, stream window = %d", hw, rxWindowOf(ss))
	}
	if rtt := time.Duration(srv.rtt.Load()); rtt < 10*time.Millisecond {
		t.Fatalf("measured round trip %v is shorter than the link's 10 ms", rtt)
	}
}

// TestWindowFixedPeerInterop: a peer that never grows its windows — as
// before autotuning — on either end of a delayed trunk. Both directions of
// a stream carry 4 MiB at once, byte-exact; the autotuning end's window
// grows, and the fixed end's stays at the initial size while it sends on
// the larger credit it is granted.
func TestWindowFixedPeerInterop(t *testing.T) {
	fixed := LinkConfig{maxWindow: 1}
	for _, fixedDialer := range []bool{true, false} {
		t.Run(fmt.Sprintf("fixedDialer=%v", fixedDialer), func(t *testing.T) {
			ccfg, scfg := LinkConfig{}, fixed
			if fixedDialer {
				ccfg, scfg = fixed, LinkConfig{}
			}
			client, srv := linkPairVia(t, ccfg, scfg, 5*time.Millisecond)
			cs, err := client.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			if _, err := cs.Write([]byte{0}); err != nil { // opens the stream
				t.Fatal(err)
			}
			ss := acceptOne(t, srv)
			defer ss.Close()
			if _, err := io.ReadFull(ss, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			const size = 4 << 20
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for _, dir := range []struct {
				from, to *Stream
				seed     int
			}{{cs, ss, 1}, {ss, cs, 2}} {
				wg.Add(2)
				go func() {
					defer wg.Done()
					if _, err := dir.from.Write(pattern(dir.seed, size)); err != nil {
						errs <- err
					}
					dir.from.CloseWrite()
				}()
				go func() {
					defer wg.Done()
					got, err := io.ReadAll(dir.to)
					if err != nil || !bytes.Equal(got, pattern(dir.seed, size)) {
						errs <- fmt.Errorf("direction %d: read %d of %d bytes (%v), or corrupted", dir.seed, len(got), size, err)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			tuned, pinned := ss, cs
			if !fixedDialer {
				tuned, pinned = cs, ss
			}
			if w := rxWindowOf(tuned); w <= initialWindow {
				t.Errorf("the autotuning end kept a %d-byte window", w)
			}
			if w := rxWindowOf(pinned); w != initialWindow {
				t.Errorf("the fixed end's window moved to %d", w)
			}
		})
	}
}

// TestCreditPastMaxWindowKillsLink: a peer whose grants would take a
// stream's unspent send credit past wire.MaxMuxWindow — in one grant, or
// in several that would in time wrap a 32-bit counter — violates the
// protocol, and the link dies; grants that stay within it are fine.
func TestCreditPastMaxWindowKillsLink(t *testing.T) {
	cases := []struct {
		name   string
		grants []uint32
		dies   bool
	}{
		{"up to the cap", []uint32{wire.MaxMuxWindow - initialWindow}, false},
		{"one grant past the cap", []uint32{wire.MaxMuxWindow}, true},
		{"many grants", []uint32{16 << 20, 16 << 20, 16 << 20, 16 << 20, 16 << 20, 16 << 20}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nc, peer := net.Pipe()
			defer peer.Close()
			srvc := make(chan *Link, 1)
			go func() {
				l, err := Server(nc, LinkConfig{})
				if err != nil {
					nc.Close()
				}
				srvc <- l
			}()
			peer.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := peer.Write((&wire.MuxHello{Window: initialWindow}).Encode()); err != nil {
				t.Fatal(err)
			}
			if _, err := wire.ReadMuxHello(peer); err != nil {
				t.Fatal(err)
			}
			srv := <-srvc
			defer srv.Close()
			go io.Copy(io.Discard, peer) // the link's grants
			script := wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil)
			for _, g := range c.grants {
				script = wire.AppendMuxWindow(script, 1, g)
			}
			script = wire.AppendMuxFrame(script, wire.MuxData, 1, []byte("x"))
			go peer.Write(script) // cut short when the link dies
			if !c.dies {
				s, err := srv.AcceptStream()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(s, make([]byte, 1)); err != nil {
					t.Fatalf("the data behind the grants: %v", err)
				}
				if err := srv.Err(); err != nil {
					t.Fatalf("grants within the cap killed the link: %v", err)
				}
				return
			}
			select {
			case <-srv.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("the link took grants past the window cap")
			}
			if err := srv.Err(); !strings.Contains(fmt.Sprint(err), "window cap") {
				t.Fatalf("link died with %v, want the window cap named", err)
			}
		})
	}
}
