package mux

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	mrand "math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"lsl/internal/wire"
)

// Every test in this package runs with released blocks overwritten, so a
// chunk read after its block went back to the pool corrupts the payload
// the test compares.
func init() { poison.Store(true) }

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// pattern is a payload whose every byte depends on its position and the
// seed, so a misplaced, stale or poisoned range cannot go unnoticed.
func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((i+seed)*131 + i>>8 + seed)
	}
	return p
}

// scriptConn is a trunk whose inbound bytes are a prepared script; what
// the link writes (WINDOW grants, RESETs) is discarded.
type scriptConn struct {
	net.Conn // nil: a link calls only the methods below
	r        io.Reader
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// runScript feeds script to an accept-side link frame by frame, on the
// test's goroutine, and returns the link and the error that ended it.
func runScript(r io.Reader) (*Link, error) {
	cfg := LinkConfig{}.withDefaults()
	l := newLink(&scriptConn{r: r}, cfg, false, uint32(cfg.window))
	for {
		if err := l.readFrame(); err != nil {
			return l, err
		}
	}
}

// fragReader hands its reader's bytes out in pieces of 1 to max bytes.
type fragReader struct {
	r   io.Reader
	rng *mrand.Rand
	max int
}

func (f *fragReader) Read(p []byte) (int, error) {
	if n := 1 + f.rng.Intn(f.max); n < len(p) {
		p = p[:n]
	}
	return f.r.Read(p)
}

// TestSmallFramesBoundMemory: window credit counts bytes and blocks are
// 64 KiB, so a peer dripping small frames into a stream nobody reads must
// fill blocks, not pin one per frame — at the initial window and at a
// window that has grown.
func TestSmallFramesBoundMemory(t *testing.T) {
	cases := []struct {
		name  string
		frame int
		worst bool
	}{
		// One-byte frames: every block but the last is full.
		{"1B", 1, false},
		// Frames of just over half a block cannot share one: the worst
		// case, two blocks per block's worth of window.
		{"33KiB", 33 << 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, at := range []string{"initial", "grown"} {
				t.Run(at, func(t *testing.T) {
					grown := at == "grown"
					ts := newTunedScript(t)
					s := ts.open(1)
					if grown { // a window-limited round trip with a reader that keeps up
						ts.round(s)
						ts.advance(10 * time.Millisecond)
						ts.round(s)
					}
					window := rxWindowOf(s)
					if grown && window != 2*initialWindow {
						t.Fatalf("window = %d, want it doubled", window)
					}
					maxBlocks := window/blockSize + 1
					if c.worst {
						maxBlocks = 2*window/blockSize + 1
					}
					want := pattern(c.frame, window/c.frame*c.frame)
					for off := 0; off < len(want); off += c.frame {
						ts.feed(wire.MuxData, 1, want[off:off+c.frame])
					}
					s.mu.Lock()
					held, buffered := len(s.chunks), s.buffered
					s.mu.Unlock()
					if buffered != len(want) {
						t.Fatalf("stream buffers %d bytes, sent %d", buffered, len(want))
					}
					if held > maxBlocks {
						t.Fatalf("%d frames of %d B hold %d blocks (%d KiB), want at most %d for a %d KiB window",
							len(want)/c.frame, c.frame, held, held*blockSize>>10, maxBlocks, window>>10)
					}
					got := make([]byte, len(want))
					if _, err := io.ReadFull(s, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("payload corrupted")
					}
					s.mu.Lock()
					held = len(s.chunks)
					s.mu.Unlock()
					if held != 0 {
						t.Fatalf("drained stream still holds %d blocks", held)
					}
				})
			}
		})
	}
}

// TestReadLoopFragmentedInput: frames of every size, for two streams and a
// stream that does not exist, arrive cut into arbitrary pieces; the read
// loop's read-ahead must reassemble them byte-exact whatever the cuts.
func TestReadLoopFragmentedInput(t *testing.T) {
	sizes := []int{1, 2, 8, 9, 10, 55, 64, 65, 1000, 4096, 33 << 10, wire.MaxMuxPayload - 1, wire.MaxMuxPayload}
	for seed := int64(1); seed <= 4; seed++ {
		rng := mrand.New(mrand.NewSource(seed))
		want := map[uint32][]byte{1: nil, 2: nil}
		script := wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil)
		script = wire.AppendMuxFrame(script, wire.MuxOpen, 2, nil)
		for len(want[1])+len(want[2]) < 400<<10 {
			id := uint32(1 + rng.Intn(3)) // 3 was never opened: its DATA is dropped
			n := sizes[rng.Intn(len(sizes))]
			if id != 3 && len(want[id])+n > 256<<10 {
				continue
			}
			p := pattern(len(script), n)
			script = wire.AppendMuxFrame(script, wire.MuxData, id, p)
			if id != 3 {
				want[id] = append(want[id], p...)
			}
			if rng.Intn(4) == 0 { // control frames between DATA ride the read-ahead
				script = wire.AppendMuxWindow(script, id, 1+uint32(rng.Intn(1000)))
			}
		}
		script = wire.AppendMuxFrame(script, wire.MuxClose, 1, nil)
		script = wire.AppendMuxFrame(script, wire.MuxClose, 2, nil)
		maxFrag := []int{1, 13, 700, 200 << 10}[seed-1]
		l, err := runScript(&fragReader{r: bytes.NewReader(script), rng: rng, max: maxFrag})
		if !errors.Is(err, io.EOF) {
			t.Fatalf("seed %d: script ended with %v", seed, err)
		}
		for i := 0; i < 2; i++ {
			s := <-l.accepts
			got, err := io.ReadAll(s)
			if err != nil {
				t.Fatalf("seed %d stream %d: %v", seed, s.id, err)
			}
			if !bytes.Equal(got, want[s.id]) {
				t.Fatalf("seed %d stream %d: payload corrupted (%d bytes, want %d)", seed, s.id, len(got), len(want[s.id]))
			}
		}
	}
}

// TestLinkReadErrorKeepsCause: a trunk cut inside a frame is a truncated
// frame, a trunk that failed for another reason says which.
func TestLinkReadErrorKeepsCause(t *testing.T) {
	frame := wire.AppendMuxFrame(wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil), wire.MuxData, 1, pattern(0, 5000))
	cases := []struct {
		name string
		cut  int
		err  error
		want error
	}{
		{"EOF between frames", len(frame), io.EOF, io.EOF},
		{"EOF inside a header", 12, io.EOF, wire.ErrTruncated},
		{"EOF inside a payload", 3000, io.EOF, wire.ErrTruncated},
		{"deadline inside a header", 12, os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"deadline inside a payload", 3000, os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
	}
	for _, c := range cases {
		_, err := runScript(io.MultiReader(bytes.NewReader(frame[:c.cut]), iotest.ErrReader(c.err)))
		if !errors.Is(err, c.want) || (c.want != wire.ErrTruncated && errors.Is(err, wire.ErrTruncated)) {
			t.Errorf("%s: link ended with %v, want %v", c.name, err, c.want)
		}
	}
}

// gate is a reader that reports being reached, waits to be released, and
// then ends, so that an io.MultiReader moves on to what follows it.
type gate struct{ reached, release chan struct{} }

func (g gate) Read([]byte) (int, error) {
	close(g.reached)
	<-g.release
	return 0, io.EOF
}

// TestCloseDuringFill: a stream closed while the read loop is reading a
// payload into its tail block leaves that one block to the read loop,
// which returns it when the payload has arrived.
func TestCloseDuringFill(t *testing.T) {
	first, second := pattern(1, 100), pattern(2, 1000)
	script := wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil)
	script = wire.AppendMuxFrame(script, wire.MuxData, 1, first)
	script = wire.AppendMuxFrame(script, wire.MuxData, 1, second)
	cut := len(script) - 500 // the trunk stalls halfway through the second payload
	g := gate{make(chan struct{}), make(chan struct{})}
	cfg := LinkConfig{}.withDefaults()
	l := newLink(&scriptConn{r: io.MultiReader(bytes.NewReader(script[:cut]), g, bytes.NewReader(script[cut:]))},
		cfg, false, uint32(cfg.window))
	done := make(chan error, 1)
	go func() {
		for {
			if err := l.readFrame(); err != nil {
				done <- err
				return
			}
		}
	}()
	<-g.reached
	s := <-l.accepts
	s.mu.Lock()
	filling, bp := s.filling, s.chunks[0].bp
	s.mu.Unlock()
	if !filling {
		t.Fatal("a payload that fits the tail block's spare capacity was not read into it")
	}
	s.Close()
	if !bytes.Equal((*bp)[:len(first)], first) {
		t.Fatal("Close returned the block the read loop is still reading into")
	}
	close(g.release)
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Fatalf("script ended with %v", err)
	}
	if !bytes.Equal((*bp)[:len(first)], bytes.Repeat([]byte{0xDB}, len(first))) {
		t.Fatal("the read loop kept the block of a closed stream")
	}
}

// TestPooledChunksNeverReadAfterRelease runs eight streams at once over
// one link with every way a chunk can leave a stream — read whole, read
// in pieces, dropped by a local Close, cut short by the peer's RESET —
// and frames from 1 B to 64 KiB. With released blocks poisoned, each
// stream must still deliver exactly the bytes that were sent. The
// WriteTo variants drain the streams by handing their blocks through to a
// stream on a second trunk, or to a TCP conn, with the Close racing the
// batches in flight.
func TestPooledChunksNeverReadAfterRelease(t *testing.T) {
	t.Run("Read", func(t *testing.T) { poisonSuite(t, nil) })
	t.Run("WriteTo/stream", func(t *testing.T) {
		client, srv := linkPair(t, LinkConfig{})
		poisonSuite(t, &sinks{
			open:   func() (net.Conn, error) { return client.OpenStream() },
			accept: func() (net.Conn, error) { return srv.AcceptStream() },
		})
	})
	t.Run("WriteTo/conn", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		poisonSuite(t, &sinks{
			open:   func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
			accept: ln.Accept,
		})
	})
}

// sinks is where the WriteTo variants of the poison suite hand streams
// through to: open gives a relay its destination, accept the far end.
type sinks struct {
	open, accept func() (net.Conn, error)
}

func poisonSuite(t *testing.T, to *sinks) {
	client, srv := linkPair(t, LinkConfig{})
	const streams = 8
	const size = 3 << 20
	writeSizes := []int{1, 7, 100, 4096, 33 << 10, wire.MaxMuxPayload, 100 << 10}
	readSizes := []int{1, 3, 1000, 5000, wire.MaxMuxPayload, 256 << 10}

	var wg sync.WaitGroup
	errs := make(chan error, 3*streams)
	// Receivers: the stream's first byte names its sender.
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := srv.AcceptStream()
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			var first [1]byte
			if _, err := io.ReadFull(s, first[:]); err != nil {
				errs <- err
				return
			}
			id := int(first[0])
			if to != nil {
				if err := handThrough(s, id, size, to); err != nil {
					errs <- err
				}
				return
			}
			rng := mrand.New(mrand.NewSource(int64(100 + id)))
			want := pattern(id, size)
			stopAt := size // id%4 == 2: the receiver closes halfway
			if id%4 == 2 {
				stopAt = size / 2
			}
			buf := make([]byte, 256<<10)
			got, crc := 0, uint32(0)
			var rerr error
			for got < stopAt && rerr == nil {
				p := buf[:readSizes[rng.Intn(len(readSizes))]]
				if id%4 == 1 { // small reads only: chunks leave in pieces
					p = buf[:1+rng.Intn(3000)]
				}
				var n int
				n, rerr = s.Read(p)
				crc = crc32.Update(crc, crc32.IEEETable, p[:n])
				got += n
			}
			switch {
			case got > size || crc != crc32.ChecksumIEEE(want[:got]):
				errs <- fmt.Errorf("stream %d: first %d bytes corrupted", id, got)
			case id%4 == 3: // the sender aborts halfway: a prefix, then the reset
				if !errors.Is(rerr, ErrStreamReset) || got > size/2 {
					errs <- fmt.Errorf("stream %d: read %d bytes, then %v; want at most %d and a reset", id, got, rerr, size/2)
				}
			case id%4 == 2:
				if rerr != nil {
					errs <- fmt.Errorf("stream %d: %v after %d bytes", id, rerr, got)
				}
			default:
				if got != size || (rerr != nil && rerr != io.EOF) {
					errs <- fmt.Errorf("stream %d: read %d of %d bytes: %v", id, got, size, rerr)
				} else if _, err := s.Read(buf); err != io.EOF {
					errs <- fmt.Errorf("stream %d: %v after the last byte, want EOF", id, err)
				}
				s.CloseWrite()
			}
		}()
	}
	if to != nil {
		for i := 0; i < streams; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := checkSink(to, size); err != nil {
					errs <- err
				}
			}()
		}
	}
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, err := client.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			rng := mrand.New(mrand.NewSource(int64(id)))
			payload := pattern(id, size)
			stopAt := size
			if id%4 == 3 {
				stopAt = size / 2 // then Close without CloseWrite: a RESET
			}
			if _, err := s.Write([]byte{byte(id)}); err != nil {
				errs <- err
				return
			}
			for off := 0; off < stopAt; {
				n := min(writeSizes[rng.Intn(len(writeSizes))], stopAt-off)
				if _, err := s.Write(payload[off : off+n]); err != nil {
					if id%4 != 2 { // the receiver of these hangs up on purpose
						errs <- fmt.Errorf("stream %d: write at %d: %w", id, off, err)
					}
					return
				}
				off += n
			}
			if id%4 != 3 {
				s.CloseWrite()
				io.Copy(io.Discard, s) // the peer's half-close: Close is then clean, not a RESET
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// handThrough relays the rest of stream id from s to a fresh sink with
// WriteTo, behind the id byte. When id%4 == 2 a goroutine closes s once a
// quarter has gone through, racing the batches still in flight.
func handThrough(s *Stream, id, size int, to *sinks) error {
	dst, err := to.open()
	if err != nil {
		return err
	}
	defer dst.Close()
	if _, err := dst.Write([]byte{byte(id)}); err != nil {
		return err
	}
	var n int64
	if id%4 == 2 {
		for n < int64(size/4) && err == nil {
			var k int
			k, err = s.WriteBatchTo(dst)
			n += int64(k)
		}
		go s.Close()
	}
	if err == nil {
		var m int64
		m, err = s.WriteTo(dst)
		n += m
	}
	switch {
	case id%4 == 3: // the sender aborts halfway
		if !errors.Is(err, ErrStreamReset) || n > int64(size/2) {
			return fmt.Errorf("stream %d: handed through %d bytes, then %v; want at most %d and a reset", id, n, err, size/2)
		}
	case id%4 == 2:
		if (err != nil && !errors.Is(err, ErrLinkClosed)) || n > int64(size) {
			return fmt.Errorf("stream %d: handed through %d bytes, then %v; want at most %d and the close", id, n, err, size)
		}
	default:
		if err != nil || n != int64(size) {
			return fmt.Errorf("stream %d: handed through %d of %d bytes: %v", id, n, size, err)
		}
		s.CloseWrite()
	}
	dst.(interface{ CloseWrite() error }).CloseWrite()
	io.Copy(io.Discard, dst) // the sink's half-close: a stream's Close is then clean
	return nil
}

// checkSink takes the far end of one hand-through and checks it carries
// the id byte, then a clean prefix of that stream's payload — all of it
// unless the stream was cut short on purpose.
func checkSink(to *sinks, size int) error {
	c, err := to.accept()
	if err != nil {
		return err
	}
	defer c.Close()
	var first [1]byte
	if _, err := io.ReadFull(c, first[:]); err != nil {
		return err
	}
	id := int(first[0])
	want := pattern(id, size)
	buf := make([]byte, 64<<10)
	got, crc := 0, uint32(0)
	for {
		n, err := c.Read(buf)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sink %d: %v after %d bytes", id, err, got)
		}
	}
	switch {
	case got > size || crc != crc32.ChecksumIEEE(want[:got]):
		return fmt.Errorf("sink %d: first %d bytes corrupted", id, got)
	case id%4 < 2 && got != size:
		return fmt.Errorf("sink %d: got %d of %d bytes", id, got, size)
	}
	c.(interface{ CloseWrite() error }).CloseWrite()
	return nil
}

// TestDataFrameAllocs: on a warm link, sending a 64 KiB DATA frame and
// receiving and draining it — the WINDOW grant back included — allocates
// nothing on either side; nor does relaying it from a trunk stream to a
// stream on a second trunk with WriteBatchTo.
func TestDataFrameAllocs(t *testing.T) {
	frame := pattern(1, wire.MaxMuxPayload)
	got := make([]byte, len(frame))
	check := func(t *testing.T, what string, round func()) {
		for i := 0; i < 16; i++ { // warm up: pool, chunk list, netpoll
			round()
		}
		if !bytes.Equal(got, frame) {
			t.Fatal("payload corrupted")
		}
		if raceEnabled {
			t.Skip("under the race detector sync.Pool drops a quarter of what is put back, so blocks are reallocated")
		}
		if avg := testing.AllocsPerRun(200, round); avg != 0 {
			t.Fatalf("a 64 KiB DATA frame %s costs %v allocations, want 0", what, avg)
		}
	}
	t.Run("direct", func(t *testing.T) {
		client, srv := linkPair(t, LinkConfig{})
		cs, err := client.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		var ss *Stream
		defer func() { ss.Close() }()
		check(t, "sent, received and drained", func() {
			if _, err := cs.Write(frame); err != nil {
				t.Fatal(err)
			}
			if ss == nil {
				ss = acceptOne(t, srv)
			}
			if _, err := io.ReadFull(ss, got); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("relayed", func(t *testing.T) {
		in, inSrv := linkPair(t, LinkConfig{})
		out, outSrv := linkPair(t, LinkConfig{})
		cs, err := in.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		ds, err := out.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		var ss, fs *Stream
		defer func() { ss.Close(); fs.Close() }()
		check(t, "relayed stream to stream", func() {
			if _, err := cs.Write(frame); err != nil {
				t.Fatal(err)
			}
			if ss == nil {
				ss = acceptOne(t, inSrv)
			}
			for moved := 0; moved < len(frame); {
				n, err := ss.WriteBatchTo(ds)
				if err != nil {
					t.Fatal(err)
				}
				moved += n
			}
			if fs == nil {
				fs = acceptOne(t, outSrv)
			}
			if _, err := io.ReadFull(fs, got); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// BenchmarkStreamThroughput moves 8 MiB per stream over one loopback
// trunk, on one stream and on two at once.
func BenchmarkStreamThroughput(b *testing.B) {
	poison.Store(false)
	defer poison.Store(true)
	const size = 8 << 20
	payload := pattern(1, size)
	for _, streams := range []int{1, 2} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			client, srv := linkPair(b, LinkConfig{})
			b.SetBytes(int64(streams) * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < streams; j++ {
					wg.Add(2)
					go func() {
						defer wg.Done()
						s, err := srv.AcceptStream()
						if err != nil {
							b.Error(err)
							return
						}
						defer s.Close()
						if n, err := io.Copy(io.Discard, s); err != nil || n != size {
							b.Errorf("received %d of %d bytes: %v", n, size, err)
						}
						s.CloseWrite()
					}()
					go func() {
						defer wg.Done()
						s, err := client.OpenStream()
						if err != nil {
							b.Error(err)
							return
						}
						defer s.Close()
						if _, err := s.Write(payload); err != nil {
							b.Error(err)
						}
						s.CloseWrite()
						io.Copy(io.Discard, s) // the peer's half-close: Close is then clean, not a RESET
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkRelayHandThrough relays 8 MiB per op from a stream on one
// loopback trunk to a stream on a second one with WriteTo: a depot's
// trunk-to-trunk hop, blocks handed through without a relay copy.
func BenchmarkRelayHandThrough(b *testing.B) {
	poison.Store(false)
	defer poison.Store(true)
	const size = 8 << 20
	payload := pattern(1, size)
	in, inSrv := linkPair(b, LinkConfig{})
	out, outSrv := linkPair(b, LinkConfig{})
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { // the sender
			defer wg.Done()
			s, err := in.OpenStream()
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Close()
			if _, err := s.Write(payload); err != nil {
				b.Error(err)
			}
			s.CloseWrite()
			io.Copy(io.Discard, s) // the relay's half-close: Close is then clean
		}()
		go func() { // the relay
			defer wg.Done()
			src, err := inSrv.AcceptStream()
			if err != nil {
				b.Error(err)
				return
			}
			defer src.Close()
			dst, err := out.OpenStream()
			if err != nil {
				b.Error(err)
				return
			}
			defer dst.Close()
			if n, err := src.WriteTo(dst); err != nil || n != size {
				b.Errorf("relayed %d of %d bytes: %v", n, size, err)
			}
			src.CloseWrite()
			dst.CloseWrite()
			io.Copy(io.Discard, dst)
		}()
		go func() { // the sink
			defer wg.Done()
			s, err := outSrv.AcceptStream()
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Close()
			if n, err := io.Copy(io.Discard, s); err != nil || n != size {
				b.Errorf("received %d of %d bytes: %v", n, size, err)
			}
			s.CloseWrite()
		}()
		wg.Wait()
	}
}
