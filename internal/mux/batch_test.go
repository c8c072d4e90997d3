package mux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/wire"
)

// recConn is a trunk that records what the link writes: one entry per
// gathered write (the link's writev, which newRecLink points here) or per
// plain Write (a control frame), so a test sees where each batch ends.
type recConn struct {
	net.Conn // nil: the link calls only the methods below
	mu       sync.Mutex
	batches  [][]byte
	once     sync.Once
	wrote    chan struct{} // closed at the first recorded write
}

func (c *recConn) record(b []byte) {
	c.mu.Lock()
	c.batches = append(c.batches, b)
	c.mu.Unlock()
	c.once.Do(func() { close(c.wrote) })
}

func (c *recConn) Write(p []byte) (int, error) {
	c.record(bytes.Clone(p))
	return len(p), nil
}

func (c *recConn) writev(v *net.Buffers, _ io.Writer) (int64, error) {
	var b []byte
	for _, p := range *v {
		b = append(b, p...)
	}
	*v = nil
	c.record(b)
	return int64(len(b)), nil
}

func (c *recConn) Close() error                     { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

func (c *recConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.batches...)
}

// newRecLink is a dial-side link over a recConn whose peer granted every
// stream window bytes of credit. No read loop runs: the link only writes.
func newRecLink(window int) (*Link, *recConn) {
	c := &recConn{wrote: make(chan struct{})}
	l := newLink(c, LinkConfig{}.withDefaults(), true, uint32(window))
	l.writev = c.writev
	return l, c
}

// decodeFrames decodes one recorded write with the reference decoder.
func decodeFrames(t *testing.T, b []byte) []*wire.MuxFrame {
	t.Helper()
	r := bytes.NewReader(b)
	var fs []*wire.MuxFrame
	for {
		f, err := wire.ReadMuxFrame(r)
		if err == io.EOF {
			return fs
		}
		if err != nil {
			t.Fatalf("recorded write does not decode: %v", err)
		}
		fs = append(fs, f)
	}
}

// TestCoalescedWrite: a 200 KiB Write on a stream with credit to spare is
// one writev — the pending OPEN, then DATA frames of 64 + 64 + 64 + 8 KiB,
// none over MaxMuxPayload — and a peer reading it with the unchanged
// frame decoder and read loop gets the payload back byte for byte.
func TestCoalescedWrite(t *testing.T) {
	l, c := newRecLink(1 << 20)
	s, err := l.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(1, 200<<10)
	if n, err := s.Write(payload); n != len(payload) || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	s.CloseWrite()
	writes := c.recorded()
	if len(writes) != 2 {
		t.Fatalf("a 200 KiB Write and a CloseWrite took %d writes, want one writev and the CLOSE", len(writes))
	}
	fs := decodeFrames(t, writes[0])
	wantLens := []int{64 << 10, 64 << 10, 64 << 10, 8 << 10}
	if len(fs) != 1+len(wantLens) || fs[0].Type != wire.MuxOpen {
		t.Fatalf("the writev carries %d frames, want OPEN and %d DATA", len(fs), len(wantLens))
	}
	var data []byte
	for i, f := range fs[1:] {
		if f.Type != wire.MuxData || f.Stream != s.id || len(f.Payload) != wantLens[i] {
			t.Fatalf("frame %d: %s on stream %d with %d bytes, want DATA on %d with %d",
				i+1, wire.MuxTypeString(f.Type), f.Stream, len(f.Payload), s.id, wantLens[i])
		}
		data = append(data, f.Payload...)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("coalesced frames carry the wrong payload")
	}

	peer, err := runScript(bytes.NewReader(bytes.Join(writes, nil)))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("peer read loop ended with %v", err)
	}
	got, err := io.ReadAll(<-peer.accepts)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("peer read %d bytes (%v), want the %d written", len(got), err, len(payload))
	}
}

// TestCoalescedWriteInterleaves: a stream gives the link up after every
// batch. Stream a's 1 MiB Write has credit for one batch and waits inside
// the call for more; stream b's 200 KiB Write gets the link meanwhile.
// Every writev carries one stream's frames, at most batchFrames of them
// and maxBatch bytes.
func TestCoalescedWriteInterleaves(t *testing.T) {
	l, c := newRecLink(maxBatch)
	a, _ := l.OpenStream()
	b, _ := l.OpenStream()
	const size = 1 << 20
	aDone := make(chan error, 1)
	go func() { _, err := a.Write(pattern(1, size)); aDone <- err }()
	select {
	case <-c.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("stream a never wrote its first batch")
	}
	bDone := make(chan error, 1)
	go func() { _, err := b.Write(pattern(2, 200<<10)); bDone <- err }()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream b could not get the link while stream a's Write waited for credit")
	}
	a.addCredit(size) // the peer's WINDOW grant
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	var order []uint32
	for _, w := range c.recorded() {
		var id uint32
		frames, n := 0, 0
		for _, f := range decodeFrames(t, w) {
			if id != 0 && f.Stream != id {
				t.Fatalf("one writev carries frames of streams %d and %d", id, f.Stream)
			}
			id = f.Stream
			if f.Type == wire.MuxData {
				frames++
				n += len(f.Payload)
			}
		}
		if frames > batchFrames || n > maxBatch {
			t.Fatalf("stream %d held the link for %d frames, %d bytes", id, frames, n)
		}
		order = append(order, id)
	}
	if want := []uint32{a.id, b.id, a.id, a.id, a.id}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("writes by stream %v, want %v", order, want)
	}
}

// TestWriteToCoalesces: a batch handed from one trunk stream to another
// leaves in one writev, OPEN first, its frames cut at MaxMuxPayload
// wherever the received blocks end.
func TestWriteToCoalesces(t *testing.T) {
	payload := pattern(3, 4*wire.MaxMuxPayload)
	script := wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil)
	rest := payload
	for _, n := range []int{100, wire.MaxMuxPayload, wire.MaxMuxPayload, wire.MaxMuxPayload, wire.MaxMuxPayload - 100} {
		script = wire.AppendMuxFrame(script, wire.MuxData, 1, rest[:n])
		rest = rest[n:]
	}
	in, err := runScript(bytes.NewReader(script))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("script ended with %v", err)
	}
	src := <-in.accepts
	out, c := newRecLink(1 << 20)
	dst, _ := out.OpenStream()
	moved := 0
	for moved < len(payload) {
		n, err := src.WriteBatchTo(dst)
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	var data []byte
	for i, w := range c.recorded() {
		fs := decodeFrames(t, w)
		if i == 0 && fs[0].Type != wire.MuxOpen {
			t.Fatal("the first batch does not open the stream")
		}
		frames := 0
		for _, f := range fs {
			if f.Type == wire.MuxData {
				frames++
				data = append(data, f.Payload...)
			}
		}
		if frames > batchFrames {
			t.Fatalf("batch %d is %d frames", i, frames)
		}
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("handed-through payload corrupted")
	}
	if w := len(c.recorded()); w > 2 {
		t.Fatalf("256 KiB in five received blocks left in %d writes, want at most two batches", w)
	}
}

// TestWriteToWaitsForFillingBlock: the read loop reading a payload into
// the spare capacity of the stream's only block keeps that block; a
// WriteBatchTo meanwhile lends nothing and, past its deadline, says so.
// Once the payload is in, both payloads leave in one batch.
func TestWriteToWaitsForFillingBlock(t *testing.T) {
	first, second := pattern(1, 100), pattern(2, 1000)
	script := wire.AppendMuxFrame(nil, wire.MuxOpen, 1, nil)
	script = wire.AppendMuxFrame(script, wire.MuxData, 1, first)
	script = wire.AppendMuxFrame(script, wire.MuxData, 1, second)
	cut := len(script) - 500
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
	var got bytes.Buffer
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := s.WriteBatchTo(&got); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("WriteBatchTo during the fill = %d, %v; want 0 and the deadline", n, err)
	}
	s.SetReadDeadline(time.Time{})
	close(g.release)
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Fatalf("script ended with %v", err)
	}
	n, err := s.WriteBatchTo(&got)
	if err != nil || n != len(first)+len(second) || !bytes.Equal(got.Bytes(), append(first, second...)) {
		t.Fatalf("WriteBatchTo after the fill = %d, %v; want both payloads, %d bytes", n, err, len(first)+len(second))
	}
}

// lentDst is the destination of TestWriteToWhileLent: its first write
// reports that it has begun and waits to be released, so the batch it
// carries stays lent for as long as the test wants. It records what it is
// given only after that, so a block released early shows up poisoned.
type lentDst struct {
	stream  bool // the writer is a stream on a recording link, else lentDst itself
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	dead    atomic.Bool
	link    *Link
	rec     *recConn
	mu      sync.Mutex
	plain   bytes.Buffer
}

func newLentDst(stream bool) (*lentDst, io.Writer) {
	d := &lentDst{stream: stream, entered: make(chan struct{}), release: make(chan struct{})}
	if !stream {
		return d, d
	}
	d.link, d.rec = newRecLink(1 << 20)
	d.link.writev = func(v *net.Buffers, w io.Writer) (int64, error) {
		d.hold()
		if d.dead.Load() {
			return 0, net.ErrClosed
		}
		return d.rec.writev(v, w)
	}
	s, _ := d.link.OpenStream()
	return d, s
}

// hold blocks the first write until release.
func (d *lentDst) hold() {
	d.once.Do(func() {
		close(d.entered)
		<-d.release
	})
}

func (d *lentDst) Write(p []byte) (int, error) {
	d.hold()
	if d.dead.Load() {
		return 0, net.ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.plain.Write(p)
}

// kill makes the destination fail: its link dies, or its writes do.
func (d *lentDst) kill() {
	d.dead.Store(true)
	if d.link != nil {
		d.link.Close()
	}
}

// received returns the payload the destination took.
func (d *lentDst) received(t *testing.T) []byte {
	if !d.stream {
		d.mu.Lock()
		defer d.mu.Unlock()
		return bytes.Clone(d.plain.Bytes())
	}
	var data []byte
	for _, w := range d.rec.recorded() {
		for _, f := range decodeFrames(t, w) {
			data = append(data, f.Payload...)
		}
	}
	return data
}

// TestWriteToWhileLent holds a batch lent: WriteTo is inside the write to
// its destination, the blocks out of the source's chunk list. Whatever
// happens meanwhile — the source closed, the peer's RESET, the source's
// link dying — the lent blocks reach the destination intact once it takes
// them, and WriteTo ends with the cause; a destination that dies instead
// ends WriteTo with its error. Into a second trunk stream and into a
// plain writer, with released blocks poisoned.
func TestWriteToWhileLent(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name string
		cut  func(src, peer *Stream, srcLink *Link, dst *lentDst)
		want error
	}{
		{"source closed", func(src, _ *Stream, _ *Link, _ *lentDst) { src.Close() }, ErrLinkClosed},
		{"peer reset", func(_, peer *Stream, _ *Link, _ *lentDst) { peer.Close() }, ErrStreamReset},
		{"source link dies", func(_, _ *Stream, l *Link, _ *lentDst) { l.Close() }, ErrLinkClosed},
		{"destination dies", func(_, _ *Stream, _ *Link, d *lentDst) { d.kill() }, net.ErrClosed},
	}
	for _, into := range []string{"stream", "conn"} {
		for _, c := range cases {
			t.Run(into+"/"+c.name, func(t *testing.T) {
				client, srv := linkPair(t, LinkConfig{})
				peer, err := client.OpenStream()
				if err != nil {
					t.Fatal(err)
				}
				defer peer.Close()
				payload := pattern(7, size)
				go peer.Write(payload) // ends with the cut, or at the link's cleanup
				src := acceptOne(t, srv)
				defer src.Close()
				d, w := newLentDst(into == "stream")
				relayed := make(chan error, 1)
				go func() {
					_, err := src.WriteTo(w)
					relayed <- err
				}()
				select {
				case <-d.entered:
				case <-time.After(5 * time.Second):
					t.Fatal("the hand-through never reached its destination")
				}
				c.cut(src, peer, srv, d)
				close(d.release)
				select {
				case err = <-relayed:
				case <-time.After(5 * time.Second):
					t.Fatal("WriteTo did not end after the cut")
				}
				if !errors.Is(err, c.want) {
					t.Fatalf("WriteTo ended with %v, want %v", err, c.want)
				}
				got := d.received(t)
				if !bytes.Equal(got, payload[:min(len(got), size)]) {
					t.Fatalf("destination got %d bytes that are not the stream's prefix: a lent block was released early", len(got))
				}
				if c.want != net.ErrClosed && len(got) == 0 {
					t.Fatal("the batch lent at the cut never reached the destination")
				}
			})
		}
	}
}

// TestDeadlineWakeupStress arms many short deadlines on Reads and Writes
// that are blocked or about to block; each one must wake its caller, even
// when the timer fires between the caller's expiry check and its wait.
func TestDeadlineWakeupStress(t *testing.T) {
	client, _ := linkPair(t, LinkConfig{window: 4 << 10})
	const streams, rounds = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, 2*streams)
	for i := 0; i < streams; i++ {
		s, err := client.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Write(make([]byte, 4<<10)); err != nil { // spend the credit: Writes wait from here on
			t.Fatal(err)
		}
		wg.Add(2)
		for _, dir := range []string{"Read", "Write"} {
			go func(seed int64) {
				defer wg.Done()
				rng := mrand.New(mrand.NewSource(seed))
				buf := make([]byte, 1)
				for r := 0; r < rounds; r++ {
					until := time.Now().Add(time.Duration(rng.Intn(200)) * time.Microsecond)
					var err error
					if dir == "Read" {
						s.SetReadDeadline(until)
						_, err = s.Read(buf)
					} else {
						s.SetWriteDeadline(until)
						_, err = s.Write(buf)
					}
					if !errors.Is(err, os.ErrDeadlineExceeded) {
						errs <- err
						return
					}
				}
			}(int64(2*i + len(dir)))
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a Read or Write slept past its deadline")
	}
	close(errs)
	for err := range errs {
		t.Errorf("blocked call ended with %v, want the deadline", err)
	}
}

// TestDeadlineWakesWaiterPastItsCheck pins the interleaving the stress
// test can only hope to hit: the deadline timer fires after a Read found
// the deadline unexpired but before it went to sleep in Wait. The wakeup
// must not be lost.
func TestDeadlineWakesWaiterPastItsCheck(t *testing.T) {
	client, _ := linkPair(t, LinkConfig{})
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	s.rdeadline.set(time.Now().Add(time.Millisecond))
	if s.rdeadline.expired() {
		t.Fatal("deadline expired at once")
	}
	time.Sleep(20 * time.Millisecond) // the timer fires while the "reader" is between check and Wait
	woke := make(chan struct{})
	var rescued atomic.Bool
	go func() {
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			rescued.Store(true)
			s.mu.Lock()
			s.readCond.Broadcast()
			s.mu.Unlock()
		}
	}()
	s.readCond.Wait()
	s.mu.Unlock()
	close(woke)
	if rescued.Load() {
		t.Fatal("the deadline's wakeup was lost: the waiter slept past it")
	}
}

// TestZeroLengthRead: a zero-length Read returns (0, nil) at once, with
// nothing buffered and with data waiting, which stays readable.
func TestZeroLengthRead(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte("x"))
	done := make(chan error, 1)
	go func() {
		n, err := cs.Read(nil)
		if n != 0 && err == nil {
			err = errors.New("read bytes into an empty buffer")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("zero-length Read on an idle stream = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a zero-length Read waited for data")
	}
	ss := acceptOne(t, srv)
	if n, err := ss.Read([]byte{}); n != 0 || err != nil {
		t.Fatalf("zero-length Read = %d, %v; want 0, nil", n, err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(ss, buf); err != nil || buf[0] != 'x' {
		t.Fatalf("read after the zero-length Read = %q, %v", buf, err)
	}
}
