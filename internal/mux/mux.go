// Package mux multiplexes many LSL sessions over one persistent TCP
// connection — a "trunk" between a fixed pair of processes. The paper
// charges every session a fresh TCP handshake and a cold congestion
// window on every sublink; a trunk pays both once per (hop-pair,
// idle-period) and every later session inherits the already-open
// connection and its warmed congestion window.
//
// A Link wraps one net.Conn that opens with a wire.MuxHello each way and
// carries framed streams (wire: OPEN / DATA / WINDOW / CLOSE / RESET). The
// dialer does not wait for the peer's hello: Client sends its own and
// returns, the first stream's OPEN and DATA follow right behind it, and the
// read loop takes the peer's hello as the link's first frame, so a cold
// trunk opens in one round trip, as a classic connection does. Each
// Stream implements net.Conn — deadlines included — so the rest of the
// session layer (core.Dial, the depot relay, resilience retries) runs
// over a stream exactly as it runs over a raw TCP connection.
//
// Flow control is per-stream credit: a sender may have at most the
// peer-advertised window of unacknowledged DATA in flight per stream, so
// one fat session backs off on its own credit instead of head-of-line
// starving the trunk, and receive-side buffering is bounded by the sum of
// the streams' windows. Each stream's receive window starts at the link's
// initial window and autotunes upward while the window, not the reader,
// limits the stream (window.go). The link's read loop never blocks on
// application state (DATA lands in credit-bounded stream buffers; control
// frames are handled inline), which is what keeps the trunk deadlock-free
// when both directions are saturated.
//
// DATA payloads are received into pooled blocks, and each block has one
// owner at a time: the read loop while it reads the payload in, then the
// stream's chunk list, then whoever drains the chunk (Read, Close, or
// WriteBatchTo, which lends whole blocks to the next sublink's write), who
// returns it to the pool. A stream sends up to four DATA frames per
// writev. Steady state allocates nothing per frame in either direction.
//
// Only the dialing side of a link opens streams; the accepting side
// serves them (AcceptStream). That matches the cascade topology — trunk
// direction follows session direction — and keeps stream-ID allocation
// trivial.
package mux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// Link lifecycle errors.
var (
	// ErrLinkClosed reports an operation on a closed trunk.
	ErrLinkClosed = errors.New("mux: link closed")
	// ErrLinkDraining reports an OpenStream on a draining trunk.
	ErrLinkDraining = errors.New("mux: link draining")
	// ErrStreamReset reports a stream aborted by the peer.
	ErrStreamReset = errors.New("mux: stream reset")
	// ErrWriteClosed reports a write after CloseWrite.
	ErrWriteClosed = errors.New("mux: write on closed stream direction")
	// ErrTrunkRefused fails the streams sent behind a dialer's hello when
	// the link dies before the peer's hello lands: the peer predates
	// trunks and refused the hello at its magic, or went away first. It is
	// transient: a pool dials that peer classically for a while, so a
	// retry goes through.
	ErrTrunkRefused = errors.New("mux: peer refused the trunk")
)

// acceptBacklog bounds streams opened by the peer but not yet accepted;
// past it new streams are reset.
const acceptBacklog = 128

// LinkConfig tunes one trunk.
type LinkConfig struct {
	// Logf, when set, receives one line per link event.
	Logf func(format string, args ...interface{})

	// StreamCount, when set, observes the live stream count after every
	// open/close (called without link locks held). Pools use it for
	// idle-timeout tracking and stream gauges.
	StreamCount func(n int)

	// window, which only tests set, is the initial per-stream receive
	// window granted to the peer (default defaultWindow): the first window
	// of every stream. A stream's window then grows on its own while the
	// window limits it (see window.go). It is also what a dialer sends per
	// stream before the peer's hello arrives, so an acceptor refuses a
	// hello that announces more than its own window, and a dialer fails a
	// link whose peer grants less than its own.
	window int
	// maxWindow caps a stream's autotuned receive window (default
	// maxStreamWindow, never below window). Tests pin it to window to play
	// a peer that does not autotune.
	maxWindow int

	// onHello, when set on a dial-side link, receives the peer hello's
	// verdict once: nil when the hello landed, or why the link died
	// without it. It runs before any stream sees the link's end.
	onHello func(err error)
}

const (
	// defaultWindow is the initial per-stream receive window a link
	// grants.
	defaultWindow = 256 << 10
	// writeTimeout bounds one frame write on the underlying conn. A trunk
	// peer that stalls past it — by at most as much again, see armWrite —
	// is declared dead and the link is torn down: every stream errors and
	// resilient callers re-dial over a fresh link.
	writeTimeout = 30 * time.Second
)

func (c LinkConfig) withDefaults() LinkConfig {
	if c.window <= 0 {
		c.window = defaultWindow
	}
	if c.maxWindow <= 0 {
		c.maxWindow = maxStreamWindow
	}
	c.maxWindow = max(c.maxWindow, c.window)
	return c
}

// Link is one trunk: a net.Conn opened with a hello each way, carrying many
// streams.
type Link struct {
	nc     net.Conn
	cfg    LinkConfig
	client bool

	sendWindow uint32 // peer-granted initial per-stream credit; a dialer's own window until the peer's hello lands

	// The peer's hello on a dial-side link. hello closes once the hello has
	// landed or the link died without it; helloErr is then nil or why. An
	// accept-side link has its verdict from the start.
	hello    chan struct{}
	helloErr error

	wmu   sync.Mutex                                       // serializes frame writes on nc; guards the fields below
	whdr  [(1 + batchFrames) * wire.MuxFrameHeaderLen]byte // encoding scratch: [OPEN +] a batch's DATA headers, or one control frame
	wvec  [][]byte                                         // backing array of wbuf
	wbuf  net.Buffers                                      // the frames being written
	wdead time.Time                                        // write deadline armed on nc
	// writev sends wbuf in one gathered write (writev on a TCP conn);
	// tests replace it to see where a batch ends.
	writev func(*net.Buffers, io.Writer) (int64, error)

	rd frameReader // read loop only

	// Receive-window autotuning (window.go), shared by the link's streams.
	now        func() time.Time // the clock; tests substitute a fake one
	rtt        atomic.Int64     // smallest round-trip sample in ns, 0 until one is taken
	grown      atomic.Int64     // sum over live streams of window − initial window
	windowHigh atomic.Int64     // largest receive window any stream has granted

	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32
	accepts  chan *Stream
	draining bool
	closed   bool
	helloed  bool // the hello verdict is in
	err      error
	done     chan struct{}
	high     int // most concurrent streams ever on this link
}

// Client starts the dial side of a link on nc: it writes this side's
// hello and returns without waiting for the peer's, so streams opened at
// once send behind it. The read loop takes the peer's hello as the link's
// first frame and fails the link on anything else. Before that hello
// lands a stream sends at most cfg.window, the window this side announced;
// a peer that grants less fails the link, and whatever it grants beyond
// that is added to the streams' credit. A deadline on nc set beforehand
// bounds the hello write here and the wait for the peer's hello; the read
// loop clears the read deadline once the hello lands.
func Client(nc net.Conn, cfg LinkConfig) (*Link, error) {
	l, err := startClient(nc, cfg)
	if err != nil {
		return nil, err
	}
	go l.readLoop()
	return l, nil
}

// startClient writes the hello and builds the dial-side link without
// starting its read loop, so that streams opened before the loop starts
// exist when a refusal of the hello reaches them.
func startClient(nc net.Conn, cfg LinkConfig) (*Link, error) {
	cfg = cfg.withDefaults()
	hello := wire.MuxHello{Window: uint32(cfg.window)}
	if _, err := nc.Write(hello.Encode()); err != nil {
		return nil, fmt.Errorf("mux: send hello: %w", err)
	}
	return newLink(nc, cfg, true, uint32(cfg.window)), nil
}

// Server performs the accept-side hello exchange on nc (reading the full
// hello, magic included — prepend any probed bytes, or see Serve) and
// starts the link. It refuses a dialer whose hello announces a window
// above cfg.window: that dialer may send that much per stream before this
// side's hello reaches it.
func Server(nc net.Conn, cfg LinkConfig) (*Link, error) {
	l, err := startServer(nc, cfg)
	if err != nil {
		return nil, err
	}
	go l.readLoop()
	return l, nil
}

// startServer is Server without starting the read loop, so that whatever
// the link's callbacks need is in place before the first stream arrives.
func startServer(nc net.Conn, cfg LinkConfig) (*Link, error) {
	cfg = cfg.withDefaults()
	peer, err := wire.ReadMuxHello(nc)
	if err != nil {
		return nil, fmt.Errorf("mux: read hello: %w", err)
	}
	if int(peer.Window) > cfg.window {
		return nil, fmt.Errorf("mux: peer hello announces a %d-byte window, above this side's %d", peer.Window, cfg.window)
	}
	hello := wire.MuxHello{Window: uint32(cfg.window)}
	if _, err := nc.Write(hello.Encode()); err != nil {
		return nil, fmt.Errorf("mux: send hello: %w", err)
	}
	nc.SetDeadline(time.Time{})
	return newLink(nc, cfg, false, peer.Window), nil
}

func newLink(nc net.Conn, cfg LinkConfig, client bool, sendWindow uint32) *Link {
	l := &Link{
		nc:         nc,
		wvec:       make([][]byte, 0, 3*batchFrames),
		writev:     (*net.Buffers).WriteTo,
		rd:         frameReader{nc: nc},
		now:        time.Now,
		cfg:        cfg,
		client:     client,
		sendWindow: sendWindow,
		streams:    make(map[uint32]*Stream),
		accepts:    make(chan *Stream, acceptBacklog),
		done:       make(chan struct{}),
		hello:      make(chan struct{}),
	}
	l.windowHigh.Store(int64(cfg.window))
	if !client {
		l.helloed = true
		close(l.hello)
	}
	return l
}

func (l *Link) logf(format string, args ...interface{}) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// OpenStream opens a new session stream on the trunk (dial side only).
func (l *Link) OpenStream() (*Stream, error) {
	if !l.client {
		return nil, errors.New("mux: OpenStream on accept-side link")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, l.errLocked()
	}
	if l.draining {
		l.mu.Unlock()
		return nil, ErrLinkDraining
	}
	l.nextID++
	id := l.nextID
	s := newStream(l, id, l.sendWindow)
	s.openPending = true // OPEN rides in front of the stream's first frame
	l.streams[id] = s
	n := len(l.streams)
	if n > l.high {
		l.high = n
	}
	l.mu.Unlock()
	l.notifyStreamCount(n)
	return s, nil
}

// AcceptStream blocks for the next peer-opened stream (accept side).
func (l *Link) AcceptStream() (*Stream, error) {
	select {
	case s := <-l.accepts:
		return s, nil
	case <-l.done:
		// Drain streams raced in before close.
		select {
		case s := <-l.accepts:
			return s, nil
		default:
			return nil, l.Err()
		}
	}
}

// NumStreams reports the live stream count.
func (l *Link) NumStreams() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.streams)
}

// HighWater reports the most concurrent streams the link has carried.
func (l *Link) HighWater() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.high
}

// WindowHighWater reports the largest receive window, in bytes, that any
// stream on the link has granted its peer: the initial window until one
// autotunes past it.
func (l *Link) WindowHighWater() int { return int(l.windowHigh.Load()) }

// Drain stops new streams — OpenStream fails, peer OPENs are reset — and
// closes the link once the last live stream finishes (immediately when
// idle). Existing streams run to completion.
func (l *Link) Drain() {
	l.mu.Lock()
	l.draining = true
	idle := len(l.streams) == 0 && !l.closed
	l.mu.Unlock()
	if idle {
		l.closeWithError(ErrLinkClosed)
	}
}

// Close tears the trunk down: the conn closes and every live stream
// errors out.
func (l *Link) Close() error {
	l.closeWithError(ErrLinkClosed)
	return nil
}

// Done is closed when the link has fully shut down.
func (l *Link) Done() <-chan struct{} { return l.done }

// Err reports why the link shut down (nil while alive).
func (l *Link) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errLocked()
}

func (l *Link) errLocked() error {
	if !l.closed {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrLinkClosed
}

// Closed reports whether the link is no longer usable for new streams.
func (l *Link) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.draining
}

// RemoteAddr names the trunk peer.
func (l *Link) RemoteAddr() net.Addr { return l.nc.RemoteAddr() }

func (l *Link) notifyStreamCount(n int) {
	if l.cfg.StreamCount != nil {
		l.cfg.StreamCount(n)
	}
}

func (l *Link) closeWithError(err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	pending := !l.helloed
	if pending && err != ErrLinkClosed && err != ErrPoolClosed {
		err = fmt.Errorf("%w: %w", ErrTrunkRefused, err) // never a trunk
	}
	l.closed = true
	l.err = err
	l.helloed = true
	streams := make([]*Stream, 0, len(l.streams))
	for _, s := range l.streams {
		streams = append(streams, s)
	}
	l.streams = make(map[uint32]*Stream)
	l.mu.Unlock()
	if pending {
		l.settleHello(err)
	}
	l.nc.Close()
	for _, s := range streams {
		s.deliverReset(err)
	}
	close(l.done)
	if len(streams) > 0 {
		l.notifyStreamCount(0)
	}
}

// removeStream retires a stream after its local Close and closes a
// draining link once the count hits zero.
func (l *Link) removeStream(id uint32) {
	l.mu.Lock()
	if _, ok := l.streams[id]; !ok {
		l.mu.Unlock()
		return
	}
	delete(l.streams, id)
	n := len(l.streams)
	drainedOut := l.draining && n == 0 && !l.closed
	l.mu.Unlock()
	l.notifyStreamCount(n)
	if drainedOut {
		l.closeWithError(ErrLinkClosed)
	}
}

func (l *Link) lookup(id uint32) *Stream {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.streams[id]
}

// readAhead is how far the read loop reads past what it needs right now:
// enough for the header of the next frame and a few control frames behind
// it, so a busy trunk costs one read per frame.
const readAhead = 64

// blockSize is the size class DATA payloads are received into: the
// largest payload a frame may carry and the read-ahead behind it.
const blockSize = wire.MaxMuxPayload + readAhead

var blocks = xfer.PoolFor(blockSize)

// A batch is what a stream puts on the link in one writev: at most
// batchFrames DATA frames, maxBatch bytes. It bounds how long one stream
// holds the link before another stream's frames get their turn, and how
// many blocks WriteBatchTo lends at once.
const (
	batchFrames = 4
	maxBatch    = batchFrames * wire.MaxMuxPayload
)

// poison, which only tests set, overwrites every block on its way back to
// the pool, so a chunk read after its release shows up as corrupt data.
var poison atomic.Bool

func putBlock(bp *[]byte) {
	if poison.Load() {
		b := *bp
		for i := range b {
			b[i] = 0xDB
		}
	}
	blocks.Put(bp)
}

// frameReader reads frames off the trunk in as few reads as the traffic
// allows, without a copy of bulk payload: headers and WINDOW payloads come
// through a small read-ahead buffer, DATA payloads go straight from the
// conn into the block they stay in, and what a payload read brings in
// behind the payload — on a busy trunk the next frame's header — is kept
// for the next call. Neither call waits for more than it was asked for.
type frameReader struct {
	nc   io.Reader
	buf  [readAhead]byte
	r, w int // buf[r:w] is read and not yet consumed
}

// next returns the next n ≤ readAhead bytes, valid until the next call.
// io.EOF means the link ended between frames.
func (fr *frameReader) next(n int) ([]byte, error) {
	if fr.w-fr.r < n {
		fr.w = copy(fr.buf[:], fr.buf[fr.r:fr.w])
		fr.r = 0
		got, err := io.ReadAtLeast(fr.nc, fr.buf[fr.w:], n-fr.w)
		if err == io.EOF && fr.w > 0 {
			err = io.ErrUnexpectedEOF
		}
		fr.w += got
		if err != nil {
			return nil, err
		}
	}
	fr.r += n
	return fr.buf[fr.r-n : fr.r], nil
}

// payload reads the next n bytes into p[:n]; p may be longer, and up to
// readAhead bytes of it past n are scratch for the read-ahead.
func (fr *frameReader) payload(p []byte, n int) error {
	k := copy(p[:n], fr.buf[fr.r:fr.w])
	fr.r += k
	if k == n {
		return nil
	}
	got, err := io.ReadAtLeast(fr.nc, p[k:min(len(p), n+readAhead)], n-k)
	if err != nil {
		return err
	}
	fr.r, fr.w = 0, copy(fr.buf[:], p[n:k+got])
	return nil
}

// readLoop dispatches inbound frames until the conn dies. It must never
// block on application state: DATA lands in credit-bounded buffers,
// control frames are handled inline, and a full accept backlog resets the
// excess stream instead of waiting.
func (l *Link) readLoop() {
	var err error
	if l.client {
		err = l.readHello()
	}
	for err == nil {
		err = l.readFrame()
	}
	l.closeWithError(fmt.Errorf("mux: link read: %w", err))
}

// readHello takes the peer's hello, the first frame on a dial-side link.
// The peer must grant at least the window this side's streams have been
// sending on; what it grants beyond that tops each of them up, and every
// later stream starts at the peer's window.
func (l *Link) readHello() error {
	b, err := l.rd.next(wire.MuxHelloLen)
	if err != nil {
		return fmt.Errorf("hello: %w", wire.ReadErr(err, wire.ErrTruncated))
	}
	peer, err := wire.ReadMuxHello(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if int(peer.Window) < l.cfg.window {
		return fmt.Errorf("hello: peer grants a %d-byte window, below the %d bytes streams may have sent", peer.Window, l.cfg.window)
	}
	l.nc.SetReadDeadline(time.Time{})
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLinkClosed
	}
	l.helloed = true
	top := peer.Window - l.sendWindow
	l.sendWindow = peer.Window
	early := make([]*Stream, 0, len(l.streams))
	for _, s := range l.streams {
		early = append(early, s)
	}
	l.mu.Unlock()
	if top > 0 {
		for _, s := range early {
			s.addCredit(top) // within the cap: the credit stays below peer.Window
		}
	}
	l.settleHello(nil)
	return nil
}

// settleHello records the verdict on the peer's hello, once per dial-side
// link.
func (l *Link) settleHello(err error) {
	l.helloErr = err
	if l.cfg.onHello != nil {
		l.cfg.onHello(err)
	}
	close(l.hello)
}

// readFrame reads and dispatches one frame. io.EOF is the link ending
// between frames.
func (l *Link) readFrame() error {
	hdr, err := l.rd.next(wire.MuxFrameHeaderLen)
	if err != nil {
		if err != io.EOF {
			err = wire.ReadErr(err, wire.ErrTruncated)
		}
		return err
	}
	h, err := wire.DecodeMuxHeader(hdr)
	if err != nil {
		return err
	}
	switch h.Type {
	case wire.MuxOpen:
		l.handleOpen(h.Stream)
	case wire.MuxData:
		return l.readData(h)
	case wire.MuxWindow:
		pay, err := l.rd.next(int(h.Length))
		if err != nil {
			return wire.ReadErr(err, wire.ErrTruncated)
		}
		credit, err := wire.DecodeMuxCredit(pay)
		if err != nil {
			return err
		}
		if s := l.lookup(h.Stream); s != nil {
			if err := s.addCredit(credit); err != nil {
				return err
			}
		}
	case wire.MuxClose:
		if s := l.lookup(h.Stream); s != nil {
			s.deliverEOF()
		}
	case wire.MuxReset:
		if s := l.lookup(h.Stream); s != nil {
			s.deliverReset(ErrStreamReset)
			l.removeStream(h.Stream)
		}
	}
	return nil
}

// readData reads one DATA payload off the conn into a pooled block and
// hands it to its stream. The stream picks the place (reserve): the spare
// capacity of its tail block when the payload fits there, otherwise a
// fresh block. DATA for a stream that is gone or finished locally (it was
// in flight when the stream closed) is read into a block that goes
// straight back.
func (l *Link) readData(h wire.MuxHeader) error {
	n := int(h.Length)
	var bp *[]byte
	off := 0
	s := l.lookup(h.Stream)
	if s != nil {
		var live bool
		var err error
		if bp, off, live, err = s.reserve(n); err != nil {
			return err
		}
		if !live {
			s = nil
		}
	}
	if bp == nil {
		bp = blocks.Get()
	}
	err := wire.ReadErr(l.rd.payload((*bp)[off:], n), wire.ErrTruncated)
	if err != nil {
		n = 0
	}
	if s != nil {
		s.commit(bp, off, n)
	} else {
		putBlock(bp)
	}
	return err
}

func (l *Link) handleOpen(id uint32) {
	if l.client {
		l.closeWithError(errors.New("mux: peer opened stream on dial-side link"))
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if _, dup := l.streams[id]; dup {
		l.mu.Unlock()
		l.closeWithError(fmt.Errorf("mux: duplicate OPEN for stream %d", id))
		return
	}
	if l.draining {
		l.mu.Unlock()
		l.writeFrame(wire.MuxReset, id, false)
		return
	}
	s := newStream(l, id, l.sendWindow)
	l.streams[id] = s
	n := len(l.streams)
	if n > l.high {
		l.high = n
	}
	l.mu.Unlock()
	select {
	case l.accepts <- s:
		l.notifyStreamCount(n)
	default:
		// Accept backlog full: refuse rather than block the read loop.
		l.logf("mux: accept backlog full, resetting stream %d", id)
		s.deliverReset(ErrStreamReset)
		l.removeStream(id)
		l.writeFrame(wire.MuxReset, id, false)
	}
}

// writeFrame sends one payload-free frame (CLOSE or RESET), behind the
// stream's OPEN when that is still pending. A write failure kills the
// link.
func (l *Link) writeFrame(typ uint8, stream uint32, withOpen bool) error {
	l.wmu.Lock()
	buf := l.whdr[:0]
	if withOpen {
		buf = wire.AppendMuxHeader(buf, wire.MuxOpen, stream, 0)
	}
	err := l.writeLocked(wire.AppendMuxHeader(buf, typ, stream, 0))
	l.wmu.Unlock()
	return l.wrote(err)
}

// writeWindow grants the peer credit more bytes on stream.
func (l *Link) writeWindow(stream uint32, credit int) error {
	l.wmu.Lock()
	err := l.writeLocked(wire.AppendMuxWindow(l.whdr[:0], stream, uint32(credit)))
	l.wmu.Unlock()
	return l.wrote(err)
}

// writeData sends the first n bytes of bufs — one credit-reserved batch,
// n ≤ maxBatch — as DATA frames of at most MaxMuxPayload bytes, all in
// one writev. A pending OPEN rides in front of the first frame, so opening
// a session over a warm trunk costs no extra segment. Headers are encoded
// in link scratch: a batch allocates nothing. It returns what is left of
// bufs, having trimmed the slice it stopped inside in place.
func (l *Link) writeData(stream uint32, bufs [][]byte, n int, withOpen bool) ([][]byte, error) {
	l.wmu.Lock()
	hdr := l.whdr[:0]
	if withOpen {
		hdr = wire.AppendMuxHeader(hdr, wire.MuxOpen, stream, 0)
	}
	vec, from := l.wvec[:0], 0
	for n > 0 {
		k := min(n, wire.MaxMuxPayload)
		n -= k
		hdr = wire.AppendMuxHeader(hdr, wire.MuxData, stream, k)
		vec, from = append(vec, hdr[from:]), len(hdr)
		for k > 0 {
			b := bufs[0]
			if len(b) > k {
				vec, bufs[0] = append(vec, b[:k]), b[k:]
				break
			}
			vec, bufs, k = append(vec, b), bufs[1:], k-len(b)
		}
	}
	l.wbuf = vec
	l.armWrite()
	_, err := l.writev(&l.wbuf, l.nc)
	clear(vec) // drop the payload references
	l.wvec = vec[:0]
	l.wmu.Unlock()
	return bufs, l.wrote(err)
}

// writeLocked writes buf under the frame write timeout; wmu is held.
func (l *Link) writeLocked(buf []byte) error {
	l.armWrite()
	_, err := l.nc.Write(buf)
	return err
}

// armWrite gives the frame about to be written at least writeTimeout;
// wmu is held. The conn's deadline stays armed between frames and is
// pushed out once per writeTimeout, not set and cleared around every
// frame, so a stalled peer is declared dead after one to two timeouts.
func (l *Link) armWrite() {
	if now := time.Now(); l.wdead.Sub(now) < writeTimeout {
		l.wdead = now.Add(2 * writeTimeout)
		l.nc.SetWriteDeadline(l.wdead)
	}
}

// wrote kills the link when a frame write failed. It returns the write's
// error, or ErrTrunkRefused when the peer refused the hello: the write
// failed because of that.
func (l *Link) wrote(err error) error {
	if err == nil {
		return nil
	}
	l.closeWithError(fmt.Errorf("mux: link write: %w", err))
	if <-l.hello; errors.Is(l.helloErr, ErrTrunkRefused) {
		return l.helloErr
	}
	return err
}

// chunk is received payload waiting in a pooled block: (*bp)[off:end] is
// unread.
type chunk struct {
	bp       *[]byte
	off, end int
}

// Stream is one multiplexed session sublink. It implements net.Conn:
// Read/Write with deadlines, CloseWrite half-close (CLOSE frame), and
// Close (RESET unless both directions already finished cleanly).
type Stream struct {
	link *Link
	id   uint32

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond

	// Receive side. chunks is bounded by the receive window (rx.size)
	// because the peer respects credit; unacked counts
	// delivered-but-ungranted bytes for window accounting and protocol
	// enforcement. While filling is set the read loop is reading a payload
	// into the spare capacity of the last chunk's block: that chunk stays
	// in the list and its block out of the pool until commit, whoever
	// drains it meanwhile.
	chunks     []chunk
	filling    bool
	buffered   int
	unacked    int
	readClosed bool // peer sent CLOSE
	rx         rxWindow

	// Send side.
	sendCredit  uint32
	writeClosed bool
	openPending bool // OPEN not yet on the wire (dial side)

	resetErr error
	closed   bool

	rdeadline deadline
	wdeadline deadline

	// Hand-through (WriteBatchTo): the chunks lent out of the list for one
	// batch and the vector over their bytes. lmu serializes batches and
	// guards these; the lent blocks are in no list, so Close cannot free
	// them while the batch is being written.
	lmu  sync.Mutex
	lent [batchFrames]chunk
	lvec [batchFrames][]byte
	lbuf net.Buffers
}

func newStream(l *Link, id uint32, credit uint32) *Stream {
	s := &Stream{link: l, id: id, sendCredit: credit, rx: rxWindow{size: l.cfg.window}}
	s.readCond = sync.NewCond(&s.mu)
	s.writeCond = sync.NewCond(&s.mu)
	s.rdeadline.cond = s.readCond
	s.wdeadline.cond = s.writeCond
	return s
}

// reserve picks where the read loop reads the next n-byte DATA payload:
// at off in the tail chunk's block when it has n bytes to spare — so a
// peer sending small frames fills blocks instead of pinning one per frame
// — or, with bp nil, in a fresh block. live is false for stale data (the
// stream finished locally while the frame was in flight). A peer
// overrunning its credit is a protocol violation that kills the link.
func (s *Stream) reserve(n int) (bp *[]byte, off int, live bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.resetErr != nil || s.readClosed {
		return nil, 0, false, nil
	}
	if s.unacked+n > s.rx.size {
		return nil, 0, false, fmt.Errorf("stream %d overran its %d-byte receive window", s.id, s.rx.size)
	}
	if k := len(s.chunks); k > 0 {
		if tail := s.chunks[k-1]; len(*tail.bp)-tail.end >= n {
			s.filling = true
			return tail.bp, tail.end, true, nil
		}
	}
	return nil, 0, true, nil
}

// commit ends the reservation: the read loop read n payload bytes to
// (*bp)[off:], or none (n == 0) because the link died. The bytes become
// readable only here, under s.mu. A Close in between dropped the chunk
// list, and the block with it is the read loop's to return.
func (s *Stream) commit(bp *[]byte, off, n int) {
	s.mu.Lock()
	switch {
	case s.closed, n == 0 && !s.filling:
		s.mu.Unlock()
		putBlock(bp)
		return
	case s.filling:
		s.filling = false
		s.chunks[len(s.chunks)-1].end += n
	default:
		s.chunks = append(s.chunks, chunk{bp: bp, end: n})
	}
	s.buffered += n
	s.unacked += n
	s.arrivedLocked(n)
	s.mu.Unlock()
	s.readCond.Broadcast()
}

func (s *Stream) deliverEOF() {
	s.mu.Lock()
	s.readClosed = true
	s.mu.Unlock()
	s.readCond.Broadcast()
}

func (s *Stream) deliverReset(err error) {
	s.mu.Lock()
	if s.resetErr == nil {
		s.resetErr = err
	}
	s.mu.Unlock()
	s.readCond.Broadcast()
	s.writeCond.Broadcast()
}

// addCredit applies a WINDOW grant from the peer. No receiver lets a
// stream's unspent credit exceed its window, and no window exceeds
// wire.MaxMuxWindow, so a grant past that is a protocol violation that
// kills the link, like an overrun in reserve — rather than a counter the
// peer could wrap.
func (s *Stream) addCredit(n uint32) error {
	s.mu.Lock()
	if uint64(s.sendCredit)+uint64(n) > wire.MaxMuxWindow {
		credit := s.sendCredit
		s.mu.Unlock()
		return fmt.Errorf("stream %d granted %d bytes on top of %d unspent, past the %d-byte window cap",
			s.id, n, credit, wire.MaxMuxWindow)
	}
	s.sendCredit += n
	s.mu.Unlock()
	s.writeCond.Broadcast()
	return nil
}

// Read returns stream payload; EOF after the peer's CLOSE drains. A
// zero-length Read returns at once, as on a TCP conn.
func (s *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	for {
		if s.buffered > 0 {
			break
		}
		if s.resetErr != nil {
			err := s.resetErr
			s.mu.Unlock()
			return 0, err
		}
		if s.readClosed {
			s.mu.Unlock()
			return 0, io.EOF
		}
		if s.closed {
			s.mu.Unlock()
			return 0, ErrLinkClosed
		}
		if s.rdeadline.expired() {
			s.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		s.readCond.Wait()
	}
	n := 0
	for n < len(p) && s.buffered > 0 {
		c := &s.chunks[0]
		k := copy(p[n:], (*c.bp)[c.off:c.end])
		n += k
		c.off += k
		s.buffered -= k
		if c.off == c.end && !(s.filling && len(s.chunks) == 1) {
			// Drained, and not the block the read loop is appending to
			// (that chunk stays listed, empty, until commit).
			putBlock(c.bp)
			k := copy(s.chunks, s.chunks[1:])
			s.chunks[k] = chunk{}
			s.chunks = s.chunks[:k]
		}
	}
	grant := s.grantLocked()
	s.mu.Unlock()
	if grant > 0 {
		s.link.writeWindow(s.id, grant)
	}
	return n, nil
}

// grantLocked returns the credit to give back to the peer now that bytes
// have left the buffer, once a meaningful share of the window has —
// batching grants keeps frame chatter low — or once the buffer is empty.
// A grant that finds the buffer empty may also grow the window (window.go),
// and then carries the growth on top of the bytes consumed. s.mu is held.
func (s *Stream) grantLocked() int {
	consumed := s.unacked - s.buffered
	if consumed < s.rx.size/4 && (s.buffered > 0 || consumed == 0) {
		return 0
	}
	now := s.link.now()
	s.stampLocked(now)
	s.unacked -= consumed
	if s.buffered == 0 {
		return consumed + s.growLocked(now)
	}
	return consumed
}

// WriteBatchTo hands one batch of received payload to w without copying
// it. It waits as Read does, takes up to maxBatch bytes of committed
// chunks off the front of the list — never the block the read loop is
// filling — and grants the peer credit for them as Read would. Then it
// writes the batch in one vectored write: coalesced DATA frames when w is
// a *Stream, one writev (net.Buffers) otherwise. The blocks belong to the
// batch until that write returns and go back to the pool after it. It
// returns the bytes w took, and io.EOF once the peer's CLOSE drains.
func (s *Stream) WriteBatchTo(w io.Writer) (int, error) {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	lent, n, grant, err := s.lend()
	if err != nil {
		return 0, err
	}
	if grant > 0 {
		s.link.writeWindow(s.id, grant)
	}
	vec := s.lvec[:len(lent)]
	for i, c := range lent {
		vec[i] = (*c.bp)[c.off:c.end]
	}
	var wrote int
	if ds, ok := w.(*Stream); ok {
		wrote, err = ds.send(vec, n)
	} else {
		s.lbuf = vec
		var w64 int64
		w64, err = s.lbuf.WriteTo(w)
		wrote = int(w64)
	}
	for i := range lent {
		putBlock(lent[i].bp)
	}
	clear(lent)
	clear(vec)
	return wrote, err
}

// lend waits for committed payload and takes a batch of it out of the
// chunk list into s.lent: whole chunks from the front, at most
// batchFrames of them and — past the first — maxBatch bytes, stopping at
// a tail the read loop is filling. Committed bytes in that tail alone are
// not enough to return: commit is on its way and will wake the wait.
// s.lmu is held.
func (s *Stream) lend() (lent []chunk, n, grant int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		lendable := s.buffered
		if s.filling {
			tail := s.chunks[len(s.chunks)-1]
			lendable -= tail.end - tail.off
		}
		if lendable > 0 {
			break
		}
		if s.buffered == 0 {
			if s.resetErr != nil {
				return nil, 0, 0, s.resetErr
			}
			if s.readClosed {
				return nil, 0, 0, io.EOF
			}
		}
		if s.closed {
			return nil, 0, 0, ErrLinkClosed
		}
		if s.rdeadline.expired() {
			return nil, 0, 0, os.ErrDeadlineExceeded
		}
		s.readCond.Wait()
	}
	avail := len(s.chunks)
	if s.filling {
		avail--
	}
	k := 0
	for ; k < min(avail, batchFrames); k++ {
		c := s.chunks[k]
		if k > 0 && n+c.end-c.off > maxBatch {
			break
		}
		s.lent[k] = c
		n += c.end - c.off
	}
	rest := copy(s.chunks, s.chunks[k:])
	clear(s.chunks[rest:])
	s.chunks = s.chunks[:rest]
	s.buffered -= n
	return s.lent[:k], n, s.grantLocked(), nil
}

// WriteTo hands the stream's payload to w batch by batch (WriteBatchTo)
// until the peer's CLOSE drains, so io.Copy from a stream copies nothing
// in user space.
func (s *Stream) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		n, err := s.WriteBatchTo(w)
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Write sends payload toward the peer, blocking on stream credit (the
// session-layer backpressure); each batch of up to four frames is one
// writev.
func (s *Stream) Write(p []byte) (int, error) {
	return s.send([][]byte{p}, len(p))
}

// send writes the n bytes of bufs as DATA, a batch at a time: each batch
// waits for credit, takes up to maxBatch bytes of it, and goes out in one
// writeData. It consumes bufs in place.
func (s *Stream) send(bufs [][]byte, n int) (int, error) {
	total := 0
	for total < n {
		k, withOpen, err := s.takeCredit(n - total)
		if err != nil {
			return total, err
		}
		if bufs, err = s.link.writeData(s.id, bufs, k, withOpen); err != nil {
			return total, err
		}
		total += k
	}
	return total, nil
}

// takeCredit waits for send credit and reserves up to want bytes of it,
// at most one batch. withOpen reports that the stream's OPEN has yet to
// go out, in front of this batch.
func (s *Stream) takeCredit(want int) (k int, withOpen bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.resetErr != nil {
			return 0, false, s.resetErr
		}
		if s.writeClosed || s.closed {
			return 0, false, ErrWriteClosed
		}
		if s.wdeadline.expired() {
			return 0, false, os.ErrDeadlineExceeded
		}
		if s.sendCredit > 0 {
			break
		}
		s.writeCond.Wait()
	}
	k = min(want, int(s.sendCredit), maxBatch)
	s.sendCredit -= uint32(k)
	withOpen, s.openPending = s.openPending, false
	return k, withOpen, nil
}

// CloseWrite half-closes the stream: the peer reads EOF once buffered
// data drains. A never-written stream flushes its pending OPEN first so
// the peer observes an (empty) stream rather than nothing.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if s.writeClosed || s.closed || s.resetErr != nil {
		s.mu.Unlock()
		return nil
	}
	s.writeClosed = true
	withOpen := s.openPending
	s.openPending = false
	s.mu.Unlock()
	return s.link.writeFrame(wire.MuxClose, s.id, withOpen)
}

// Close finishes the stream locally. Unless both directions already
// completed cleanly it aborts the peer with RESET; either way the stream
// leaves the link (freeing its slot for max-streams accounting).
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	clean := s.writeClosed && (s.readClosed || s.resetErr != nil)
	sendReset := !clean && s.resetErr == nil && !s.openPending
	// Unread payload goes back to the pool, except a block the read loop
	// is filling right now: commit returns that one.
	for i, c := range s.chunks {
		if !s.filling || i < len(s.chunks)-1 {
			putBlock(c.bp)
		}
	}
	s.chunks = nil
	s.filling = false
	s.buffered = 0
	s.link.grown.Add(-int64(s.rx.size - s.link.cfg.window)) // the window's grown part goes back to the link budget
	// An armed deadline's timer holds the stream until it fires — a 30 s
	// confirm deadline would keep every closed stream in memory that long.
	s.rdeadline.set(time.Time{})
	s.wdeadline.set(time.Time{})
	s.mu.Unlock()
	s.readCond.Broadcast()
	s.writeCond.Broadcast()
	if sendReset {
		s.link.writeFrame(wire.MuxReset, s.id, false)
	}
	s.link.removeStream(s.id)
	return nil
}

// LocalAddr reports the trunk's local address.
func (s *Stream) LocalAddr() net.Addr { return s.link.nc.LocalAddr() }

// RemoteAddr reports the trunk peer's address.
func (s *Stream) RemoteAddr() net.Addr { return s.link.nc.RemoteAddr() }

// SetDeadline sets both read and write deadlines.
func (s *Stream) SetDeadline(t time.Time) error {
	s.SetReadDeadline(t)
	s.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline bounds blocked Reads.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdeadline.set(t)
	s.mu.Unlock()
	return nil
}

// SetWriteDeadline bounds Writes blocked on stream credit.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	s.wdeadline.set(t)
	s.mu.Unlock()
	return nil
}

// deadline wakes a cond when its time passes; waiters re-check expired()
// after every wakeup. Guarded by the stream mutex.
type deadline struct {
	t     time.Time
	timer *time.Timer
	cond  *sync.Cond
}

// set arms the deadline; the stream mutex is held. The timer broadcasts
// under the mutex too: a waiter that found the deadline unexpired is then
// either still before that check or already asleep in Wait, never in
// between where a bare Broadcast would miss it.
func (d *deadline) set(t time.Time) {
	d.t = t
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	if t.IsZero() {
		return
	}
	cond := d.cond
	if dur := time.Until(t); dur <= 0 {
		cond.Broadcast()
	} else {
		d.timer = time.AfterFunc(dur, func() {
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		})
	}
}

func (d *deadline) expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}
