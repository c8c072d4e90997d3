// Package stripe implements the paper's §VII future work: session-layer
// framing and parallel TCP streams. A striped transfer carries one logical
// byte stream over N concurrent LSL sessions ("stripes"), each of which
// may take a different loose source route — combining the PSockets-style
// parallel-socket idea the paper cites with LSL's multi-path routing.
//
// Framing rides *on top of* ordinary sessions, keeping the wire protocol
// of package wire untouched: each stripe stream begins with a group
// header naming the stripe group (the logical transfer) and this stripe's
// index, and then carries length-prefixed frames tagged with their offset
// in the logical stream. The receiver reassembles frames by offset: the
// frame at the contiguous prefix passes through to the sink as its bytes
// arrive, frames beyond it wait whole in a bounded buffer.
//
// Layout per stripe stream:
//
//	group header: magic "LSLS" | version u8 | group [16] | index u8 | count u8 | totalLen u64
//	frame:        offset u64 | length u32 | payload...
//	(a zero-length frame marks the stripe's end)
//
// A stream with a backward channel opens with magic "LSLT" instead; the
// receiver then emits compact ack records on it:
//
//	ack: magic "LSLA" | flushed u64 | seen u64 | count u8 | accepted u64 × count
//
// flushed is the group-wide contiguous prefix, seen is how many payload
// bytes this particular stream has delivered (duplicates included — it
// measures pipe drain, not contribution), and accepted[i] is how many
// non-duplicate payload bytes stripe index i has contributed so far. A
// Sender takes the magic from the stream it is handed: "LSLT" over a
// duplex stream, whose acks it reads, and the ackless "LSLS" over a
// one-way writer, which gets no ack records back.
package stripe

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"lsl/internal/wire"
)

// Limits and sizes.
const (
	// MaxStripes bounds the fan-out of one group.
	MaxStripes = 32
	// DefaultFrameSize is the striping granularity.
	DefaultFrameSize = 256 << 10
	// MaxFrameSize bounds a frame's declared payload length. The frame
	// length field arrives from the network; without a cap a corrupt or
	// hostile stream could make the receiver allocate 4 GiB per frame.
	MaxFrameSize = 8 << 20
	// DefaultMaxPending bounds the receiver's out-of-order reassembly
	// buffer: a fast stripe running ahead of the contiguous prefix may
	// buffer at most this many bytes before the group is failed.
	DefaultMaxPending = 256 << 20
	// DefaultAckEvery is how many delivered payload bytes a receiver lets
	// pass on one stream between ack records (when acks are on at all).
	DefaultAckEvery = 64 << 10
	// groupHeaderLen: magic(4) version(1) group(16) index(1) count(1) total(8).
	groupHeaderLen = 31
	frameHeaderLen = 12
	// ackFixedLen: magic(4) flushed(8) seen(8) count(1).
	ackFixedLen = 21
)

var (
	magicStripe = [4]byte{'L', 'S', 'L', 'S'}
	// magicStripeAck marks a stream whose sender reads ack records on its
	// backward channel: a Sender opens with it exactly when the stream is
	// duplex (see Sender.Attach).
	magicStripeAck = [4]byte{'L', 'S', 'L', 'T'}
	magicAck       = [4]byte{'L', 'S', 'L', 'A'}
)

// Errors.
var (
	ErrBadGroupHeader = errors.New("stripe: bad group header")
	ErrFrameOverlap   = errors.New("stripe: overlapping or duplicate frame")
	ErrShortStream    = errors.New("stripe: stream ended before declared length")
	// ErrFrameTooLarge reports a frame whose declared length exceeds
	// MaxFrameSize — the stream is corrupt or hostile.
	ErrFrameTooLarge = errors.New("stripe: frame length over MaxFrameSize")
	// ErrPendingOverflow reports that out-of-order frames beyond the
	// contiguous prefix exceeded the receiver's pending-bytes limit
	// (one stripe is running too far ahead of a stalled one).
	ErrPendingOverflow = errors.New("stripe: pending reassembly buffer over limit")
	// ErrBadAck reports a malformed ack record on the backward channel.
	ErrBadAck = errors.New("stripe: bad ack record")
	// ErrFrameBeyondEnd reports a frame reaching past the group's
	// declared length.
	ErrFrameBeyondEnd = errors.New("stripe: frame beyond declared length")
)

// GroupHeader opens each stripe stream.
type GroupHeader struct {
	Group    wire.SessionID // identifies the logical transfer
	Index    uint8          // this stripe's number
	Count    uint8          // total stripes in the group
	TotalLen uint64         // logical stream length
	// Acks marks the sender as ack-capable: the receiver should emit Ack
	// records on this stream's backward channel. Encoded as the "LSLT"
	// magic instead of "LSLS".
	Acks bool
}

// Encode serializes the group header.
func (g *GroupHeader) Encode() []byte {
	magic := magicStripe
	if g.Acks {
		magic = magicStripeAck
	}
	out := append(make([]byte, 0, groupHeaderLen), magic[:]...)
	out = append(out, wire.Version)
	out = append(out, g.Group[:]...)
	out = append(out, g.Index, g.Count)
	return wire.AppendU64(out, g.TotalLen)
}

// ReadGroupHeader decodes a group header from r. Both the classic "LSLS"
// magic and the ack-requesting "LSLT" are accepted; the latter sets Acks.
// Every failure matches ErrBadGroupHeader; a read failure also matches its
// cause (wire.ErrTruncated for a stream ending inside the header).
func ReadGroupHeader(r io.Reader) (*GroupHeader, error) {
	var buf [groupHeaderLen]byte
	if err := wire.ReadFull(r, buf[:], wire.ErrTruncated); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadGroupHeader, err)
	}
	g := &GroupHeader{Acks: [4]byte(buf[:]) == magicStripeAck}
	d := wire.NewDec(buf[4:])
	if (!g.Acks && [4]byte(buf[:]) != magicStripe) || d.U8() != wire.Version {
		return nil, ErrBadGroupHeader
	}
	d.Fill(g.Group[:])
	g.Index, g.Count, g.TotalLen = d.U8(), d.U8(), d.U64()
	if g.Count == 0 || g.Count > MaxStripes || g.Index >= g.Count {
		return nil, ErrBadGroupHeader
	}
	return g, nil
}

// Ack is one delivery report from the receiver, flowing backward along a
// stripe stream. Flushed is the group-wide contiguous prefix; Seen counts
// the payload bytes this particular stream has carried (duplicates
// included), which is what a sender needs for in-flight accounting; and
// Accepted[i] is stripe index i's non-duplicate contribution so far.
type Ack struct {
	Flushed  int64
	Seen     int64
	Accepted []int64
}

// Encode serializes the ack record.
func (a *Ack) Encode() []byte {
	out := append(make([]byte, 0, ackFixedLen+8*len(a.Accepted)), magicAck[:]...)
	out = wire.AppendU64(out, uint64(a.Flushed))
	out = wire.AppendU64(out, uint64(a.Seen))
	out = append(out, uint8(len(a.Accepted)))
	for _, v := range a.Accepted {
		out = wire.AppendU64(out, uint64(v))
	}
	return out
}

// ReadAck decodes one ack record from r. All counts come off the network,
// so they are bounds-checked: at most MaxStripes per-stripe entries and
// no value may overflow int64. io.EOF before the first byte passes
// through: the backward channel ended between records. Every other
// failure matches ErrBadAck; a read failure also matches its cause
// (wire.ErrTruncated for a stream ending inside the record).
func ReadAck(r io.Reader) (*Ack, error) {
	var buf [ackFixedLen + 8*MaxStripes]byte
	if err := wire.ReadNext(r, buf[:ackFixedLen], wire.ErrTruncated); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrBadAck, err)
	}
	d := wire.NewDec(buf[4:]) // the fixed part, then the entries read below
	flushed, seen, n := d.U64(), d.U64(), int(d.U8())
	if [4]byte(buf[:]) != magicAck || n > MaxStripes || flushed > 1<<62 || seen > 1<<62 {
		return nil, ErrBadAck
	}
	a := &Ack{Flushed: int64(flushed), Seen: int64(seen)}
	if n == 0 {
		return a, nil
	}
	if err := wire.ReadFull(r, buf[ackFixedLen:ackFixedLen+8*n], wire.ErrTruncated); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadAck, err)
	}
	a.Accepted = make([]int64, n)
	for i := range a.Accepted {
		v := d.U64()
		if v > 1<<62 {
			return nil, ErrBadAck
		}
		a.Accepted[i] = int64(v)
	}
	return a, nil
}

// writeFrame emits one offset-tagged frame in a single Write. buf is
// frameHeaderLen bytes of header room followed by the payload (nothing
// else for the end frame); the header is filled in place, so a frame
// leaves as one segment rather than a lone 12-byte header ahead of its
// payload.
func writeFrame(w io.Writer, offset uint64, buf []byte) error {
	wire.AppendU32(wire.AppendU64(buf[:0], offset), uint32(len(buf)-frameHeaderLen))
	_, err := w.Write(buf)
	return err
}

// readFrameHeader reads one frame header and returns the frame's offset
// and payload length (0 for the end frame). The length field is untrusted
// network input: anything above MaxFrameSize is rejected before the
// receiver can buffer that much. io.EOF before the first header byte
// passes through.
func readFrameHeader(r io.Reader) (uint64, int, error) {
	var hdr [frameHeaderLen]byte
	if err := wire.ReadNext(r, hdr[:], wire.ErrTruncated); err != nil {
		return 0, 0, err
	}
	d := wire.NewDec(hdr[:])
	off, length := d.U64(), d.U32()
	if length > MaxFrameSize {
		return 0, 0, ErrFrameTooLarge
	}
	return off, int(length), nil
}

// copyBufSize is the receiver's copy unit: a frame passing through to the
// sink, or a replay being dropped, is read in pieces of at most this many
// bytes through one pooled buffer per attached stream.
const copyBufSize = 32 << 10

var copyBufs = sync.Pool{New: func() any { b := make([]byte, copyBufSize); return &b }}

// Receiver reassembles one stripe group into a contiguous stream. Attach
// may be called concurrently from one goroutine per stripe; reassembly is
// serialized internally.
//
// The receiver is cut-through, like a depot: the frame at the contiguous
// prefix passes to the sink piece by piece as its bytes arrive, so the
// sink's first byte does not wait for a whole frame. Only frames beyond
// the prefix, and a duplicate of the frame passing through, are buffered
// whole.
//
// The receiver survives stripe death: a replacement stream for the same
// stripe index may attach at any time (it re-sends the group header), and
// frames it replays that the receiver already holds — flushed or pending —
// are dropped silently. A stream that dies inside the frame passing
// through leaves that frame partly flushed; a later copy with exactly its
// bounds (a replay, a requeue, an older sender's duplicate) finishes it from
// the first byte still missing. This is what makes sender-side stripe
// healing possible without per-frame acknowledgements.
type Receiver struct {
	mu      sync.Mutex
	Header  *GroupHeader // from the first stripe attached
	total   int64
	written int64
	// head is the frame at the contiguous prefix that has started to
	// flush: its bytes before written are out, the rest are not (n == 0:
	// none). It is the one frame a copy may arrive for at an offset below
	// written.
	head frame
	// streamer is the claim of the Attach call passing head through right
	// now; 0 when none is (the stream carrying it died, or a complete
	// duplicate overtook it). claims numbers the claims.
	streamer, claims uint64
	// pending frames beyond the contiguous prefix, keyed by offset.
	pending      map[int64][]byte
	pendingBytes int64
	maxPending   int64 // in-package tests shrink it before attaching
	// flushed records each flushed frame's offset -> length so a healed
	// stripe's exact replays can be told apart from corrupt overlaps.
	flushed map[int64]int32
	// accepted[i] counts the payload bytes stripe index i landed first,
	// for ack attribution. Allocated when the first header arrives.
	accepted []int64
	ackEvery int64 // delivered bytes between acks on one stream
	out      io.Writer
	joined   int
}

// NewReceiver builds a reassembler writing the logical stream into out.
// The out-of-order buffer is capped at DefaultMaxPending bytes.
func NewReceiver(out io.Writer) *Receiver {
	return &Receiver{
		pending:    make(map[int64][]byte),
		flushed:    make(map[int64]int32),
		maxPending: DefaultMaxPending,
		ackEvery:   DefaultAckEvery,
		out:        out,
	}
}

// Attach consumes one stripe stream (blocking) and feeds its frames into
// the reassembler. Call it once per stripe, typically on its own
// goroutine. A frame arriving at the contiguous prefix is written to the
// sink as it is read, so the sink may see part of a frame whose stream
// then fails; the frame's remaining bytes come from whichever copy of it
// lands next.
//
// If the stream's group header requests acks ("LSLT") and the stream is
// also an io.Writer (an LSL session is), Attach writes Ack records back
// every DefaultAckEvery delivered bytes, at the stream's end frame, and at
// the moment this stream's frame completes the whole group. An ack's
// Flushed may fall inside a frame that is still passing through. Ack
// write errors stop further acks on this stream but do not fail
// reassembly — the sender degrades to its ackless behavior.
func (r *Receiver) Attach(stream io.Reader) error {
	gh, err := ReadGroupHeader(stream)
	if err != nil {
		return err
	}
	if err := r.register(gh); err != nil {
		return err
	}
	var ackW io.Writer
	if gh.Acks {
		ackW, _ = stream.(io.Writer)
	}
	var seen, lastAcked int64
	sendAck := func() {
		if ackW == nil {
			return
		}
		r.mu.Lock()
		a := Ack{Flushed: r.written, Seen: seen, Accepted: append([]int64(nil), r.accepted...)}
		r.mu.Unlock()
		if _, err := ackW.Write(a.Encode()); err != nil {
			ackW = nil
		}
		lastAcked = seen
	}
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	for {
		off, n, err := readFrameHeader(stream)
		if err != nil {
			return fmt.Errorf("stripe %d: %w", gh.Index, err)
		}
		if n == 0 {
			if int64(off) != r.total {
				return fmt.Errorf("stripe %d: end frame at %d, want %d", gh.Index, off, r.total)
			}
			sendAck()
			return nil
		}
		seen += int64(n)
		completed, err := r.take(int(gh.Index), stream, int64(off), n, *bp)
		if err != nil {
			return fmt.Errorf("stripe %d: %w", gh.Index, err)
		}
		if completed || (ackW != nil && seen-lastAcked >= r.ackEvery) {
			sendAck()
		}
	}
}

// register validates stripe membership against the first-seen group.
func (r *Receiver) register(gh *GroupHeader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Header == nil {
		r.Header = gh
		r.total = int64(gh.TotalLen)
		r.accepted = make([]int64, gh.Count)
	} else {
		if gh.Group != r.Header.Group || gh.Count != r.Header.Count || gh.TotalLen != r.Header.TotalLen {
			return fmt.Errorf("stripe: inconsistent group header on stripe %d", gh.Index)
		}
	}
	r.joined++
	return nil
}

// What an arriving frame is to the reassembly (see classifyLocked).
const (
	frameDrop  = iota // a replay of bytes already flushed or pending
	frameHead         // the frame at the contiguous prefix: new, or a copy of the head
	frameLater        // a frame beyond the contiguous prefix
)

// classifyLocked places a frame of n > 0 bytes at off. Replays are
// tolerated: healing a dead stripe re-sends every frame of its last
// generation, a superseded or abandoned stripe's unconfirmed frames
// requeue onto the survivors although some may have landed, and older
// senders duplicate a slow stripe's final frames on a fast one — so a
// frame wholly inside the flushed prefix, or equal in length to a
// buffered pending frame at the same offset, is a drop, and a copy of the
// head frame with its exact bounds finishes it. Any other overlap with the flushed prefix, the
// head or a pending frame at the same offset fails — frame boundaries are
// fixed when the sender dispatches them, so a mismatched boundary means
// corruption, not healing. So does a frame reaching past the declared
// length: it could never flush.
func (r *Receiver) classifyLocked(off int64, n int) (int, error) {
	if off < 0 || off > r.total-int64(n) {
		return 0, fmt.Errorf("%w: %d bytes at %d of %d", ErrFrameBeyondEnd, n, off, r.total)
	}
	if r.head.n > 0 && off == r.head.off {
		if n != r.head.n {
			return 0, ErrFrameOverlap
		}
		return frameHead, nil
	}
	if off < r.written {
		if m, ok := r.flushed[off]; ok && int(m) == n {
			return frameDrop, nil
		}
		return 0, ErrFrameOverlap
	}
	if r.head.n > 0 && off < r.head.off+int64(r.head.n) {
		return 0, ErrFrameOverlap
	}
	if prev, ok := r.pending[off]; ok {
		if len(prev) != n {
			return 0, ErrFrameOverlap
		}
		return frameDrop, nil
	}
	if off == r.written {
		return frameHead, nil
	}
	return frameLater, nil
}

// take moves one frame of n payload bytes at off, read from stripe idx's
// stream, into the reassembly. It reports whether the frame completed the
// group (the caller acks that moment immediately).
//
// The frame at the contiguous prefix — new, or a copy of a partly flushed
// head nobody is passing through — is claimed and passes through to the
// sink; a replay is read and dropped. Either way the bytes move through
// buf and nothing is allocated. A frame beyond the prefix, or a duplicate
// of the head frame while another stream passes it through, is read
// whole and then ingested.
func (r *Receiver) take(idx int, stream io.Reader, off int64, n int, buf []byte) (bool, error) {
	r.mu.Lock()
	kind, err := r.classifyLocked(off, n)
	var claim uint64
	if err == nil && kind == frameHead && r.streamer == 0 {
		r.head = frame{off: off, n: n}
		r.claims++
		claim, r.streamer = r.claims, r.claims
	}
	r.mu.Unlock()
	switch {
	case err != nil:
		return false, err
	case kind == frameDrop || claim != 0:
		return r.pass(idx, stream, off, n, claim, buf)
	}
	payload := make([]byte, n)
	if err := wire.ReadFull(stream, payload, wire.ErrTruncated); err != nil {
		return false, err
	}
	return r.ingest(idx, off, payload)
}

// pass reads the n payload bytes of the frame at off from stream through
// buf. While claim is the receiver's streamer, each piece's bytes past
// written land in the sink as soon as they are read. Otherwise — claim 0
// for a drop, or a claim lost to a complete duplicate — the bytes are
// read and discarded. A stream that ends inside the frame releases the
// claim, leaving the head partly flushed for its next copy.
func (r *Receiver) pass(idx int, stream io.Reader, off int64, n int, claim uint64, buf []byte) (completed bool, err error) {
	defer func() {
		if err != nil && claim != 0 {
			r.mu.Lock()
			if r.streamer == claim {
				r.streamer = 0
			}
			r.mu.Unlock()
		}
	}()
	for got := 0; got < n; {
		k, rerr := stream.Read(buf[:min(len(buf), n-got)])
		if k > 0 && claim != 0 {
			r.mu.Lock()
			if r.streamer == claim {
				p := buf[:k]
				if skip := r.written - off - int64(got); skip > 0 {
					p = p[min(skip, int64(k)):]
				}
				if len(p) > 0 {
					err = r.landLocked(idx, p)
					completed = r.written == r.total
				}
			}
			r.mu.Unlock()
			if err != nil {
				return false, err
			}
		}
		if got += k; rerr != nil && got < n {
			return false, wire.ReadErr(rerr, wire.ErrTruncated)
		}
	}
	return completed, nil
}

// ingest adds a frame from stripe index idx that was read whole. A frame
// at the prefix, or a copy of the head frame, flushes at once from its
// first missing byte — a complete duplicate overtakes a stream still
// passing the head through, whose remaining bytes are then dropped, so
// whichever copy lands first wins. A frame beyond the prefix waits in
// pending. It reports whether this frame just completed the group.
func (r *Receiver) ingest(idx int, off int64, payload []byte) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kind, err := r.classifyLocked(off, len(payload))
	switch {
	case err != nil:
		return false, err
	case kind == frameDrop:
		return false, nil
	case kind == frameLater:
		if r.pendingBytes+int64(len(payload)) > r.maxPending {
			return false, fmt.Errorf("%w: %d + %d > %d", ErrPendingOverflow,
				r.pendingBytes, len(payload), r.maxPending)
		}
		r.accepted[idx] += int64(len(payload))
		r.pending[off] = payload
		r.pendingBytes += int64(len(payload))
		return false, nil
	}
	r.head, r.streamer = frame{off: off, n: len(payload)}, 0
	if err := r.landLocked(idx, payload[r.written-off:]); err != nil {
		return false, err
	}
	return r.written == r.total, nil
}

// landLocked writes p, the next bytes of the head frame, to the sink and
// credits them to stripe idx. When p ends the head, the frame is recorded
// as flushed and the pending frames it makes contiguous follow it out.
func (r *Receiver) landLocked(idx int, p []byte) error {
	if _, err := r.out.Write(p); err != nil {
		return err
	}
	r.written += int64(len(p))
	r.accepted[idx] += int64(len(p))
	if r.written < r.head.off+int64(r.head.n) {
		return nil
	}
	r.flushed[r.head.off] = int32(r.head.n)
	r.head, r.streamer = frame{}, 0
	for {
		next, ok := r.pending[r.written]
		if !ok {
			return nil
		}
		delete(r.pending, r.written)
		r.pendingBytes -= int64(len(next))
		if _, err := r.out.Write(next); err != nil {
			return err
		}
		r.flushed[r.written] = int32(len(next))
		r.written += int64(len(next))
	}
}

// AcceptedBytes returns each stripe index's contribution to the
// reassembled stream so far: the payload bytes it landed first, buffered
// ones included, so a frame finished by a second copy splits between the
// two stripes (nil before the first header arrives).
func (r *Receiver) AcceptedBytes() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.accepted...)
}

// Complete reports whether the whole logical stream has been written out.
func (r *Receiver) Complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Header != nil && r.written == r.total && len(r.pending) == 0
}

// Written returns the contiguous bytes flushed so far.
func (r *Receiver) Written() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.written
}
