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
// in the logical stream. The receiver reassembles frames by offset.
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

// readFrame reads one frame and returns its offset and payload (empty for
// the end frame). The length field is untrusted network input: anything
// above MaxFrameSize is rejected before a buffer of that size can be
// allocated. io.EOF before the first header byte passes through.
func readFrame(r io.Reader) (uint64, []byte, error) {
	var hdr [frameHeaderLen]byte
	if err := wire.ReadNext(r, hdr[:], wire.ErrTruncated); err != nil {
		return 0, nil, err
	}
	d := wire.NewDec(hdr[:])
	off, length := d.U64(), d.U32()
	payload, err := wire.ReadBody(r, int(length), MaxFrameSize, ErrFrameTooLarge, wire.ErrTruncated)
	return off, payload, err
}

// Receiver reassembles one stripe group into a contiguous stream. Attach
// may be called concurrently from one goroutine per stripe; reassembly is
// serialized internally.
//
// The receiver survives stripe death: a replacement stream for the same
// stripe index may attach at any time (it re-sends the group header), and
// frames it replays that the receiver already holds — flushed or pending —
// are dropped silently. This is what makes sender-side stripe healing
// possible without per-frame acknowledgements.
type Receiver struct {
	mu      sync.Mutex
	Header  *GroupHeader // from the first stripe attached
	total   int64
	written int64
	// pending frames beyond the contiguous prefix, keyed by offset.
	pending      map[int64][]byte
	pendingBytes int64
	maxPending   int64 // in-package tests shrink it before attaching
	// flushed records each flushed frame's offset -> length so a healed
	// stripe's exact replays can be told apart from corrupt overlaps.
	flushed map[int64]int32
	// accepted[i] counts stripe index i's non-duplicate payload bytes, for
	// ack attribution. Allocated when the first header arrives.
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
// goroutine.
//
// If the stream's group header requests acks ("LSLT") and the stream is
// also an io.Writer (an LSL session is), Attach writes Ack records back
// every DefaultAckEvery delivered bytes, at the stream's end frame, and at
// the moment this stream's frame completes the whole group. Ack write
// errors stop further acks on this stream but do not fail reassembly —
// the sender degrades to its ackless behavior.
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
	for {
		off, payload, err := readFrame(stream)
		if err != nil {
			return fmt.Errorf("stripe %d: %w", gh.Index, err)
		}
		if len(payload) == 0 {
			if int64(off) != r.total {
				return fmt.Errorf("stripe %d: end frame at %d, want %d", gh.Index, off, r.total)
			}
			sendAck()
			return nil
		}
		seen += int64(len(payload))
		completed, err := r.ingest(int(gh.Index), int64(off), payload)
		if err != nil {
			return err
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

// ingest adds a frame from stripe index idx, flushing any newly
// contiguous prefix. It reports whether this frame just completed the
// group (the caller acks that moment immediately).
//
// Replays are tolerated: healing a dead stripe re-sends every frame of its
// last generation, and tail speculation deliberately duplicates a slow
// stripe's final frames on a fast one — so a frame wholly inside the
// flushed prefix, or equal in length to a buffered pending frame at the
// same offset, is silently dropped (and NOT attributed to idx: credit
// goes to whichever stripe landed the bytes first). Partial overlaps
// still fail — frame boundaries are fixed when the sender dispatches
// them, so a mismatched boundary means corruption, not healing. So does a
// frame reaching past the declared length: it could never flush.
func (r *Receiver) ingest(idx int, off int64, payload []byte) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off > r.total-int64(len(payload)) {
		return false, fmt.Errorf("%w: %d bytes at %d of %d", ErrFrameBeyondEnd, len(payload), off, r.total)
	}
	if off < r.written {
		if n, ok := r.flushed[off]; ok && int(n) == len(payload) {
			return false, nil // exact replay of an already-flushed frame
		}
		return false, ErrFrameOverlap
	}
	if prev, ok := r.pending[off]; ok {
		if len(prev) == len(payload) {
			return false, nil // replay of a buffered frame
		}
		return false, ErrFrameOverlap
	}
	if idx < len(r.accepted) {
		r.accepted[idx] += int64(len(payload))
	}
	if off == r.written {
		if _, err := r.out.Write(payload); err != nil {
			return false, err
		}
		r.flushed[off] = int32(len(payload))
		r.written += int64(len(payload))
		for {
			next, ok := r.pending[r.written]
			if !ok {
				break
			}
			delete(r.pending, r.written)
			r.pendingBytes -= int64(len(next))
			if _, err := r.out.Write(next); err != nil {
				return false, err
			}
			r.flushed[r.written] = int32(len(next))
			r.written += int64(len(next))
		}
		return r.written == r.total, nil
	}
	if r.pendingBytes+int64(len(payload)) > r.maxPending {
		return false, fmt.Errorf("%w: %d + %d > %d", ErrPendingOverflow,
			r.pendingBytes, len(payload), r.maxPending)
	}
	r.pending[off] = payload
	r.pendingBytes += int64(len(payload))
	return false, nil
}

// AcceptedBytes returns each stripe index's non-duplicate contribution to
// the reassembled stream so far (nil before the first header arrives).
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
