// Gossip framing: the on-the-wire format of the depot-to-depot forecast
// exchange (internal/gossip).
//
// A gossip exchange is a short conversation between two depots' logistics
// planners, carried over one transport connection (a fresh TCP connection
// or a stream on an existing mux trunk — the accept side dispatches on the
// magic "LSLG", distinct in its fourth byte from "LSL1"/"LSLA"/"LSLM").
// Two frame kinds implement a classic anti-entropy push-pull:
//
//	DIGEST  the sender's per-(edge, metric, origin) observation summary
//	        *keys* — who measured what edge, how many hops ago, and when —
//	        without values. Small; lets the peer compute exactly the
//	        entries the sender is missing.
//	DELTA   full observations (key + forecast value + sample count) the
//	        sender believes the peer lacks or holds stale.
//
// The dialer opens with its DIGEST; the acceptor answers with a DELTA of
// what the dialer is behind on plus its own DIGEST; the dialer closes the
// exchange with the reverse DELTA. Merging is idempotent (last-writer-wins
// by observation timestamp), so duplicate deliveries are harmless.
//
// Like every other LSL decoder, the gossip decoder is bounded: the body
// length is validated against MaxGossipBody before any allocation, entry
// counts against MaxGossipEntries, and malformed input returns an error —
// never a panic.

package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// GossipVersion is the gossip protocol version carried in every frame.
const GossipVersion = 1

// MagicGossip opens every gossip frame.
var MagicGossip = [4]byte{'L', 'S', 'L', 'G'}

// IsGossipMagic reports whether b begins a gossip frame (first 4 bytes).
func IsGossipMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == 'L' && b[1] == 'S' && b[2] == 'L' && b[3] == 'G'
}

// Gossip frame kinds.
const (
	// GossipDigest carries observation keys only (no values).
	GossipDigest uint8 = 1
	// GossipDelta carries full observations.
	GossipDelta uint8 = 2
)

// Gossip framing limits.
const (
	// MaxGossipEntries bounds the observations in one frame.
	MaxGossipEntries = 2048
	// MaxGossipBody bounds one frame's body (everything after the fixed
	// header), so a malformed length cannot over-allocate.
	MaxGossipBody = 256 << 10
	// MaxGossipMetric is the highest valid metric id (0 = rtt,
	// 1 = bandwidth, 2 = loss).
	MaxGossipMetric = 2
	// gossipFixedLen: magic(4) version(1) kind(1) count(2) bodyLen(4).
	gossipFixedLen = 12
)

// ErrBadGossipFrame reports a structurally invalid gossip frame.
var ErrBadGossipFrame = errors.New("wire: invalid gossip frame")

// GossipObs is one per-(edge, metric) observation summary with
// provenance: which node measured it (Origin), how many depot-to-depot
// transfers it has undergone (Hops), and when the newest underlying
// measurement happened (TimeUnixNano). Value and Count travel only in
// DELTA frames; a DIGEST carries the key and freshness alone.
type GossipObs struct {
	From, To string // directed edge, overlay node names
	Origin   string // node that measured it
	Metric   uint8  // 0 rtt, 1 bandwidth, 2 loss
	Hops     uint8  // gossip transfers since the origin (0 = origin-local)
	// TimeUnixNano is the newest underlying observation's wall-clock time.
	TimeUnixNano int64
	// Value is the forecast summary (DELTA only).
	Value float64
	// Count is the observation count behind the summary (DELTA only).
	Count uint32
}

// GossipFrame is one decoded gossip frame.
type GossipFrame struct {
	Kind uint8
	Self string // sender's overlay node name
	Obs  []GossipObs
}

// Encode serializes the frame.
func (f *GossipFrame) Encode() ([]byte, error) {
	if f.Kind != GossipDigest && f.Kind != GossipDelta {
		return nil, fmt.Errorf("%w: kind %d", ErrBadGossipFrame, f.Kind)
	}
	if !ValidName(f.Self) {
		return nil, fmt.Errorf("%w: bad self %q", ErrBadGossipFrame, f.Self)
	}
	if len(f.Obs) > MaxGossipEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds %d", ErrTooLarge, len(f.Obs), MaxGossipEntries)
	}
	out := append(make([]byte, 0, 512), MagicGossip[:]...)
	out = append(out, GossipVersion, f.Kind)
	out = AppendU16(out, uint16(len(f.Obs)))
	out = AppendName(AppendU32(out, 0), f.Self) // body length set below
	for i := range f.Obs {
		o := &f.Obs[i]
		if !ValidName(o.From) || !ValidName(o.To) || !ValidName(o.Origin) {
			return nil, fmt.Errorf("%w: bad entry names", ErrBadGossipFrame)
		}
		if o.Metric > MaxGossipMetric {
			return nil, fmt.Errorf("%w: metric %d", ErrBadGossipFrame, o.Metric)
		}
		if f.Kind == GossipDelta && (math.IsNaN(o.Value) || math.IsInf(o.Value, 0)) {
			return nil, fmt.Errorf("%w: non-finite value", ErrBadGossipFrame)
		}
		out = AppendName(out, o.From)
		out = AppendName(out, o.To)
		out = AppendName(out, o.Origin)
		out = append(out, o.Metric, o.Hops)
		out = AppendU64(out, uint64(o.TimeUnixNano))
		if f.Kind == GossipDelta {
			out = AppendU64(out, math.Float64bits(o.Value))
			out = AppendU32(out, o.Count)
		}
	}
	body := len(out) - gossipFixedLen
	if body > MaxGossipBody {
		return nil, ErrTooLarge
	}
	AppendU32(out[:gossipFixedLen-4], uint32(body)) // fills the placeholder in place
	return out, nil
}

// ReadGossipFrame reads and decodes one gossip frame from r. Allocation
// is bounded by the declared body length, validated against MaxGossipBody
// before any body allocation. A clean EOF before the first byte passes
// through as io.EOF.
func ReadGossipFrame(r io.Reader) (*GossipFrame, error) {
	var fixed [gossipFixedLen]byte
	if err := ReadNext(r, fixed[:], ErrTruncated); err != nil {
		return nil, err
	}
	if !IsGossipMagic(fixed[:]) {
		return nil, ErrBadMagic
	}
	d := NewDec(fixed[len(MagicGossip):])
	if d.U8() != GossipVersion {
		return nil, ErrBadVersion
	}
	f := &GossipFrame{Kind: d.U8()}
	if f.Kind != GossipDigest && f.Kind != GossipDelta {
		return nil, fmt.Errorf("%w: kind %d", ErrBadGossipFrame, f.Kind)
	}
	count := int(d.U16())
	if count > MaxGossipEntries {
		return nil, ErrTooLarge
	}
	body, err := ReadBody(r, int(d.U32()), MaxGossipBody, ErrTooLarge, ErrTruncated)
	if err != nil {
		return nil, err
	}
	d = NewDec(body)
	f.Self = d.Name()
	for i := 0; i < count && d.Err() == nil; i++ {
		o := GossipObs{From: d.Name(), To: d.Name(), Origin: d.Name(), Metric: d.U8(), Hops: d.U8()}
		o.TimeUnixNano = int64(d.U64())
		if o.Metric > MaxGossipMetric {
			return nil, fmt.Errorf("%w: metric %d", ErrBadGossipFrame, o.Metric)
		}
		if f.Kind == GossipDelta {
			o.Value = math.Float64frombits(d.U64())
			o.Count = d.U32()
			if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
				return nil, fmt.Errorf("%w: non-finite value", ErrBadGossipFrame)
			}
		}
		f.Obs = append(f.Obs, o)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadGossipFrame, err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadGossipFrame, d.Len())
	}
	return f, nil
}

// GossipKindString names a frame kind for diagnostics.
func GossipKindString(k uint8) string {
	switch k {
	case GossipDigest:
		return "DIGEST"
	case GossipDelta:
		return "DELTA"
	default:
		return fmt.Sprintf("kind-%d", k)
	}
}
