// Mux framing: the on-the-wire format of persistent inter-hop trunks.
//
// A trunk is one long-lived TCP connection multiplexing many LSL sessions
// between a fixed pair of processes (initiator → first depot, or depot →
// next hop). It opens with a hello exchange — magic "LSLM", distinct in
// its fourth byte from the classic per-session magics "LSL1"/"LSLA", so an
// accepting peer can dispatch on the first four bytes of any inbound
// stream — and then carries a sequence of frames:
//
//	type(1) stream(4) length(4) payload(length)
//
//	OPEN   stream s exists from now on (opened by the link's dial side)
//	DATA   payload bytes for stream s (consumes send credit)
//	WINDOW 4-byte credit grant: the receiver drained payload, send more
//	CLOSE  half-close: no more DATA from the sender's direction (EOF)
//	RESET  abort stream s in both directions
//
// Flow control is per-stream credit: each side may have at most the
// hello-advertised window of un-acknowledged DATA outstanding per stream,
// so one fat session cannot head-of-line-starve every other session on
// the trunk. DATA payloads are additionally capped at MaxMuxPayload so a
// single frame cannot monopolize the link for long.
//
// Like the open-header decoder, the frame decoder is bounded: a header is
// validated (DecodeMuxHeader) before anything is allocated or read for its
// payload, so no frame costs more than MaxMuxPayload, and malformed input
// never panics.

package wire

import (
	"errors"
	"fmt"
	"io"
)

// MuxVersion is the trunk protocol version carried in the hello.
const MuxVersion = 1

// MagicMux opens every trunk in both directions.
var MagicMux = [4]byte{'L', 'S', 'L', 'M'}

// IsMuxMagic reports whether b begins a trunk hello (first 4 bytes).
func IsMuxMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == 'L' && b[1] == 'S' && b[2] == 'L' && b[3] == 'M'
}

// Mux frame types.
const (
	MuxOpen uint8 = iota + 1
	MuxData
	MuxWindow
	MuxClose
	MuxReset
)

// Mux framing limits.
const (
	// MaxMuxPayload caps one DATA frame so a fat stream cannot hold the
	// trunk for long (latency bound for everyone else on the link).
	MaxMuxPayload = 64 << 10
	// MaxMuxWindow caps the advertised per-stream receive window.
	MaxMuxWindow = 64 << 20
	// MuxHelloLen is the fixed hello size: magic(4) version(1) window(4)
	// reserved(3).
	MuxHelloLen = 12
	// MuxFrameHeaderLen is the fixed frame header size: type(1) stream(4)
	// length(4).
	MuxFrameHeaderLen = 9
)

// Mux decode errors.
var (
	ErrBadMuxFrame  = errors.New("wire: invalid mux frame")
	ErrBadMuxWindow = errors.New("wire: invalid mux window")
)

// MuxHello is the trunk opening exchange: each side announces the
// per-stream receive window it grants the peer.
type MuxHello struct {
	Window uint32
}

// Encode serializes the hello.
func (h *MuxHello) Encode() []byte {
	out := append(make([]byte, 0, MuxHelloLen), MagicMux[:]...)
	out = append(out, MuxVersion)
	out = AppendU32(out, h.Window)
	return append(out, 0, 0, 0) // reserved
}

// ReadMuxHello reads and validates a hello, magic included.
func ReadMuxHello(r io.Reader) (*MuxHello, error) {
	buf := make([]byte, MuxHelloLen)
	if err := ReadFull(r, buf, ErrTruncated); err != nil {
		return nil, err
	}
	if !IsMuxMagic(buf) {
		return nil, ErrBadMagic
	}
	d := NewDec(buf[len(MagicMux):])
	if d.U8() != MuxVersion {
		return nil, ErrBadVersion
	}
	h := &MuxHello{Window: d.U32()}
	if h.Window == 0 || h.Window > MaxMuxWindow {
		return nil, ErrBadMuxWindow
	}
	return h, nil
}

// MuxFrame is one decoded trunk frame.
type MuxFrame struct {
	Type    uint8
	Stream  uint32
	Payload []byte // DATA only; WINDOW credit is in Credit
	Credit  uint32 // WINDOW only
}

// AppendMuxHeader appends the header of a frame whose payload is length
// bytes, for a sender that writes the payload from where it already is.
func AppendMuxHeader(dst []byte, typ uint8, stream uint32, length int) []byte {
	return AppendU32(AppendU32(append(dst, typ), stream), uint32(length))
}

// AppendMuxFrame appends an encoded frame header plus payload to dst and
// returns the extended slice. The caller is responsible for honoring
// MaxMuxPayload.
func AppendMuxFrame(dst []byte, typ uint8, stream uint32, payload []byte) []byte {
	return append(AppendMuxHeader(dst, typ, stream, len(payload)), payload...)
}

// AppendMuxWindow appends an encoded WINDOW frame granting credit bytes.
func AppendMuxWindow(dst []byte, stream uint32, credit uint32) []byte {
	return AppendU32(AppendMuxHeader(dst, MuxWindow, stream, 4), credit)
}

// MuxHeader is the fixed header in front of every frame.
type MuxHeader struct {
	Type   uint8
	Stream uint32
	Length uint32 // payload bytes that follow
}

// DecodeMuxHeader decodes and validates the first MuxFrameHeaderLen bytes
// of b: the type is known, the length is one that type may carry (so a
// hostile length is refused before anything is allocated or read for it),
// and the stream id is not 0. It is the one frame decoder: the trunk's
// read loop calls it on the buffer it read into, ReadMuxFrame on a header
// it read itself.
func DecodeMuxHeader(b []byte) (MuxHeader, error) {
	d := NewDec(b) // a short b decodes as type 0, which is refused
	h := MuxHeader{Type: d.U8(), Stream: d.U32(), Length: d.U32()}
	switch h.Type {
	case MuxOpen, MuxClose, MuxReset:
		if h.Length != 0 {
			return h, fmt.Errorf("%w: %s frame with %d-byte payload", ErrBadMuxFrame, MuxTypeString(h.Type), h.Length)
		}
	case MuxWindow:
		if h.Length != 4 {
			return h, fmt.Errorf("%w: WINDOW frame with %d-byte payload", ErrBadMuxFrame, h.Length)
		}
	case MuxData:
		if h.Length == 0 || h.Length > MaxMuxPayload {
			return h, fmt.Errorf("%w: DATA frame length %d", ErrBadMuxFrame, h.Length)
		}
	default:
		return h, fmt.Errorf("%w: unknown type %d", ErrBadMuxFrame, h.Type)
	}
	if h.Stream == 0 {
		return h, fmt.Errorf("%w: stream id 0", ErrBadMuxFrame)
	}
	return h, nil
}

// DecodeMuxCredit decodes and validates a WINDOW frame's 4-byte payload.
func DecodeMuxCredit(b []byte) (uint32, error) {
	d := NewDec(b) // a short b decodes as credit 0, which is refused
	credit := d.U32()
	if credit == 0 || credit > MaxMuxWindow {
		return 0, ErrBadMuxWindow
	}
	return credit, nil
}

// ReadMuxFrame reads one frame into a freshly allocated MuxFrame. The
// payload is allocated only after DecodeMuxHeader has bounded its length.
// io.EOF before the first header byte passes through: a clean end of link.
func ReadMuxFrame(r io.Reader) (*MuxFrame, error) {
	var hdr [MuxFrameHeaderLen]byte
	if err := ReadNext(r, hdr[:], ErrTruncated); err != nil {
		return nil, err
	}
	h, err := DecodeMuxHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pay, err := ReadBody(r, int(h.Length), MaxMuxPayload, ErrBadMuxFrame, ErrTruncated)
	if err != nil {
		return nil, err
	}
	f := &MuxFrame{Type: h.Type, Stream: h.Stream}
	switch h.Type {
	case MuxWindow:
		if f.Credit, err = DecodeMuxCredit(pay); err != nil {
			return nil, err
		}
	case MuxData:
		f.Payload = pay
	}
	return f, nil
}

// MuxTypeString names a frame type for diagnostics.
func MuxTypeString(t uint8) string {
	switch t {
	case MuxOpen:
		return "OPEN"
	case MuxData:
		return "DATA"
	case MuxWindow:
		return "WINDOW"
	case MuxClose:
		return "CLOSE"
	case MuxReset:
		return "RESET"
	default:
		return fmt.Sprintf("type-%d", t)
	}
}
