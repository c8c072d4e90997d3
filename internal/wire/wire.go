// Package wire defines the LSL on-the-wire protocol: the session-open
// header that rides at the front of every sublink's TCP stream, the
// accept/reject frames that travel back through the cascade, and the MD5
// integrity trailer exchanged between end systems.
//
// The paper's architecture (§III): a session is identified by a 128-bit
// session identifier; the path through the network is an initiator-
// specified "loose source route" through some number of session-layer
// routers (depots); an MD5 digest over the complete stream guards
// end-to-end integrity (data corruption surviving TCP checksums is a real
// phenomenon — the paper cites Paxson).
//
// All integers are big-endian. The header is bounded (MaxHeaderLen) and
// the decoder never panics on malformed input.
package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Version is the protocol version carried in every frame.
	Version = 1
	// MaxRouteEntries bounds loose-source-route length.
	MaxRouteEntries = 16
	// MaxAddrLen bounds one route entry.
	MaxAddrLen = 255
	// MaxHeaderLen bounds the whole encoded open header.
	MaxHeaderLen = 4096
	// DigestLen is the MD5 trailer size.
	DigestLen = 16
	// FirstWindow is the most payload an initiator sends behind an open
	// header before the cascade's accept or reject comes back. A pipelined
	// session whose payload ends within it sends payload, trailer and FIN
	// at once; a longer one sends FirstWindow bytes and waits for the
	// verdict. A depot refusing a session drains at most this much (plus a
	// trailer) before it hangs up. It is large enough that slow start on a
	// fresh connection, or a new trunk stream's initial window, never
	// reaches it within one cascade round trip.
	FirstWindow = 1 << 20
	// UnknownLength marks a stream of unspecified content length.
	UnknownLength = ^uint64(0)
)

var (
	magicOpen   = [4]byte{'L', 'S', 'L', '1'}
	magicAccept = [4]byte{'L', 'S', 'L', 'A'}
)

// Errors returned by decoders.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrTooLarge   = errors.New("wire: frame exceeds limits")
	ErrBadRoute   = errors.New("wire: invalid route")
)

// Flag bits in the open header.
const (
	// FlagDigest requests end-to-end MD5 verification (requires a known
	// content length so the receiver can find the trailer).
	FlagDigest uint16 = 1 << 0
	// FlagResume asks the listener to report its received offset so the
	// initiator can continue an interrupted session.
	FlagResume uint16 = 1 << 1
	// FlagEager marks an initiator that streams without waiting for the
	// end-to-end accept. No depot reads it: tests use it to tell a
	// pipelined open from a synchronous one.
	FlagEager uint16 = 1 << 2
	// FlagStaged asks the first depot to take custody: it accepts the
	// session itself, stores the complete payload, and delivers it onward
	// asynchronously — the paper's "the ultimate sending and receiving
	// ports need not exist at the same time". Requires a known content
	// length.
	FlagStaged uint16 = 1 << 3
)

// SessionID is the 128-bit session identifier.
type SessionID [16]byte

// NewSessionID draws a random identifier.
func NewSessionID() SessionID {
	var id SessionID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back to zero ID
		// rather than panicking inside a library.
		return SessionID{}
	}
	return id
}

// String renders the ID as lowercase hex.
func (id SessionID) String() string { return hex.EncodeToString(id[:]) }

// Seed derives a per-session random seed from the ID's first 8 bytes, so
// sessions that fail together do not retry in lockstep.
func (id SessionID) Seed() int64 { return int64(binary.BigEndian.Uint64(id[:8])) }

// ParseSessionID parses the hex form produced by String.
func ParseSessionID(s string) (SessionID, error) {
	var id SessionID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return id, fmt.Errorf("wire: bad session id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// OpenHeader is the session-open frame sent at the front of each sublink
// stream. Route holds the remaining hops *including* the final target;
// HopIndex is the position of the next hop to dial, advanced by each depot
// as it forwards the header.
type OpenHeader struct {
	Flags      uint16
	Session    SessionID
	HopIndex   uint8
	Route      []string
	ContentLen uint64 // UnknownLength for open-ended streams
	Offset     uint64 // resume offset (bytes already delivered end-to-end)
}

// RemainingHops returns the hops not yet traversed, including the target.
func (h *OpenHeader) RemainingHops() []string {
	if int(h.HopIndex) >= len(h.Route) {
		return nil
	}
	return h.Route[h.HopIndex:]
}

// NextHop returns the address the receiving depot should dial and whether
// one exists (false means the receiver is the final target).
func (h *OpenHeader) NextHop() (string, bool) {
	i := int(h.HopIndex) + 1
	if i < len(h.Route) {
		return h.Route[i], true
	}
	return "", false
}

// Final reports whether the receiver of this header is the session target.
func (h *OpenHeader) Final() bool {
	return int(h.HopIndex) >= len(h.Route)-1
}

// Validate checks structural limits before encoding.
func (h *OpenHeader) Validate() error {
	if err := ValidRoute(h.Route); err != nil {
		return err
	}
	if int(h.HopIndex) >= len(h.Route) {
		return ErrBadRoute
	}
	return nil
}

// OpenFixedLen is the fixed front of every open header: magic(4)
// version(1) flags(2) headerLen(2) session(16) hopIndex(1) routeLen(1)
// contentLen(8) offset(8). A dispatcher may read up to this many bytes
// before handing the rest to FinishOpenHeader without reading past the
// header.
const OpenFixedLen = 43

// Encode serializes the header.
func (h *OpenHeader) Encode() ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	n := OpenFixedLen + RouteSize(h.Route)
	if n > MaxHeaderLen {
		return nil, ErrTooLarge
	}
	out := append(make([]byte, 0, n), magicOpen[:]...)
	out = append(out, Version)
	out = AppendU16(out, h.Flags)
	out = AppendU16(out, uint16(n))
	out = append(out, h.Session[:]...)
	out = append(out, h.HopIndex, uint8(len(h.Route)))
	out = AppendU64(out, h.ContentLen)
	out = AppendU64(out, h.Offset)
	return AppendRoute(out, h.Route), nil
}

// ReadOpenHeader reads and decodes an open header from r. A foreign magic
// is refused as soon as its 4 bytes have arrived, so a peer opening with
// another protocol (a trunk hello, a gossip frame) hears "no" within one
// round trip instead of after the reader's handshake timeout.
func ReadOpenHeader(r io.Reader) (*OpenHeader, error) {
	return FinishOpenHeader(nil, r)
}

// FinishOpenHeader decodes an open header whose first bytes a dispatcher
// already read off r into head (at most OpenFixedLen of them), reading the
// rest from r.
func FinishOpenHeader(head []byte, r io.Reader) (*OpenHeader, error) {
	fixed := make([]byte, OpenFixedLen)
	n := copy(fixed, head)
	if n < len(magicOpen) {
		k, err := io.ReadAtLeast(r, fixed[n:], len(magicOpen)-n)
		if err != nil {
			return nil, ReadErr(err, ErrTruncated)
		}
		n += k
	}
	if [4]byte(fixed) != magicOpen {
		return nil, ErrBadMagic
	}
	if err := ReadFull(r, fixed[n:], ErrTruncated); err != nil {
		return nil, err
	}
	d := NewDec(fixed[len(magicOpen):])
	if d.U8() != Version {
		return nil, ErrBadVersion
	}
	h := &OpenHeader{Flags: d.U16()}
	total := int(d.U16())
	d.Fill(h.Session[:])
	h.HopIndex = d.U8()
	routeLen := int(d.U8())
	h.ContentLen = d.U64()
	h.Offset = d.U64()
	rest, err := ReadBody(r, total-OpenFixedLen, MaxHeaderLen-OpenFixedLen, ErrTooLarge, ErrTruncated)
	if err != nil {
		return nil, err
	}
	d = NewDec(rest)
	h.Route = d.Route(routeLen)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, ErrBadRoute
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// Accept codes.
const (
	CodeOK uint8 = iota
	// CodeRejectBusy is sent by a depot refusing admission.
	CodeRejectBusy
	// CodeRejectRoute is sent when the next hop cannot be reached.
	CodeRejectRoute
	// CodeRejectProto is sent on malformed or unsupported headers.
	CodeRejectProto
	// CodeRejectShed is sent by a depot refusing a staged session because
	// its global custody budget (aggregate staged bytes across all
	// sessions) is exhausted — load shedding, distinct from the
	// per-session busy rejection so initiators can tell "this payload is
	// too big" from "the depot is full right now, try another".
	CodeRejectShed
	// CodeCustody confirms a staged session is durably in the depot's
	// custody: with a write-ahead journal configured it is sent only
	// after the payload and its journal record are on stable storage, so
	// an initiator that has seen this frame may discard its copy.
	CodeCustody
)

// AcceptFrame travels backward through the cascade once the final target
// has the session open. Offset reports the target's already-received byte
// count (non-zero only for resumed sessions).
type AcceptFrame struct {
	Code    uint8
	Session SessionID
	Offset  uint64
}

// acceptLen: magic(4) version(1) code(1) session(16) offset(8) = 30.
const acceptLen = 30

// Encode serializes the accept frame.
func (a *AcceptFrame) Encode() []byte {
	out := append(make([]byte, 0, acceptLen), magicAccept[:]...)
	out = append(out, Version, a.Code)
	out = append(out, a.Session[:]...)
	return AppendU64(out, a.Offset)
}

// ReadAcceptFrame reads and decodes an accept frame from r.
func ReadAcceptFrame(r io.Reader) (*AcceptFrame, error) {
	buf := make([]byte, acceptLen)
	if err := ReadFull(r, buf, ErrTruncated); err != nil {
		return nil, err
	}
	if [4]byte(buf) != magicAccept {
		return nil, ErrBadMagic
	}
	d := NewDec(buf[len(magicAccept):])
	if d.U8() != Version {
		return nil, ErrBadVersion
	}
	a := &AcceptFrame{Code: d.U8()}
	d.Fill(a.Session[:])
	a.Offset = d.U64()
	return a, nil
}

// CodeString names an accept code for diagnostics.
func CodeString(c uint8) string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeRejectBusy:
		return "busy"
	case CodeRejectRoute:
		return "route-unreachable"
	case CodeRejectProto:
		return "protocol-error"
	case CodeRejectShed:
		return "custody-shed"
	case CodeCustody:
		return "custody-committed"
	default:
		return fmt.Sprintf("code-%d", c)
	}
}
