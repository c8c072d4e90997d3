// The one codec every LSL framer shares (DESIGN.md §7, "Wire codec"):
// encoders append, decoders read through Dec, and frames come off a
// stream through ReadNext, ReadFull and ReadBody under one truncation
// rule. A stream that ends before a frame's first byte returns io.EOF
// (ReadNext only: a clean end between frames), one that ends inside a
// frame returns the caller's truncated sentinel, and any other read error
// comes back as itself.

package wire

import (
	"encoding/binary"
	"io"
)

// ValidName reports whether s may travel as a name: a route entry, a
// gossip node name. Names are 1 to MaxAddrLen bytes.
func ValidName(s string) bool { return s != "" && len(s) <= MaxAddrLen }

// ValidRoute checks the route rule every holder of a loose source route
// shares (the open header, a custody journal entry): 1 to MaxRouteEntries
// valid names. It returns ErrBadRoute otherwise.
func ValidRoute(route []string) error {
	if len(route) == 0 || len(route) > MaxRouteEntries {
		return ErrBadRoute
	}
	for _, a := range route {
		if !ValidName(a) {
			return ErrBadRoute
		}
	}
	return nil
}

// AppendU16, AppendU32 and AppendU64 append v big-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendName appends s as a u16 length and its bytes. The caller has
// checked ValidName.
func AppendName(b []byte, s string) []byte { return append(AppendU16(b, uint16(len(s))), s...) }

// AppendRoute appends each entry of route as a name; the entry count is
// the caller's, since frames carry it in different places.
func AppendRoute(b []byte, route []string) []byte {
	for _, a := range route {
		b = AppendName(b, a)
	}
	return b
}

// RouteSize is the encoded size of AppendRoute(nil, route).
func RouteSize(route []string) int {
	n := 2 * len(route)
	for _, a := range route {
		n += len(a)
	}
	return n
}

// Dec is a bounded big-endian decode cursor over one frame's bytes. A read
// past the end consumes nothing, returns zero and sets ErrTruncated; a
// name or route that breaks the name/route rule sets ErrBadRoute. The
// first error sticks and every later read returns zero, so a decoder
// reads all its fields and checks Err once.
type Dec struct {
	b   []byte
	err error
}

// NewDec starts a cursor at the front of b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err returns the first error, or nil.
func (d *Dec) Err() error { return d.err }

// Len returns the bytes not yet read.
func (d *Dec) Len() int { return len(d.b) }

var zeros [8]byte

// take consumes n bytes. After an error it returns zeros (at most 8), so
// the integer reads need no check of their own.
func (d *Dec) take(n int) []byte {
	if d.err == nil && n > len(d.b) {
		d.err = ErrTruncated
	}
	if d.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// U8 reads one byte; U16, U32 and U64 read big-endian integers.
func (d *Dec) U8() uint8   { return d.take(1)[0] }
func (d *Dec) U16() uint16 { return binary.BigEndian.Uint16(d.take(2)) }
func (d *Dec) U32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }
func (d *Dec) U64() uint64 { return binary.BigEndian.Uint64(d.take(8)) }

// Fill reads len(p) bytes into p, or zeroes p.
func (d *Dec) Fill(p []byte) {
	if copy(p, d.take(len(p))) < len(p) {
		clear(p)
	}
}

// Name reads a u16-length-prefixed name and checks it against ValidName.
func (d *Dec) Name() string {
	n := int(d.U16())
	if d.err == nil && (n == 0 || n > MaxAddrLen) {
		d.err = ErrBadRoute
	}
	if p := d.take(n); d.err == nil {
		return string(p)
	}
	return ""
}

// Route reads n names, n being the entry count the frame carried, and
// checks the count against the route rule before allocating for it.
func (d *Dec) Route(n int) []string {
	if d.err == nil && (n == 0 || n > MaxRouteEntries) {
		d.err = ErrBadRoute
	}
	if d.err != nil {
		return nil
	}
	route := make([]string, n)
	for i := range route {
		route[i] = d.Name()
	}
	return route
}

// ReadErr maps the error of a read that ended inside a frame: the stream
// ending there (io.EOF or io.ErrUnexpectedEOF) is truncated, anything
// else comes back as itself.
func ReadErr(err, truncated error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return truncated
	}
	return err
}

// ReadFull reads len(p) bytes of a frame into p; any end of stream is
// inside the frame and returns truncated.
func ReadFull(r io.Reader, p []byte, truncated error) error {
	_, err := io.ReadFull(r, p)
	return ReadErr(err, truncated)
}

// ReadNext reads the first len(p) bytes of the next frame into p, like
// ReadFull except that a stream ending before p's first byte returns
// io.EOF: a clean end between frames.
func ReadNext(r io.Reader, p []byte, truncated error) error {
	if _, err := io.ReadFull(r, p); err != io.EOF {
		return ReadErr(err, truncated)
	}
	return io.EOF
}

// ReadBody reads the n bytes a frame's head declared into a fresh buffer.
// n came off the wire, so it is checked against max (tooLarge otherwise)
// before anything is allocated.
func ReadBody(r io.Reader, n, max int, tooLarge, truncated error) ([]byte, error) {
	if n < 0 || n > max {
		return nil, tooLarge
	}
	b := make([]byte, n)
	if err := ReadFull(r, b, truncated); err != nil {
		return nil, err
	}
	return b, nil
}
