package wire_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"lsl/internal/custody"
	"lsl/internal/stripe"
	"lsl/internal/wire"
)

// decoderCase is one decoder fed one golden frame.
type decoderCase struct {
	name   string
	enc    []byte
	decode func(io.Reader) error
	// clean lists the cuts at a frame boundary where the decoder passes a
	// clean io.EOF through; a stream ending at any other cut is inside a
	// frame.
	clean []int
	// truncated is the package's sentinel for a stream ending inside a
	// frame; wrap, when set, must match every failure as well.
	truncated, wrap error
}

func dec[T any](f func(io.Reader) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error { _, err := f(r); return err }
}

func loadGolden(t *testing.T, path string) ([]string, map[string][]byte) {
	t.Helper()
	g, err := wire.ReadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, g
}

func truncationCases(t *testing.T) []decoderCase {
	var cases []decoderCase
	names, g := loadGolden(t, "testdata/golden.hex")
	for _, n := range names {
		c := decoderCase{name: n, enc: g[n], truncated: wire.ErrTruncated}
		switch {
		case strings.HasPrefix(n, "open_"):
			c.decode = dec(wire.ReadOpenHeader)
		case strings.HasPrefix(n, "accept_"):
			c.decode = dec(wire.ReadAcceptFrame)
		case n == "mux_hello":
			c.decode = dec(wire.ReadMuxHello)
		case strings.HasPrefix(n, "mux_"):
			c.decode, c.clean = dec(wire.ReadMuxFrame), []int{0}
		case strings.HasPrefix(n, "gossip_"):
			c.decode, c.clean = dec(wire.ReadGossipFrame), []int{0}
		default:
			t.Fatalf("no decoder for golden vector %s", n)
		}
		cases = append(cases, c)
	}

	names, g = loadGolden(t, "../stripe/testdata/golden.hex")
	for _, n := range names {
		c := decoderCase{name: "stripe_" + n, enc: g[n], truncated: wire.ErrTruncated}
		switch {
		case strings.HasPrefix(n, "group_"):
			c.decode, c.wrap = dec(stripe.ReadGroupHeader), stripe.ErrBadGroupHeader
		case strings.HasPrefix(n, "ack_"):
			c.decode, c.clean, c.wrap = dec(stripe.ReadAck), []int{0}, stripe.ErrBadAck
		case strings.HasPrefix(n, "frame_"):
			continue // read by the stream case below
		default:
			t.Fatalf("no decoder for golden vector %s", n)
		}
		cases = append(cases, c)
	}
	// Offset-tagged frames are read by Receiver.Attach behind their group
	// header; a stream that ends between two frames reports io.EOF.
	gh, data := g["group_lsls"], g["frame_data"]
	cases = append(cases, decoderCase{
		name: "stripe_stream",
		enc:  append(append(append([]byte(nil), gh...), data...), g["frame_end"]...),
		decode: func(r io.Reader) error {
			return stripe.NewReceiver(io.Discard).Attach(r)
		},
		clean:     []int{len(gh), len(gh) + len(data)},
		truncated: wire.ErrTruncated,
	})

	names, g = loadGolden(t, "../custody/testdata/golden.hex")
	for _, n := range names {
		cases = append(cases, decoderCase{name: "custody_" + n, enc: g[n],
			decode: dec(custody.ReadRecord), clean: []int{0}, truncated: custody.ErrTruncated})
	}
	return cases
}

// TestTruncationRule feeds every decoder every golden frame cut at every
// byte offset, the stream then ending cleanly or failing with a deadline.
// The rule all framers share: a clean end at a frame boundary passes
// through as io.EOF where the decoder documents it; an end anywhere inside
// a frame is the package's truncated sentinel; any other read error keeps
// its identity for errors.Is and is never reported as truncation.
func TestTruncationRule(t *testing.T) {
	for _, c := range truncationCases(t) {
		for cut := 0; cut < len(c.enc); cut++ {
			clean := false
			for _, b := range c.clean {
				clean = clean || b == cut
			}
			for _, cause := range []error{io.EOF, os.ErrDeadlineExceeded} {
				err := c.decode(io.MultiReader(bytes.NewReader(c.enc[:cut]), iotest.ErrReader(cause)))
				var want error
				switch {
				case cause != io.EOF:
					want = cause
				case clean:
					want = io.EOF
				default:
					want = c.truncated
				}
				ok := errors.Is(err, want) && (want == c.truncated || !errors.Is(err, c.truncated))
				if want != io.EOF && errors.Is(err, io.EOF) {
					ok = false
				}
				if ok && c.wrap != nil && want != io.EOF && !errors.Is(err, c.wrap) {
					ok = false
				}
				if !ok {
					t.Errorf("%s cut at %d of %d, then %v: err = %v, want %v", c.name, cut, len(c.enc), cause, err, want)
				}
			}
		}
	}
}
