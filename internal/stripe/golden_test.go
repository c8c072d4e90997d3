package stripe

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"lsl/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.hex from the encoders")

// goldenPath holds one encoded record per line: its name, then its bytes
// in hex. The formats are frozen: a change to any line is a wire change.
const goldenPath = "testdata/golden.hex"

func readGolden(path string) (map[string][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, h, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", path, name, err)
		}
		out[name] = b
	}
	return out, sc.Err()
}

// wireFrame is one decoded offset-tagged frame.
type wireFrame struct {
	off     uint64
	payload []byte
}

// readFrame reads one whole frame: the receiver's header decode, then
// the payload it declares.
func readFrame(r io.Reader) (uint64, []byte, error) {
	off, n, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	return off, payload, wire.ReadFull(r, payload, wire.ErrTruncated)
}

func decodeFrame(r io.Reader) (any, error) {
	off, payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		payload = nil
	}
	return &wireFrame{off, payload}, nil
}

type goldenCase struct {
	name   string
	value  any
	encode func() []byte
	decode func(io.Reader) (any, error)
}

var goldenGroup = wire.SessionID{0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c, 0x2d, 0x2e, 0x2f}

func groupCase(name string, g *GroupHeader) goldenCase {
	return goldenCase{name, g, g.Encode, func(r io.Reader) (any, error) { return ReadGroupHeader(r) }}
}

func frameCase(name string, f *wireFrame) goldenCase {
	return goldenCase{name, f,
		func() []byte {
			var b bytes.Buffer
			writePayload(&b, f.off, f.payload)
			return b.Bytes()
		},
		decodeFrame}
}

func ackCase(name string, a *Ack) goldenCase {
	return goldenCase{name, a, a.Encode, func(r io.Reader) (any, error) { return ReadAck(r) }}
}

// goldenCases are one stripe stream (group_lsls, frame_data, frame_end
// decode in sequence as a complete one-stripe group) plus the ack-capable
// header and both ack size extremes.
func goldenCases() []goldenCase {
	full := make([]int64, MaxStripes)
	for i := range full {
		full[i] = int64(i) << 20
	}
	return []goldenCase{
		groupCase("group_lsls", &GroupHeader{Group: goldenGroup, Index: 0, Count: 1, TotalLen: 7}),
		groupCase("group_lslt", &GroupHeader{Group: goldenGroup, Index: 2, Count: 3, TotalLen: 1 << 40, Acks: true}),
		frameCase("frame_data", &wireFrame{0, []byte("payload")}),
		frameCase("frame_end", &wireFrame{7, nil}),
		ackCase("ack_empty", &Ack{Flushed: 7, Seen: 7}),
		ackCase("ack_max", &Ack{Flushed: 1 << 40, Seen: 1 << 30, Accepted: full}),
	}
}

// TestGoldenVectors pins every stripe record's bytes: each value encodes
// to its golden line, and each golden line decodes, consuming all of it,
// to the value.
func TestGoldenVectors(t *testing.T) {
	cases := goldenCases()
	if *update {
		var b bytes.Buffer
		b.WriteString("# Golden stripe records: name, then the encoded record in hex.\n" +
			"# Regenerate only for a deliberate format change: go test ./internal/stripe -run Golden -update\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %x\n", c.name, c.encode())
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden vector", c.name)
			continue
		}
		if enc := c.encode(); !bytes.Equal(enc, want) {
			t.Errorf("%s: encode = %x\n want %x", c.name, enc, want)
		}
		r := bytes.NewReader(want)
		got, err := c.decode(r)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.value) {
			t.Errorf("%s: decode = %+v\n want %+v", c.name, got, c.value)
		}
		if r.Len() != 0 {
			t.Errorf("%s: decode left %d bytes", c.name, r.Len())
		}
	}
}
