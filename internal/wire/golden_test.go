package wire

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
)

var update = flag.Bool("update", false, "rewrite testdata/golden.hex from the encoders")

// goldenPath holds one encoded frame per line: its name, then its bytes in
// hex. The formats are frozen: a change to any line is a wire change.
const goldenPath = "testdata/golden.hex"

// readGolden parses a golden file into name → bytes.
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

// goldenCase is one frame value, how to encode it, and how to decode it.
type goldenCase struct {
	name   string
	value  any
	encode func() ([]byte, error)
	decode func(io.Reader) (any, error)
}

var goldenSession = SessionID{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f}

func openCase(name string, h *OpenHeader) goldenCase {
	return goldenCase{name, h, h.Encode, func(r io.Reader) (any, error) { return ReadOpenHeader(r) }}
}

func acceptCase(name string, a *AcceptFrame) goldenCase {
	return goldenCase{name, a,
		func() ([]byte, error) { return a.Encode(), nil },
		func(r io.Reader) (any, error) { return ReadAcceptFrame(r) }}
}

func muxCase(name string, f *MuxFrame) goldenCase {
	return goldenCase{name, f,
		func() ([]byte, error) {
			if f.Type == MuxWindow {
				return AppendMuxWindow(nil, f.Stream, f.Credit), nil
			}
			return AppendMuxFrame(nil, f.Type, f.Stream, f.Payload), nil
		},
		func(r io.Reader) (any, error) { return ReadMuxFrame(r) }}
}

func gossipCase(name string, f *GossipFrame) goldenCase {
	return goldenCase{name, f, f.Encode, func(r io.Reader) (any, error) { return ReadGossipFrame(r) }}
}

func goldenCases() []goldenCase {
	route16 := make([]string, MaxRouteEntries)
	for i := range route16 {
		route16[i] = fmt.Sprintf("depot%02d.example.net:5000", i)
	}
	digest := sampleGossipObs()
	for i := range digest {
		digest[i].Value, digest[i].Count = 0, 0 // a DIGEST carries keys only
	}
	hello := &MuxHello{Window: 256 << 10}
	cases := []goldenCase{
		openCase("open_plain", &OpenHeader{Session: goldenSession,
			Route: []string{"depot1:5000", "server:6000"}, ContentLen: UnknownLength}),
		openCase("open_digest_resume", &OpenHeader{Flags: FlagDigest | FlagResume | FlagEager, Session: goldenSession,
			HopIndex: 1, Route: []string{"depot1:5000", "depot2:5000", "server:6000"}, ContentLen: 1 << 20, Offset: 65536}),
		openCase("open_staged", &OpenHeader{Flags: FlagStaged | FlagDigest, Session: goldenSession,
			Route: []string{"depot1:5000", "server:6000"}, ContentLen: 262144}),
		openCase("open_16hop", &OpenHeader{Session: goldenSession, HopIndex: 7, Route: route16, ContentLen: 4096}),
		openCase("open_addr255", &OpenHeader{Session: goldenSession,
			Route: []string{strings.Repeat("a", MaxAddrLen), "t:1"}, ContentLen: 0}),
		{"mux_hello", hello,
			func() ([]byte, error) { return hello.Encode(), nil },
			func(r io.Reader) (any, error) { return ReadMuxHello(r) }},
		muxCase("mux_open", &MuxFrame{Type: MuxOpen, Stream: 1}),
		muxCase("mux_data", &MuxFrame{Type: MuxData, Stream: 3, Payload: []byte("trunk payload")}),
		muxCase("mux_window", &MuxFrame{Type: MuxWindow, Stream: 5, Credit: 65536}),
		muxCase("mux_close", &MuxFrame{Type: MuxClose, Stream: 7}),
		muxCase("mux_reset", &MuxFrame{Type: MuxReset, Stream: 0xfffffffe}),
		gossipCase("gossip_digest", &GossipFrame{Kind: GossipDigest, Self: "denver", Obs: digest}),
		gossipCase("gossip_delta", &GossipFrame{Kind: GossipDelta, Self: "denver", Obs: sampleGossipObs()}),
	}
	for code := CodeOK; code <= CodeCustody; code++ {
		cases = append(cases, acceptCase("accept_"+CodeString(code),
			&AcceptFrame{Code: code, Session: goldenSession, Offset: uint64(code) << 20}))
	}
	return cases
}

// TestGoldenVectors pins every frame kind's bytes: each value encodes to
// its golden line, and each golden line decodes, consuming all of it, to
// the value.
func TestGoldenVectors(t *testing.T) {
	cases := goldenCases()
	if *update {
		var b bytes.Buffer
		b.WriteString("# Golden wire frames: name, then the encoded frame in hex.\n" +
			"# Regenerate only for a deliberate format change: go test ./internal/wire -run Golden -update\n")
		for _, c := range cases {
			enc, err := c.encode()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&b, "%s %x\n", c.name, enc)
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
		enc, err := c.encode()
		if err != nil || !bytes.Equal(enc, want) {
			t.Errorf("%s: encode = %x, %v\n want %x", c.name, enc, err, want)
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
