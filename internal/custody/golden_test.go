package custody

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lsl/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.hex from the encoders")

// goldenPath holds one framed journal record per line: its name, then its
// bytes in hex. The format is frozen: a journal written by any earlier
// build must recover, so a change to any line is an on-disk change.
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

var goldenSession = wire.SessionID{0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x3b, 0x3c, 0x3d, 0x3e, 0x3f}

func goldenRecords() []struct {
	name string
	rec  *Record
} {
	admit := &Record{Type: RecAdmit, Entry: Entry{
		Session:    goldenSession,
		Flags:      wire.FlagStaged | wire.FlagDigest,
		HopIndex:   1,
		Route:      []string{"depot1:5000", "depot2:5000", "target:6000"},
		ContentLen: 262144,
		Offset:     4096,
		Total:      262144 + wire.DigestLen,
	}}
	return []struct {
		name string
		rec  *Record
	}{
		{"admit", admit},
		{"done_delivered", &Record{Type: RecDone, Session: goldenSession, Delivered: true}},
		{"done_abandoned", &Record{Type: RecDone, Session: goldenSession}},
	}
}

func encodeRecord(r *Record) []byte {
	if r.Type == RecAdmit {
		return frameRecord(encodeAdmit(&r.Entry))
	}
	return frameRecord(encodeDone(r.Session, r.Delivered))
}

// TestGoldenVectors pins the journal's on-disk bytes: each record encodes
// to its golden line, and each golden line decodes, consuming all of it,
// to the record — so a journal written by an earlier build recovers.
func TestGoldenVectors(t *testing.T) {
	cases := goldenRecords()
	if *update {
		var b bytes.Buffer
		b.WriteString("# Golden custody journal records (framed): name, then the record in hex.\n" +
			"# Regenerate only for a deliberate format change: go test ./internal/custody -run Golden -update\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %x\n", c.name, encodeRecord(c.rec))
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
		if enc := encodeRecord(c.rec); !bytes.Equal(enc, want) {
			t.Errorf("%s: encode = %x\n want %x", c.name, enc, want)
		}
		r := bytes.NewReader(want)
		got, err := ReadRecord(r)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.rec) {
			t.Errorf("%s: decode = %+v\n want %+v", c.name, got, c.rec)
		}
		if r.Len() != 0 {
			t.Errorf("%s: decode left %d bytes", c.name, r.Len())
		}
	}
}
