package stripe

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"lsl/internal/wire"
)

// addGolden seeds f with every golden vector whose name has prefix.
func addGolden(f *testing.F, prefix string) {
	g, err := readGolden(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(g))
	for name := range g {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(g[name])
	}
}

// FuzzReadGroupHeader must never panic or accept a header that violates
// the stripe invariants (count in [1,MaxStripes], index < count).
func FuzzReadGroupHeader(f *testing.F) {
	g := &GroupHeader{Group: wire.NewSessionID(), Index: 1, Count: 3, TotalLen: 1 << 30}
	f.Add(g.Encode())
	f.Add([]byte("LSLS"))
	f.Add(make([]byte, groupHeaderLen))
	addGolden(f, "group_")
	f.Fuzz(func(t *testing.T, data []byte) {
		gh, err := ReadGroupHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if gh.Count == 0 || gh.Count > MaxStripes || gh.Index >= gh.Count {
			t.Fatalf("invalid header accepted: %+v", gh)
		}
		// Accepted headers must re-encode to the bytes they came from.
		if !bytes.Equal(gh.Encode(), data[:groupHeaderLen]) {
			t.Fatalf("re-encode mismatch: %+v", gh)
		}
	})
}

// FuzzReadAck must never panic, never accept more than MaxStripes
// per-stripe entries, and never hand back a negative byte count — every
// value comes off the network and feeds scheduler arithmetic.
func FuzzReadAck(f *testing.F) {
	ok := &Ack{Flushed: 1 << 30, Seen: 12345, Accepted: []int64{1, 2, 3}}
	f.Add(ok.Encode())
	f.Add((&Ack{}).Encode())
	f.Add([]byte("LSLA"))
	addGolden(f, "ack_")
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadAck(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(a.Accepted) > MaxStripes {
			t.Fatalf("%d accepted entries over MaxStripes", len(a.Accepted))
		}
		if a.Flushed < 0 || a.Seen < 0 {
			t.Fatalf("negative counts accepted: %+v", a)
		}
		for _, v := range a.Accepted {
			if v < 0 {
				t.Fatalf("negative accepted entry: %+v", a)
			}
		}
		// Accepted records must re-encode to the bytes they came from.
		enc := a.Encode()
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encode mismatch: %+v", a)
		}
	})
}

// FuzzReadStripeFrame must never panic, must never hand back a payload
// above MaxFrameSize, and anything it accepts must re-encode to exactly
// the bytes it consumed.
func FuzzReadStripeFrame(f *testing.F) {
	var ok bytes.Buffer
	writePayload(&ok, 4096, []byte("payload"))
	f.Add(ok.Bytes())
	var huge bytes.Buffer
	writePayload(&huge, 0, nil)
	huge.Bytes()[8] = 0xff // length 0xff000000: over MaxFrameSize
	f.Add(huge.Bytes())
	f.Add([]byte{})
	addGolden(f, "frame_")
	f.Fuzz(func(t *testing.T, data []byte) {
		off, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("oversized frame length %d accepted", len(payload))
		}
		var enc bytes.Buffer
		writePayload(&enc, off, payload)
		if !bytes.Equal(enc.Bytes(), data[:enc.Len()]) {
			t.Fatalf("re-encoded %x, consumed %x", enc.Bytes(), data[:enc.Len()])
		}
	})
}
