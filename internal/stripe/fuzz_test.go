package stripe

import (
	"bytes"
	"sort"
	"strings"
	"sync"
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
// the bytes it consumed. readFrame decodes the header through
// readFrameHeader, the receiver's own decode.
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

// fuzzSink is a receiver's sink that checks every write against the
// receiver: it must append at Written(), and every byte must be the
// logical stream's (fuzzByte at its position). Write runs with the
// receiver's lock held, so it reads written directly.
type fuzzSink struct {
	t   *testing.T
	r   *Receiver
	got []byte
}

func fuzzByte(pos int) byte { return byte(pos*7 + 1) }

func (s *fuzzSink) Write(p []byte) (int, error) {
	if int64(len(s.got)) != s.r.written {
		s.t.Errorf("sink write at %d, receiver written %d", len(s.got), s.r.written)
	}
	for i, b := range p {
		if pos := len(s.got) + i; b != fuzzByte(pos) {
			s.t.Errorf("sink byte %d = %#x, want %#x", pos, b, fuzzByte(pos))
			break
		}
	}
	s.got = append(s.got, p...)
	return len(p), nil
}

// FuzzReceiver feeds a receiver two stripes' frame sequences decoded from
// the input, each stream cut at a byte the input chooses, once one
// stream after the other and once concurrently. Input: total-1, then
// each stream's cut as a big-endian u16, then two bytes per frame — the
// top bit the stripe, the low seven the offset; the frame length (up to
// 48 bytes; 0 is an early end frame). Every frame carries the stream's
// bytes for its range, and each stream closes with the end frame unless
// the cut falls first. Whatever Attach returns, the receiver must not
// panic, its sink only ever appends at Written(), Written() stays within
// the declared length, the attribution sums to the bytes flushed or
// pending, and Complete() means the sink holds the whole stream.
func FuzzReceiver(f *testing.F) {
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0xff, 0, 32, 0x80 | 32, 32})              // two stripes, in order
	f.Add([]byte{63, 0, 60, 0xff, 0xff, 0, 32, 32, 32, 0x80, 32, 0x80 | 32, 32}) // head cut, replayed
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0xff, 32, 32, 0x80, 32, 0x80, 32})        // pending, then a duplicate
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0xff, 0, 16, 0x80 | 8, 16})               // overlap
	f.Add([]byte{15, 0xff, 0xff, 0xff, 0xff, 8, 16, 0x80 | 127, 1})              // beyond the end
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		total := int(data[0])%128 + 1
		cuts := [2]int{int(data[1])<<8 | int(data[2]), int(data[3])<<8 | int(data[4])}
		payload := make([]byte, total+127+48) // room for frames past the end
		for i := range payload {
			payload[i] = fuzzByte(i)
		}
		group := wire.NewSessionID()
		var streams [2]bytes.Buffer
		for i := range streams {
			streams[i].Write((&GroupHeader{Group: group, Index: uint8(i), Count: 2, TotalLen: uint64(total)}).Encode())
		}
		rec := data[5:]
		if len(rec) > 2*64 {
			rec = rec[:2*64]
		}
		for ; len(rec) >= 2; rec = rec[2:] {
			off, n := int(rec[0]&0x7f), int(rec[1])%49
			writePayload(&streams[rec[0]>>7], uint64(off), payload[off:off+n])
		}
		var inputs [2][]byte
		for i := range streams {
			writePayload(&streams[i], uint64(total), nil)
			inputs[i] = streams[i].Bytes()
			if cuts[i] < len(inputs[i]) {
				inputs[i] = inputs[i][:cuts[i]]
			}
		}
		check := func(recv *Receiver, sink *fuzzSink) {
			written := recv.Written()
			if written > int64(total) || int64(len(sink.got)) != written {
				t.Fatalf("written %d, sink %d, total %d", written, len(sink.got), total)
			}
			var sum int64
			for _, b := range recv.AcceptedBytes() {
				sum += b
			}
			if pending := recv.pendingBytes; sum != written+pending {
				t.Fatalf("accepted bytes sum to %d, flushed %d + pending %d", sum, written, pending)
			}
			if recv.Complete() && len(sink.got) != total {
				t.Fatalf("complete with %d of %d bytes", len(sink.got), total)
			}
		}
		newRecv := func() (*Receiver, *fuzzSink) {
			sink := &fuzzSink{t: t}
			recv := NewReceiver(sink)
			sink.r = recv
			return recv, sink
		}
		// Every Attach has returned whenever check runs.
		recv, sink := newRecv()
		for _, in := range inputs {
			recv.Attach(bytes.NewReader(in))
			check(recv, sink)
		}
		recv, sink = newRecv()
		var wg sync.WaitGroup
		for _, in := range inputs {
			wg.Add(1)
			go func(in []byte) {
				defer wg.Done()
				recv.Attach(bytes.NewReader(in))
			}(in)
		}
		wg.Wait()
		check(recv, sink)
	})
}
