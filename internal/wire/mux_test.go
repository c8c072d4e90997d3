package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"
)

func TestMuxHelloRoundTrip(t *testing.T) {
	h := &MuxHello{Window: 256 << 10}
	enc := h.Encode()
	if len(enc) != MuxHelloLen {
		t.Fatalf("hello length %d, want %d", len(enc), MuxHelloLen)
	}
	if !IsMuxMagic(enc) {
		t.Fatal("hello does not start with the mux magic")
	}
	got, err := ReadMuxHello(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != h.Window {
		t.Fatalf("window %d, want %d", got.Window, h.Window)
	}
}

func TestMuxHelloRejectsMalformed(t *testing.T) {
	good := (&MuxHello{Window: 1 << 20}).Encode()
	cases := []struct {
		name string
		mut  func([]byte)
		want error
	}{
		{"bad magic", func(b []byte) { b[3] = '1' }, ErrBadMagic},
		{"bad version", func(b []byte) { b[4] = 99 }, ErrBadVersion},
		{"zero window", func(b []byte) { copy(b[5:9], []byte{0, 0, 0, 0}) }, ErrBadMuxWindow},
		{"oversized window", func(b []byte) { copy(b[5:9], []byte{0xff, 0xff, 0xff, 0xff}) }, ErrBadMuxWindow},
	}
	for _, c := range cases {
		b := append([]byte(nil), good...)
		c.mut(b)
		if _, err := ReadMuxHello(bytes.NewReader(b)); !errors.Is(err, c.want) {
			t.Errorf("%s: err=%v, want %v", c.name, err, c.want)
		}
	}
	if _, err := ReadMuxHello(bytes.NewReader(good[:7])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated hello: err=%v, want %v", err, ErrTruncated)
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	cases := []struct {
		typ     uint8
		payload []byte
	}{
		{MuxOpen, nil},
		{MuxData, payload},
		{MuxClose, nil},
		{MuxReset, nil},
	}
	for _, c := range cases {
		enc := AppendMuxFrame(nil, c.typ, 7, c.payload)
		f, err := ReadMuxFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: %v", MuxTypeString(c.typ), err)
		}
		if f.Type != c.typ || f.Stream != 7 || !bytes.Equal(f.Payload, c.payload) {
			t.Fatalf("%s: lossy round trip: %+v", MuxTypeString(c.typ), f)
		}
	}
	enc := AppendMuxWindow(nil, 3, 65536)
	f, err := ReadMuxFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MuxWindow || f.Stream != 3 || f.Credit != 65536 {
		t.Fatalf("WINDOW round trip: %+v", f)
	}
}

func TestMuxFrameRejectsMalformed(t *testing.T) {
	frame := func(typ uint8, stream uint32, payload []byte) []byte {
		return AppendMuxFrame(nil, typ, stream, payload)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"unknown type", frame(42, 1, nil)},
		{"stream zero", frame(MuxData, 0, []byte("x"))},
		{"OPEN with payload", frame(MuxOpen, 1, []byte("x"))},
		{"CLOSE with payload", frame(MuxClose, 1, []byte("x"))},
		{"RESET with payload", frame(MuxReset, 1, []byte("x"))},
		{"WINDOW wrong length", frame(MuxWindow, 1, []byte{1, 2})},
		{"WINDOW zero credit", frame(MuxWindow, 1, []byte{0, 0, 0, 0})},
		{"DATA empty", frame(MuxData, 1, nil)},
		{"truncated header", []byte{MuxData, 0, 0}},
		{"truncated payload", frame(MuxData, 1, []byte("hello"))[:11]},
	}
	for _, c := range cases {
		if _, err := ReadMuxFrame(bytes.NewReader(c.raw)); err == nil {
			t.Errorf("%s: decoder accepted malformed frame", c.name)
		}
	}
}

// TestMuxFrameOversizedLengthDoesNotAllocate proves a hostile length
// field is rejected before any payload allocation.
func TestMuxFrameOversizedLengthDoesNotAllocate(t *testing.T) {
	raw := []byte{MuxData, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff} // 4 GiB claim
	if _, err := ReadMuxFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMuxFrame) {
		t.Fatalf("err=%v, want %v", err, ErrBadMuxFrame)
	}
}

func TestMuxFrameCleanEOF(t *testing.T) {
	if _, err := ReadMuxFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty link: err=%v, want io.EOF", err)
	}
	if _, err := ReadMuxFrame(bytes.NewReader([]byte{MuxData, 0})); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-header cut: err=%v, want %v", err, ErrTruncated)
	}
}

// TestMuxFrameReadErrors: only the stream ending inside a frame reads as
// a truncated frame; a deadline or a closed connection keeps its cause.
func TestMuxFrameReadErrors(t *testing.T) {
	data := AppendMuxFrame(nil, MuxData, 1, []byte("hello"))
	window := AppendMuxWindow(nil, 1, 4096)
	cases := []struct {
		name string
		raw  []byte
		err  error
		want error
	}{
		{"EOF mid DATA payload", data[:11], io.EOF, ErrTruncated},
		{"EOF mid WINDOW payload", window[:10], io.EOF, ErrTruncated},
		{"EOF mid header", data[:3], io.EOF, ErrTruncated},
		{"deadline mid DATA payload", data[:11], os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"deadline mid WINDOW payload", window[:10], os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"deadline mid header", data[:3], os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
		{"closed before payload", data[:MuxFrameHeaderLen], io.ErrClosedPipe, io.ErrClosedPipe},
	}
	for _, c := range cases {
		_, err := ReadMuxFrame(io.MultiReader(bytes.NewReader(c.raw), iotest.ErrReader(c.err)))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err=%v, want %v", c.name, err, c.want)
		}
		if c.want != ErrTruncated && errors.Is(err, ErrTruncated) {
			t.Errorf("%s: cause %v reported as a truncated frame", c.name, c.err)
		}
	}
}

// FuzzReadMuxHello: the hello decoder must never panic, and anything it
// accepts must re-encode to the bytes it consumed. The reserved bytes are
// the exception: a reader ignores them (so a later version may use them)
// and the encoder writes zeros.
func FuzzReadMuxHello(f *testing.F) {
	f.Add((&MuxHello{Window: 1 << 16}).Encode())
	f.Add([]byte("LSLMxxxxxxxx"))
	f.Add([]byte{})
	addGolden(f, "mux_hello")
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := ReadMuxHello(bytes.NewReader(raw))
		if err != nil {
			return
		}
		const reserved = 3
		enc := h.Encode()
		if !bytes.Equal(enc[:MuxHelloLen-reserved], raw[:MuxHelloLen-reserved]) {
			t.Fatalf("re-encoded %x, consumed %x", enc, raw[:MuxHelloLen])
		}
	})
}

// FuzzReadMuxFrame drives the frame decoder with arbitrary bytes; it
// must never panic or over-allocate, and accepted frames must re-encode
// losslessly.
func FuzzReadMuxFrame(f *testing.F) {
	f.Add(AppendMuxFrame(nil, MuxOpen, 1, nil))
	f.Add(AppendMuxFrame(nil, MuxData, 2, []byte("payload")))
	f.Add(AppendMuxWindow(nil, 3, 4096))
	f.Add([]byte{MuxData, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	addGolden(f, "mux_")
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := ReadMuxFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxMuxPayload {
			t.Fatalf("decoder allocated %d-byte payload", len(fr.Payload))
		}
		var enc []byte
		if fr.Type == MuxWindow {
			enc = AppendMuxWindow(nil, fr.Stream, fr.Credit)
		} else {
			enc = AppendMuxFrame(nil, fr.Type, fr.Stream, fr.Payload)
		}
		if !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatal("lossy frame round trip")
		}
	})
}

// FuzzReadAcceptFrame: same contract for the backward-channel accept
// decoder.
func FuzzReadAcceptFrame(f *testing.F) {
	acc := &AcceptFrame{Code: CodeOK, Session: NewSessionID(), Offset: 12345}
	f.Add(acc.Encode())
	f.Add([]byte("LSLAgarbage"))
	f.Add([]byte{})
	addGolden(f, "accept_")
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := ReadAcceptFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if enc := a.Encode(); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("re-encoded %x, consumed %x", enc, raw[:len(enc)])
		}
	})
}
