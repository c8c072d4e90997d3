package stripe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"lsl/internal/wire"
)

func TestGroupHeaderRoundTrip(t *testing.T) {
	g := &GroupHeader{Group: wire.NewSessionID(), Index: 2, Count: 4, TotalLen: 123456789}
	got, err := ReadGroupHeader(bytes.NewReader(g.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != g.Group || got.Index != g.Index || got.Count != g.Count || got.TotalLen != g.TotalLen {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestGroupHeaderRejectsBad(t *testing.T) {
	g := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 2, TotalLen: 10}
	enc := g.Encode()
	enc[0] = 'X'
	if _, err := ReadGroupHeader(bytes.NewReader(enc)); err == nil {
		t.Fatal("bad magic accepted")
	}
	enc = g.Encode()
	enc[22] = 0 // count 0
	if _, err := ReadGroupHeader(bytes.NewReader(enc)); err == nil {
		t.Fatal("count 0 accepted")
	}
	enc = g.Encode()
	enc[21], enc[22] = 5, 3 // index >= count
	if _, err := ReadGroupHeader(bytes.NewReader(enc)); err == nil {
		t.Fatal("index >= count accepted")
	}
	if _, err := ReadGroupHeader(bytes.NewReader(enc[:10])); err == nil {
		t.Fatal("truncated accepted")
	}
}

// send stripes src across writers, one stripe per writer, through an
// ackless Sender (the writers are one-way).
func send(writers []io.Writer, src io.ReaderAt, total int64, frameSize int) error {
	snd, err := NewSender(wire.NewSessionID(), src, total, len(writers), SenderConfig{FrameSize: frameSize})
	if err != nil {
		return err
	}
	for i, w := range writers {
		if err := snd.Attach(i, w); err != nil {
			return err
		}
	}
	return snd.Run(context.Background())
}

// sendRecv stripes payload over n in-memory pipes and reassembles it.
func sendRecv(t *testing.T, payload []byte, n, frameSize int) []byte {
	t.Helper()
	writers := make([]io.Writer, n)
	readers := make([]io.Reader, n)
	for i := 0; i < n; i++ {
		pr, pw := io.Pipe()
		writers[i], readers[i] = pw, pr
	}
	var out bytes.Buffer
	recv := NewReceiver(&out)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(r io.Reader) {
			defer wg.Done()
			if err := recv.Attach(r); err != nil {
				errs <- err
			}
		}(readers[i])
	}
	if err := send(writers, bytes.NewReader(payload), int64(len(payload)), frameSize); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !recv.Complete() {
		t.Fatalf("incomplete: written=%d of %d", recv.Written(), len(payload))
	}
	return out.Bytes()
}

func TestStripeRoundTripSingle(t *testing.T) {
	payload := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(payload)
	got := sendRecv(t, payload, 1, 8<<10)
	if !bytes.Equal(got, payload) {
		t.Fatal("mismatch")
	}
}

func TestStripeRoundTripFour(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(payload)
	got := sendRecv(t, payload, 4, 16<<10)
	if !bytes.Equal(got, payload) {
		t.Fatal("mismatch")
	}
}

func TestStripeOddSizes(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8191, 8192, 8193, 100003} {
		payload := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(payload)
		got := sendRecv(t, payload, 3, 8192)
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d mismatch", size)
		}
	}
}

func TestStripePropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, frameRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%8) + 1
		frame := int(frameRaw)*16 + 64
		size := int(sizeRaw) * 7
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)

		writers := make([]io.Writer, n)
		readers := make([]*bytes.Buffer, n)
		for i := range writers {
			readers[i] = &bytes.Buffer{}
			writers[i] = readers[i]
		}
		if err := send(writers, bytes.NewReader(payload), int64(size), frame); err != nil {
			return false
		}
		var out bytes.Buffer
		recv := NewReceiver(&out)
		// Attach in reverse order to exercise out-of-order reassembly.
		for i := n - 1; i >= 0; i-- {
			if err := recv.Attach(readers[i]); err != nil {
				return false
			}
		}
		return recv.Complete() && bytes.Equal(out.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeShortSource(t *testing.T) {
	var sink bytes.Buffer
	err := send([]io.Writer{&sink}, bytes.NewReader([]byte("abc")), 10, 4)
	if err == nil {
		t.Fatal("short source accepted")
	}
}

func TestStripeTooMany(t *testing.T) {
	writers := make([]io.Writer, MaxStripes+1)
	for i := range writers {
		writers[i] = &bytes.Buffer{}
	}
	if err := send(writers, bytes.NewReader(nil), 0, 0); err == nil {
		t.Fatal("too many stripes accepted")
	}
	if err := send(nil, bytes.NewReader(nil), 0, 0); err == nil {
		t.Fatal("zero stripes accepted")
	}
}

func TestReceiverRejectsInconsistentGroup(t *testing.T) {
	recv := NewReceiver(io.Discard)
	g1 := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 2, TotalLen: 10}
	g2 := &GroupHeader{Group: wire.NewSessionID(), Index: 1, Count: 2, TotalLen: 10} // different group
	var s1 bytes.Buffer
	s1.Write(g1.Encode())
	writePayload(&s1, 10, nil)
	if err := recv.Attach(&s1); err != nil {
		t.Fatal(err)
	}
	var s2 bytes.Buffer
	s2.Write(g2.Encode())
	if err := recv.Attach(&s2); err == nil {
		t.Fatal("inconsistent group accepted")
	}
}

func TestReceiverRejectsOverlap(t *testing.T) {
	recv := NewReceiver(io.Discard)
	g := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1, TotalLen: 8}
	var s bytes.Buffer
	s.Write(g.Encode())
	writePayload(&s, 0, []byte("abcd"))
	writePayload(&s, 2, []byte("zz")) // overlaps written prefix
	err := recv.Attach(&s)
	if err == nil {
		t.Fatal("overlap accepted")
	}
}

// TestStripeOverRealSockets runs the framing across actual TCP
// connections with deliberately unbalanced stripes.
func TestStripeOverRealSockets(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 3
	payload := make([]byte, 600_000)
	rand.New(rand.NewSource(9)).Read(payload)

	var out bytes.Buffer
	recv := NewReceiver(&out)
	done := make(chan error, n)
	go func() {
		for i := 0; i < n; i++ {
			nc, err := ln.Accept()
			if err != nil {
				done <- err
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				done <- recv.Attach(nc)
			}(nc)
		}
	}()

	writers := make([]io.Writer, n)
	conns := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = nc
		writers[i] = nc
	}
	if err := send(writers, bytes.NewReader(payload), int64(len(payload)), 32<<10); err != nil {
		t.Fatal(err)
	}
	for _, nc := range conns {
		nc.(*net.TCPConn).CloseWrite()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("mismatch over sockets")
	}
	for _, nc := range conns {
		nc.Close()
	}
}
