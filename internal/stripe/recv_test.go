package stripe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

// writePayload frames payload at off through writeFrame, the way the
// Sender does: header room in front of the payload, one Write.
func writePayload(w io.Writer, off uint64, payload []byte) error {
	return writeFrame(w, off, append(make([]byte, frameHeaderLen, frameHeaderLen+len(payload)), payload...))
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var s bytes.Buffer
	var hdr [frameHeaderLen]byte
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xff, 0xff, 0xff, 0xff
	s.Write(hdr[:])
	if _, _, err := readFrame(&s); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestReceiverPendingCap stalls stripe 0 (its frames never arrive) while
// stripe 1 races ahead; once stripe 1's out-of-order frames exceed the
// configured limit the group must fail with ErrPendingOverflow instead of
// buffering without bound.
func TestReceiverPendingCap(t *testing.T) {
	recv := NewReceiver(io.Discard)
	recv.maxPending = 64 << 10
	gh := &GroupHeader{Group: wire.NewSessionID(), Index: 1, Count: 2, TotalLen: 1 << 20}
	var s bytes.Buffer
	s.Write(gh.Encode())
	chunk := make([]byte, 16<<10)
	// Stripe 0 owns [0, 16K) and never delivers it, so nothing can flush.
	for off := int64(16 << 10); off < 1<<20; off += 16 << 10 {
		writePayload(&s, uint64(off), chunk)
	}
	err := recv.Attach(&s)
	if !errors.Is(err, ErrPendingOverflow) {
		t.Fatalf("got %v, want ErrPendingOverflow", err)
	}
}

// TestReceiverPendingCapLiveStall runs the same scenario over live pipes
// with a Sender: one attach goroutine never reads, the other stripe keeps
// delivering until the receiver's cap trips.
func TestReceiverPendingCapLiveStall(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(20)).Read(payload)
	recv := NewReceiver(io.Discard)
	recv.maxPending = 32 << 10

	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	snd.queueFrames = 8
	// Stripe 0 stalls: attached to the sender, never drained to the
	// receiver.
	stallR, stallW := io.Pipe()
	defer stallR.Close()
	if err := snd.Attach(0, stallW); err != nil {
		t.Fatal(err)
	}
	// Stripe 1 flows normally.
	pr, pw := io.Pipe()
	if err := snd.Attach(1, pw); err != nil {
		t.Fatal(err)
	}
	go snd.Run(context.Background())

	attachErr := make(chan error, 1)
	go func() { attachErr <- recv.Attach(pr) }()
	select {
	case err := <-attachErr:
		if !errors.Is(err, ErrPendingOverflow) {
			t.Fatalf("got %v, want ErrPendingOverflow", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver buffered past its pending cap without failing")
	}
}

// TestReceiverRejectsFrameBeyondEnd: a frame reaching past the declared
// length can never flush, so it fails the stream instead of reaching the
// sink (which would leave Complete false forever) or sitting in pending.
func TestReceiverRejectsFrameBeyondEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  uint64
		n    int
	}{
		{"straddles the end", 0, 8},
		{"starts at the end", 4, 4},
		{"starts past the end", 8, 4},
		{"negative offset", 1 << 63, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			recv := NewReceiver(&out)
			var s bytes.Buffer
			s.Write((&GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1, TotalLen: 4}).Encode())
			writePayload(&s, tc.off, make([]byte, tc.n))
			writePayload(&s, 4, nil)
			if err := recv.Attach(&s); !errors.Is(err, ErrFrameBeyondEnd) {
				t.Fatalf("got %v, want ErrFrameBeyondEnd", err)
			}
			if out.Len() != 0 || recv.pendingBytes != 0 {
				t.Fatalf("sink got %d bytes, pending %d", out.Len(), recv.pendingBytes)
			}
		})
	}
}

// TestReceiverStripeDeathReattach covers the heal protocol from the
// receiver's side: a stripe dies mid-stream, a replacement stream for the
// same index re-sends the group header, replays the dead generation's
// frames, delivers the rest, and ends — Complete() must come true with
// byte-exact output.
func TestReceiverStripeDeathReattach(t *testing.T) {
	payload := make([]byte, 16<<10)
	rand.New(rand.NewSource(21)).Read(payload)
	const fs = 4 << 10
	var out bytes.Buffer
	recv := NewReceiver(&out)
	gh := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 2, TotalLen: uint64(len(payload))}

	// First stream: frames [0,4K) and [8K,12K), then the stripe dies
	// (stream truncated mid-frame-header).
	var s1 bytes.Buffer
	s1.Write(gh.Encode())
	writePayload(&s1, 0, payload[0:fs])
	writePayload(&s1, 2*fs, payload[2*fs:3*fs])
	s1.Write([]byte{0, 0, 0}) // torn frame header
	if err := recv.Attach(&s1); err == nil {
		t.Fatal("truncated stripe stream accepted")
	}
	if recv.Complete() {
		t.Fatal("complete too early")
	}

	// Replacement stream, same index: duplicate group header, replays
	// both frames (no acks, so the healer cannot know what arrived),
	// then carries the remaining ranges and the end frame.
	var s2 bytes.Buffer
	s2.Write(gh.Encode())
	writePayload(&s2, 0, payload[0:fs])
	writePayload(&s2, 2*fs, payload[2*fs:3*fs])
	writePayload(&s2, fs, payload[fs:2*fs])
	writePayload(&s2, 3*fs, payload[3*fs:])
	writePayload(&s2, uint64(len(payload)), nil)
	if err := recv.Attach(&s2); err != nil {
		t.Fatalf("replacement stream rejected: %v", err)
	}
	if !recv.Complete() {
		t.Fatalf("incomplete after heal: %d of %d", recv.Written(), len(payload))
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload mismatch after heal")
	}
}

// TestReceiverRejectsCorruptReplay: a "replay" whose boundaries do not
// match any flushed or pending frame is corruption, not healing.
func TestReceiverRejectsCorruptReplay(t *testing.T) {
	recv := NewReceiver(io.Discard)
	gh := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1, TotalLen: 64}
	var s1 bytes.Buffer
	s1.Write(gh.Encode())
	writePayload(&s1, 0, make([]byte, 32))
	s1.Write([]byte{0})
	if err := recv.Attach(&s1); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Same flushed range, different frame boundaries.
	var s2 bytes.Buffer
	s2.Write(gh.Encode())
	writePayload(&s2, 8, make([]byte, 16))
	if err := recv.Attach(&s2); !errors.Is(err, ErrFrameOverlap) {
		t.Fatalf("got %v, want ErrFrameOverlap", err)
	}
	// A pending frame replayed with a different length is also corrupt.
	recv2 := NewReceiver(io.Discard)
	var s3 bytes.Buffer
	s3.Write(gh.Encode())
	writePayload(&s3, 16, make([]byte, 16)) // pending (head missing)
	writePayload(&s3, 16, make([]byte, 8))  // same offset, new length
	if err := recv2.Attach(&s3); !errors.Is(err, ErrFrameOverlap) {
		t.Fatalf("got %v, want ErrFrameOverlap", err)
	}
}

// TestReceiverSpeculativeDuplicates models tail speculation: two live
// stripes concurrently deliver exact duplicates of the same tail frames
// (different stripe indexes, same group). The first copy wins, the stream
// is byte-exact, and the receiver's attribution counts every byte exactly
// once.
func TestReceiverSpeculativeDuplicates(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(23)).Read(payload)
	const fs = 8 << 10
	var out bytes.Buffer
	recv := NewReceiver(&out)
	group := wire.NewSessionID()

	// Stripe 0 carries the whole stream; stripe 1 speculatively
	// duplicates the last two frames and ends.
	var s0 bytes.Buffer
	s0.Write((&GroupHeader{Group: group, Index: 0, Count: 2, TotalLen: uint64(len(payload))}).Encode())
	for off := 0; off < len(payload); off += fs {
		writePayload(&s0, uint64(off), payload[off:off+fs])
	}
	writePayload(&s0, uint64(len(payload)), nil)
	var s1 bytes.Buffer
	s1.Write((&GroupHeader{Group: group, Index: 1, Count: 2, TotalLen: uint64(len(payload))}).Encode())
	for off := len(payload) - 2*fs; off < len(payload); off += fs {
		writePayload(&s1, uint64(off), payload[off:off+fs])
	}
	writePayload(&s1, uint64(len(payload)), nil)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, stream := range [][]byte{s0.Bytes(), s1.Bytes()} {
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			if err := recv.Attach(bytes.NewReader(b)); err != nil {
				errs <- err
			}
		}(stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("speculative duplicates corrupted the stream")
	}
	var sum int64
	for _, b := range recv.AcceptedBytes() {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("accepted sum %d, want %d (double-counted duplicate?)", sum, len(payload))
	}
}

// TestReceiverRejectsCorruptDuplicateAcrossStripes: a second stripe
// replaying an overlapping range with different frame boundaries is
// corruption even when it arrives on a different live stripe index.
func TestReceiverRejectsCorruptDuplicateAcrossStripes(t *testing.T) {
	recv := NewReceiver(io.Discard)
	group := wire.NewSessionID()
	var s0 bytes.Buffer
	s0.Write((&GroupHeader{Group: group, Index: 0, Count: 2, TotalLen: 64}).Encode())
	writePayload(&s0, 16, make([]byte, 16)) // pending (head missing)
	s0.Write([]byte{0})
	if err := recv.Attach(&s0); err == nil {
		t.Fatal("truncated stream accepted")
	}
	var s1 bytes.Buffer
	s1.Write((&GroupHeader{Group: group, Index: 1, Count: 2, TotalLen: 64}).Encode())
	writePayload(&s1, 16, make([]byte, 8)) // same offset, different length
	if err := recv.Attach(&s1); !errors.Is(err, ErrFrameOverlap) {
		t.Fatalf("got %v, want ErrFrameOverlap", err)
	}
}

// rwStream glues a stream's forward (read) and backward (write) channels
// together the way a duplex session does, for ack tests.
type rwStream struct {
	io.Reader
	w io.Writer
}

func (s *rwStream) Write(p []byte) (int, error) { return s.w.Write(p) }

// TestReceiverAcks: a stream opened with the ack-requesting header gets
// cadence acks, and the final ack reports the whole stream flushed with
// per-stripe attribution.
func TestReceiverAcks(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(24)).Read(payload)
	const fs = 8 << 10
	var out bytes.Buffer
	recv := NewReceiver(&out)
	recv.ackEvery = 16 << 10

	var s bytes.Buffer
	s.Write((&GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1,
		TotalLen: uint64(len(payload)), Acks: true}).Encode())
	for off := 0; off < len(payload); off += fs {
		writePayload(&s, uint64(off), payload[off:off+fs])
	}
	writePayload(&s, uint64(len(payload)), nil)

	var back bytes.Buffer
	if err := recv.Attach(&rwStream{Reader: &s, w: &back}); err != nil {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
	var acks []*Ack
	for back.Len() > 0 {
		a, err := ReadAck(&back)
		if err != nil {
			t.Fatalf("ack stream: %v", err)
		}
		acks = append(acks, a)
	}
	if len(acks) < 2 {
		t.Fatalf("got %d acks, want cadence acks plus the final one", len(acks))
	}
	last := acks[len(acks)-1]
	if last.Flushed != int64(len(payload)) {
		t.Fatalf("final flushed %d, want %d", last.Flushed, len(payload))
	}
	if last.Seen != int64(len(payload)) {
		t.Fatalf("final seen %d, want %d", last.Seen, len(payload))
	}
	if len(last.Accepted) != 1 || last.Accepted[0] != int64(len(payload)) {
		t.Fatalf("final accepted %v", last.Accepted)
	}
	// A classic "LSLS" stream must get no acks at all.
	recv2 := NewReceiver(io.Discard)
	var s2 bytes.Buffer
	s2.Write((&GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1, TotalLen: 8}).Encode())
	writePayload(&s2, 0, make([]byte, 8))
	writePayload(&s2, 8, nil)
	var back2 bytes.Buffer
	if err := recv2.Attach(&rwStream{Reader: &s2, w: &back2}); err != nil {
		t.Fatal(err)
	}
	if back2.Len() != 0 {
		t.Fatalf("ackless stream got %d backward bytes", back2.Len())
	}
}

// TestReceiverConcurrentReplays hammers the dedup path: many goroutines
// replay overlapping copies of the same stripe stream.
func TestReceiverConcurrentReplays(t *testing.T) {
	payload := make([]byte, 128<<10)
	rand.New(rand.NewSource(22)).Read(payload)
	var out bytes.Buffer
	recv := NewReceiver(&out)
	gh := &GroupHeader{Group: wire.NewSessionID(), Index: 0, Count: 1, TotalLen: uint64(len(payload))}
	stream := func() []byte {
		var s bytes.Buffer
		s.Write(gh.Encode())
		for off := 0; off < len(payload); off += 8 << 10 {
			writePayload(&s, uint64(off), payload[off:off+8<<10])
		}
		writePayload(&s, uint64(len(payload)), nil)
		return s.Bytes()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := recv.Attach(bytes.NewReader(stream)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("concurrent replays corrupted the stream")
	}
}

// stripeStream is stripe index idx of a count-stripe group of total
// bytes: its group header, then a frame of payload[off:off+n] for each
// {off, n} in frames, then (if end) the end frame.
func stripeStream(group wire.SessionID, idx, count uint8, payload []byte, frames []frame, end bool) []byte {
	var s bytes.Buffer
	s.Write((&GroupHeader{Group: group, Index: idx, Count: count, TotalLen: uint64(len(payload))}).Encode())
	for _, f := range frames {
		writePayload(&s, uint64(f.off), payload[f.off:f.off+int64(f.n)])
	}
	if end {
		writePayload(&s, uint64(len(payload)), nil)
	}
	return s.Bytes()
}

// checkAccepted fails unless the receiver's attribution is want and sums
// to the bytes it flushed.
func checkAccepted(t *testing.T, recv *Receiver, want ...int64) {
	t.Helper()
	got := recv.AcceptedBytes()
	var sum int64
	for _, b := range got {
		sum += b
	}
	if sum != recv.Written() || len(got) != len(want) {
		t.Fatalf("accepted %v sums to %d, flushed %d", got, sum, recv.Written())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("accepted %v, want %v", got, want)
		}
	}
}

// TestReceiverTruncatedHeadReplay: a stream that dies inside the frame
// passing through leaves it partly flushed, and a later stream's replay
// of that frame — the healed stripe's own, or a requeue onto another
// stripe — finishes it from the first missing byte, byte-exact, with the
// frame's bytes credited to the stripe that landed them.
func TestReceiverTruncatedHeadReplay(t *testing.T) {
	const fs = 4 << 10
	payload := make([]byte, 4*fs)
	rand.New(rand.NewSource(25)).Read(payload)
	frames := []frame{{off: 0, n: fs}, {off: fs, n: fs}, {off: 2 * fs, n: fs}, {off: 3 * fs, n: fs}}
	for _, tc := range []struct {
		name     string
		idx      uint8
		accepted []int64
	}{
		{"heal", 0, []int64{4 * fs, 0}},
		{"requeue", 1, []int64{fs + fs/2, 2*fs + fs/2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			recv := NewReceiver(&out)
			group := wire.NewSessionID()
			// Stripe 0 carries frame 0 and half of frame 1, then dies.
			s0 := stripeStream(group, 0, 2, payload, frames[:2], false)
			s0 = s0[:len(s0)-fs/2]
			if err := recv.Attach(bytes.NewReader(s0)); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("cut stream: got %v, want wire.ErrTruncated", err)
			}
			if recv.Written() != fs+fs/2 || !bytes.Equal(out.Bytes(), payload[:fs+fs/2]) {
				t.Fatalf("after the cut the sink holds %d bytes, want the %d that arrived", out.Len(), fs+fs/2)
			}
			// The replacement replays both frames and carries the rest.
			s1 := stripeStream(group, tc.idx, 2, payload, frames, true)
			if err := recv.Attach(bytes.NewReader(s1)); err != nil {
				t.Fatalf("replay rejected: %v", err)
			}
			if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
				t.Fatalf("incomplete or corrupt after replay: %d of %d", recv.Written(), len(payload))
			}
			checkAccepted(t, recv, tc.accepted...)
		})
	}
}

// landWriter is a sink that reports each write's size on a channel, so a
// test can wait for bytes to reach it without timing.
type landWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	landed chan int
	seen   int // bytes waited for so far; the test goroutine's alone
}

// Write runs with the receiver's lock held, so it must not block: the
// channel holds more writes than any test makes.
func newLandWriter() *landWriter { return &landWriter{landed: make(chan int, 1024)} }

func (w *landWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	w.mu.Unlock()
	w.landed <- len(p)
	return len(p), nil
}

// waitFor blocks until the sink holds n bytes.
func (w *landWriter) waitFor(t *testing.T, n int) {
	t.Helper()
	for w.seen < n {
		select {
		case k := <-w.landed:
			w.seen += k
		case <-time.After(10 * time.Second): // bounds a failing run only
			t.Fatalf("sink holds %d bytes, want %d", w.seen, n)
		}
	}
}

func (w *landWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// attachPipe attaches the read end of a fresh pipe to recv on its own
// goroutine and returns the write end and Attach's result.
func attachPipe(recv *Receiver) (*io.PipeWriter, <-chan error) {
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := recv.Attach(pr)
		pr.CloseWithError(io.ErrClosedPipe)
		errc <- err
	}()
	return pw, errc
}

// TestReceiverCutThrough: the first half of an in-order frame reaches the
// sink before the second half is even written.
func TestReceiverCutThrough(t *testing.T) {
	const fs = 64 << 10
	payload := make([]byte, fs)
	rand.New(rand.NewSource(26)).Read(payload)
	out := newLandWriter()
	recv := NewReceiver(out)
	pw, errc := attachPipe(recv)
	s := stripeStream(wire.NewSessionID(), 0, 1, payload, []frame{{off: 0, n: fs}}, true)
	head := groupHeaderLen + frameHeaderLen + fs/2
	if _, err := pw.Write(s[:head]); err != nil {
		t.Fatal(err)
	}
	out.waitFor(t, fs/2)
	if recv.Written() != fs/2 {
		t.Fatalf("written %d after half a frame, want %d", recv.Written(), fs/2)
	}
	if _, err := pw.Write(s[head:]); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.bytes(), payload) {
		t.Fatal("stream corrupted")
	}
}

// TestReceiverDuplicateOfPassingFrame models tail speculation against a
// frame that is passing through: stripe 0 (the original) has put half of
// the group's one frame into the sink when stripe 1's duplicate of it
// starts to arrive. Whichever copy lands whole first wins: the duplicate
// is dropped if the original completes first, finishes the frame if the
// original's stream dies mid-payload, and overtakes an original that is
// still mid-payload when the duplicate is complete — the original's
// stream may then stall for good without holding the group back.
func TestReceiverDuplicateOfPassingFrame(t *testing.T) {
	const fs = 16 << 10
	payload := make([]byte, fs)
	rand.New(rand.NewSource(27)).Read(payload)
	one := []frame{{off: 0, n: fs}}
	for _, tc := range []struct {
		name     string
		finish   func(t *testing.T, orig, dup *io.PipeWriter, origErr, dupErr <-chan error, rest0, rest1 []byte)
		accepted []int64
	}{
		{"original completes", func(t *testing.T, orig, dup *io.PipeWriter, origErr, dupErr <-chan error, rest0, rest1 []byte) {
			orig.Write(rest0)
			if err := <-origErr; err != nil {
				t.Fatalf("original: %v", err)
			}
			dup.Write(rest1)
			if err := <-dupErr; err != nil {
				t.Fatalf("duplicate: %v", err)
			}
		}, []int64{fs, 0}},
		{"original dies", func(t *testing.T, orig, dup *io.PipeWriter, origErr, dupErr <-chan error, rest0, rest1 []byte) {
			orig.Close()
			if err := <-origErr; !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("original: got %v, want wire.ErrTruncated", err)
			}
			dup.Write(rest1)
			if err := <-dupErr; err != nil {
				t.Fatalf("duplicate: %v", err)
			}
		}, []int64{fs / 2, fs / 2}},
		{"duplicate lands first", func(t *testing.T, orig, dup *io.PipeWriter, origErr, dupErr <-chan error, rest0, rest1 []byte) {
			dup.Write(rest1)
			if err := <-dupErr; err != nil {
				t.Fatalf("duplicate: %v", err)
			}
			orig.Close() // the original never delivers the rest
			if err := <-origErr; !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("original: got %v, want wire.ErrTruncated", err)
			}
		}, []int64{fs / 2, fs / 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := newLandWriter()
			recv := NewReceiver(out)
			group := wire.NewSessionID()
			s0 := stripeStream(group, 0, 2, payload, one, true)
			s1 := stripeStream(group, 1, 2, payload, one, true)
			orig, origErr := attachPipe(recv)
			dup, dupErr := attachPipe(recv)
			// The original's first half passes through to the sink.
			cut0 := groupHeaderLen + frameHeaderLen + fs/2
			orig.Write(s0[:cut0])
			out.waitFor(t, fs/2)
			// The duplicate's header and first quarter are consumed while
			// the original is mid-frame: a pipe write returns once read.
			cut1 := groupHeaderLen + frameHeaderLen + fs/4
			dup.Write(s1[:cut1])
			if recv.Written() != fs/2 {
				t.Fatalf("duplicate moved the prefix to %d mid-frame", recv.Written())
			}
			tc.finish(t, orig, dup, origErr, dupErr, s0[cut0:], s1[cut1:])
			if !recv.Complete() || !bytes.Equal(out.bytes(), payload) {
				t.Fatalf("incomplete or corrupt: %d of %d", recv.Written(), fs)
			}
			checkAccepted(t, recv, tc.accepted...)
		})
	}
}

// TestReceiverPartialHeadOverlap: once a frame is partly flushed, only a
// copy with exactly its bounds may finish it. Any other frame reaching
// into it is corruption.
func TestReceiverPartialHeadOverlap(t *testing.T) {
	const fs = 4 << 10
	payload := make([]byte, 4*fs)
	rand.New(rand.NewSource(28)).Read(payload)
	for _, f := range []frame{
		{off: fs, n: fs / 2},        // the head's offset, shorter
		{off: fs, n: 2 * fs},        // the head's offset, longer
		{off: fs + fs/2, n: fs / 2}, // starts at the prefix, inside the head
		{off: fs + 3*fs/4, n: fs},   // starts past the prefix, inside the head
		{off: 0, n: 2 * fs},         // spans the flushed frame and the head
		{off: fs / 2, n: fs},        // starts inside the flushed frame
	} {
		var out bytes.Buffer
		recv := NewReceiver(&out)
		group := wire.NewSessionID()
		s0 := stripeStream(group, 0, 2, payload, []frame{{off: 0, n: fs}, {off: fs, n: fs}}, false)
		if err := recv.Attach(bytes.NewReader(s0[:len(s0)-fs/2])); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("cut stream: got %v, want wire.ErrTruncated", err)
		}
		s1 := stripeStream(group, 1, 2, payload, []frame{f}, true)
		if err := recv.Attach(bytes.NewReader(s1)); !errors.Is(err, ErrFrameOverlap) {
			t.Fatalf("frame %+v: got %v, want ErrFrameOverlap", f, err)
		}
		if recv.Written() != fs+fs/2 || !bytes.Equal(out.Bytes(), payload[:fs+fs/2]) {
			t.Fatalf("frame %+v moved the sink to %d bytes", f, out.Len())
		}
		checkAccepted(t, recv, fs+fs/2, 0)
	}
}

// TestReceiverCutThroughAllocs: frames at the prefix pass through one
// pooled buffer. Reassembling 64 in-order 64 KiB frames allocates less
// than one frame, so a per-frame payload buffer cannot come back
// unnoticed.
func TestReceiverCutThroughAllocs(t *testing.T) {
	const fs, frames = 64 << 10, 64
	payload := make([]byte, fs*frames)
	var fl []frame
	for off := 0; off < len(payload); off += fs {
		fl = append(fl, frame{off: int64(off), n: fs})
	}
	s := bytes.NewReader(stripeStream(wire.NewSessionID(), 0, 1, payload, fl, true))
	recv := NewReceiver(io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := recv.Attach(s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !recv.Complete() {
		t.Fatal("incomplete")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= fs {
		t.Fatalf("reassembling %d in-order frames allocated %d bytes, want < %d", frames, got, fs)
	}
}
