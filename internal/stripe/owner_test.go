package stripe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/wire"
)

// ownedStream is a stream handed to a Sender that records whether the
// Sender closed it; closing it closes c.
type ownedStream struct {
	io.Writer
	c      io.Closer
	closed atomic.Bool
}

func (o *ownedStream) Close() error {
	o.closed.Store(true)
	return o.c.Close()
}

// headerTap reads a stripe's group header off r, reports it on hdrs, and
// hands the whole stream to recv, with back (nil: none) as its backward
// channel.
func headerTap(recv *Receiver, r io.Reader, back io.Writer, hdrs chan<- *GroupHeader) error {
	gh, err := ReadGroupHeader(r)
	if err != nil {
		return err
	}
	hdrs <- gh
	whole := io.MultiReader(bytes.NewReader(gh.Encode()), r)
	if back == nil {
		return recv.Attach(whole)
	}
	return recv.Attach(struct {
		io.Reader
		io.Writer
	}{whole, back})
}

// TestSenderOneWayWritersOpenAckless: a stream that cannot read has no
// backward channel, so it opens with "LSLS" and finishes as soon as its
// end frame is written — Run does not wait out the stuck timeout for acks
// that can never come.
func TestSenderOneWayWritersOpenAckless(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(41)).Read(payload)
	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 5 * time.Second
	hdrs := make(chan *GroupHeader, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := headerTap(recv, pr, nil, hdrs); aerr != nil {
				t.Error(aerr)
			}
		}()
		if err := snd.Attach(i, pw); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= snd.stuckTimeout {
		t.Fatalf("Run took %v: it waited for acks over one-way streams", d)
	}
	wg.Wait()
	close(hdrs)
	for gh := range hdrs {
		if gh.Acks {
			t.Fatalf("stripe %d over a one-way writer opened with LSLT", gh.Index)
		}
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
}

// TestSenderDuplexOpensAcked: a stream with a backward channel opens with
// "LSLT", and the receiver's acks on it confirm the group.
func TestSenderDuplexOpensAcked(t *testing.T) {
	payload := make([]byte, 128<<10)
	rand.New(rand.NewSource(42)).Read(payload)
	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 1,
		SenderConfig{FrameSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fr, fw := io.Pipe()
	br, bw := io.Pipe()
	hdrs := make(chan *GroupHeader, 1)
	done := make(chan error, 1)
	go func() {
		// The receiver's side: frames in, acks out on the backward pipe.
		done <- headerTap(recv, fr, bw, hdrs)
		bw.Close()
	}()
	if err := snd.Attach(0, duplexStream{fw: fw, br: br}); err != nil {
		t.Fatal(err)
	}
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gh := <-hdrs; !gh.Acks {
		t.Fatal("duplex stream opened with LSLS")
	}
	if !snd.Stats().Confirmed {
		t.Fatal("group not confirmed by the duplex stream's acks")
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
}

// TestSenderClosesEveryStream: the Sender owns the streams it is handed.
// A stripe that goes down has its stream closed before OnStripeDown fires;
// by the time Run returns, the healed generation's, the superseded one's
// and the survivors' are closed too.
func TestSenderClosesEveryStream(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(43)).Read(payload)
	const fs = 4 << 10
	var out bytes.Buffer
	recv := NewReceiver(&out)
	// OnStripeDown reports the stripe and whether the dying stream was
	// already closed when it fired.
	var dying *ownedStream
	type downEvent struct {
		i      int
		closed bool
	}
	down := make(chan downEvent, 4)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 3,
		SenderConfig{FrameSize: fs, OnStripeDown: func(i int, _ error) { down <- downEvent{i, dying.closed.Load()} }})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 30 * time.Millisecond
	var wg sync.WaitGroup
	var streams []*ownedStream
	// attach connects stripe i over a fresh pipe whose write side wrap
	// may replace; the receiving side's error is dropped, as a dying
	// stripe's is expected.
	attach := func(i int, wrap func(pw *io.PipeWriter) io.Writer) *ownedStream {
		pr, pw := io.Pipe()
		o := &ownedStream{Writer: pw, c: pw}
		if wrap != nil {
			w := wrap(pw)
			o.Writer = w
			if c, ok := w.(io.Closer); ok {
				o.c = c
			}
		}
		streams = append(streams, o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			recv.Attach(pr)
		}()
		if err := snd.Attach(i, o); err != nil {
			t.Fatal(err)
		}
		return o
	}
	attach(0, nil)
	dying = attach(1, func(pw *io.PipeWriter) io.Writer {
		return &failAfter{pw: pw, n: groupHeaderLen + 2*(frameHeaderLen+fs)}
	})
	attach(2, func(pw *io.PipeWriter) io.Writer { return newGateWriter(pw, groupHeaderLen+frameHeaderLen+fs) })

	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(context.Background()) }()
	select {
	case ev := <-down:
		if ev.i != 1 {
			t.Fatalf("stripe %d down, want 1", ev.i)
		}
		if !ev.closed {
			t.Fatal("OnStripeDown fired before the dead stream was closed")
		}
		attach(1, nil)
	case err := <-runErr:
		t.Fatalf("run ended (%v) before stripe 1 went down", err)
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	for i, o := range streams {
		if !o.closed.Load() {
			t.Errorf("stream %d still open after Run returned", i)
		}
	}
	wg.Wait()
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
	if st := snd.Stats(); st.Superseded != 1 {
		t.Fatalf("superseded %d, want 1: the wedged stripe must retire", st.Superseded)
	}
}
