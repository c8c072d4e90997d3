package stripe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

var errInjectedWrite = errors.New("injected write failure")

// failAfter refuses writes once n bytes have passed through, and poisons
// the pipe's read side so the receiver sees the break too.
type failAfter struct {
	pw *io.PipeWriter
	n  int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n-len(p) < 0 {
		f.pw.CloseWithError(errInjectedWrite)
		return 0, errInjectedWrite
	}
	f.n -= len(p)
	return f.pw.Write(p)
}

// slowWriter adds a fixed delay per write so per-frame throughput samples
// are measurable on any clock.
type slowWriter struct {
	buf   bytes.Buffer
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay) // models a slow path: the delay is the point
	return s.buf.Write(p)
}

// startedWriter closes started on its first write, before passing it on.
type startedWriter struct {
	w       io.Writer
	once    sync.Once
	started chan struct{}
}

func (s *startedWriter) Write(p []byte) (int, error) {
	s.once.Do(func() { close(s.started) })
	return s.w.Write(p)
}

// heldWriter blocks every write until release is closed. Tests that need
// one particular stripe to carry a given share hold its siblings back, so
// the split does not depend on goroutine scheduling.
type heldWriter struct {
	w       io.Writer
	release <-chan struct{}
}

func (h heldWriter) Write(p []byte) (int, error) {
	<-h.release
	return h.w.Write(p)
}

// pipeStripe attaches stripe i of snd to recv over an in-memory pipe
// whose write side is wrapped by wrap (nil: the bare pipe). The receiving
// goroutine is counted on wg; its error is dropped because a dying
// stripe's is expected.
func pipeStripe(t *testing.T, snd *Sender, recv *Receiver, wg *sync.WaitGroup, i int, wrap func(*io.PipeWriter) io.Writer) {
	t.Helper()
	pr, pw := io.Pipe()
	var w io.Writer = pw
	if wrap != nil {
		w = wrap(pw)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		recv.Attach(pr)
	}()
	if err := snd.Attach(i, w); err != nil {
		t.Error(err)
	}
}

func TestSenderRoundTrip(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(payload)

	const n = 3
	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), n,
		SenderConfig{FrameSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	attachErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := recv.Attach(pr); aerr != nil {
				attachErrs <- aerr
			}
		}()
		if err := snd.Attach(i, pw); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(attachErrs)
	for aerr := range attachErrs {
		t.Fatal(aerr)
	}
	if !recv.Complete() {
		t.Fatalf("incomplete: %d of %d", recv.Written(), len(payload))
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload mismatch")
	}
	var sum int64
	for _, b := range snd.Stats().StripeBytes {
		if b == 0 {
			t.Fatal("a stripe carried no bytes")
		}
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d", sum, len(payload))
	}
}

func TestSenderEmptyPayload(t *testing.T) {
	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(nil), 0, 2, SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := recv.Attach(pr); aerr != nil {
				t.Error(aerr)
			}
		}()
		if err := snd.Attach(i, pw); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !recv.Complete() {
		t.Fatal("empty transfer incomplete")
	}
}

// TestSenderHealsDeadStripe kills one stripe mid-flow, attaches a
// replacement stream for the same index, and expects the requeued frames
// to arrive byte-exact through the healed stripe.
func TestSenderHealsDeadStripe(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(12)).Read(payload)

	var out bytes.Buffer
	recv := NewReceiver(&out)
	downCh := make(chan int, 8)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 3,
		SenderConfig{
			FrameSize:    8 << 10,
			OnStripeDown: func(i int, err error) { downCh <- i },
		})
	if err != nil {
		t.Fatal(err)
	}
	snd.queueFrames = 2
	var wg sync.WaitGroup
	release := make(chan struct{})
	held := func(pw *io.PipeWriter) io.Writer { return heldWriter{w: pw, release: release} }
	pipeStripe(t, snd, recv, &wg, 0, held)
	pipeStripe(t, snd, recv, &wg, 1, func(pw *io.PipeWriter) io.Writer {
		return &failAfter{pw: pw, n: 200 << 10} // dies partway through
	})
	pipeStripe(t, snd, recv, &wg, 2, held)

	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(context.Background()) }()

	select {
	case idx := <-downCh:
		if idx != 1 {
			t.Errorf("stripe %d down, expected 1", idx)
		}
		close(release)
		pipeStripe(t, snd, recv, &wg, idx, nil) // heal with a fresh stream
	case <-time.After(10 * time.Second):
		t.Fatal("stripe never died")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run hung after heal")
	}
	wg.Wait()
	if !recv.Complete() {
		t.Fatalf("incomplete after heal: %d of %d", recv.Written(), len(payload))
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload mismatch after heal")
	}
	if snd.Stats().Reassigned == 0 {
		t.Fatal("death reassigned no frames")
	}
}

// TestSenderAbandonRedistributes gives up on a dead stripe entirely; the
// survivors must deliver its frames. The survivor is held back until the
// other stripe has died, so the dispatcher has to route the stream
// through the doomed stripe whatever the goroutine scheduling.
func TestSenderAbandonRedistributes(t *testing.T) {
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(13)).Read(payload)

	var out bytes.Buffer
	recv := NewReceiver(&out)
	downCh := make(chan int, 8)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{
			FrameSize:    8 << 10,
			OnStripeDown: func(i int, err error) { downCh <- i },
		})
	if err != nil {
		t.Fatal(err)
	}
	snd.queueFrames = 2
	var wg sync.WaitGroup
	release := make(chan struct{})
	pipeStripe(t, snd, recv, &wg, 0, func(pw *io.PipeWriter) io.Writer { return heldWriter{w: pw, release: release} })
	pipeStripe(t, snd, recv, &wg, 1, func(pw *io.PipeWriter) io.Writer { return &failAfter{pw: pw, n: 64 << 10} })

	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(context.Background()) }()
	select {
	case idx := <-downCh:
		snd.Abandon(idx, errInjectedWrite)
		close(release)
	case <-time.After(10 * time.Second):
		t.Fatal("stripe never died")
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("survivor did not deliver the abandoned stripe's frames")
	}
	if err := snd.Attach(1, &bytes.Buffer{}); err == nil {
		t.Fatal("attach after abandon accepted")
	}
}

// TestSenderAllAbandonedFails: once every stripe is gone with frames
// outstanding, Run must fail instead of hanging.
func TestSenderAllAbandonedFails(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(14)).Read(payload)
	down := make(chan int, 1)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 1,
		SenderConfig{FrameSize: 8 << 10, OnStripeDown: func(i int, err error) {
			select {
			case down <- i:
			default:
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	snd.queueFrames = 1
	pr, pw := io.Pipe()
	fw := &failAfter{pw: pw, n: 32 << 10}
	go io.Copy(io.Discard, pr)
	if err := snd.Attach(0, fw); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(context.Background()) }()
	select {
	case <-down:
	case <-time.After(10 * time.Second):
		t.Fatal("stripe never died")
	}
	snd.Abandon(0, nil)
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil with undelivered frames")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung with every stripe abandoned")
	}
}

func TestSenderContextCancel(t *testing.T) {
	payload := make([]byte, 1<<20)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 1,
		SenderConfig{FrameSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pr.Close()
	sw := &startedWriter{w: pw, started: make(chan struct{})}
	if err := snd.Attach(0, sw); err != nil {
		t.Fatal(err)
	}
	// Nobody reads pr, so the worker blocks on the pipe; cancel must
	// still unblock Run.
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(ctx) }()
	<-sw.started
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run ignored cancellation")
	}
}

// TestSenderWeightedDispatch checks the credit dispatcher splits load
// proportionally to the configured weights. The queue bound exceeds the
// total frame count so per-stripe backpressure never constrains
// eligibility and the credit math alone decides the split.
func TestSenderWeightedDispatch(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(15)).Read(payload)
	var b0, b1 bytes.Buffer
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 16 << 10, Weights: []float64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	snd.queueFrames = 128
	if err := snd.Attach(0, &b0); err != nil {
		t.Fatal(err)
	}
	if err := snd.Attach(1, &b1); err != nil {
		t.Fatal(err)
	}
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sb := snd.Stats().StripeBytes; sb[0] != 3*sb[1] {
		t.Fatalf("weight 3:1 produced split %d:%d", sb[0], sb[1])
	}
	// The streams must still reassemble.
	var out bytes.Buffer
	recv := NewReceiver(&out)
	if err := recv.Attach(&b1); err != nil {
		t.Fatal(err)
	}
	if err := recv.Attach(&b0); err != nil {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("weighted streams did not reassemble")
	}
}

// TestSenderAcklessLiveWritersNeverSteal is the regression for moving
// frames on write-side evidence: writers that swallow frames instantly give
// the write EWMA memcpy-noise "rates", and with no acks nothing says either
// path is slow. No tail mechanism may move a frame, so queued frames stay
// where the credit dispatcher put them and the 3:1 split is exact on every
// run.
func TestSenderAcklessLiveWritersNeverSteal(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(16)).Read(payload)
	for run := 0; run < 20; run++ {
		var b0, b1 bytes.Buffer
		snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
			SenderConfig{FrameSize: 16 << 10, Weights: []float64{3, 1}})
		if err != nil {
			t.Fatal(err)
		}
		snd.queueFrames = 128
		if err := snd.Attach(0, &b0); err != nil {
			t.Fatal(err)
		}
		if err := snd.Attach(1, &b1); err != nil {
			t.Fatal(err)
		}
		if err := snd.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sb := snd.Stats().StripeBytes; sb[0] != 3*sb[1] {
			t.Fatalf("run %d: weight 3:1 produced split %d:%d", run, sb[0], sb[1])
		}
		if n := snd.Stats().Reassigned; n != 0 {
			t.Fatalf("run %d: %d frames reassigned between live stripes", run, n)
		}
	}
}

// TestSenderRebalances drives enough bytes through asymmetric stripes to
// trigger throughput-driven weight recomputation.
func TestSenderRebalances(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(16)).Read(payload)
	fast := &slowWriter{delay: 200 * time.Microsecond}
	slow := &slowWriter{delay: 2 * time.Millisecond}
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 16 << 10, RebalanceBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Attach(0, fast); err != nil {
		t.Fatal(err)
	}
	if err := snd.Attach(1, slow); err != nil {
		t.Fatal(err)
	}
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snd.Stats().Rebalances == 0 {
		t.Fatal("no rebalance recorded")
	}
	// Rebalanced weights must favor the faster stripe.
	w := snd.Stats().Weights
	if w[0] <= w[1] {
		t.Fatalf("rebalance did not favor the fast stripe: %v", w)
	}
	sb := snd.Stats().StripeBytes
	if sb[0] <= sb[1] {
		t.Fatalf("fast stripe carried %d <= slow stripe %d", sb[0], sb[1])
	}
	var out bytes.Buffer
	recv := NewReceiver(&out)
	if err := recv.Attach(&fast.buf); err != nil {
		t.Fatal(err)
	}
	if err := recv.Attach(&slow.buf); err != nil {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("rebalanced streams did not reassemble")
	}
}

// duplexStream is the sender's end of an in-memory session: Write feeds
// the forward pipe, Read drains the backward one, CloseWrite half-closes.
type duplexStream struct {
	fw *io.PipeWriter
	br *io.PipeReader
}

func (d duplexStream) Write(p []byte) (int, error) { return d.fw.Write(p) }
func (d duplexStream) Read(p []byte) (int, error)  { return d.br.Read(p) }
func (d duplexStream) CloseWrite() error           { return d.fw.Close() }

// TestReplayStripeDedup fails stripe 0's backward channel after its end
// frame is out: the finished stripe goes down, the frames it carried
// requeue, and its replacement stream replays them — the receiver drops
// every duplicate and stays complete.
func TestReplayStripeDedup(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(17)).Read(payload)
	down := make(chan int, 4)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 8 << 10, OnStripeDown: func(i int, _ error) { down <- i }})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 200 * time.Millisecond // no acks come: end frames wait this long
	var out bytes.Buffer
	recv := NewReceiver(&out)
	var wg sync.WaitGroup
	// attach connects stripe i over a fresh duplex pipe. The receiver reads
	// it without acking and then ends the backward channel with end (nil:
	// EOF, the cascade unwinding).
	attach := func(i int, end error) {
		fr, fw := io.Pipe()
		br, bw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := recv.Attach(fr); aerr != nil {
				t.Errorf("stripe %d: %v", i, aerr)
			}
			bw.CloseWithError(end)
		}()
		if aerr := snd.Attach(i, duplexStream{fw: fw, br: br}); aerr != nil {
			t.Fatal(aerr)
		}
	}
	attach(0, errors.New("backward channel reset"))
	attach(1, nil)
	runDone := make(chan error, 1)
	go func() { runDone <- snd.Run(context.Background()) }()
	select {
	case i := <-down:
		if i != 0 {
			t.Fatalf("stripe %d went down, want 0", i)
		}
		attach(0, nil)
	case err := <-runDone:
		t.Fatalf("run ended (%v) without the stripe-down", err)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("replay corrupted the reassembled stream")
	}
	if snd.Stats().Reassigned == 0 {
		t.Fatal("the stripe that went down requeued no frames")
	}
	var sum int64
	for _, b := range snd.Stats().StripeBytes {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d", sum, len(payload))
	}
}

func TestSenderRunTwice(t *testing.T) {
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(nil), 0, 1, SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	snd.Attach(0, &b)
	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := snd.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}
