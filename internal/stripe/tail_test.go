package stripe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

// gateWriter passes through a fixed byte budget, then blocks every write
// until Close — a path that wedges without erroring, like a remote whose
// kernel buffers filled while the far side stopped draining. Close also
// closes the writer behind it, as closing a connection would.
type gateWriter struct {
	mu     sync.Mutex
	w      io.Writer
	budget int
	gate   chan struct{}
	once   sync.Once
}

func newGateWriter(w io.Writer, budget int) *gateWriter {
	return &gateWriter{w: w, budget: budget, gate: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	if g.budget >= len(p) {
		g.budget -= len(p)
		g.mu.Unlock()
		return g.w.Write(p)
	}
	g.mu.Unlock()
	<-g.gate
	return 0, errors.New("gated writer closed")
}

func (g *gateWriter) Close() error {
	g.once.Do(func() { close(g.gate) })
	if c, ok := g.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// delayWriter adds a fixed delay per write, making two stripes' measured
// rates deterministic and equal.
type delayWriter struct {
	w     io.Writer
	delay time.Duration
}

func (d *delayWriter) Write(p []byte) (int, error) {
	time.Sleep(d.delay) // models a slow path: the delay is the point
	return d.w.Write(p)
}

// TestSenderTailReclamation wedges one of two stripes mid-transfer and
// expects it superseded: its sent-but-unconfirmed, in-flight and queued
// frames requeue for the fast stripe — with the reassembled stream
// byte-exact and StripeBytes still summing to the stream length.
func TestSenderTailReclamation(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(31)).Read(payload)
	const fs = 4 << 10

	var out bytes.Buffer
	recv := NewReceiver(&out)

	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: fs})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 30 * time.Millisecond

	// Stripe 0 flows normally.
	pr0, pw0 := io.Pipe()
	fastErr := make(chan error, 1)
	go func() { fastErr <- recv.Attach(pr0) }()
	if err := snd.Attach(0, pw0); err != nil {
		t.Fatal(err)
	}

	// Stripe 1 delivers its group header and exactly one frame, then
	// wedges: the write blocks without returning.
	pr1, pw1 := io.Pipe()
	gate := newGateWriter(pw1, groupHeaderLen+frameHeaderLen+fs)
	go func() { recv.Attach(pr1) }() // dies when the pipe is torn down; tolerated
	// The Sender closes the wedged stream when it supersedes the stripe.
	if err := snd.Attach(1, gate); err != nil {
		t.Fatal(err)
	}

	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-fastErr; err != nil {
		t.Fatalf("fast stripe: %v", err)
	}
	if !recv.Complete() {
		t.Fatalf("incomplete: %d of %d", recv.Written(), len(payload))
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload mismatch after reclamation")
	}
	// No acks flow on pipes, so nothing is confirmed: the one frame
	// stripe 1 delivered and the one wedged in flight both requeue.
	if snd.Stats().Reassigned < 2 {
		t.Fatalf("reassigned %d, want >= 2: the wedged stripe's sent and in-flight frames requeue at supersession", snd.Stats().Reassigned)
	}
	if b := snd.Stats().StripeBytes[1]; b != 0 {
		t.Fatalf("superseded stripe keeps %d B of credit, want 0: none of its frames was confirmed", b)
	}
	if snd.Stats().Superseded != 1 {
		t.Fatalf("superseded %d, want 1", snd.Stats().Superseded)
	}
	var sum int64
	for _, b := range snd.Stats().StripeBytes {
		if b < 0 {
			t.Fatalf("negative stripe bytes: %v", snd.Stats().StripeBytes)
		}
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("stripe bytes sum %d, want %d (%v)", sum, len(payload), snd.Stats().StripeBytes)
	}
	if d := snd.Stats().Tail; d <= 0 {
		t.Fatalf("tail duration %v, want > 0", d)
	}
}

// TestSenderSymmetricNoSteal: two stripes of identical rate must never
// trigger supersession or requeue frames — reclamation is for wedged
// stripes only.
func TestSenderSymmetricNoSteal(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(32)).Read(payload)

	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	attachErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := recv.Attach(pr); aerr != nil {
				attachErrs <- aerr
			}
		}()
		if err := snd.Attach(i, &delayWriter{w: pw, delay: 2 * time.Millisecond}); err != nil {
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
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
	if snd.Stats().Reassigned != 0 || snd.Stats().Superseded != 0 {
		t.Fatalf("symmetric paths reclaimed: reassigned %d superseded %d",
			snd.Stats().Reassigned, snd.Stats().Superseded)
	}
}

// TestSenderAckConfirm runs a full duplex transfer: the receiver acks on
// each stream's backward channel, which the Sender reads itself, the
// in-flight budget adapts, and the group confirms by ack — with the
// receiver's attribution summing to the stream length.
func TestSenderAckConfirm(t *testing.T) {
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(33)).Read(payload)

	var out bytes.Buffer
	recv := NewReceiver(&out)
	recv.ackEvery = 8 << 10

	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	attachErrs := make(chan error, 2)
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		client, server := net.Pipe()
		conns = append(conns, client, server)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if aerr := recv.Attach(server); aerr != nil {
				attachErrs <- aerr
			}
		}()
		if aerr := snd.Attach(i, client); aerr != nil {
			t.Fatal(aerr)
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
	for _, c := range conns {
		c.Close()
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
	if !snd.Stats().Confirmed {
		t.Fatal("group not confirmed by ack")
	}
	var sum int64
	for _, b := range snd.Stats().AcceptedBytes {
		sum += b
	}
	if sum != int64(len(payload)) {
		t.Fatalf("accepted bytes sum %d, want %d (%v)", sum, len(payload), snd.Stats().AcceptedBytes)
	}
}

// TestSenderInflightBudget exercises the eligibility math directly:
// until a stripe's stream has a receiver-measured drain rate the
// frame-count bound governs; after that, its unacknowledged commitment
// against the adaptive byte budget decides whether it may take more work.
func TestSenderInflightBudget(t *testing.T) {
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(make([]byte, 1<<20)), 1<<20, 2,
		SenderConfig{FrameSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st := snd.stripes[0]
	snd.mu.Lock()
	defer snd.mu.Unlock()
	st.state, st.accepted = stripeLive, true // as Attach leaves a plain writer

	// Before a measured ack rate, the frame-count bound governs.
	if !snd.eligibleLocked(st, 4096) {
		t.Fatal("empty pre-ack stripe must be eligible")
	}
	st.queue = []frame{{off: 0, n: 1}, {off: 1, n: 1}, {off: 2, n: 1}, {off: 3, n: 1}}
	if snd.eligibleLocked(st, 4096) {
		t.Fatal("full pre-ack queue must not be eligible")
	}
	st.queue = nil

	// The adaptive budget is acked-rate × horizon, clamped to at least
	// two frames.
	st.genAcked = true
	st.ackBps = 100 << 20
	budget := int64(float64(100<<20) * defaultInflightHorizon.Seconds())
	if b := snd.budgetLocked(st); b != budget {
		t.Fatalf("adaptive budget %d, want %d", b, budget)
	}
	// Once measured, the byte budget governs: a full budget unacked
	// leaves no room for a 4096-byte frame...
	st.pipeWritten = budget
	if snd.eligibleLocked(st, 4096) {
		t.Fatalf("commitment %d of budget %d must block a 4096 frame", snd.commitmentLocked(st), budget)
	}
	// ...until the receiver drains enough of it.
	st.ackSeen = 4096
	if !snd.eligibleLocked(st, 4096) {
		t.Fatalf("commitment %d of budget %d must admit a 4096 frame", snd.commitmentLocked(st), budget)
	}
	st.ackBps = 1 // ~0 → clamps to 2 frames
	if b := snd.budgetLocked(st); b != 2*int64(snd.frameSize) {
		t.Fatalf("budget floor %d, want %d", b, 2*snd.frameSize)
	}
}

// TestSenderFlushedInsideFrame: the receiver passes the frame at its
// prefix through as it arrives, so an ack's Flushed can fall inside a
// sent frame. Such a frame is not delivered yet: it stays on the sent
// list, and a lone wedged stripe holding it is not superseded — until
// Flushed passes its end, when the ack prunes it. The stripe still holds
// a frame in flight; once Flushed passes that one too, the stripe
// retires with nothing to requeue, the in-flight frame credited to it.
func TestSenderFlushedInsideFrame(t *testing.T) {
	const fs = 4 << 10
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(make([]byte, 4*fs)), 4*fs, 2,
		SenderConfig{FrameSize: fs})
	if err != nil {
		t.Fatal(err)
	}
	st := snd.stripes[0]
	snd.mu.Lock()
	// Wedged: its accept never came back.
	st.state, st.gen, st.attachedAt = stripeLive, 1, time.Now().Add(-time.Hour)
	st.sent = []frame{{off: 0, n: fs}, {off: fs, n: fs}}
	st.bytes = 2 * fs
	st.inflight, st.cur = true, frame{off: 2 * fs, n: fs}
	snd.mu.Unlock()

	snd.ack(0, 1, &Ack{Flushed: fs + fs/2, Seen: fs + fs/2})
	snd.mu.Lock()
	if len(st.sent) != 1 || st.sent[0].off != fs {
		t.Fatalf("sent %+v after Flushed inside frame %d, want only that frame", st.sent, fs)
	}
	if v, _, _ := snd.supersedeLocked(); v != -1 {
		t.Fatal("a partly flushed frame counted as delivered: lone wedged stripe superseded")
	}
	snd.mu.Unlock()

	snd.ack(0, 1, &Ack{Flushed: 2 * fs, Seen: 2 * fs})
	snd.mu.Lock()
	if len(st.sent) != 0 {
		t.Fatalf("sent %+v after Flushed passed every sent frame's end", st.sent)
	}
	if v, _, _ := snd.supersedeLocked(); v != -1 {
		t.Fatal("lone wedged stripe superseded with its in-flight frame unflushed")
	}
	snd.mu.Unlock()

	snd.ack(0, 1, &Ack{Flushed: 3 * fs, Seen: 3 * fs})
	snd.mu.Lock()
	defer snd.mu.Unlock()
	if v, n, _ := snd.supersedeLocked(); v != 0 || n != 0 {
		t.Fatalf("superseded %d with %d frames requeued, want stripe 0 with none: every frame is flushed", v, n)
	}
	if st.bytes != 3*fs || len(snd.requeue) != 0 {
		t.Fatalf("stripe bytes %d, requeue %+v: the flushed frames keep, and the in-flight one gains, their credit", st.bytes, snd.requeue)
	}
}

// TestSenderSupersedesBeforeTail wedges one of two stripes while the
// frame source still has most of the stream: the wedged stripe is
// superseded at once, not at the tail, because the healthy stripe can
// take its frames — they reach the receiver through requeue.
func TestSenderSupersedesBeforeTail(t *testing.T) {
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(34)).Read(payload)
	const fs = 4 << 10

	var out bytes.Buffer
	recv := NewReceiver(&out)
	var snd *Sender
	dryAtSupersede := make(chan bool, 1)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 2,
		SenderConfig{FrameSize: fs, Logf: func(format string, args ...any) {
			if strings.Contains(format, "superseded") {
				// supersede logs off the lock.
				snd.mu.Lock()
				dryAtSupersede <- snd.nextOff >= snd.total
				snd.mu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 20 * time.Millisecond

	// Stripe 0 is paced: 128 frames take it well over 256 ms, far past
	// the stuck timeout.
	pr0, pw0 := io.Pipe()
	fastErr := make(chan error, 1)
	go func() { fastErr <- recv.Attach(pr0) }()
	if err := snd.Attach(0, &delayWriter{w: pw0, delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Stripe 1 delivers its group header and one frame, then wedges.
	pr1, pw1 := io.Pipe()
	go func() { recv.Attach(pr1) }() // dies when the pipe is torn down; tolerated
	if err := snd.Attach(1, newGateWriter(pw1, groupHeaderLen+frameHeaderLen+fs)); err != nil {
		t.Fatal(err)
	}

	if err := snd.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-fastErr; err != nil {
		t.Fatalf("fast stripe: %v", err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload mismatch after supersession")
	}
	st := snd.Stats()
	if st.Superseded != 1 {
		t.Fatalf("superseded %d, want 1", st.Superseded)
	}
	if dry := <-dryAtSupersede; dry {
		t.Fatal("wedged stripe superseded only once the frame source ran dry")
	}
	if st.Reassigned < 2 {
		t.Fatalf("reassigned %d, want >= 2: the wedged stripe's sent and in-flight frames requeue", st.Reassigned)
	}
	if st.StripeBytes[0] != int64(len(payload)) || st.StripeBytes[1] != 0 {
		t.Fatalf("stripe bytes %v, want all %d on the survivor", st.StripeBytes, len(payload))
	}
}

// TestSenderLoneWedgedStripeWaits: a stripe wedged with frames the
// receiver lacks, and no other stripe to take them, is not superseded —
// that would strand its frames and fail the group. Once its write moves
// again the group completes.
func TestSenderLoneWedgedStripeWaits(t *testing.T) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(35)).Read(payload)
	const fs = 4 << 10

	var out bytes.Buffer
	recv := NewReceiver(&out)
	snd, err := NewSender(wire.NewSessionID(), bytes.NewReader(payload), int64(len(payload)), 1,
		SenderConfig{FrameSize: fs})
	if err != nil {
		t.Fatal(err)
	}
	snd.stuckTimeout = 5 * time.Millisecond
	pr, pw := io.Pipe()
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.Attach(pr) }()
	release := make(chan struct{})
	if err := snd.Attach(0, &holdWriter{w: pw, after: groupHeaderLen + frameHeaderLen + fs, hold: release}); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- snd.Run(context.Background()) }()

	// Wait, on the Sender's own maintenance ticks, until the stripe has
	// been wedged across several of them, then check the rule directly.
	st := snd.stripes[0]
	snd.mu.Lock()
	for ticks := 0; ticks < 3; {
		if snd.wedgedLocked(st) {
			ticks++
		}
		snd.cond.Wait()
	}
	if st.state != stripeLive || snd.superseded != 0 {
		t.Fatalf("lone wedged stripe in state %d, superseded %d: want it live", st.state, snd.superseded)
	}
	if v, _, _ := snd.supersedeLocked(); v != -1 {
		t.Fatal("lone wedged stripe with unflushed frames superseded")
	}
	snd.mu.Unlock()
	close(release)

	if err := <-runErr; err != nil {
		t.Fatalf("group failed around a lone wedged stripe: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	if !recv.Complete() || !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("stream corrupted")
	}
	if st := snd.Stats(); st.Superseded != 0 || st.Reassigned != 0 {
		t.Fatalf("superseded %d, reassigned %d: want 0 and 0", st.Superseded, st.Reassigned)
	}
}

// holdWriter passes the first `after` bytes through, then blocks its next
// write until hold closes, and passes everything after that: a path that
// wedges for a while and then moves again.
type holdWriter struct {
	w     io.Writer
	after int
	hold  <-chan struct{}
}

func (h *holdWriter) Write(p []byte) (int, error) {
	if h.after < len(p) {
		<-h.hold
	}
	h.after -= len(p)
	return h.w.Write(p)
}
