package stripe

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"lsl/internal/wire"
)

// This file is the striped sender: a weighted-credit dispatcher feeds one
// writer goroutine per stripe, weights adjust mid-flow from observed
// per-stripe throughput (TCP-Trunking-style proportional splitting, not
// round-robin), and a stripe's unacknowledged frames are reassigned when
// it dies.

// Stripe lifecycle states.
const (
	stripeIdle       = iota // declared but never attached
	stripeLive              // attached, worker dispatching frames
	stripeEnding            // accepted; worker committed to writing its end frame
	stripeUnwinding         // end frame out, stream half-closed; awaiting confirmation or EOF
	stripeFinished          // accepted, end frame delivered and, with a backward channel, confirmed
	stripeDead              // write or channel failed; awaiting heal (re-Attach) or Abandon
	stripeAbandoned         // given up; its frames were reassigned
	stripeSuperseded        // wedged; every frame re-delivered elsewhere
)

// unwindTimeout bounds how long a stripe may wait, after half-closing its
// stream, for the group's confirmation or for its cascade to unwind. A
// stripe still waiting then goes down and its unconfirmed frames requeue.
const unwindTimeout = 30 * time.Second

// defaultQueueFrames bounds how many frames may be queued/inflight per
// stripe until its stream's acks measure a drain rate; small values keep
// the dispatcher's credit decisions responsive to backpressure from a
// slowing path.
const defaultQueueFrames = 4

// Tail-reclamation tuning (see tail.go).
const (
	// defaultStuckTimeout is how long one frame write may block, or a
	// pipelined open wait for its accept, before the stripe is treated as
	// wedged: it takes no new frames and is superseded once its frames
	// have somewhere to go.
	defaultStuckTimeout = 750 * time.Millisecond
	// defaultInflightHorizon sizes the adaptive per-stripe in-flight byte
	// budget: acked-throughput × horizon, a bandwidth-delay-product-style
	// clamp on how much a slow path may hoard. It must comfortably exceed
	// the ack feedback latency (delivery bursts batch acks on loaded
	// hosts), and because every stripe's budget drains in the same wall
	// time — one horizon — the end-of-stream pipes empty concurrently.
	defaultInflightHorizon = 45 * time.Millisecond
	// minAckRateWindow is the shortest interval ackBps may be measured
	// over. Acks often arrive in bursts (relay scheduling, coalescing);
	// rating individual inter-ack gaps would swing between near-zero and
	// absurd, so the drain rate is measured across windows at least this
	// long.
	minAckRateWindow = 25 * time.Millisecond
	// maintenanceTick re-evaluates time-based conditions (stuck writes,
	// ack staleness) while the dispatcher would otherwise sleep.
	maintenanceTick = 15 * time.Millisecond
	// maxInflightBudget caps the adaptive budget regardless of rate.
	maxInflightBudget = 64 << 20
)

// frame is one dispatch unit: n payload bytes at stream offset off.
type frame struct {
	off int64
	n   int
}

// SenderConfig tunes a Sender. The zero value is usable.
type SenderConfig struct {
	// FrameSize is the striping granularity (default DefaultFrameSize,
	// capped at MaxFrameSize).
	FrameSize int
	// Weights gives each stripe's initial relative share (e.g. the
	// planner's predicted per-route throughput). Missing or
	// non-positive entries default to 1.
	Weights []float64
	// RebalanceBytes recomputes weights from observed per-stripe
	// throughput every time this many bytes have been written. <= 0
	// disables mid-flow rebalancing.
	RebalanceBytes int64
	// OnStripeDown fires (off the scheduler lock, after the stripe's
	// stream is closed) when a stripe's write, accept or backward channel
	// fails; the callback must not block for long and must not call back
	// into the Sender.
	OnStripeDown func(index int, err error)
	// Logf, if set, receives debug lines.
	Logf func(format string, args ...any)
}

type stripeState struct {
	state      int
	gen        int       // bumped each Attach and retirement; stale workers self-retire
	w          io.Writer // this generation's stream, until the Sender closes it
	accepted   bool      // this generation's peer accepted the stream
	attachedAt time.Time // when this generation attached
	queue      []frame   // dispatched, not yet picked up
	inflight   bool
	cur        frame     // frame the worker is writing right now
	writeStart time.Time // when the in-flight frame write began
	sent       []frame   // frames written this generation (replayed on death)
	bytes      int64     // payload bytes successfully written, all generations
	weight     float64
	credit     float64
	ewmaBps    float64 // write-side throughput (local pipe acceptance)
	// Ack-side accounting, reset each generation.
	pipeWritten int64 // payload bytes written into this gen's stream
	ackSeen     int64 // receiver-reported bytes drained from this gen
	genAcked    bool
	ackBps      float64   // receiver-observed drain throughput EWMA
	ackWinAt    time.Time // start of the current rate-measurement window
	ackWinSeen  int64     // ackSeen at the window start
	lastErr     error
}

// Sender stripes src (of length total) across up to `stripes` attached
// streams. The zero value is not usable; construct with NewSender, Attach
// each stream (possibly concurrently with Run), and call Run once.
//
// Dispatching is deficit-round-robin: each eligible stripe accrues credit
// proportional to its weight, and the frame goes to the stripe with the
// most accumulated credit. A stripe whose queue is full accrues nothing,
// so a stalling path sheds load to its peers instead of stalling the
// group. There are no per-frame acknowledgements: when a stripe dies,
// every frame of its current generation is requeued (the receiver drops
// exact duplicates), and a replacement stream for the same index may be
// attached at any time.
//
// The Sender owns every stream it is handed: it closes each one that is
// an io.Closer when that stream's generation ends — down, superseded,
// abandoned, or Run returning.
type Sender struct {
	group wire.SessionID
	src   io.ReaderAt
	total int64

	frameSize      int
	rebalanceBytes int64
	onStripeDown   func(int, error)
	logf           func(string, ...any)
	// In-package tests shrink these before the first Attach.
	queueFrames  int
	stuckTimeout time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	stripes []*stripeState
	nextOff int64
	requeue []frame

	sinceRebalance int64
	rebalances     int64
	reassigned     int64
	superseded     int64

	// Receiver feedback, from the backward channels.
	ackedFlushed    int64
	ackAccepted     []int64
	acksObserved    bool
	lastAckProgress time.Time
	confirmed       bool

	tailStart time.Time // first moment the frame source ran dry
	tailDur   time.Duration

	running bool
	done    bool
	failErr error
}

// NewSender builds a scheduler for one stripe group.
func NewSender(group wire.SessionID, src io.ReaderAt, total int64, stripes int, cfg SenderConfig) (*Sender, error) {
	if stripes <= 0 || stripes > MaxStripes {
		return nil, fmt.Errorf("stripe: %d stripes out of range", stripes)
	}
	if total < 0 {
		return nil, fmt.Errorf("stripe: negative total %d", total)
	}
	fs := cfg.FrameSize
	if fs <= 0 {
		fs = DefaultFrameSize
	}
	if fs > MaxFrameSize {
		fs = MaxFrameSize
	}
	s := &Sender{
		group:          group,
		src:            src,
		total:          total,
		frameSize:      fs,
		rebalanceBytes: cfg.RebalanceBytes,
		onStripeDown:   cfg.OnStripeDown,
		logf:           cfg.Logf,
		queueFrames:    defaultQueueFrames,
		stuckTimeout:   defaultStuckTimeout,
		stripes:        make([]*stripeState, stripes),
		ackAccepted:    make([]int64, stripes),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.stripes {
		w := 1.0
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			w = cfg.Weights[i]
		}
		s.stripes[i] = &stripeState{state: stripeIdle, weight: w}
	}
	return s, nil
}

// acceptor is a stream its peer may still refuse: a pipelined session
// open (core.Conn) carries the group header and the first frames before
// the cascade's accept is back. AwaitAccept blocks for that verdict — nil
// once accepted — and puts nothing on the wire itself, so the stream's
// first Write still carries the open header coalesced with the group
// header.
type acceptor interface{ AwaitAccept() error }

// Attach hands stripe `index` a fresh stream and starts (or restarts) its
// writer. Valid on an idle stripe (initial attach) or a dead one (heal);
// the new worker re-sends the group header and receives the dead
// generation's requeued frames through normal dispatch. The Sender owns w
// from this call on: a stream it refuses is closed at once, and so is one
// attached after Run returned.
//
// A stream with an accept still to come (one with an AwaitAccept method)
// carries frames at once, and the verdict becomes part of the stripe's
// lifecycle: a refusal is a stripe-down like a failed write, carrying the
// accept's error; no accept within the stuck timeout makes the stripe
// wedged (no new frames), so supersession moves its frames to accepted
// stripes; and the stripe can finish only once accepted. Any other writer
// counts as accepted from the start.
//
// A duplex stream — an io.Reader that can also half-close or take a
// deadline, as a connection can — has a backward channel: the stripe
// opens with the ack-requesting "LSLT" header, and the Sender owns the
// channel for the whole generation. It reads the accept, then the
// receiver's ack records, and the channel's end is part of the lifecycle
// too (see channelEnded). After its end frame such a stripe half-closes
// the stream (when it has CloseWrite) and finishes once the group is
// confirmed or its channel unwinds to EOF. A one-way writer opens with
// "LSLS" and finishes as soon as its end frame is written.
func (s *Sender) Attach(index int, w io.Writer) error {
	s.mu.Lock()
	err := s.attachLocked(index, w)
	done := s.done
	s.mu.Unlock()
	if err != nil || done {
		closeStream(w)
	}
	return err
}

func (s *Sender) attachLocked(index int, w io.Writer) error {
	if index < 0 || index >= len(s.stripes) {
		return fmt.Errorf("stripe: attach index %d out of range", index)
	}
	st := s.stripes[index]
	switch st.state {
	case stripeIdle, stripeDead:
	case stripeAbandoned:
		return fmt.Errorf("stripe %d: attach after abandon", index)
	case stripeSuperseded:
		return fmt.Errorf("stripe %d: attach after supersession", index)
	default:
		return fmt.Errorf("stripe %d: already attached", index)
	}
	if s.done {
		return nil
	}
	// A new generation: only the byte count, the weight and the write
	// rate carry over (a retired generation left nothing queued).
	_, pending := w.(acceptor)
	*st = stripeState{
		state: stripeLive, gen: st.gen + 1, w: w, accepted: !pending, attachedAt: time.Now(),
		bytes: st.bytes, weight: st.weight, ewmaBps: st.ewmaBps,
	}
	go s.worker(index, st.gen, w)
	if pending || duplex(w) {
		go s.channel(index, st.gen, w)
	}
	s.cond.Broadcast()
	return nil
}

// Capabilities of a stream that is a connection.
type (
	halfCloser interface{ CloseWrite() error }
	deadliner  interface{ SetDeadline(time.Time) error }
)

// duplex reports whether stream w has a backward channel: it reads as
// well as writes, and it is a connection — it can half-close or take a
// deadline, which the unwind after the end frame uses. An in-memory
// buffer that reads back its own bytes is neither.
func duplex(w io.Writer) bool {
	if _, ok := w.(io.Reader); !ok {
		return false
	}
	_, hc := w.(halfCloser)
	_, dl := w.(deadliner)
	return hc || dl
}

// closeStream closes a stream the Sender owns, if it can be closed.
func closeStream(w io.Writer) {
	if c, ok := w.(io.Closer); ok {
		c.Close()
	}
}

// channel owns generation gen's backward channel: it folds the accept
// verdict into the stripe's lifecycle, feeds every ack record to the
// scheduler, and turns the channel's end into a lifecycle event.
func (s *Sender) channel(index, gen int, w io.Writer) {
	if a, ok := w.(acceptor); ok {
		if err := a.AwaitAccept(); err != nil {
			s.stripeDown(index, gen, err)
			return
		}
		s.mu.Lock()
		if st := s.stripes[index]; st.gen == gen {
			st.accepted = true
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
	if !duplex(w) {
		return
	}
	for {
		a, err := ReadAck(w.(io.Reader))
		if err != nil {
			s.channelEnded(index, gen, err)
			return
		}
		s.ack(index, gen, a)
	}
}

// channelEnded handles the end of generation gen's backward channel. A
// channel that ends while the worker writes the end frame and half-closes
// waits for it, so that a group confirmed meanwhile finishes the stripe
// whatever its channel did. EOF after the half-close is the cascade
// unwinding: every frame the stripe carried was delivered, so it
// finishes. Any other end — an error, EOF before the end frame, the
// unwind timeout — is a stripe-down, also for a stripe whose end frame is
// out: its unconfirmed frames requeue and the heal loop takes over.
func (s *Sender) channelEnded(index, gen int, err error) {
	s.mu.Lock()
	st := s.stripes[index]
	for st.gen == gen && st.state == stripeEnding && s.failErr == nil {
		s.cond.Wait()
	}
	if err == io.EOF && st.gen == gen && st.state == stripeUnwinding {
		st.state = stripeFinished
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.stripeDown(index, gen, fmt.Errorf("backward channel: %w", err))
}

// Abandon permanently retires a stripe (heal budget exhausted): its
// outstanding frames are requeued for the surviving stripes, its stream
// is closed, and no replacement may attach.
func (s *Sender) Abandon(index int, err error) {
	if index < 0 || index >= len(s.stripes) {
		return
	}
	s.mu.Lock()
	switch s.stripes[index].state {
	case stripeAbandoned, stripeFinished:
		s.mu.Unlock()
		return
	}
	_, w := s.retireLocked(index, stripeAbandoned, err)
	s.mu.Unlock()
	closeStream(w)
}

// retireLocked ends stripe index's current generation, leaving the stripe
// in state: a stripe-down, an abandonment and a supersession all come
// through here. Every frame the generation still owns requeues — the
// in-flight one, the queued ones, and those written but not confirmed,
// which come off the stripe's byte count (they died with the stream, and
// whichever stripe rewrites them gets the credit, so StripeBytes always
// sums to the delivered stream length) — except an in-flight frame the
// receiver has already flushed, which is credited to the stripe instead.
// Its worker and channel reader retire on the bumped generation. It
// returns how many frames requeued and the stream, which the caller
// closes off the lock.
func (s *Sender) retireLocked(index, state int, err error) (int, io.Writer) {
	st := s.stripes[index]
	n := len(s.requeue)
	if st.inflight && s.flushedLocked(st.cur) {
		st.bytes += int64(st.cur.n) // the receiver has it
	} else if st.inflight {
		s.requeue = append(s.requeue, st.cur)
	}
	st.inflight = false
	s.requeue = append(s.requeue, st.queue...)
	st.queue = nil
	for _, f := range st.sent {
		st.bytes -= int64(f.n)
	}
	s.requeue = append(s.requeue, st.sent...)
	st.sent = nil
	n = len(s.requeue) - n
	s.reassigned += int64(n)
	st.gen++
	st.state = state
	if err != nil {
		st.lastErr = err
	}
	w := st.w
	st.w = nil
	s.cond.Broadcast()
	return n, w
}

// stripeDown records a write failure, a refused accept or a failed
// backward channel: the stripe becomes dead, its generation retires and
// its stream is closed, and OnStripeDown fires (once per generation) so a
// healing engine can dial a replacement. A finished stripe stays
// finished.
func (s *Sender) stripeDown(index, gen int, err error) {
	s.mu.Lock()
	st := s.stripes[index]
	if st.gen != gen || s.done || st.state == stripeFinished {
		s.mu.Unlock()
		return
	}
	n, w := s.retireLocked(index, stripeDead, err)
	s.mu.Unlock()
	closeStream(w)
	if s.logf != nil {
		s.logf("stripe %d down after %d reassigned frames: %v", index, n, err)
	}
	if s.onStripeDown != nil {
		s.onStripeDown(index, err)
	}
}

// fail aborts the whole group (source read error, context cancellation).
func (s *Sender) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil && !s.done {
		s.failErr = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker drains one stripe's queue onto its stream w. It retires itself
// when its generation is superseded by a re-Attach or a retirement.
func (s *Sender) worker(index, gen int, w io.Writer) {
	st := s.stripes[index]
	back := duplex(w)
	gh := &GroupHeader{
		Group:    s.group,
		Index:    uint8(index),
		Count:    uint8(len(s.stripes)),
		TotalLen: uint64(s.total),
		Acks:     back,
	}
	if _, err := w.Write(gh.Encode()); err != nil {
		s.stripeDown(index, gen, fmt.Errorf("group header: %w", err))
		return
	}

	var buf []byte // header room + payload, one per generation: w must not retain it
	for {
		s.mu.Lock()
		var f frame
		for {
			if st.gen != gen || s.failErr != nil || s.done {
				s.mu.Unlock()
				return
			}
			if len(st.queue) > 0 {
				f = st.queue[0]
				st.queue = st.queue[1:]
				break
			}
			if s.quiescentLocked() && s.mayEndLocked(back) {
				// Commit to the end frame before unlocking so the
				// dispatcher cannot hand this stripe more data if
				// another stripe's death requeues frames.
				st.state = stripeEnding
				s.cond.Broadcast()
				s.mu.Unlock()
				if err := s.end(w, back); err != nil {
					s.stripeDown(index, gen, err)
					return
				}
				s.mu.Lock()
				if st.gen == gen {
					st.state = stripeFinished
					if back && !s.confirmed {
						st.state = stripeUnwinding
					}
					s.cond.Broadcast()
				}
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		st.inflight = true
		st.cur = f
		st.writeStart = time.Now()
		s.cond.Broadcast() // queue slot freed
		s.mu.Unlock()

		if cap(buf) < frameHeaderLen+f.n {
			buf = make([]byte, frameHeaderLen+f.n)
		}
		buf = buf[:frameHeaderLen+f.n]
		if _, err := s.src.ReadAt(buf[frameHeaderLen:], f.off); err != nil {
			// A source failure dooms every stripe, not just this one.
			s.fail(fmt.Errorf("stripe: read source at %d: %w", f.off, err))
			return
		}
		start := time.Now()
		err := writeFrame(w, uint64(f.off), buf)
		elapsed := time.Since(start)
		if err != nil {
			s.stripeDown(index, gen, err)
			return
		}

		s.mu.Lock()
		if st.gen != gen {
			// The retirement requeued (or credited) cur already; the
			// duplicate the receiver may see is dropped there.
			s.mu.Unlock()
			return
		}
		st.inflight = false
		st.pipeWritten += int64(f.n)
		st.sent = append(st.sent, f)
		st.bytes += int64(f.n)
		if sec := elapsed.Seconds(); sec > 0 {
			bps := float64(f.n) / sec
			if st.ewmaBps == 0 {
				st.ewmaBps = bps
			} else {
				st.ewmaBps = 0.7*st.ewmaBps + 0.3*bps
			}
		}
		s.sinceRebalance += int64(f.n)
		if s.rebalanceBytes > 0 && s.sinceRebalance >= s.rebalanceBytes {
			s.rebalanceLocked()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// end writes the stripe's end frame. A stream whose backward channel the
// Sender reads is then half-closed, when it can be, so the cascade
// unwinds behind the end frame, and given unwindTimeout to do so.
func (s *Sender) end(w io.Writer, back bool) error {
	if err := writeFrame(w, uint64(s.total), make([]byte, frameHeaderLen)); err != nil {
		return fmt.Errorf("end frame: %w", err)
	}
	if !back {
		return nil
	}
	if cw, ok := w.(halfCloser); ok {
		if err := cw.CloseWrite(); err != nil {
			return fmt.Errorf("half-close: %w", err)
		}
	}
	if d, ok := w.(deadliner); ok {
		// A stream that refuses the deadline is closed: its channel's
		// read fails without one.
		_ = d.SetDeadline(time.Now().Add(unwindTimeout))
	}
	return nil
}

// rebalanceLocked resets each live stripe's weight to its observed
// throughput, so the credit dispatcher tracks what the paths are
// actually delivering rather than what the planner predicted. The
// receiver-acked drain rate is preferred when available: the write-side
// EWMA measures local pipe acceptance, which kernel and relay buffering
// can inflate far beyond what the path delivers.
func (s *Sender) rebalanceLocked() {
	s.sinceRebalance = 0
	sampled := false
	for _, st := range s.stripes {
		if st.state == stripeLive && (st.ackBps > 0 || st.ewmaBps > 0) {
			sampled = true
			break
		}
	}
	if !sampled {
		return
	}
	out := make([]float64, len(s.stripes))
	for i, st := range s.stripes {
		if st.state == stripeLive {
			if st.ackBps > 0 {
				st.weight = st.ackBps
			} else if st.ewmaBps > 0 {
				st.weight = st.ewmaBps
			}
		}
		out[i] = st.weight
	}
	s.rebalances++
	if s.logf != nil {
		s.logf("stripe rebalance #%d: weights %v", s.rebalances, out)
	}
}

// pickStripeLocked runs the deficit-round-robin credit round for a frame
// of n bytes and returns the chosen stripe index, or -1 if no live stripe
// has queue space.
func (s *Sender) pickStripeLocked(n int) int {
	var elig []int
	maxW := 0.0
	for i, st := range s.stripes {
		if s.eligibleLocked(st, n) {
			elig = append(elig, i)
			if st.weight > maxW {
				maxW = st.weight
			}
		}
	}
	if len(elig) == 0 {
		return -1
	}
	if maxW <= 0 {
		maxW = 1
	}
	need := float64(n)
	for rounds := 0; ; rounds++ {
		best, bestCredit := -1, math.Inf(-1)
		for _, i := range elig {
			if c := s.stripes[i].credit; c >= need && c > bestCredit {
				best, bestCredit = i, c
			}
		}
		if best >= 0 {
			s.stripes[best].credit -= need
			return best
		}
		// Top up: the heaviest stripe gains a full frame per round, so
		// this terminates quickly; the bound is sheer paranoia.
		for _, i := range elig {
			w := s.stripes[i].weight
			if w <= 0 {
				w = 1e-3
			}
			s.stripes[i].credit += w / maxW * need
		}
		if rounds > 1<<20 {
			return elig[0]
		}
	}
}

// Run dispatches every frame, then drains end frames, returning once all
// stripes have either finished or been abandoned with their frames
// delivered elsewhere. Every stream still open is closed before it
// returns. It may be called once.
func (s *Sender) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("stripe: Run called twice")
	}
	s.running = true
	s.mu.Unlock()

	defer context.AfterFunc(ctx, func() { s.fail(ctx.Err()) })()
	// Stuck-write detection, ack staleness, and the end-frame gate are
	// time-based; nudge the dispatcher while it would otherwise sleep.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(maintenanceTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.cond.Broadcast()
			case <-stop:
				return
			}
		}
	}()

	s.mu.Lock()
	err := s.dispatchLocked()
	s.done = true
	var open []io.Writer
	for _, st := range s.stripes {
		if st.w != nil {
			open = append(open, st.w)
			st.w = nil
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	close(stop)
	for _, w := range open {
		closeStream(w)
	}
	return err
}

// dispatchLocked is Run's loop, called and returning with s.mu held.
func (s *Sender) dispatchLocked() error {
	for {
		if s.failErr != nil {
			return s.failErr
		}
		var f frame
		have := false
		if len(s.requeue) > 0 {
			f, have = s.requeue[0], true
		} else if s.nextOff < s.total {
			n := s.frameSize
			if rem := s.total - s.nextOff; rem < int64(n) {
				n = int(rem)
			}
			f, have = frame{off: s.nextOff, n: n}, true
		}
		if have {
			if i := s.pickStripeLocked(f.n); i >= 0 {
				if len(s.requeue) > 0 {
					s.requeue = s.requeue[1:]
				} else {
					s.nextOff += int64(f.n)
				}
				s.stripes[i].queue = append(s.stripes[i].queue, f)
				s.cond.Broadcast()
				continue
			}
			if s.drainedLocked() {
				return fmt.Errorf("stripe: frames remain but every stripe is finished or abandoned (%w)", s.firstStripeErrLocked())
			}
			// Frames exist but no stripe has budget: a wedged stripe may
			// be holding it.
			if s.supersede() {
				continue
			}
			s.cond.Wait()
			continue
		}
		// The frame source is dry: the end-of-stream tail begins.
		if s.tailStart.IsZero() {
			s.tailStart = time.Now()
		}
		if s.supersede() {
			continue
		}
		if s.drainedLocked() {
			s.tailDur = time.Since(s.tailStart)
			return nil
		}
		s.cond.Wait()
	}
}

// supersede retires a wedged stripe, if supersedeLocked may, and acts on
// it outside the lock: it closes the stripe's stream, which unblocks the
// wedged write (the worker then retires on its stale generation, so no
// down event or heal follows), and logs. It is called with s.mu held and
// returns with it held; a true return means state changed and the
// dispatch loop should re-evaluate.
func (s *Sender) supersede() bool {
	sup, requeued, w := s.supersedeLocked()
	if sup < 0 {
		return false
	}
	s.mu.Unlock()
	defer s.mu.Lock()
	closeStream(w)
	if s.logf != nil {
		s.logf("stripe %d superseded: wedged (%d frames requeued)", sup, requeued)
	}
	return true
}

// quiescentLocked reports the end phase: the frame source is dry and no
// frame is queued, requeued or in flight.
func (s *Sender) quiescentLocked() bool {
	if s.nextOff < s.total || len(s.requeue) > 0 {
		return false
	}
	for _, st := range s.stripes {
		if len(st.queue) > 0 || st.inflight {
			return false
		}
	}
	return true
}

// drainedLocked reports that every stripe reached a terminal state, so
// none can make progress again: none idle (could attach), live, ending or
// unwinding (could still die and heal), or dead (could be healed).
func (s *Sender) drainedLocked() bool {
	for _, st := range s.stripes {
		switch st.state {
		case stripeFinished, stripeAbandoned, stripeSuperseded:
		default:
			return false
		}
	}
	return true
}

func (s *Sender) firstStripeErrLocked() error {
	for _, st := range s.stripes {
		if st.lastErr != nil {
			return st.lastErr
		}
	}
	return fmt.Errorf("no stripe error recorded")
}

// Stats is a snapshot of a Sender's per-stripe figures and counters.
type Stats struct {
	// Weights are the current per-stripe dispatch weights.
	Weights []float64
	// StripeBytes is the payload each stripe delivered by the Sender's
	// own account: frames a dead stream took down are credited to the
	// stripe that rewrote them, so after a complete run the values sum to
	// the stream length.
	StripeBytes []int64
	// AcceptedBytes is the receiver's attribution from the latest ack:
	// which stripe landed each byte first, duplicates excluded. It sums
	// to the stream length once Confirmed.
	AcceptedBytes []int64
	// Delivered is the per-stripe attribution to report: AcceptedBytes
	// once Confirmed (duplicates excluded), StripeBytes otherwise.
	Delivered []int64
	// QueuedBytes is each stripe's committed bytes — queued and in-flight
	// frames plus unacknowledged pipe contents — the quantity the
	// in-flight budget bounds.
	QueuedBytes []int64
	// Rebalances counts throughput-driven weight recomputations,
	// Reassigned frames requeued off retired stripes, and Superseded
	// wedged stripes retired with their frames re-delivered elsewhere.
	Rebalances, Reassigned, Superseded int64
	// Confirmed reports that the receiver acked the whole stream as
	// flushed (only possible over streams with a backward channel).
	Confirmed bool
	// Tail is how long the run spent between the frame source running
	// dry and the group draining (0 until Run returns success).
	Tail time.Duration
}

// Stats returns a snapshot of the Sender's figures.
func (s *Sender) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Weights:       make([]float64, len(s.stripes)),
		StripeBytes:   make([]int64, len(s.stripes)),
		AcceptedBytes: append([]int64(nil), s.ackAccepted...),
		QueuedBytes:   make([]int64, len(s.stripes)),
		Rebalances:    s.rebalances,
		Reassigned:    s.reassigned,
		Superseded:    s.superseded,
		Confirmed:     s.confirmed,
		Tail:          s.tailDur,
	}
	for i, ss := range s.stripes {
		st.Weights[i] = ss.weight
		st.StripeBytes[i] = ss.bytes
		st.QueuedBytes[i] = s.commitmentLocked(ss)
	}
	st.Delivered = st.StripeBytes
	if st.Confirmed {
		st.Delivered = st.AcceptedBytes
	}
	return st
}
