package stripe

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// This file is the end-of-stream tail reclamation layer of the Sender.
//
// The striped dispatcher's historic weakness is the tail: once the frame
// source runs dry, whatever the slowest stripe is still holding drains at
// that stripe's rate while the fast stripes idle. Kernel and relay
// buffers make it worse — the write-side EWMA measures how fast the local
// pipe *accepts* bytes, not how fast the path *delivers* them, so a slow
// path happily hoards megabytes it will take seconds to flush.
//
// Adaptive in-flight bounding keeps the hoard small: with receiver acks
// flowing, each stripe's unacknowledged bytes are capped near its
// acked-throughput bandwidth-delay product, so every slow but moving
// stripe drains within about one horizon. What is left is a stripe that
// has wedged outright — a write blocked with no error and no progress, or
// a pipelined open whose accept never came back. One rule reclaims it, in
// every phase of the run: the wedged stripe is superseded — its
// unconfirmed frames requeue for the survivors and the Sender closes its
// stream to unblock the wedged writer — as soon as a live, accepted,
// unwedged stripe exists to take them, or as soon as the receiver's
// flushed prefix holds every frame it owns. A lone wedged stripe with
// frames the receiver still lacks waits: it may yet move.

// ack feeds one receiver delivery report, read off stripe index's
// backward channel in stream generation gen, into the scheduler. Reports
// from a dead stream's leftovers never count toward its replacement's
// rate. The group's confirmation finishes every unwinding stripe.
func (s *Sender) ack(index, gen int, a *Ack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.acksObserved = true
	s.lastAckProgress = now
	if a.Flushed > s.ackedFlushed {
		s.ackedFlushed = a.Flushed
		s.pruneFlushedLocked()
	}
	if a.Flushed >= s.total && !s.confirmed {
		s.confirmed = true
		for _, st := range s.stripes {
			if st.state == stripeUnwinding {
				st.state = stripeFinished
			}
		}
	}
	st := s.stripes[index]
	if gen == st.gen && a.Seen > st.ackSeen {
		if !st.genAcked {
			// First ack of the generation anchors the measurement window;
			// the bytes before it include handshake idle and say nothing
			// about drain rate.
			st.genAcked = true
			st.ackWinAt, st.ackWinSeen = now, a.Seen
		} else if dt := now.Sub(st.ackWinAt).Seconds(); dt >= minAckRateWindow.Seconds() {
			bps := float64(a.Seen-st.ackWinSeen) / dt
			if st.ackBps == 0 {
				st.ackBps = bps
			} else {
				st.ackBps = 0.7*st.ackBps + 0.3*bps
			}
			st.ackWinAt, st.ackWinSeen = now, a.Seen
		}
		st.ackSeen = a.Seen
	}
	for i, v := range a.Accepted {
		if i < len(s.ackAccepted) && v > s.ackAccepted[i] {
			s.ackAccepted[i] = v
		}
	}
	s.cond.Broadcast()
}

// pruneFlushedLocked forgets sent frames wholly inside the receiver's
// contiguous prefix: those frames are delivered, keep their byte credit
// and no longer need requeueing. A frame the prefix ends inside is not
// delivered yet and stays.
func (s *Sender) pruneFlushedLocked() {
	for _, st := range s.stripes {
		st.sent = slices.DeleteFunc(st.sent, s.flushedLocked)
	}
}

// wedgedLocked reports a stripe that is wedged, not merely slow: a frame
// write blocked longer than the stuck timeout, or a stream whose peer has
// not accepted it within that long of its attach (a first hop that took
// the connection and never answers).
func (s *Sender) wedgedLocked(st *stripeState) bool {
	if st.inflight && time.Since(st.writeStart) > s.stuckTimeout {
		return true
	}
	return !st.accepted && time.Since(st.attachedAt) > s.stuckTimeout
}

// commitmentLocked is how many payload bytes the stripe is already
// responsible for pushing: unacknowledged pipe contents plus everything
// queued and in flight.
func (s *Sender) commitmentLocked(st *stripeState) int64 {
	c := st.pipeWritten - st.ackSeen
	if st.inflight {
		c += int64(st.cur.n)
	}
	for _, f := range st.queue {
		c += int64(f.n)
	}
	return c
}

// budgetLocked is the stripe's in-flight byte allowance: acked
// throughput × horizon, clamped to [2 frames, maxInflightBudget].
func (s *Sender) budgetLocked(st *stripeState) int64 {
	b := int64(st.ackBps * defaultInflightHorizon.Seconds())
	if min := 2 * int64(s.frameSize); b < min {
		b = min
	}
	if b > maxInflightBudget {
		b = maxInflightBudget
	}
	return b
}

// capacityLocked returns how many more frames and bytes the stripe may
// take on right now. Until the stripe's stream has a receiver-measured
// drain rate the frame-count bound governs; after that, the byte budget
// does. Sizing the budget off the write-side EWMA instead would let relay
// buffers that swallow writes instantly inflate it without bound.
func (s *Sender) capacityLocked(st *stripeState) (frames int, bytes int64) {
	if st.state != stripeLive || s.wedgedLocked(st) {
		return 0, 0
	}
	if !measuredLocked(st) {
		q := len(st.queue)
		if st.inflight {
			q++
		}
		return s.queueFrames - q, math.MaxInt64
	}
	return math.MaxInt32, s.budgetLocked(st) - s.commitmentLocked(st)
}

// eligibleLocked reports whether the stripe may take one more frame of n
// bytes.
func (s *Sender) eligibleLocked(st *stripeState, n int) bool {
	frames, bytes := s.capacityLocked(st)
	return frames > 0 && bytes >= int64(n)
}

// mayEndLocked gates the end frame. No stripe ends while a live one
// still awaits its accept: a finished stripe must be an accepted one, and
// the others stay live — available to take its frames — in case the
// verdict is a refusal (its frames requeue) or never comes (it wedges and
// is superseded). A stripe with a backward channel (back) further stays
// live through the tail until the receiver confirms the whole group (or
// stops acking, so the classic unwind still terminates against a silent
// peer).
// A short stream can run its source dry before the first ack ever
// arrives — the dispatch burst outruns the feedback loop — so "no acks
// yet" is not treated as a silent peer until a full stuck timeout has
// passed since the tail began.
func (s *Sender) mayEndLocked(back bool) bool {
	for _, st := range s.stripes {
		if st.state == stripeLive && !st.accepted {
			return false
		}
	}
	if !back || s.confirmed {
		return true
	}
	if !s.acksObserved {
		return !s.tailStart.IsZero() && time.Since(s.tailStart) > s.stuckTimeout
	}
	return time.Since(s.lastAckProgress) > s.stuckTimeout
}

// measuredLocked reports that the stripe's current stream has a
// receiver-measured drain rate. The write-side EWMA rates local buffer
// acceptance, not delivery — against a fast writer it reads in memcpy
// units — so it never sizes the in-flight budget.
func measuredLocked(st *stripeState) bool {
	return st.genAcked && st.ackBps > 0
}

// flushedLocked reports that frame f lies wholly inside the receiver's
// acked flushed prefix: delivered. An ack's Flushed may fall inside a frame
// still passing through; that frame is not delivered yet.
func (s *Sender) flushedLocked(f frame) bool {
	return f.off+int64(f.n) <= s.ackedFlushed
}

// deliveredLocked reports that the receiver has flushed every frame
// stripe st owns: in flight, queued and sent.
func (s *Sender) deliveredLocked(st *stripeState) bool {
	unflushed := func(f frame) bool { return !s.flushedLocked(f) }
	return !(st.inflight && unflushed(st.cur)) &&
		!slices.ContainsFunc(st.queue, unflushed) && !slices.ContainsFunc(st.sent, unflushed)
}

// supersedeLocked retires the first wedged live stripe it may: any one
// while a live, accepted, unwedged stripe exists to take its frames, else
// one the receiver holds every frame of. retireLocked requeues each of
// its frames the receiver has not confirmed. It returns the retired stripe's index (-1: none),
// how many frames it requeued, and its stream, which the caller closes off
// the lock to unblock the wedged write.
func (s *Sender) supersedeLocked() (index, requeued int, w io.Writer) {
	survivor := slices.ContainsFunc(s.stripes, func(st *stripeState) bool {
		return st.state == stripeLive && st.accepted && !s.wedgedLocked(st)
	})
	for v, vs := range s.stripes {
		if vs.state != stripeLive || !s.wedgedLocked(vs) || !survivor && !s.deliveredLocked(vs) {
			continue
		}
		s.superseded++
		requeued, w = s.retireLocked(v, stripeSuperseded,
			fmt.Errorf("stripe %d: wedged for %v; superseded", v, s.stuckTimeout))
		return v, requeued, w
	}
	return -1, 0, nil
}
