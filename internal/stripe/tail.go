package stripe

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
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
// acked-throughput bandwidth-delay product. Two mechanisms then reclaim
// what a slow or wedged stripe still holds, both safe because the
// receiver's flushed-boundary dedup drops exact duplicate frames:
//
//   - speculation: an idle fast stripe duplicates a slow stripe's
//     sent-but-unconfirmed (or wedged in-flight) final frames, and
//     whichever copy lands first wins;
//   - supersession: a stripe that has wedged outright — a write blocked
//     with no error and no progress, or a pipelined open whose accept
//     never came back — is retired once every frame it owns is covered by
//     another stripe's duplicate or the receiver's flushed prefix. Its
//     ownership migrates to the coverer, its queued frames requeue for
//     the survivors, and the Sender closes its stream to unblock the
//     wedged writer.

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
		s.pruneFlushedLocked(a.Flushed)
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

// pruneFlushedLocked forgets frames wholly inside the receiver's
// contiguous prefix: those frames are delivered. Sent-list entries keep
// their byte credit and no longer need requeueing or speculation; queued
// speculative duplicates, which carry no credit, would only be dropped on
// arrival, so they are not written at all. A frame the prefix ends inside
// is not delivered yet and stays.
func (s *Sender) pruneFlushedLocked(flushed int64) {
	delivered := func(f frame) bool { return f.off+int64(f.n) <= flushed }
	for _, st := range s.stripes {
		st.sent = slices.DeleteFunc(st.sent, delivered)
		st.queue = slices.DeleteFunc(st.queue, func(f frame) bool { return f.spec && delivered(f) })
	}
}

// effRateLocked is the stripe's best-known delivery rate: 0 for a wedged
// stripe, the receiver-acked drain rate when available, else the
// write-side EWMA.
func (s *Sender) effRateLocked(st *stripeState) float64 {
	if s.wedgedLocked(st) {
		return 0
	}
	if st.genAcked && st.ackBps > 0 {
		return st.ackBps
	}
	return st.ewmaBps
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
// queued (speculative duplicates included) and in flight.
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
// the others stay live — available as speculation thieves — in case the
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
// units — so it is never proof that one live path is slower than another.
func measuredLocked(st *stripeState) bool {
	return st.genAcked && st.ackBps > 0
}

// speculateLocked lets an idle fast stripe duplicate a slow stripe's
// unconfirmed tail — its wedged in-flight frame and sent-but-unflushed
// frames. The receiver drops whichever copy arrives second, so the only
// cost is redundant bytes on the fast path; the gain is not waiting for
// the slow path to drain what it already swallowed. It returns the victim,
// the thief and how many duplicates it queued (0: none).
func (s *Sender) speculateLocked() (victim, thief, frames int) {
	for v, vs := range s.stripes {
		if !victimHoldsFrames(vs.state) {
			continue
		}
		tail := s.unconfirmedTailLocked(vs)
		if len(tail) == 0 {
			continue
		}
		vStuck := s.wedgedLocked(vs)
		vRate := s.effRateLocked(vs)
		if !vStuck && vRate <= 0 {
			continue
		}
		var tailBytes int64
		for _, f := range tail {
			tailBytes += int64(f.n)
		}
		thief = -1
		var tRate float64
		for t, ts := range s.stripes {
			if t == v || ts.state != stripeLive || len(ts.queue) > 0 {
				continue
			}
			r := s.effRateLocked(ts)
			if r <= 0 {
				continue
			}
			if !vStuck {
				// Against a merely-slow (not wedged) victim, duplication
				// costs real bandwidth, so it demands proof: receiver-measured
				// drain rates on both sides, the thief's well ahead.
				if !measuredLocked(ts) || !measuredLocked(vs) || r < speculateRatio*vRate {
					continue
				}
				// Only duplicate when the thief would land the tail before
				// the victim drains its own backlog.
				tCost := float64(s.commitmentLocked(ts)+tailBytes) / r
				vCost := float64(s.commitmentLocked(vs)) / vRate
				if tCost >= vCost {
					continue
				}
			}
			if thief < 0 || r > tRate {
				thief, tRate = t, r
			}
		}
		if thief < 0 {
			continue
		}
		ts := s.stripes[thief]
		// Take only what the thief has capacity for, and take the
		// SUFFIX: a live victim drains its pipe forward from the lowest
		// offset, so a thief covering the same bytes front-to-back
		// merely races it byte for byte. Covering from the back makes
		// the two meet in the middle — the tail clears at their
		// combined rate. (Later rounds pick up whatever is left.)
		// Without acks nothing ever prunes the sent list, so this cap
		// is also what keeps ackless speculation from duplicating a
		// slow stripe's entire history at once.
		room, bytes := s.capacityLocked(ts)
		take, takeBytes := 0, int64(0)
		for i := len(tail) - 1; i >= 0; i-- {
			n := int64(tail[i].n)
			if take >= room || takeBytes+n > bytes {
				break
			}
			take++
			takeBytes += n
		}
		if take == 0 {
			continue
		}
		tail = tail[len(tail)-take:]
		for _, f := range tail {
			f.spec, f.victim, f.victimGen = true, v, vs.gen
			ts.queue = append(ts.queue, f)
		}
		s.speculated += int64(len(tail))
		return v, thief, len(tail)
	}
	return -1, -1, 0
}

// unconfirmedTailLocked lists the victim's frames the receiver has not
// flushed and no thief is already covering, ascending by offset: the
// wedged in-flight frame plus unpruned sent frames. A full duplicate of a
// partly written or partly flushed frame is safe — the receiver finishes
// a partly flushed frame from its first missing byte. A frame counts as
// flushed only once the acked prefix passes its end; an ack's Flushed may
// fall inside a frame still passing through.
func (s *Sender) unconfirmedTailLocked(vs *stripeState) []frame {
	var tail []frame
	add := func(f frame) {
		if f.off+int64(f.n) <= s.ackedFlushed {
			return
		}
		if _, ok := s.specDone[f.off]; ok {
			return
		}
		for _, ts := range s.stripes {
			for _, q := range ts.queue {
				if q.spec && q.off == f.off {
					return // already queued as a duplicate
				}
			}
		}
		tail = append(tail, f)
	}
	if vs.inflight && !vs.cur.spec {
		add(vs.cur)
	}
	for _, f := range vs.sent {
		add(f)
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].off < tail[j].off })
	return tail
}

// supersedeLocked retires a wedged stripe whose every frame is covered —
// by the receiver's flushed prefix or by a live thief's completed
// duplicate. Ownership of the covered frames migrates to the coverer
// (keeping StripeBytes summing to the stream length), and the stripe
// retires: leftover queued frames requeue. It returns the retired
// stripe's index (-1: none), how many queued frames it requeued, and its
// stream, which the caller closes off the lock to unblock the wedged
// write.
func (s *Sender) supersedeLocked() (index, requeued int, w io.Writer) {
	for v, vs := range s.stripes {
		if vs.state != stripeLive || !s.wedgedLocked(vs) {
			continue
		}
		type migration struct {
			f     frame
			rec   specRec
			byRec bool
		}
		var migrate []migration
		covered := true
		check := func(f frame, victimOwned bool) {
			if !covered {
				return
			}
			if f.off+int64(f.n) <= s.ackedFlushed {
				// Delivered. An in-flight frame was never credited, so give
				// the victim its credit now; sent frames already have it.
				if !victimOwned {
					migrate = append(migrate, migration{f: f})
				}
				return
			}
			rec, ok := s.specDone[f.off]
			if !ok || rec.victim != v || rec.victimGen != vs.gen || rec.n != f.n {
				covered = false
				return
			}
			ts := s.stripes[rec.thief]
			if ts.gen != rec.thiefGen || !victimHoldsFrames(ts.state) {
				covered = false
				return
			}
			migrate = append(migrate, migration{f: f, rec: rec, byRec: true})
		}
		if vs.inflight && !vs.cur.spec {
			check(vs.cur, false)
		}
		for _, f := range vs.sent {
			check(f, true)
		}
		if !covered {
			continue
		}
		// Apply: migrate covered frames to their coverers, then retire
		// the stripe, which requeues its untouched queue.
		for _, m := range migrate {
			if !m.byRec {
				vs.bytes += int64(m.f.n) // in-flight frame the victim landed
				continue
			}
			ts := s.stripes[m.rec.thief]
			ts.sent = append(ts.sent, m.f)
			ts.bytes += int64(m.f.n)
			delete(s.specDone, m.f.off)
		}
		for _, f := range vs.sent {
			if f.off+int64(f.n) > s.ackedFlushed {
				vs.bytes -= int64(f.n) // ownership moved to the thief
			}
		}
		vs.sent = nil
		vs.inflight = false
		s.superseded++
		requeued, w = s.retireLocked(v, stripeSuperseded,
			fmt.Errorf("stripe %d: wedged for %v; superseded", v, s.stuckTimeout))
		return v, requeued, w
	}
	return -1, 0, nil
}
