package mux

import "time"

// Receive-window autotuning. A stream's receive window starts at the
// link's initial window (defaultWindow, 256 KiB) and doubles while the
// window, not the reader, limits the stream — what kernel receive-buffer
// autotuning does for a classic sublink, so that a trunked session, like a
// classic one, can keep a sublink's bandwidth-delay product in flight.
// Only the receiver changes: a WINDOW grant larger than the bytes consumed
// is how the sender learns the window grew, and every peer already honours
// one, so there is no wire change and peers that never grow interoperate
// in both directions. A window never shrinks: streams live one session.
//
// The window doubles at a grant when both of these hold:
//
//   - the stream is window-limited: half a window arrived within one link
//     round trip, and that was no longer than one round trip ago;
//   - the reader keeps up: the receive buffer is empty as the grant goes
//     out. Without this a stream whose reader is the bottleneck would grow
//     to the cap and only hold memory.
//
// Growth stops at maxStreamWindow per stream and at linkWindowBudget over
// the grown parts of a link's live streams; a stream that meets the
// budget keeps the window it has.
//
// The round-trip clock needs no ping frame. Every grant is stamped with
// the credit limit it replaced. The first DATA byte beyond that limit can
// only have been sent after the grant reached the peer, so its arrival
// time minus the stamp is a round-trip sample that never underestimates.
// The link keeps the smallest sample, so a short stream inherits what the
// streams before it measured.

const (
	// maxStreamWindow caps one stream's autotuned window. A window keeps
	// doubling until half of it no longer arrives within a round trip, so
	// it settles between two and four times its sublink's bandwidth-delay
	// product: a 30 ms sublink at 250 Mbit/s (about 1 MB) reaches this
	// cap. A 16 MiB cap raised bulk_mux peak RSS by 16 % (DESIGN.md §9).
	maxStreamWindow = 4 << 20
	// linkWindowBudget caps the sum of the grown parts (window − initial
	// window) of a link's live streams. A link carries at most 64 streams
	// by default, 64 × 256 KiB = 16 MiB of initial windows, so the budget
	// at most doubles what a link's windows can hold.
	linkWindowBudget = 16 << 20
	// grantStamps bounds the grants a stream remembers for round-trip
	// samples. When the ring is full a grant goes unstamped: the stamps
	// kept are older, and each still yields a sample once the data passes
	// its limit.
	grantStamps = 8
)

// grantStamp is one WINDOW grant: the credit limit it replaced and when
// it was made.
type grantStamp struct {
	limit int
	at    time.Time
}

// rxWindow is a stream's receive window and the state that autotunes it.
// The stream mutex guards it.
type rxWindow struct {
	size int // the window: bytes the peer may have unacknowledged
	rcvd int // payload bytes received on the stream so far

	stamps   [grantStamps]grantStamp // ring, oldest at first, limits increasing
	first, n int

	epoch     time.Time // when the current arrival epoch (one round trip long) began
	epochRcvd int       // rcvd when it began
	limitedAt time.Time // when half a window had arrived in this epoch; zero until then
}

// arrivedLocked accounts n payload bytes just committed; s.mu is held. It
// takes a round-trip sample when the bytes pass the limit of the oldest
// stamped grants, and tracks the arrival epoch the growth rule reads.
func (s *Stream) arrivedLocked(n int) {
	w, l := &s.rx, s.link
	w.rcvd += n
	sample := w.n > 0 && w.rcvd > w.stamps[w.first].limit
	tune := w.size < l.cfg.maxWindow && l.rtt.Load() > 0
	if !sample && !tune {
		return
	}
	now := l.now()
	if sample {
		var at time.Time
		for w.n > 0 && w.rcvd > w.stamps[w.first].limit {
			at = w.stamps[w.first].at
			w.first = (w.first + 1) % grantStamps
			w.n--
		}
		l.observeRTT(now.Sub(at))
	}
	if w.size >= l.cfg.maxWindow {
		return
	}
	if now.Sub(w.epoch) > time.Duration(l.rtt.Load()) {
		w.epoch, w.epochRcvd, w.limitedAt = now, w.rcvd-n, time.Time{}
	}
	if w.limitedAt.IsZero() && w.rcvd-w.epochRcvd >= w.size/2 {
		w.limitedAt = now
	}
}

// stampLocked records a grant about to go out at now: the credit limit it
// replaces. s.mu is held, and unacked is still what it was before the
// grant.
func (s *Stream) stampLocked(now time.Time) {
	w := &s.rx
	if w.n == grantStamps {
		return
	}
	w.stamps[(w.first+w.n)%grantStamps] = grantStamp{limit: w.rcvd + w.size - s.unacked, at: now}
	w.n++
}

// growLocked doubles the window when the stream was window-limited within
// the last round trip, as far as the stream cap and the link budget allow,
// and returns the bytes added. s.mu is held and the caller has seen the
// receive buffer empty.
func (s *Stream) growLocked(now time.Time) int {
	w, l := &s.rx, s.link
	if w.limitedAt.IsZero() || now.Sub(w.limitedAt) > time.Duration(l.rtt.Load()) ||
		w.size >= l.cfg.maxWindow || s.closed || s.readClosed {
		return 0
	}
	add := min(w.size, l.cfg.maxWindow-w.size)
	if !l.reserveGrowth(add) {
		return 0
	}
	w.size += add
	w.epoch, w.limitedAt = time.Time{}, time.Time{} // the next doubling needs half of the new window
	for high := l.windowHigh.Load(); int64(w.size) > high && !l.windowHigh.CompareAndSwap(high, int64(w.size)); {
		high = l.windowHigh.Load()
	}
	return add
}

// observeRTT keeps the smallest round-trip sample.
func (l *Link) observeRTT(d time.Duration) {
	d = max(d, 1)
	for cur := l.rtt.Load(); cur == 0 || int64(d) < cur; cur = l.rtt.Load() {
		if l.rtt.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// reserveGrowth takes add bytes of the link's window budget, or reports
// that they would exceed it.
func (l *Link) reserveGrowth(add int) bool {
	for {
		cur := l.grown.Load()
		if cur+int64(add) > linkWindowBudget {
			return false
		}
		if l.grown.CompareAndSwap(cur, cur+int64(add)) {
			return true
		}
	}
}
