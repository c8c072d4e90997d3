package tcpsim

import (
	"math"

	"lsl/internal/netsim"
	"lsl/internal/trace"
)

// Conn is one simulated unidirectional TCP byte stream: a sender endpoint,
// a receiver endpoint, a forward path for data segments and a reverse path
// for ACKs. Both endpoints live in the same struct because the simulation
// is single-threaded; the sender-side API (AppWrite, CloseWrite, ...) is
// used by the source application, the receiver-side API (Available,
// AppRead, ...) by the sink. An LSL depot holds the receiver side of one
// Conn and the sender side of the next.
type Conn struct {
	Name  string
	Trace *trace.Recorder
	Stats Stats

	e   *netsim.Engine
	cfg Config
	fwd *netsim.Path
	rev *netsim.Path

	// --- connection state ---
	established   bool
	synRetries    int
	onEstablished func()

	// --- sender state (all byte offsets are absolute stream offsets) ---
	appWritten int64 // bytes committed by the source application
	appClosed  bool  // CloseWrite called; fin occupies offset appWritten
	sndUna     int64 // oldest unacknowledged offset
	sndNxt     int64 // next offset to transmit
	maxSent    int64 // high-water mark of transmitted offsets (go-back-N marking)
	cwnd       float64
	ssthresh   float64
	rightEdge  int64 // flow-control limit: highest offset receiver permits
	dupAcks    int
	inRecovery bool
	recover    int64
	sacked     []ival // receiver-reported out-of-order intervals (SACK scoreboard)
	retxOut    int64  // retransmitted-and-unacked estimate (FACK pipe term)
	holePtr    int64  // next hole offset to consider retransmitting this recovery

	srtt, rttvar float64 // seconds
	rto          netsim.Time
	hasRTT       bool
	rttTiming    bool
	rttSeq       int64
	rttSentAt    netsim.Time

	timerGen     int
	timerArmed   bool
	persistGen   int
	persistArmed bool
	emitHorizon  netsim.Time // FIFO floor for host-delayed segment emission

	onSendSpace func()
	onDone      func()
	doneFired   bool

	// --- receiver state ---
	rcvNxt         int64
	ooo            []ival // disjoint, sorted out-of-order intervals beyond rcvNxt
	oooBytes       int64
	appRead        int64
	finAt          int64 // offset just past the fin byte; 0 = fin not seen
	delAcks        int
	delAckGen      int
	delArmed       bool
	onDeliver      func()
	eofFired       bool
	ackEmitHorizon netsim.Time // FIFO floor for host-delayed ACK emission
}

type ival struct {
	start int64
	end   int64
}

// Connect creates a connection over fwd (data) / rev (ACKs) and begins the
// SYN handshake immediately. Data written before establishment is buffered
// and flows once the handshake completes (one forward+reverse traversal).
func Connect(e *netsim.Engine, fwd, rev *netsim.Path, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		e:   e,
		cfg: cfg,
		fwd: fwd,
		rev: rev,
		rto: cfg.InitialRTO,
	}
	c.cwnd = float64(cfg.InitialCwndSegments * cfg.MSS)
	if cfg.InitialSSThresh > 0 {
		c.ssthresh = float64(cfg.InitialSSThresh)
	} else {
		c.ssthresh = float64(cfg.RecvBuf) // effectively unbounded until first loss
	}
	c.sendSYN()
	return c
}

// OnEstablished registers fn to run once the handshake completes.
func (c *Conn) OnEstablished(fn func()) {
	if c.established {
		fn()
		return
	}
	prev := c.onEstablished
	c.onEstablished = func() {
		if prev != nil {
			prev()
		}
		fn()
	}
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// Config returns the connection's effective configuration.
func (c *Conn) Config() Config { return c.cfg }

// Cwnd returns the current congestion window in bytes (for tests and
// instrumentation).
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SRTTSeconds returns the smoothed RTT estimate, 0 before the first sample.
func (c *Conn) SRTTSeconds() float64 { return c.srtt }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() netsim.Time { return c.rto }

func (c *Conn) sendSYN() {
	gen := c.timerGen
	// SYN consumes no sequence space in this model; establishment delay is
	// one forward + one reverse traversal (SYN, SYN-ACK).
	c.fwd.Send(c.cfg.HeaderBytes, func() {
		// Receiver replies SYN-ACK carrying its initial window.
		wnd := c.advertisedWindow()
		c.rev.Send(c.cfg.HeaderBytes, func() {
			if c.established {
				return
			}
			c.established = true
			c.timerGen++ // cancel SYN retransmission timer
			c.rightEdge = wnd
			if c.onEstablished != nil {
				c.onEstablished()
			}
			c.trySend()
		})
	})
	// SYN retransmission with exponential backoff.
	timeout := c.cfg.InitialRTO << uint(c.synRetries)
	if timeout > c.cfg.MaxRTO {
		timeout = c.cfg.MaxRTO
	}
	c.e.Schedule(timeout, func() {
		if !c.established && gen == c.timerGen {
			c.synRetries++
			c.Stats.Timeouts++
			c.sendSYN()
		}
	})
}

// ---------- sender-side application interface ----------

// AppWrite commits n more bytes to the stream, bounded by available send
// buffer space. It returns the number of bytes accepted.
func (c *Conn) AppWrite(n int64) int64 {
	if c.appClosed || n <= 0 {
		return 0
	}
	space := int64(c.cfg.SendBuf) - (c.appWritten - c.sndUna)
	if space <= 0 {
		return 0
	}
	if n > space {
		n = space
	}
	c.appWritten += n
	c.trySend()
	return n
}

// SendSpace returns the free send-buffer space in bytes.
func (c *Conn) SendSpace() int64 {
	s := int64(c.cfg.SendBuf) - (c.appWritten - c.sndUna)
	if s < 0 {
		return 0
	}
	return s
}

// OnSendSpace registers fn to run whenever acknowledged data frees send
// buffer space.
func (c *Conn) OnSendSpace(fn func()) { c.onSendSpace = fn }

// CloseWrite marks the end of the stream. The fin marker occupies one
// sequence unit after the last data byte, so its delivery (and therefore
// end-of-stream at the receiver) is reliable and ordered.
func (c *Conn) CloseWrite() {
	if c.appClosed {
		return
	}
	c.appClosed = true
	c.trySend()
}

// Done reports whether all written data and the fin marker have been
// acknowledged.
func (c *Conn) Done() bool {
	return c.appClosed && c.sndUna >= c.appWritten+1
}

// OnDone registers fn to run once Done becomes true.
func (c *Conn) OnDone(fn func()) {
	if c.Done() {
		fn()
		return
	}
	prev := c.onDone
	c.onDone = func() {
		if prev != nil {
			prev()
		}
		fn()
	}
}

// sndLimit is the last sendable offset: written data plus the fin marker.
func (c *Conn) sndLimit() int64 {
	if c.appClosed {
		return c.appWritten + 1
	}
	return c.appWritten
}

// trySend transmits as much new data as the congestion and flow-control
// windows permit. During SACK recovery, transmission is pipe-governed and
// prefers filling holes (sendRecovery).
func (c *Conn) trySend() {
	if !c.established {
		return
	}
	if c.inRecovery && !c.cfg.DisableSACK {
		c.sendRecovery()
		return
	}
	for {
		if !c.sendNewSegment(int64(c.cwnd)) {
			return
		}
	}
}

// sendNewSegment transmits one segment of new data if the window wnd (from
// sndUna) and flow control allow, reporting whether it sent anything.
func (c *Conn) sendNewSegment(wnd int64) bool {
	limit := c.sndLimit()
	if c.sndNxt >= limit {
		return false
	}
	if fc := c.rightEdge - c.sndUna; fc < wnd {
		wnd = fc
	}
	usable := c.sndUna + wnd - c.sndNxt
	if usable <= 0 {
		// Window exhausted. If nothing is in flight we are stalled on a
		// zero (or lost) window advertisement: run the persist timer.
		if c.sndNxt == c.sndUna {
			c.armPersist()
		}
		return false
	}
	n := int64(c.cfg.MSS)
	if limit-c.sndNxt < n {
		n = limit - c.sndNxt
	}
	if n > usable {
		n = usable
	}
	if n <= 0 {
		return false
	}
	seq := c.sndNxt
	c.sndNxt += n
	// After a go-back-N rewind, "new" sends below the high-water mark are
	// retransmissions.
	c.sendSegment(seq, int(n), seq+n <= c.maxSent)
	return true
}

// ---------- SACK scoreboard (sender side) ----------

// fack returns the forward-most acknowledged offset: the highest SACKed
// end, or sndUna when nothing is SACKed.
func (c *Conn) fack() int64 {
	if n := len(c.sacked); n > 0 {
		return c.sacked[n-1].end
	}
	return c.sndUna
}

// addSack merges a receiver-reported interval into the scoreboard.
func (c *Conn) addSack(start, end int64) {
	if start < c.sndUna {
		start = c.sndUna
	}
	if end <= start {
		return
	}
	merged := ival{start, end}
	out := c.sacked[:0]
	insertAt := -1
	for _, iv := range c.sacked {
		if iv.end < merged.start || iv.start > merged.end {
			out = append(out, iv)
			continue
		}
		if iv.start < merged.start {
			merged.start = iv.start
		}
		if iv.end > merged.end {
			merged.end = iv.end
		}
	}
	for i, iv := range out {
		if iv.start > merged.start {
			insertAt = i
			break
		}
	}
	if insertAt < 0 {
		c.sacked = append(out, merged)
		return
	}
	out = append(out, ival{})
	copy(out[insertAt+1:], out[insertAt:])
	out[insertAt] = merged
	c.sacked = out
}

// pruneSacked drops scoreboard entries at or below the cumulative ACK.
func (c *Conn) pruneSacked() {
	i := 0
	for i < len(c.sacked) && c.sacked[i].end <= c.sndUna {
		i++
	}
	c.sacked = c.sacked[i:]
	if len(c.sacked) > 0 && c.sacked[0].start < c.sndUna {
		c.sacked[0].start = c.sndUna
	}
}

// nextHole finds the first un-SACKed gap at or beyond holePtr and below
// fack. Each hole is retransmitted at most once per recovery episode
// (holePtr advances past it); a re-lost retransmission is caught by RTO.
func (c *Conn) nextHole() (start, end int64, ok bool) {
	p := c.holePtr
	if p < c.sndUna {
		p = c.sndUna
	}
	f := c.fack()
	for _, iv := range c.sacked {
		if p < iv.start {
			return p, iv.start, true
		}
		if p < iv.end {
			p = iv.end
		}
	}
	if p < f {
		return p, f, true // cannot happen with consistent state, but be safe
	}
	return 0, 0, false
}

// sendRecovery is the FACK-style recovery transmission loop: while the
// estimated pipe is below cwnd, retransmit the next hole below fack, or
// send new data when no holes remain.
func (c *Conn) sendRecovery() {
	for {
		pipe := (c.sndNxt - c.fack()) + c.retxOut
		if pipe >= int64(c.cwnd) {
			return
		}
		if s, e, ok := c.nextHole(); ok {
			n := int64(c.cfg.MSS)
			if e-s < n {
				n = e - s
			}
			c.holePtr = s + n
			c.retxOut += n
			c.sendSegment(s, int(n), true)
			continue
		}
		if !c.sendNewSegment(int64(c.cwnd) + (c.fack() - c.sndUna) - c.retxOut) {
			return
		}
	}
}

// sendSegment emits the segment [seq, seq+n). The fin marker is the final
// sequence unit when the stream is closed; it is header-only on the wire.
func (c *Conn) sendSegment(seq int64, n int, retx bool) {
	kind := trace.Send
	if retx {
		kind = trace.Retx
		c.Stats.Retransmits++
	} else {
		c.Stats.SegmentsSent++
	}
	if end := seq + int64(n); end > c.maxSent {
		c.maxSent = end
	}
	emit := func() {
		now := c.e.Now()
		c.Trace.Add(trace.Record{T: now, Kind: kind, Seq: seq, Len: n})
		if !retx && !c.rttTiming {
			c.rttTiming = true
			c.rttSeq = seq + int64(n)
			c.rttSentAt = now
		}
		payload := n
		if c.appClosed && seq+int64(n) == c.appWritten+1 {
			payload-- // the fin unit carries no wire payload
		}
		fin := c.appClosed && seq+int64(n) == c.appWritten+1
		c.fwd.Send(payload+c.cfg.HeaderBytes, func() {
			c.segmentArrive(seq, int64(n), fin)
		})
		c.armTimer()
	}
	if c.cfg.SenderHostDelay != nil {
		at := c.e.Now() + c.cfg.SenderHostDelay()
		if at < c.emitHorizon { // keep emissions FIFO under random delays
			at = c.emitHorizon
		}
		c.emitHorizon = at
		c.e.At(at, emit)
	} else {
		emit()
	}
}

// ---------- retransmission timer ----------

func (c *Conn) armTimer() {
	if c.timerArmed {
		return
	}
	c.timerArmed = true
	c.timerGen++
	gen := c.timerGen
	c.e.Schedule(c.rto, func() {
		if gen != c.timerGen {
			return
		}
		c.timerArmed = false
		c.onTimeout()
	})
}

func (c *Conn) resetTimer() {
	c.timerGen++ // cancels any pending timer event
	c.timerArmed = false
	if c.sndUna < c.sndNxt {
		c.armTimer()
	}
}

func (c *Conn) onTimeout() {
	if c.sndUna >= c.sndLimit() || c.sndUna >= c.sndNxt {
		return
	}
	c.Stats.Timeouts++
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = math.Max(flight/2, float64(2*c.cfg.MSS))
	c.cwnd = float64(c.cfg.MSS)
	c.inRecovery = false
	c.dupAcks = 0
	c.retxOut = 0
	c.holePtr = c.sndUna
	c.rttTiming = false // Karn: do not time retransmitted data
	c.rto *= 2
	if c.rto > c.cfg.MaxRTO {
		c.rto = c.cfg.MaxRTO
	}
	if c.cfg.DisableSACK {
		// Classic Reno loss behavior: go-back-N. Rewind the send horizon so
		// slow start retransmits the whole outstanding window ACK-clocked;
		// the receiver discards duplicates and cumulative ACKs leap across
		// already-received runs.
		c.sndNxt = c.sndUna
		c.trySend()
		return
	}
	// SACK loss recovery (CA_Loss): retransmit the front hole immediately
	// (guaranteeing the timer re-arms and progress resumes), then repair
	// the remaining holes ACK-clocked via the recovery machinery. Without
	// this, multiple holes above sndUna would each cost one full — and
	// exponentially backed-off — RTO.
	if len(c.sacked) > 0 {
		c.inRecovery = true
		c.recover = c.sndNxt
		c.retxOut = 0
		c.holePtr = c.sndUna
		if s, e, ok := c.nextHole(); ok {
			n := int64(c.cfg.MSS)
			if e-s < n {
				n = e - s
			}
			c.holePtr = s + n
			c.retxOut += n
			c.sendSegment(s, int(n), true)
			return
		}
	}
	c.retransmitFront()
}

// ---------- persist (zero-window probe) timer ----------

func (c *Conn) armPersist() {
	if c.persistArmed {
		return
	}
	c.persistArmed = true
	c.persistGen++
	gen := c.persistGen
	c.e.Schedule(c.cfg.PersistInterval, func() {
		if gen != c.persistGen {
			return
		}
		c.persistArmed = false
		// Still stalled with pending data? Probe: a header-only segment
		// that elicits a fresh ACK carrying the current window.
		if c.established && c.sndNxt == c.sndUna && c.sndNxt < c.sndLimit() &&
			c.rightEdge-c.sndUna <= 0 {
			c.fwd.Send(c.cfg.HeaderBytes, func() {
				c.segmentArrive(c.rcvNxt, 0, false)
			})
			c.armPersist()
		}
	})
}

// ---------- ACK processing (sender side) ----------

func (c *Conn) ackArrive(ack int64, wnd int64, sacks []ival) {
	c.Stats.AcksReceived++
	c.Trace.Add(trace.Record{T: c.e.Now(), Kind: trace.AckRx, Ack: ack})
	if edge := ack + wnd; edge > c.rightEdge {
		c.rightEdge = edge
	}
	if !c.cfg.DisableSACK {
		for _, b := range sacks {
			c.addSack(b.start, b.end)
		}
	}
	switch {
	case ack > c.sndUna:
		c.newAck(ack)
	case ack == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAck()
	default:
		// Pure window update (or stale ACK): just try to send.
	}
	c.trySend()
	if c.Done() && !c.doneFired {
		c.doneFired = true
		if c.onDone != nil {
			c.onDone()
		}
	}
}

func (c *Conn) newAck(ack int64) {
	acked := ack - c.sndUna
	c.Stats.BytesAcked += acked
	mss := float64(c.cfg.MSS)

	// RTT sampling (Karn-compliant: timing flag cleared on retransmit).
	if c.rttTiming && ack >= c.rttSeq {
		sample := (c.e.Now() - c.rttSentAt).Seconds()
		c.rttTiming = false
		c.updateRTT(sample)
	} else if c.hasRTT {
		// Forward progress collapses any exponential RTO backoff back to
		// the estimator-derived value (Linux resets icsk_backoff on new
		// ACKs); without this a backed-off RTO poisons later losses.
		c.refreshRTO()
	}

	if c.inRecovery {
		if ack >= c.recover {
			// Full acknowledgment: leave recovery, deflate to ssthresh.
			c.inRecovery = false
			c.dupAcks = 0
			c.retxOut = 0
			c.cwnd = math.Max(c.ssthresh, mss)
			c.sndUna = ack
			c.pruneSacked()
			c.resetTimer()
			if c.onSendSpace != nil {
				c.onSendSpace()
			}
			return
		}
		// Partial ACK: stay in recovery.
		c.sndUna = ack
		c.pruneSacked()
		if c.retxOut -= acked; c.retxOut < 0 {
			c.retxOut = 0
		}
		if c.holePtr < c.sndUna {
			c.holePtr = c.sndUna
		}
		if !c.cfg.DisableSACK && c.cwnd < c.ssthresh {
			// Slow-start regrowth inside timeout-initiated loss recovery,
			// so multiple holes repair in parallel once ACKs flow again.
			c.cwnd = math.Min(c.cwnd+mss, c.ssthresh)
		}
		if c.cfg.DisableSACK {
			// NewReno: retransmit the next hole, deflate by the amount
			// acked, inflate by one MSS.
			c.cwnd = math.Max(c.cwnd-float64(acked)+mss, mss)
			c.retransmitFront()
		}
		c.resetTimer()
		if c.onSendSpace != nil {
			c.onSendSpace()
		}
		return
	}
	{
		c.dupAcks = 0
		if c.cwnd < c.ssthresh {
			c.cwnd += mss // slow start: one MSS per ACK
		} else {
			c.cwnd += mss * mss / c.cwnd // congestion avoidance
		}
		if max := float64(c.cfg.SendBuf); c.cwnd > max {
			c.cwnd = max
		}
	}
	c.sndUna = ack
	c.pruneSacked()
	if c.holePtr < c.sndUna {
		c.holePtr = c.sndUna
	}
	c.resetTimer()
	if c.onSendSpace != nil {
		c.onSendSpace()
	}
}

func (c *Conn) dupAck() {
	c.Stats.DupAcksReceived++
	if c.inRecovery {
		if c.cfg.DisableSACK {
			c.cwnd += float64(c.cfg.MSS) // Reno inflation
		}
		return
	}
	c.dupAcks++
	// Enter recovery on the classic triple duplicate ACK, or (with SACK)
	// as soon as the scoreboard shows more than a reordering window of
	// data above the hole (FACK threshold).
	if c.dupAcks >= 3 ||
		(!c.cfg.DisableSACK && c.fack()-c.sndUna > int64(3*c.cfg.MSS)) {
		c.fastRetransmit()
	}
}

func (c *Conn) fastRetransmit() {
	c.Stats.FastRecoveries++
	mss := float64(c.cfg.MSS)
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = math.Max(flight/2, 2*mss)
	c.inRecovery = true
	c.recover = c.sndNxt
	c.rttTiming = false
	if c.cfg.DisableSACK {
		// Reno: retransmit the front segment, inflate by the three dups.
		c.cwnd = c.ssthresh + 3*mss
		c.retransmitFront()
	} else {
		// SACK/FACK: pipe-governed hole filling from holePtr.
		c.cwnd = c.ssthresh
		c.retxOut = 0
		c.holePtr = c.sndUna
		c.sendRecovery()
	}
	c.resetTimer()
}

// retransmitFront resends one MSS starting at sndUna.
func (c *Conn) retransmitFront() {
	n := int64(c.cfg.MSS)
	if lim := c.sndLimit(); c.sndUna+n > lim {
		n = lim - c.sndUna
	}
	if n <= 0 {
		return
	}
	c.sendSegment(c.sndUna, int(n), true)
}

func (c *Conn) updateRTT(sample float64) {
	c.Stats.RTTSamples++
	if !c.hasRTT {
		c.hasRTT = true
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		d := math.Abs(c.srtt - sample)
		c.rttvar = (1-beta)*c.rttvar + beta*d
		c.srtt = (1-alpha)*c.srtt + alpha*sample
	}
	c.refreshRTO()
}

// refreshRTO recomputes the timer from the current estimator state,
// clamped to [MinRTO, MaxRTO].
func (c *Conn) refreshRTO() {
	rto := netsim.FromSeconds(c.srtt + 4*c.rttvar)
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	c.rto = rto
}
