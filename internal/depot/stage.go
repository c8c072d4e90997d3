package depot

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// Staged (asynchronous) sessions: the paper's §III observes that "the
// ultimate sending and receiving ports need not exist at the same time",
// with depots providing application-controlled buffering to potentially
// anonymous clients. A session opened with wire.FlagStaged is accepted by
// the first depot itself: it takes custody of the complete payload
// (bounded by MaxStageBytes per session and MaxTotalStageBytes across
// sessions), acknowledges the initiator, and delivers the payload over
// the remaining route asynchronously, retrying while the downstream is
// unreachable. The end-to-end MD5 trailer is stored and forwarded
// verbatim, so integrity verification still happens at the ultimate
// receiver.
//
// Delivery is cut-through: the first attempt starts at admission and
// forwards the payload as the upload writes it, through the session's
// custody.Stager, which holds the last byte back until custody commits.
// A target therefore never completes a payload the depot has not
// committed, and an upload that fails fails the attempt with it.
//
// Custody is durable when Config.Custody carries a write-ahead journal
// (internal/custody): the payload is spilled to a per-session file and
// journaled BEFORE the CodeCustody commit frame goes back to the
// initiator, redelivery attempts stream from the file (no heap pinned
// between attempts), and a restarted depot re-admits surviving journal
// entries and resumes redelivery where the dead process left off.
// Without a journal the payload lives in process memory and the commit
// frame only means "buffered" — a crash loses it.
//
// Admission is two-tier: a payload over MaxStageBytes is rejected busy
// (it can never fit), and a payload that would push aggregate custody
// past MaxTotalStageBytes is shed with the typed CodeRejectShed frame —
// explicit load shedding instead of OOMing under a burst of custody
// uploads.
//
// The whole custody path hangs off the depot-root context: retry backoff
// selects on ctx.Done instead of sleeping, so Close's drain-then-cancel
// sequence bounds how long a mid-retry delivery can pin shutdown. A
// cancelled delivery keeps its journal entry: it is exactly the state
// the next process recovers.

// stage-related configuration (part of Config).
const (
	// DefaultMaxStageBytes bounds one staged session's custody buffer.
	DefaultMaxStageBytes = 64 << 20
	// DefaultStageRetryInterval is the redelivery backoff base.
	DefaultStageRetryInterval = 2 * time.Second
	// DefaultStageRetryMax caps the exponential redelivery backoff.
	DefaultStageRetryMax = 30 * time.Second
	// DefaultStageDeadline is how long the depot tries before discarding.
	DefaultStageDeadline = 5 * time.Minute
	// DefaultTotalStageFactor sets MaxTotalStageBytes when unset: this
	// many sessions' worth of MaxStageBytes may be in custody at once.
	DefaultTotalStageFactor = 4
)

// custodyRun is what a staged session's delivery shares with its upload,
// which it starts beside (cut-through). ctx is the delivery's context:
// the depot's root, cut short by an upload that fails and, from commit
// on, by the stage deadline.
type custodyRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once the upload has ended
	err    error         // the upload's error; nil once custody committed
	timer  *time.Timer   // the stage deadline, armed at commit
}

func newCustodyRun(ctx context.Context) *custodyRun {
	r := &custodyRun{done: make(chan struct{})}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r
}

// end records the upload's outcome: a failed upload fails the attempt in
// flight, a committed one starts the stage deadline.
func (r *custodyRun) end(err error, deadline time.Duration) {
	r.err = err
	if err != nil {
		r.cancel()
	} else {
		r.timer = time.AfterFunc(deadline, r.cancel)
	}
	close(r.done)
}

// stop releases the run once its delivery has returned.
func (r *custodyRun) stop() {
	if r.timer != nil {
		r.timer.Stop()
	}
	r.cancel()
}

// stage runs the custody path for a staged session: admit against both
// stage budgets, then upload and deliver at once. The session goes live
// at admission, and its first delivery attempt starts right behind the
// CodeOK frame, reading the payload through the stage as the upload
// writes it; the stage holds the last byte back until custody commits
// (durably when journaled). Once committed, the depot confirms custody
// to the initiator and this handler returns; the delivery goroutine ends
// the session, an upload that failed included. The session stays in the
// live registry until delivery succeeds, is abandoned, or is cancelled
// by shutdown.
func (s *session) stage(ctx context.Context) {
	d, hdr := s.d, s.hdr
	s.state = stateUploading
	if hdr.ContentLen == wire.UnknownLength {
		d.logf("depot: staged session %s needs a content length", hdr.Session)
		s.finish(d.rejectedProto, OutcomeRejectedProto, wire.CodeRejectProto)
		return
	}
	total := int64(hdr.ContentLen)
	if hdr.Flags&wire.FlagDigest != 0 {
		total += wire.DigestLen
	}
	if total > d.cfg.MaxStageBytes {
		d.logf("depot: staged session %s too large (%d > %d)", hdr.Session, total, d.cfg.MaxStageBytes)
		s.finish(d.rejectedBusy, OutcomeRejectedBusy, wire.CodeRejectBusy)
		return
	}
	// Global custody budget: reserve atomically (add, then check) so
	// concurrent custody uploads can never collectively overshoot, and
	// shed the excess with the typed frame instead of buffering toward
	// OOM. The gauge doubles as the live custody-bytes accounting.
	if d.custodyBytes.Add(total) > d.cfg.MaxTotalStageBytes {
		d.custodyBytes.Add(-total)
		d.logf("depot: staged session %s shed: custody budget exhausted (%d in custody, limit %d)",
			hdr.Session, d.custodyBytes.Value(), d.cfg.MaxTotalStageBytes)
		s.finish(d.stageShed, OutcomeStagedShed, wire.CodeRejectShed)
		return
	}
	s.custody = total

	// Custody accept: the depot acknowledges admission before the payload
	// flows; durability is confirmed separately by the CodeCustody frame
	// once the payload is staged.
	if !d.writeControl(s.up, &wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}) {
		s.finish(nil, OutcomeStagedUpFailed, 0)
		return
	}
	st, err := d.openStage(hdr, total)
	if err != nil {
		d.logf("depot: staged session %s cannot stage: %v", hdr.Session, err)
		s.finish(nil, OutcomeStagedUpFailed, 0)
		return
	}
	s.ls = d.sessions.add(s.info())
	d.notify()
	run := newCustodyRun(ctx)
	s.deliver(ctx, st, run)
	if err := d.stagePayload(ctx, s.up, st, total, &s.ls.bytesFwd); err != nil {
		run.end(err, 0) // the delivery ends the session
		return
	}
	d.staged.Inc()
	d.stagedBytes.Add(uint64(total))
	// Custody commit: the payload is complete (and durable when
	// journaled) — tell the initiator it may hang up and discard its
	// copy. An initiator that already hung up just costs a logged write
	// failure; custody proceeds regardless.
	d.writeControl(s.up, &wire.AcceptFrame{Code: wire.CodeCustody, Session: hdr.Session})
	d.logf("depot: staged session %s in custody (%d bytes), delivering to %v",
		hdr.Session, total, hdr.RemainingHops()[1:])
	s.up.Close()
	s.up = nil
	s.state = stateDelivering
	run.end(nil, d.cfg.StageDeadline)
}

// openStage opens a staged session's custody stage: a spill file in the
// write-ahead journal when one is configured, process memory otherwise.
func (d *Depot) openStage(hdr *wire.OpenHeader, total int64) (*custody.Stager, error) {
	if d.cfg.Custody == nil {
		return custody.StageInMemory(total), nil
	}
	return d.cfg.Custody.Stage(custody.Entry{
		Session:    hdr.Session,
		Flags:      hdr.Flags,
		HopIndex:   hdr.HopIndex,
		Route:      hdr.Route,
		ContentLen: hdr.ContentLen,
		Offset:     hdr.Offset,
		Total:      total,
	})
}

// stagePayload copies the complete custody payload from the initiator
// into st, crediting live as it lands, and commits it; a failed upload
// aborts the stage. An upload that sends nothing for handshakeTimeout
// fails: its delivery already holds a sublink to the next hop, and a
// stalled initiator must not keep that open.
func (d *Depot) stagePayload(ctx context.Context, up net.Conn, st *custody.Stager, total int64, live *atomic.Uint64) error {
	stop := context.AfterFunc(ctx, func() { up.Close() })
	defer stop()
	src := io.LimitReader(idleReader{up, d.cfg.handshakeTimeout}, total)
	n, err := xfer.CopyCounted(st, src, d.bufs, xfer.CopyConfig{
		Counters: []xfer.Adder{xfer.AtomicAdder{U: live}},
	})
	if err == nil && n != total {
		err = fmt.Errorf("short custody upload: %d of %d bytes: %w", n, total, io.ErrUnexpectedEOF)
	}
	if err != nil {
		st.Abort()
		return err
	}
	return st.Commit()
}

// idleReader reads c with a read deadline idle past each read's start.
type idleReader struct {
	c    net.Conn
	idle time.Duration
}

func (r idleReader) Read(p []byte) (int, error) {
	r.c.SetReadDeadline(time.Now().Add(r.idle))
	return r.c.Read(p)
}

// deliver runs a live custody session's delivery on a goroutine of its
// own, so the upload's handler (a trunk stream's among them) returns
// once custody is committed. The delivery ends the session through
// finish, which settles the journal entry and the custody budget; it
// waits for the upload's outcome first, so a session whose upload fails
// ends there too.
func (s *session) deliver(ctx context.Context, st *custody.Stager, run *custodyRun) {
	d := s.d
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := d.deliverStaged(ctx, s.hdr, st, run)
		run.stop()
		switch {
		case err == nil:
			s.finish(d.stagedDelivered, OutcomeStagedDeliver, 0)
			d.logf("depot: staged session %s delivered", s.hdr.Session)
		case ctx.Err() != nil:
			s.finish(d.canceled, OutcomeCanceled, 0)
			d.logf("depot: staged session %s canceled by shutdown: %v", s.hdr.Session, err)
		case run.err != nil:
			s.finish(nil, OutcomeStagedUpFailed, 0)
			d.logf("depot: staged session %s upload failed: %v", s.hdr.Session, run.err)
		default:
			s.finish(d.stagedAborted, OutcomeStagedAborted, 0)
			d.logf("depot: staged session %s abandoned: %v", s.hdr.Session, err)
		}
	}()
}

// completeCustody retires a session's journal entry (no-op without a
// journal).
func (d *Depot) completeCustody(id wire.SessionID, delivered bool) {
	if d.cfg.Custody == nil {
		return
	}
	if err := d.cfg.Custody.Complete(id, delivered); err != nil {
		d.logf("depot: custody journal complete %s: %v", id, err)
	}
}

// recoverCustody re-admits every custody session that survived in the
// write-ahead journal: each one re-enters the registry and the custody
// budget (unconditionally — they were already acknowledged; new
// admissions shed first) and resumes redelivery with a fresh stage
// deadline.
func (d *Depot) recoverCustody() {
	if d.cfg.Custody == nil {
		return
	}
	for _, e := range d.cfg.Custody.Recovered() {
		hdr := &wire.OpenHeader{
			Flags:      e.Flags,
			Session:    e.Session,
			HopIndex:   e.HopIndex,
			Route:      e.Route,
			ContentLen: e.ContentLen,
			Offset:     e.Offset,
		}
		s := &session{d: d, hdr: hdr, peer: "recovered", start: time.Now(), state: stateDelivering, custody: e.Total}
		s.next, _ = hdr.NextHop()
		d.custodyBytes.Add(e.Total)
		d.stagedRecovered.Inc()
		d.logf("depot: recovered staged session %s from custody journal (%d bytes)", hdr.Session, e.Total)
		s.ls = d.sessions.add(s.info())
		s.ls.bytesFwd.Add(uint64(e.Total))
		d.notify()
		run := newCustodyRun(d.root)
		run.end(nil, d.cfg.StageDeadline)
		s.deliver(d.root, d.cfg.Custody.Committed(e), run)
	}
}

// deliverStaged pushes a custody payload over the remaining route,
// retrying with capped exponential backoff until the stage deadline or
// cancellation, all under run's context. The first attempt may start
// while the upload is still running; it counts only once the upload has
// ended, and an upload that failed ends the delivery with it. The
// deadline bounds an attempt in flight too: it closes the sublink, so a
// target that accepts and stops reading cannot hold a delivery until
// shutdown. Shutdown (ctx) and giving up (the deadline) stay distinct
// errors for the caller's accounting.
func (d *Depot) deliverStaged(ctx context.Context, hdr *wire.OpenHeader, st *custody.Stager, run *custodyRun) error {
	next, ok := hdr.NextHop()
	if !ok {
		<-run.done
		return fmt.Errorf("staged session terminates at a depot")
	}
	fwd := *hdr
	fwd.HopIndex++
	// Downstream runs as an ordinary, fresh session: custody holds the
	// whole payload, so a header that also asked to resume is delivered
	// from byte 0.
	fwd.Flags &^= wire.FlagStaged | wire.FlagResume
	delay := d.retryDelays(fwd.Session)
	sctx := run.ctx
	for attempt := 1; ; attempt++ {
		d.stagedAttempts.Inc()
		err := d.attemptDelivery(sctx, next, &fwd, st)
		d.notify()
		if attempt == 1 {
			<-run.done
			if run.err != nil {
				return fmt.Errorf("upload failed: %w", run.err)
			}
		}
		if err == nil {
			return nil
		}
		if sctx.Err() == nil {
			d.logf("depot: staged session %s delivery attempt %d failed: %v", fwd.Session, attempt, err)
			// Backoff that shutdown and the deadline interrupt — never an
			// uninterruptible sleep on the drain path.
			backoff.Sleep(sctx, delay(attempt))
		}
		switch {
		case ctx.Err() != nil:
			return fmt.Errorf("depot shutting down: %w", err)
		case sctx.Err() != nil:
			return fmt.Errorf("gave up after %d attempts: %w", attempt, err)
		}
	}
}

// retryDelays draws a custody session's redelivery backoff, jittered from
// retryJitterSeed XOR the session ID: deterministic under test, yet staged
// sessions that failed together do not retry in lockstep. The source is
// seeded at the first failure; most deliveries never draw.
func (d *Depot) retryDelays(id wire.SessionID) func(attempt int) time.Duration {
	pol := backoff.Policy{Base: d.cfg.StageRetryInterval, Max: d.cfg.StageRetryMax}
	var rng *rand.Rand
	return func(attempt int) time.Duration {
		if rng == nil {
			rng = rand.New(rand.NewSource(d.cfg.retryJitterSeed ^ id.Seed()))
		}
		return pol.Delay(attempt, rng)
	}
}

// attemptDelivery is one delivery of a custody payload to next: dial, open
// through core.Forward, stream, wait for the target's EOF. The payload
// follows the header without waiting for the accept. ctx firing
// (shutdown, the stage deadline) closes the sublink.
func (d *Depot) attemptDelivery(ctx context.Context, next string, fwd *wire.OpenHeader, st *custody.Stager) error {
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DialTimeout)
	down, err := d.dialNext(dctx, next, true)
	cancel()
	if err != nil {
		d.nextHopDialFail.With(next).Inc()
		return err
	}
	stop := context.AfterFunc(ctx, func() { down.Close() })
	defer stop()
	c, err := core.Forward(down, fwd, core.WithHandshakeTimeout(d.cfg.handshakeTimeout), core.WithEager())
	if err != nil {
		return err
	}
	defer c.Close()
	// Send the header now, not with the first payload bytes: a first
	// attempt's payload is still arriving from the upload, and the target
	// handshakes in the meantime.
	if _, err := c.Write(nil); err != nil {
		return err
	}
	// The payload opens fresh per attempt: the first follows the upload,
	// and journal-backed custody streams later ones from the spill file,
	// so nothing is pinned while the session sits in retry backoff.
	payload, err := st.Follow()
	if err != nil {
		return fmt.Errorf("custody payload: %w", err)
	}
	defer payload.Close()
	if err := c.SendReader(payload); err != nil {
		return err
	}
	// Wait for the receiver to finish (EOF on the backward channel) so a
	// mid-delivery crash is retried rather than silently dropped. The
	// drain error matters: a receiver dying here means the delivery is NOT
	// confirmed and must be retried, not counted as delivered.
	c.SetDeadline(time.Now().Add(d.cfg.handshakeTimeout))
	if _, err := io.Copy(io.Discard, c); err != nil {
		return fmt.Errorf("confirm drain: %w", err)
	}
	return nil
}
