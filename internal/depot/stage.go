package depot

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
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
// sessions), acknowledges the initiator, and then delivers the payload
// over the remaining route asynchronously, retrying while the downstream
// is unreachable. The end-to-end MD5 trailer is stored and forwarded
// verbatim, so integrity verification still happens at the ultimate
// receiver.
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

// payloadSource opens one redelivery attempt's view of a custody payload;
// a resumed delivery seeks it to the target's offset (core's SendReader).
// Journal-backed sources open the spill file per attempt, so a custody
// session pins no payload heap between attempts; memory-backed sources
// (no journal) wrap the buffered bytes.
type payloadSource interface {
	Open() (io.ReadSeekCloser, error)
}

// memSource is the in-memory custody buffer (journal-less depots).
type memSource []byte

func (m memSource) Open() (io.ReadSeekCloser, error) { return memReader{bytes.NewReader(m)}, nil }

// memReader is one attempt's view of a memSource; closing it is a no-op.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// journalSource streams a custody payload from its write-ahead spill
// file.
type journalSource struct {
	j  *custody.Journal
	id wire.SessionID
}

func (s journalSource) Open() (io.ReadSeekCloser, error) {
	f, err := s.j.OpenPayload(s.id)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// stage runs the custody path for a staged session: admit against both
// stage budgets, read the whole stream (durably when journaled), confirm
// custody, deliver in the background. The session stays in the live
// registry until delivery succeeds, is abandoned, or is cancelled by
// shutdown.
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
	src, err := d.stagePayload(ctx, s.up, hdr, total)
	if err != nil {
		if ctx.Err() != nil {
			d.logf("depot: staged session %s upload canceled by shutdown", hdr.Session)
			s.finish(d.canceled, OutcomeCanceled, 0)
			return
		}
		d.logf("depot: staged session %s upload failed: %v", hdr.Session, err)
		s.finish(nil, OutcomeStagedUpFailed, 0)
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
	s.deliver(ctx, src)
}

// stagePayload reads the complete custody payload from the initiator:
// into the write-ahead journal's spill file (committed before return)
// when one is configured, into process memory otherwise.
func (d *Depot) stagePayload(ctx context.Context, up net.Conn, hdr *wire.OpenHeader, total int64) (payloadSource, error) {
	stop := context.AfterFunc(ctx, func() { up.Close() })
	defer stop()
	if d.cfg.Custody == nil {
		buf := make([]byte, total)
		if _, err := io.ReadFull(up, buf); err != nil {
			return nil, err
		}
		return memSource(buf), nil
	}
	st, err := d.cfg.Custody.Stage(custody.Entry{
		Session:    hdr.Session,
		Flags:      hdr.Flags,
		HopIndex:   hdr.HopIndex,
		Route:      hdr.Route,
		ContentLen: hdr.ContentLen,
		Offset:     hdr.Offset,
		Total:      total,
	})
	if err != nil {
		return nil, err
	}
	n, err := xfer.CopyCounted(st, io.LimitReader(up, total), d.bufs, xfer.CopyConfig{})
	if err != nil {
		st.Abort()
		return nil, err
	}
	if n != total {
		st.Abort()
		return nil, fmt.Errorf("short custody upload: %d of %d bytes: %w", n, total, io.ErrUnexpectedEOF)
	}
	if err := st.Commit(); err != nil {
		return nil, err
	}
	return journalSource{j: d.cfg.Custody, id: hdr.Session}, nil
}

// deliver enters a custody session into the live registry and runs its
// redelivery loop on a goroutine of its own, so the upload's handler (a
// trunk stream's among them) returns once custody is committed. The loop
// ends the session through finish, which settles the journal entry and
// the custody budget.
func (s *session) deliver(ctx context.Context, src payloadSource) {
	d := s.d
	s.state = stateDelivering
	s.ls = d.sessions.add(s.info())
	s.ls.bytesFwd.Add(uint64(s.custody))
	d.notify()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := d.deliverStaged(ctx, s.hdr, src)
		switch {
		case err == nil:
			s.finish(d.stagedDelivered, OutcomeStagedDeliver, 0)
			d.logf("depot: staged session %s delivered", s.hdr.Session)
		case ctx.Err() != nil:
			s.finish(d.canceled, OutcomeCanceled, 0)
			d.logf("depot: staged session %s canceled by shutdown: %v", s.hdr.Session, err)
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
		s := &session{d: d, hdr: hdr, peer: "recovered", start: time.Now(), custody: e.Total}
		s.next, _ = hdr.NextHop()
		d.custodyBytes.Add(e.Total)
		d.stagedRecovered.Inc()
		d.logf("depot: recovered staged session %s from custody journal (%d bytes)", hdr.Session, e.Total)
		s.deliver(d.root, journalSource{j: d.cfg.Custody, id: hdr.Session})
	}
}

// deliverStaged pushes a custody payload over the remaining route,
// retrying with capped exponential backoff until the stage deadline or
// cancellation. The deadline bounds an attempt in flight too: it closes
// the sublink, so a target that accepts and stops reading cannot hold a
// delivery until shutdown. Shutdown (ctx) and giving up (the deadline)
// stay distinct errors for the caller's accounting.
func (d *Depot) deliverStaged(ctx context.Context, hdr *wire.OpenHeader, src payloadSource) error {
	next, ok := hdr.NextHop()
	if !ok {
		return fmt.Errorf("staged session terminates at a depot")
	}
	fwd := *hdr
	fwd.HopIndex++
	fwd.Flags &^= wire.FlagStaged // downstream runs as an ordinary session
	delay := d.retryDelays(fwd.Session)
	sctx, cancel := context.WithTimeout(ctx, d.cfg.StageDeadline)
	defer cancel()
	for attempt := 1; ; attempt++ {
		d.stagedAttempts.Inc()
		err := d.attemptDelivery(sctx, next, &fwd, src)
		d.notify()
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
// rides behind the header unless the header asks to resume, whose accept
// names the offset to start at. ctx firing (shutdown, the stage deadline)
// closes the sublink.
func (d *Depot) attemptDelivery(ctx context.Context, next string, fwd *wire.OpenHeader, src payloadSource) error {
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DialTimeout)
	down, err := d.dialNext(dctx, next, true)
	cancel()
	if err != nil {
		d.nextHopDialFail.With(next).Inc()
		return err
	}
	stop := context.AfterFunc(ctx, func() { down.Close() })
	defer stop()
	opts := []core.Option{core.WithHandshakeTimeout(d.cfg.handshakeTimeout)}
	if fwd.Flags&wire.FlagResume == 0 {
		opts = append(opts, core.WithEager()) // a fresh session starts at offset 0
	}
	c, err := core.Forward(down, fwd, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	// The payload opens fresh per attempt: journal-backed custody streams
	// from the spill file, so nothing is pinned while the session sits in
	// retry backoff.
	payload, err := src.Open()
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
