package custody

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrAborted is what a follower reads once its stage is aborted: the
// payload never entered custody.
var ErrAborted = errors.New("custody: stage aborted")

// stageState is where a Stager is in its life: staging until Commit
// returns nil (committed) or the stage fails (aborted).
type stageState uint8

const (
	staging stageState = iota
	committed
	aborted
)

// Stager streams one session's payload into custody while delivery reads
// it back (cut-through). Write appends payload bytes; Commit makes the
// custody durable (fsync the payload and the state directory, journal
// the admit record, fsync the journal); Abort discards it. Exactly one of
// Commit and Abort must be called, by the goroutine that writes.
//
// Follow opens a reader over the payload as it is written. Its reads
// block until bytes past the reader's offset exist, and they hold the
// payload's last byte back until Commit has returned nil: a receiver can
// never have a complete payload (for a digest session, a whole MD5
// trailer) that custody does not hold. Once the stage is aborted every
// read fails with ErrAborted.
type Stager struct {
	j   *Journal // nil for an in-memory stage
	e   Entry
	f   *os.File // the spill file, read-write; nil in memory
	buf []byte   // the payload of an in-memory stage

	mu    sync.Mutex
	grown sync.Cond // broadcast when n grows and when the stage ends
	n     int64     // payload bytes written
	state stageState
	refs  int // holders of f: the stage until it ends, and each follower
}

// Stage opens a payload spill file for e. Bytes written through the
// returned Stager are not custody until Commit returns nil.
func (j *Journal) Stage(e Entry) (*Stager, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	f, err := os.OpenFile(j.payloadPath(e.Session), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	return newStager(&Stager{j: j, e: e, f: f, refs: 1}), nil
}

// StageInMemory stages a payload of total bytes in process memory, for
// a depot without a journal: Commit only marks it complete, and the
// payload does not outlive the process.
func StageInMemory(total int64) *Stager {
	return newStager(&Stager{e: Entry{Total: total}, buf: make([]byte, total), refs: 1})
}

// Committed returns the stage of a session already in custody, one of
// Recovered's entries: its followers read the spill file.
func (j *Journal) Committed(e Entry) *Stager {
	return newStager(&Stager{j: j, e: e, n: e.Total, state: committed})
}

func newStager(s *Stager) *Stager {
	s.grown.L = &s.mu
	return s
}

// Write appends payload bytes. Writing past the entry's Total fails.
func (s *Stager) Write(p []byte) (int, error) {
	if s.state != staging {
		return 0, errors.New("custody: write to a finished stage")
	}
	if int64(len(p)) > s.e.Total-s.n {
		return 0, fmt.Errorf("custody: stage overrun: %d bytes past %d of %d", len(p), s.n, s.e.Total)
	}
	var n int
	var err error
	if s.f != nil {
		n, err = s.f.Write(p)
	} else {
		n = copy(s.buf[s.n:], p)
	}
	s.mu.Lock()
	s.n += int64(n)
	s.mu.Unlock()
	s.grown.Broadcast()
	return n, err
}

// Commit finishes the stage: the payload must be complete (Total bytes
// written), it is pushed to stable storage per the fsync policy, and the
// admit record lands in the journal. After Commit returns nil the
// session survives a crash, and followers read the last byte. On error
// the stage is aborted.
func (s *Stager) Commit() error {
	if s.state != staging {
		return errors.New("custody: stager already finished")
	}
	if s.n != s.e.Total {
		s.Abort()
		return fmt.Errorf("custody: short stage: %d of %d bytes", s.n, s.e.Total)
	}
	if err := s.persist(); err != nil {
		s.Abort()
		return err
	}
	s.end(committed)
	return nil
}

// persist makes a complete journaled payload custody. The payload and
// its directory entry are durable before the admit record is appended,
// so a journaled session never lacks its file.
func (s *Stager) persist() error {
	j := s.j
	if j == nil {
		return nil
	}
	if j.cfg.Fsync == FsyncAlways {
		j.note("sync payload")
		if err := s.f.Sync(); err != nil {
			return err
		}
		if err := j.syncDir(); err != nil {
			return err
		}
	}
	return j.admit(s.e)
}

// Abort discards the payload and fails every follower; the session never
// entered custody. Abort after Commit is a no-op.
func (s *Stager) Abort() {
	if s.state != staging {
		return
	}
	if s.j != nil {
		os.Remove(s.j.payloadPath(s.e.Session))
	}
	s.end(aborted)
}

// end moves the stage to its final state, wakes followers and lets go of
// the stage's hold on the spill file.
func (s *Stager) end(state stageState) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	s.grown.Broadcast()
	s.release()
}

// release drops one hold on the spill file and closes it after the last.
// Close's error is dropped: under FsyncAlways the payload was synced
// before the commit, and FsyncNever leaves durability to the OS.
func (s *Stager) release() {
	s.mu.Lock()
	s.refs--
	last := s.refs == 0
	s.mu.Unlock()
	if last && s.f != nil {
		s.f.Close()
	}
}

// Follow opens a reader over the payload, from offset 0, that follows
// the stage as it is written (see Stager). The spill file's descriptor
// stays open until the stage has ended and every follower has closed;
// a journaled stage followed after that (a later delivery attempt, or a
// recovered session's) opens its committed spill file afresh.
func (s *Stager) Follow() (io.ReadSeekCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.state == aborted:
		return nil, ErrAborted
	case s.refs == 0 && s.j != nil:
		return s.j.OpenPayload(s.e.Session)
	}
	s.refs++
	return &follower{s: s}, nil
}

// follower is one reader of a Stager.
type follower struct {
	s      *Stager
	off    int64
	closed bool
}

// Read waits for payload bytes past the offset and reads them with pread
// (or from memory), up to the bytes written so far, short of the last
// byte until the stage commits.
func (r *follower) Read(p []byte) (int, error) {
	s := r.s
	s.mu.Lock()
	for {
		if s.state == aborted {
			s.mu.Unlock()
			return 0, ErrAborted
		}
		if s.state == committed || r.off < s.readable() {
			break
		}
		s.grown.Wait()
	}
	lim := s.readable()
	s.mu.Unlock()
	if r.off >= lim {
		return 0, io.EOF
	}
	if int64(len(p)) > lim-r.off {
		p = p[:lim-r.off]
	}
	var n int
	var err error
	if s.f != nil {
		n, err = s.f.ReadAt(p, r.off)
	} else {
		n = copy(p, s.buf[r.off:])
	}
	r.off += int64(n)
	if n == len(p) {
		err = nil
	}
	return n, err
}

// readable is how far a follower may read now: every written byte once
// committed, all but the last before. Callers hold mu.
func (s *Stager) readable() int64 {
	if s.state != committed && s.n == s.e.Total {
		return s.n - 1
	}
	return s.n
}

// Seek moves the follower's offset from the payload's start; a resumed
// delivery starts past the bytes its target already holds.
func (r *follower) Seek(offset int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return r.off, fmt.Errorf("custody: follower seeks only from the start, not whence %d", whence)
	}
	if offset < 0 {
		return r.off, fmt.Errorf("custody: seek to %d", offset)
	}
	r.off = offset
	return offset, nil
}

// Close lets go of the follower's hold on the spill file.
func (r *follower) Close() error {
	if !r.closed {
		r.closed = true
		r.s.release()
	}
	return nil
}
