package core

import (
	"crypto/md5"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsl/internal/mux"
	"lsl/internal/wire"
)

// sessionState is the target-side per-session record that makes resumption
// work: how many payload bytes have arrived so far and the running digest
// over them. It survives the transport connection that carried them.
type sessionState struct {
	// mu guards owner, hash and received. It hands the state from sublink
	// to sublink: only the owner counts bytes into it, and a resumed
	// sublink takes ownership — and reads its offset — between two of the
	// old owner's reads. Never held together with Listener.mu, so a target
	// read takes this one lock.
	mu       sync.Mutex
	owner    *ServerConn
	hash     hash.Hash
	received int64

	// updated is the last activity in unix nanoseconds, for the resume
	// table's eviction, which reads it under Listener.mu.
	updated atomic.Int64
}

// errSuperseded fails a sublink's reads once a resumed sublink has taken
// its session over.
var errSuperseded = errors.New("lsl: sublink superseded by a resumed one")

// A Listener's defaults. They are not knobs: only tests shorten them,
// through export_test.go.
const (
	// defaultHandshakeTimeout bounds the header read per connection.
	defaultHandshakeTimeout = 15 * time.Second
	// defaultMaxSessions bounds the resume table.
	defaultMaxSessions = 1024
	// refuseTimeout bounds a refusal's frame write and then its drain.
	refuseTimeout = 5 * time.Second
)

// Listener accepts LSL sessions at a session target. Its accept front
// (mux.Front) handshakes connections and trunk streams concurrently —
// each reads its open header under its own handshake timeout — and
// Accept returns sessions in the order their handshakes finish, so one
// connection that never sends a header delays no other session. A
// handshaken session holds its handshake slot until Accept takes it.
type Listener struct {
	ln    net.Listener
	front *mux.Front

	// mu guards the resume table; no sessionState.mu is ever taken while
	// it is held.
	mu       sync.Mutex
	sessions map[wire.SessionID]*sessionState

	startOnce sync.Once
	ready     chan *ServerConn // handshaken sessions, in completion order
	loopDone  chan struct{}    // the accept loop ended with loopErr
	loopErr   error

	// maxSessions bounds the resume table; when it is full, the entry
	// idle longest is evicted. A test seam, set before the first Accept.
	maxSessions int
}

// Listen starts an LSL target listener on addr.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewListener(ln), nil
}

// NewListener wraps an existing net.Listener (tests, emulation).
func NewListener(ln net.Listener) *Listener {
	l := &Listener{
		ln:          ln,
		sessions:    make(map[wire.SessionID]*sessionState),
		ready:       make(chan *ServerConn),
		loopDone:    make(chan struct{}),
		maxSessions: defaultMaxSessions,
	}
	l.front = mux.NewFront(ln, l.accept, mux.FrontConfig{HandshakeTimeout: defaultHandshakeTimeout})
	return l
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting: a blocked Accept returns, connections and
// streams still in their handshake are closed, and every trunk drains,
// closing once the last session on it closes. Sessions Accept already
// returned are the caller's.
func (l *Listener) Close() error { return l.front.Close() }

// Accept blocks for the next valid session. Transport connections whose
// headers are malformed or mis-routed are rejected and skipped. Once the
// underlying listener fails (Close included), Accept returns its error.
func (l *Listener) Accept() (*ServerConn, error) {
	l.startOnce.Do(func() {
		go func() {
			l.loopErr = l.front.Serve()
			close(l.loopDone)
		}()
	})
	select {
	case sc := <-l.ready:
		return sc, nil
	case <-l.loopDone:
		return nil, l.loopErr
	}
}

// accept is the Listener's part of the accept front (mux.Handler): a
// session's handshake, then its hand-off to Accept.
func (l *Listener) accept(nc net.Conn, head []byte, err error) func() {
	var sc *ServerConn
	if err == nil {
		sc, err = l.handshake(nc, head)
	}
	if err != nil {
		nc.Close() // a bad client must not kill the accept loop
		return nil
	}
	return func() {
		select {
		case l.ready <- sc:
		case <-l.loopDone: // closed
			nc.Close()
		}
	}
}

// handshake finishes reading the open header whose first bytes the front
// read as head, and answers it.
func (l *Listener) handshake(nc net.Conn, head []byte) (*ServerConn, error) {
	hdr, err := wire.FinishOpenHeader(head, nc)
	if err != nil {
		return nil, err
	}
	if !hdr.Final() {
		// We are a target, not a depot: refuse to forward.
		Refuse(nc, &wire.AcceptFrame{Code: wire.CodeRejectRoute, Session: hdr.Session}, refuseTimeout)
		return nil, fmt.Errorf("lsl: non-final header at target (hop %d of %d)", hdr.HopIndex, len(hdr.Route))
	}
	digest := hdr.Flags&wire.FlagDigest != 0
	if digest && hdr.ContentLen == wire.UnknownLength {
		// The trailer's position is unknowable: refuse before any state
		// is registered or accepted.
		Refuse(nc, &wire.AcceptFrame{Code: wire.CodeRejectProto, Session: hdr.Session}, refuseTimeout)
		return nil, ErrNeedLength
	}

	sc := &ServerConn{nc: nc, hdr: hdr, l: l, st: l.sessionFor(hdr)}
	offset := sc.takeOver()
	acc := &wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session, Offset: uint64(offset)}
	if _, err := nc.Write(acc.Encode()); err != nil {
		return nil, err
	}

	sc.remaining = -1
	if digest {
		sc.remaining = int64(hdr.ContentLen) - offset
	}
	return sc, nil
}

// Refuse writes a reject frame under timeout and lets go of the transport
// without a reset chasing the frame. An initiator that pipelines its
// payload behind the header is still sending: closing on unread bytes
// makes the kernel answer with RST, and a reset can cost the peer the
// frame it has not read yet. So half-close, then discard what arrives
// until EOF, the timeout, or as much as a pipelined initiator sends
// before the verdict — one first window and a digest trailer — whichever
// comes first, and only then close. It returns the frame write's error.
func Refuse(nc net.Conn, f *wire.AcceptFrame, timeout time.Duration) error {
	nc.SetWriteDeadline(time.Now().Add(timeout))
	_, err := nc.Write(f.Encode())
	if err == nil {
		if cw, ok := nc.(closeWriter); ok {
			cw.CloseWrite()
		}
		nc.SetReadDeadline(time.Now().Add(timeout))
		io.CopyN(io.Discard, nc, wire.FirstWindow+wire.DigestLen) // best effort: any outcome ends in Close
	}
	nc.Close()
	return err
}

// takeOver makes s the sublink that counts payload into its session's
// state and returns the offset it starts at. Handshakes run concurrently
// with the application's reads, so the sublink a resume replaces may still
// be draining: it is closed, and whatever it reads from here on is refused
// rather than counted — those bytes lie past the offset just reported, and
// the new sublink carries them again.
func (s *ServerConn) takeOver() int64 {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner != nil {
		st.owner.nc.Close()
	}
	st.owner = s
	return st.received
}

// count folds freshly read payload into the session state, unless a
// resumed sublink has taken the session over.
func (s *ServerConn) count(b []byte) bool {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner != s {
		return false
	}
	if st.hash != nil {
		st.hash.Write(b)
	}
	st.received += int64(len(b))
	st.updated.Store(time.Now().UnixNano())
	return true
}

// sessionFor finds or creates the resumable state for a header.
func (l *Listener) sessionFor(hdr *wire.OpenHeader) *sessionState {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.sessions[hdr.Session]; ok && hdr.Flags&wire.FlagResume != 0 {
		st.updated.Store(now.UnixNano())
		return st
	}
	st := &sessionState{}
	st.updated.Store(now.UnixNano())
	if hdr.Flags&wire.FlagDigest != 0 {
		st.hash = md5.New()
	}
	if len(l.sessions) >= l.maxSessions {
		// Evict the stalest entry: the cap bounds memory, and an abandoned
		// session can never keep a live one out.
		var oldest wire.SessionID
		var when int64
		first := true
		for id, s := range l.sessions {
			if u := s.updated.Load(); first || u < when {
				oldest, when, first = id, u, false
			}
		}
		delete(l.sessions, oldest)
	}
	l.sessions[hdr.Session] = st
	return st
}

// ResumeStates reports how many interrupted sessions currently hold
// resumable state (observability and tests).
func (l *Listener) ResumeStates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sessions)
}

// dropSession forgets st. A fresh open may have replaced the state under
// the same ID since this sublink started (a restarted transfer); that
// newer state is not this sublink's to drop.
func (l *Listener) dropSession(id wire.SessionID, st *sessionState) {
	l.mu.Lock()
	if l.sessions[id] == st {
		delete(l.sessions, id)
	}
	l.mu.Unlock()
}

// ServerConn is the target's end of one session sublink.
type ServerConn struct {
	nc  net.Conn
	hdr *wire.OpenHeader
	l   *Listener
	st  *sessionState

	remaining int64 // payload bytes left before the trailer; -1 = no digest
	verified  bool
	failed    error
}

// SessionID returns the session identifier.
func (s *ServerConn) SessionID() wire.SessionID { return s.hdr.Session }

// Route returns the loose source route the initiator specified.
func (s *ServerConn) Route() []string { return s.hdr.Route }

// ContentLength returns the declared payload size, or -1 when unknown.
func (s *ServerConn) ContentLength() int64 {
	if s.hdr.ContentLen == wire.UnknownLength {
		return -1
	}
	return int64(s.hdr.ContentLen)
}

// Digesting reports whether end-to-end MD5 verification is active.
func (s *ServerConn) Digesting() bool { return s.remaining >= 0 }

// Read returns payload bytes. With digesting active it stops at the
// declared content length, consumes and verifies the MD5 trailer, and then
// returns io.EOF on success or ErrDigestMismatch on corruption. A stream
// of declared length that ends short of it reads as truncated, digest or
// not. The read that completes a digesting payload waits for the trailer
// before it returns those last bytes, so an initiator must never hold the
// trailer back behind anything the target has not answered yet.
func (s *ServerConn) Read(p []byte) (int, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	if s.remaining == 0 {
		if err := s.finishDigest(); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	if s.remaining > 0 && int64(len(p)) > s.remaining {
		p = p[:s.remaining]
	}
	n, err := s.nc.Read(p)
	if n > 0 {
		if !s.count(p[:n]) {
			s.failed = errSuperseded
			return 0, s.failed
		}
		if s.remaining > 0 {
			s.remaining -= int64(n)
		}
	}
	if err == io.EOF && s.remaining > 0 {
		return n, fmt.Errorf("lsl: stream truncated %d bytes early", s.remaining)
	}
	if err == io.EOF && s.remaining < 0 {
		if owed := s.owed(); owed > 0 {
			return n, fmt.Errorf("lsl: stream truncated %d bytes early", owed)
		}
		// Unverified stream completed; forget the session.
		s.l.dropSession(s.hdr.Session, s.st)
	}
	if err == nil && s.remaining == 0 {
		if derr := s.finishDigest(); derr != nil {
			return n, derr
		}
		return n, nil
	}
	return n, err
}

// owed is how many declared payload bytes a session without a digest
// has yet to receive: an EOF short of the declared length is a cut
// stream, not a completed one. It is 0 when the length is unknown.
func (s *ServerConn) owed() int64 {
	if s.hdr.ContentLen == wire.UnknownLength {
		return 0
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return int64(s.hdr.ContentLen) - s.st.received
}

func (s *ServerConn) finishDigest() error {
	if s.verified || s.st.hash == nil {
		return nil
	}
	trailer := make([]byte, wire.DigestLen)
	if _, err := io.ReadFull(s.nc, trailer); err != nil {
		s.failed = fmt.Errorf("lsl: reading digest trailer: %w", err)
		return s.failed
	}
	s.st.mu.Lock()
	sum := s.st.hash.Sum(nil)
	s.st.mu.Unlock()
	if subtle.ConstantTimeCompare(sum, trailer) != 1 {
		s.failed = ErrDigestMismatch
		// The state is poisoned: the offset says everything landed but the
		// hash is wrong, so no resume can ever verify. Delete it so a fresh
		// retry of the session starts clean instead of inheriting the
		// corruption.
		s.l.dropSession(s.hdr.Session, s.st)
		return s.failed
	}
	s.verified = true
	s.l.dropSession(s.hdr.Session, s.st)
	return nil
}

// Verified reports whether the digest trailer matched (only meaningful
// after Read returned io.EOF with digesting enabled).
func (s *ServerConn) Verified() bool { return s.verified }

// Write sends backward-channel bytes toward the initiator.
func (s *ServerConn) Write(p []byte) (int, error) { return s.nc.Write(p) }

// Close tears the sublink down. Session state is retained for resumption
// unless the stream completed.
func (s *ServerConn) Close() error { return s.nc.Close() }

// RemoteAddr returns the upstream hop's address.
func (s *ServerConn) RemoteAddr() net.Addr { return s.nc.RemoteAddr() }
