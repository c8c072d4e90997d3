package main

import (
	"bytes"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lsl"
)

// opRec is everything the harness observes about one transfer, all on
// the one process clock: the initiator's call boundaries, when the stack
// first and last touched the payload source, and when the target read
// the first and the last verified byte.
type opRec struct {
	id     lsl.SessionID
	client int
	bytes  int64

	start    int64 // public call entered
	end      int64 // public call returned (delivery confirmed to the caller)
	attempts int   // sessions the engine dialed for this transfer
	err      error // initiator-side failure

	src timedSource

	// Target side, written by the sink before done is closed.
	firstByte int64
	delivered int64
	verified  bool
	done      chan struct{}
}

// settled reports whether the target has given its verdict; the target's
// fields may be read only once it has.
func (r *opRec) settled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// ok reports a transfer that completed on both sides and verified.
func (r *opRec) ok() bool { return r.err == nil && r.settled() && r.verified }

// timedSource is the payload source handed to the stack. It records when
// the stack first touches it (the session is open and ready to carry
// payload: lsl.Dial has returned) and when its last byte has been read
// (everything left the initiator's hands; what remains is confirmation).
// It deliberately offers no WriterTo, so the stack's own copy loop runs.
type timedSource struct {
	r     *bytes.Reader
	size  int64
	first atomic.Int64
	last  atomic.Int64
}

func (s *timedSource) reset(payload []byte) {
	s.r = bytes.NewReader(payload)
	s.size = int64(len(payload))
	s.first.Store(0)
	s.last.Store(0)
}

func (s *timedSource) touch() {
	if s.first.Load() == 0 {
		s.first.CompareAndSwap(0, now())
	}
}

func (s *timedSource) Read(p []byte) (int, error) {
	s.touch()
	n, err := s.r.Read(p)
	if n > 0 && s.r.Len() == 0 {
		s.last.Store(now())
	}
	return n, err
}

func (s *timedSource) Seek(off int64, whence int) (int64, error) {
	s.touch()
	return s.r.Seek(off, whence)
}

func (s *timedSource) ReadAt(p []byte, off int64) (int, error) {
	s.touch()
	n, err := s.r.ReadAt(p, off)
	if n > 0 && off+int64(n) >= s.size {
		s.last.Store(now())
	}
	return n, err
}

// registry matches a session arriving at the target to the transfer that
// opened it, by session ID.
type registry struct {
	mu  sync.Mutex
	ops map[lsl.SessionID]*opRec
}

func newRegistry() *registry { return &registry{ops: make(map[lsl.SessionID]*opRec)} }

func (g *registry) add(r *opRec) {
	g.mu.Lock()
	g.ops[r.id] = r
	g.mu.Unlock()
}

func (g *registry) take(id lsl.SessionID) *opRec {
	g.mu.Lock()
	r := g.ops[id]
	delete(g.ops, id)
	g.mu.Unlock()
	return r
}

// sink is the session target: it accepts sessions, reads each to its end
// while checksumming, and verifies what arrived against the seeded
// payload — the MD5 trailer for digesting sessions, byte count plus
// CRC32C otherwise.
type sink struct {
	ln      *lsl.Listener
	reg     *registry
	wantLen int64
	wantCRC uint32
	wg      sync.WaitGroup
}

var sinkBufs = sync.Pool{New: func() any { b := make([]byte, 256<<10); return &b }}

func startSink(ln *lsl.Listener, reg *registry, payload []byte) *sink {
	s := &sink{ln: ln, reg: reg, wantLen: int64(len(payload)), wantCRC: crc32c(payload)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			sc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serve(sc)
		}
	}()
	return s
}

func (s *sink) serve(sc *lsl.ServerConn) {
	defer s.wg.Done()
	defer sc.Close()
	rec := s.reg.take(sc.SessionID())
	bp := sinkBufs.Get().(*[]byte)
	defer sinkBufs.Put(bp)
	buf := *bp
	var n int64
	var crc uint32
	var first int64
	var rerr error
	for {
		k, err := sc.Read(buf)
		if k > 0 {
			if first == 0 {
				first = now()
			}
			crc = crc32.Update(crc, castagnoli, buf[:k])
			n += int64(k)
		}
		if err != nil {
			if err != io.EOF {
				rerr = err
			}
			break
		}
	}
	if rec == nil {
		return // warm-up or calibration traffic nobody is waiting on
	}
	rec.firstByte = first
	rec.delivered = now()
	rec.verified = rerr == nil && n == s.wantLen && crc == s.wantCRC &&
		(!sc.Digesting() || sc.Verified())
	close(rec.done)
}

// close stops the accept loop and waits for sessions in progress.
func (s *sink) close() {
	s.ln.Close()
	s.wg.Wait()
}

// awaitDelivery waits for the target's verdict on rec, bounded so a lost
// session counts as a failure instead of wedging the run.
func awaitDelivery(rec *opRec, limit time.Duration) {
	if rec.settled() {
		return
	}
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-rec.done:
	case <-t.C:
	}
}

// crcWriter is the reassembly output of a striped receive: it checksums
// the logical stream and notes when its first and last bytes landed.
type crcWriter struct {
	n     int64
	crc   uint32
	first int64
	last  int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	t := now()
	if w.first == 0 {
		w.first = t
	}
	w.last = t
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += int64(len(p))
	return len(p), nil
}
