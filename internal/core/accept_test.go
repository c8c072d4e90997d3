package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// acceptScenario is what a scripted first hop does once it has read the
// open header.
type acceptScenario int

const (
	peerAccepts acceptScenario = iota
	peerRejects
	peerWrongSession
	peerTruncatesFrame
	peerResets
	// peerMute takes the sublink and then neither reads nor answers: a
	// wedged depot. Not part of the state table; see the stall tests.
	peerMute
)

// peerOffset is the resume offset the scripted hop reports in its accept.
// A real target reports 0 for a fresh session; a distinctive value proves
// where Offset comes from and when.
const peerOffset = 4242

// peerLinger is how much payload the scripted hop swallows behind a
// refusal before it hangs up — the depot's lingering reject in miniature.
const peerLinger = 64 << 10

// abort hangs up the hard way: RST on a classic connection, RESET on a
// trunk stream (a stream whose directions did not both finish cleanly).
func abort(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}

// playAccept is the scripted hop's side of one sublink.
func playAccept(nc net.Conn, sc acceptScenario) {
	hdr, err := wire.ReadOpenHeader(nc)
	if err != nil {
		nc.Close()
		return
	}
	switch sc {
	case peerAccepts:
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session, Offset: peerOffset}).Encode())
		if hdr.Flags&wire.FlagStaged != 0 {
			io.CopyN(io.Discard, nc, int64(hdr.ContentLen))
			nc.Write((&wire.AcceptFrame{Code: wire.CodeCustody, Session: hdr.Session}).Encode())
		} else {
			nc.Write([]byte("pong"))
			io.Copy(io.Discard, nc)
		}
	case peerRejects:
		nc.Write((&wire.AcceptFrame{Code: wire.CodeRejectBusy, Session: hdr.Session}).Encode())
	case peerWrongSession:
		other := hdr.Session
		other[0] ^= 0xff
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: other}).Encode())
	case peerTruncatesFrame:
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode()[:10])
	case peerResets:
		abort(nc)
		return
	}
	if cw, ok := nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	io.CopyN(io.Discard, nc, peerLinger)
	nc.Close()
}

// serveSublinks runs fn on a goroutine of its own for every sublink dialed
// at the returned address: classic connections, or streams on trunks when
// trunk is set.
func serveSublinks(t *testing.T, trunk bool, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if !trunk {
				go fn(nc)
				continue
			}
			go func() {
				link, err := mux.Server(nc, mux.LinkConfig{})
				if err != nil {
					nc.Close()
					return
				}
				defer link.Close()
				for {
					st, err := link.AcceptStream()
					if err != nil {
						return
					}
					go fn(st)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// startAcceptPeer runs a scripted first hop for every sublink dialed at
// it: classic connections, or streams on trunks when trunk is set.
func startAcceptPeer(t *testing.T, trunk bool, sc acceptScenario) string {
	t.Helper()
	if sc != peerMute {
		return serveSublinks(t, trunk, func(nc net.Conn) { playAccept(nc, sc) })
	}
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range held {
			nc.Close()
		}
	})
	return serveSublinks(t, trunk, func(nc net.Conn) {
		mu.Lock()
		held = append(held, nc)
		mu.Unlock()
	})
}

// TestConnAcceptStates walks the accept state machine of a Conn:
// {synchronous, pipelined} x {classic connection, trunk stream} x what the
// first hop answers. One code path reads the accept, so the verdicts must
// agree everywhere: a refusal is ErrRejected from whichever call meets it
// (Dial when synchronous; Read, AwaitCustody or a failing Write when
// pipelined), anything else malformed is an error that is not a
// rejection, and after a good accept the application's bytes arrive
// intact with no frame in front.
func TestConnAcceptStates(t *testing.T) {
	scenarios := []struct {
		name string
		sc   acceptScenario
	}{
		{"accept", peerAccepts},
		{"reject", peerRejects},
		{"wrong-session", peerWrongSession},
		{"truncated-frame", peerTruncatesFrame},
		{"reset-before-frame", peerResets},
	}
	payload := randBytes(1000, 90)
	for _, pipelined := range []bool{false, true} {
		for _, trunk := range []bool{false, true} {
			for _, s := range scenarios {
				mode, transport := "synchronous", "classic"
				if pipelined {
					mode = "pipelined"
				}
				if trunk {
					transport = "trunk"
				}
				t.Run(mode+"/"+transport+"/"+s.name, func(t *testing.T) {
					peer := startAcceptPeer(t, trunk, s.sc)
					route := core.Route{Via: []string{peer}, Target: "target.invalid:1"}
					dial := func(t *testing.T, extra ...core.Option) (*core.Conn, error) {
						opts := append([]core.Option{core.WithContentLength(int64(len(payload)))}, extra...)
						if pipelined {
							opts = append(opts, core.WithEager())
						}
						if trunk {
							pool := mux.NewPool(mux.PoolConfig{})
							t.Cleanup(func() { pool.Close() })
							opts = append(opts, core.WithDialer(pool.DialContext))
						}
						c, err := core.Dial(context.Background(), route, opts...)
						if err == nil {
							t.Cleanup(func() { c.Close() })
							c.SetDeadline(time.Now().Add(10 * time.Second))
						}
						return c, err
					}
					// verdict checks an error from the call that met the
					// accept against the scenario.
					verdict := func(t *testing.T, what string, err error) {
						t.Helper()
						switch {
						case s.sc == peerAccepts && err != nil:
							t.Fatalf("%s: %v", what, err)
						case s.sc == peerRejects && !errors.Is(err, core.ErrRejected):
							t.Fatalf("%s = %v, want ErrRejected", what, err)
						case s.sc > peerRejects && (err == nil || errors.Is(err, core.ErrRejected)):
							t.Fatalf("%s = %v, want a failure that is not a rejection", what, err)
						}
					}
					// early allows a forward-path call of a pipelined
					// session to fail before the accept was asked for —
					// but never by misnaming the failure.
					early := func(t *testing.T, what string, err error) {
						t.Helper()
						if err == nil {
							return
						}
						if !pipelined || s.sc == peerAccepts {
							t.Fatalf("%s: %v", what, err)
						}
						verdict(t, what, err)
					}

					t.Run("read", func(t *testing.T) {
						c, err := dial(t)
						if !pipelined {
							verdict(t, "Dial", err)
							if err != nil {
								return
							}
							if c.Offset() != peerOffset {
								t.Fatalf("Offset after a synchronous Dial = %d, want %d", c.Offset(), peerOffset)
							}
						} else if err != nil {
							t.Fatalf("a pipelined Dial waits for no accept, yet: %v", err)
						} else if c.Offset() != 0 {
							t.Fatalf("Offset before the accept was seen = %d, want 0", c.Offset())
						}
						_, err = c.Write(payload)
						early(t, "Write", err)
						early(t, "CloseWrite", c.CloseWrite())
						buf := make([]byte, 4)
						_, err = io.ReadFull(c, buf)
						verdict(t, "Read", err)
						if err != nil {
							if _, again := c.Read(buf); again == nil || errors.Is(again, core.ErrRejected) != errors.Is(err, core.ErrRejected) {
								t.Fatalf("second Read = %v after %v: the verdict must not change", again, err)
							}
							return
						}
						if string(buf) != "pong" {
							t.Fatalf("backward channel delivered %q, want the application's bytes and nothing in front", buf)
						}
						if c.Offset() != peerOffset {
							t.Fatalf("Offset once the accept was seen = %d, want %d", c.Offset(), peerOffset)
						}
						if rest, err := io.ReadAll(c); err != nil || len(rest) != 0 {
							t.Fatalf("after the reply: %d bytes, %v; want a clean EOF", len(rest), err)
						}
					})

					t.Run("custody", func(t *testing.T) {
						c, err := dial(t, core.WithStaged())
						if !pipelined {
							verdict(t, "Dial", err)
						}
						if err != nil {
							return
						}
						_, err = c.Write(payload)
						early(t, "Write", err)
						early(t, "CloseWrite", c.CloseWrite())
						verdict(t, "AwaitCustody", c.AwaitCustody())
					})

					if !pipelined || s.sc == peerAccepts {
						return
					}
					// The hop hangs up on a sender that is still sending:
					// the write that breaks must say why.
					t.Run("write-until-cut", func(t *testing.T) {
						c, err := dial(t, core.WithContentLength(-1))
						if err != nil {
							t.Fatal(err)
						}
						chunk := bytes.Repeat([]byte{0xA5}, 64<<10)
						for sent := 0; sent < 64<<20; sent += len(chunk) {
							if _, err = c.Write(chunk); err != nil {
								break
							}
						}
						if err == nil {
							err = c.CloseWrite()
						}
						if err == nil {
							t.Fatal("64 MiB into a hop that hung up, and no write failed")
						}
						verdict(t, "Write", err)
					})
				})
			}
		}
	}
}

// dialMute opens a pipelined session at a first hop that takes the sublink
// and never reads it.
func dialMute(t *testing.T, trunk bool, extra ...core.Option) *core.Conn {
	t.Helper()
	return dialEager(t, startAcceptPeer(t, trunk, peerMute), trunk, extra...)
}

// dialEager opens a pipelined session whose first hop is peer, on a trunk
// when trunk is set; its route ends at a target nobody dials.
func dialEager(t *testing.T, peer string, trunk bool, extra ...core.Option) *core.Conn {
	t.Helper()
	opts := append([]core.Option{core.WithEager()}, extra...)
	if trunk {
		pool := mux.NewPool(mux.PoolConfig{})
		t.Cleanup(func() { pool.Close() })
		opts = append(opts, core.WithDialer(pool.DialContext))
	}
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{peer}, Target: "target.invalid:1"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A pipelined open is bounded like a synchronous one even though nobody
// has asked for the accept yet: SendReader into a wedged first hop, with
// more payload than the transport will buffer, ends at the handshake
// timeout and says that the accept never came.
func TestPipelinedSendReaderBoundsStalledAccept(t *testing.T) {
	payload := make([]byte, 64<<20)
	for _, trunk := range []bool{false, true} {
		name := "classic"
		if trunk {
			name = "trunk"
		}
		t.Run(name, func(t *testing.T) {
			c := dialMute(t, trunk,
				core.WithContentLength(int64(len(payload))),
				core.WithHandshakeTimeout(300*time.Millisecond))
			start := time.Now()
			err := c.SendReader(bytes.NewReader(payload))
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("SendReader into a wedged hop took %v, want about the 300ms handshake timeout", elapsed)
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() || errors.Is(err, core.ErrRejected) {
				t.Fatalf("err = %v, want the accept's timeout", err)
			}
			if _, rerr := c.Read(make([]byte, 1)); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("Read after the stall = %v, want the same verdict %v", rerr, err)
			}
		})
	}
}

// SetDeadline is how a net.Conn's blocked I/O is cancelled from another
// goroutine; it must get through to a first Write that is stalled with the
// header still in its hands, and to a reader waiting for the accept
// behind it.
func TestSetDeadlineInterruptsStalledFirstWrite(t *testing.T) {
	payload := make([]byte, 64<<20)
	for _, trunk := range []bool{false, true} {
		name := "classic"
		if trunk {
			name = "trunk"
		}
		t.Run(name, func(t *testing.T) {
			c := dialMute(t, trunk)
			werr := make(chan error, 1)
			go func() {
				_, err := c.Write(payload)
				werr <- err
			}()
			rerr := make(chan error, 1)
			go func() {
				_, err := c.Read(make([]byte, 1))
				rerr <- err
			}()
			time.Sleep(100 * time.Millisecond) // no event marks a goroutine as parked: give both time to block
			set := make(chan error, 1)
			go func() { set <- c.SetDeadline(time.Now().Add(100 * time.Millisecond)) }()
			select {
			case err := <-set:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("SetDeadline waited behind the stalled write")
			}
			for what, ch := range map[string]chan error{"Write": werr, "Read": rerr} {
				select {
				case err := <-ch:
					var ne net.Error
					if !errors.As(err, &ne) || !ne.Timeout() {
						t.Fatalf("%s = %v, want a timeout", what, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s still blocked 5s after the deadline", what)
				}
			}
		})
	}
}

// closeSignalConn is a classic sublink that reports its first Close.
type closeSignalConn struct {
	*net.TCPConn
	once   sync.Once
	closed chan struct{}
}

func (c *closeSignalConn) Close() error {
	err := c.TCPConn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

// gatedReader yields first, then blocks until gate closes and ends.
type gatedReader struct {
	first []byte
	gate  <-chan struct{}
}

func (r *gatedReader) Read(p []byte) (int, error) {
	if len(r.first) > 0 {
		n := copy(p, r.first)
		r.first = r.first[n:]
		return n, nil
	}
	<-r.gate
	return 0, io.EOF
}

func (r *gatedReader) Seek(int64, int) (int64, error) { return 0, nil }

// SendReader's guard closes the sublink once it reads a refusal; when that
// lands before SendReader's own half-close, the half-close fails on a
// closed transport, and that failure must still say the session was
// refused — otherwise a caller classifies a permanent refusal as a
// transient transport error and retries it.
func TestSendReaderRefusalBeforeCloseWrite(t *testing.T) {
	peer := startAcceptPeer(t, false, peerRejects)
	closed := make(chan struct{})
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &closeSignalConn{TCPConn: nc.(*net.TCPConn), closed: closed}, nil
	}
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{peer}, Target: "target.invalid:1"},
		core.WithEager(), core.WithDialer(dial), core.WithHandshakeTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The payload's tail is held back until the guard has closed the
	// sublink, so the half-close is the first call to meet it.
	err = c.SendReader(&gatedReader{first: randBytes(1000, 91), gate: closed})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("SendReader = %v, want ErrRejected", err)
	}
}

// Offset and AcceptDuration may be polled by the writer while the reader
// meets the lazy accept (run under -race).
func TestOffsetConcurrentWithLazyAccept(t *testing.T) {
	peer := startAcceptPeer(t, false, peerAccepts)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{peer}, Target: "target.invalid:1"}, core.WithEager())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	seen := make(chan struct{})
	go func() {
		defer close(seen)
		for c.Offset() != peerOffset || c.AcceptDuration() == 0 {
			if _, err := c.Write([]byte("x")); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("Read = %q, %v", buf, err)
	}
	<-seen
	if c.Offset() != peerOffset {
		t.Fatalf("Offset = %d, want %d", c.Offset(), peerOffset)
	}
}
