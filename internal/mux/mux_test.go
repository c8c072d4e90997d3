package mux

import (
	"bytes"
	"crypto/md5"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"lsl/internal/emu"
)

// linkPair establishes a client/server link pair over loopback TCP.
func linkPair(t testing.TB, cfg LinkConfig) (*Link, *Link) {
	t.Helper()
	return linkPairVia(t, cfg, cfg, 0)
}

// linkPairVia establishes a client/server link pair, each end with its own
// config, over loopback TCP through an emu proxy that delays each
// direction by delay (straight, with no proxy, when delay is zero).
func linkPairVia(t testing.TB, ccfg, scfg LinkConfig, delay time.Duration) (*Link, *Link) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	if delay > 0 {
		p := emu.NewProxy(addr, emu.Shape{Delay: delay}, emu.Shape{Delay: delay})
		if addr, err = p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close) // after the links' cleanup below: relays end when the links close
	}
	srvCh := make(chan *Link, 1)
	errCh := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		l, err := Server(nc, scfg)
		if err != nil {
			errCh <- err
			return
		}
		srvCh <- l
	}()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	client, err := Client(nc, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case srv := <-srvCh:
		t.Cleanup(func() { client.Close(); srv.Close() })
		return client, srv
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("server link never established")
	}
	return nil, nil
}

func acceptOne(t *testing.T, l *Link) *Stream {
	t.Helper()
	ch := make(chan *Stream, 1)
	go func() {
		s, err := l.AcceptStream()
		if err != nil {
			return
		}
		ch <- s
	}()
	select {
	case s := <-ch:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptStream timed out")
		return nil
	}
}

// parkSignal returns a channel that closes once a Read on s has parked in
// its wait for data. It wraps the mutex under s's read cond: the cond
// registers a waiter before it unlocks, so from the moment the channel
// closes no wakeup can miss the reader.
func parkSignal(s *Stream) <-chan struct{} {
	l := &signalLocker{Mutex: &s.mu, unlocked: make(chan struct{})}
	s.mu.Lock()
	s.readCond = sync.NewCond(l)
	s.mu.Unlock()
	return l.unlocked
}

// signalLocker closes unlocked the first time it is unlocked.
type signalLocker struct {
	*sync.Mutex
	once     sync.Once
	unlocked chan struct{}
}

func (l *signalLocker) Unlock() {
	l.Mutex.Unlock()
	l.once.Do(func() { close(l.unlocked) })
}

// rxWindowOf reads a stream's current receive window.
func rxWindowOf(s *Stream) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rx.size
}

func TestStreamRoundTrip(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write([]byte("hello depot")); err != nil {
		t.Fatal(err)
	}
	ss := acceptOne(t, srv)
	buf := make([]byte, 64)
	n, err := ss.Read(buf)
	if err != nil || string(buf[:n]) != "hello depot" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	// Backward direction.
	if _, err := ss.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	n, err = cs.Read(buf)
	if err != nil || string(buf[:n]) != "ack" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
	// Half-close propagates EOF after buffered data drains.
	if err := cs.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Read(buf); err != io.EOF {
		t.Fatalf("server expected EOF, got %v", err)
	}
	if _, err := cs.Write([]byte("x")); !errors.Is(err, ErrWriteClosed) {
		t.Fatalf("write after CloseWrite: %v", err)
	}
	ss.CloseWrite()
	if _, err := cs.Read(buf); err != io.EOF {
		t.Fatalf("client expected EOF, got %v", err)
	}
	cs.Close()
	ss.Close()
	if n := client.NumStreams(); n != 0 {
		t.Fatalf("client link still has %d streams", n)
	}
}

// TestFlowControlIntegrity pushes far more data than the stream window
// through a deliberately slow reader, about 1 KiB per millisecond: the
// credit loop must throttle the writer without corrupting or deadlocking,
// byte-exact end to end. The reader, not the window, limits this stream,
// so its window must stay at the initial size.
func TestFlowControlIntegrity(t *testing.T) {
	const window = 8 << 10
	client, srv := linkPair(t, LinkConfig{window: window})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	rand.Read(payload)
	want := md5.Sum(payload)

	var wg sync.WaitGroup
	wg.Add(1)
	var got [md5.Size]byte
	var readErr error
	var grown int
	go func() {
		defer wg.Done()
		ss := acceptOne(t, srv)
		defer ss.Close()
		h := md5.New()
		buf := make([]byte, 1234) // odd size to shear chunk boundaries
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			<-tick.C
			n, err := ss.Read(buf)
			h.Write(buf[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				return
			}
		}
		copy(got[:], h.Sum(nil))
		grown = rxWindowOf(ss)
	}()
	if _, err := cs.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cs.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if got != want {
		t.Fatal("payload corrupted across flow-controlled stream")
	}
	if grown != window {
		t.Fatalf("a reader draining ~1 KiB/ms grew the window from %d to %d bytes", window, grown)
	}
}

// TestConcurrentStreams multiplexes many echoing sessions over one trunk.
func TestConcurrentStreams(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{window: 16 << 10})
	const streams = 20
	go func() {
		for {
			s, err := srv.AcceptStream()
			if err != nil {
				return
			}
			go func(s *Stream) {
				defer s.Close()
				io.Copy(s, s)
				s.CloseWrite()
			}(s)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := client.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			defer cs.Close()
			msg := make([]byte, 50<<10)
			rand.Read(msg)
			go func() {
				cs.Write(msg)
				cs.CloseWrite()
			}()
			echo, err := io.ReadAll(cs)
			if err != nil {
				errs <- fmt.Errorf("stream %d: %w", i, err)
				return
			}
			if !bytes.Equal(echo, msg) {
				errs <- fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hw := client.HighWater(); hw < 2 {
		t.Errorf("expected concurrent streams on one link, high water %d", hw)
	}
}

func TestReadDeadline(t *testing.T) {
	client, _ := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = cs.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline fired far too late")
	}
	// Clearing the deadline makes the stream usable again.
	cs.SetReadDeadline(time.Time{})
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error is not a net timeout: %v", err)
	}
}

// TestWriteDeadlineOnCreditStall: a reader that never drains leaves the
// writer blocked on credit; the write deadline must unblock it.
func TestWriteDeadlineOnCreditStall(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{window: 4 << 10})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	_ = acceptOne(t, srv) // accepted but never read: no credit comes back
	cs.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	_, err = cs.Write(make([]byte, 64<<10))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
}

// TestCloseStopsDeadlineTimers: a deadline's timer holds its stream until
// it fires, so Close must stop armed timers — or a session's 30 s confirm
// deadline keeps each closed stream in memory for 30 s.
func TestCloseStopsDeadlineTimers(t *testing.T) {
	client, _ := linkPair(t, LinkConfig{})
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.SetDeadline(time.Now().Add(time.Hour))
	s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rdeadline.timer != nil || s.wdeadline.timer != nil {
		t.Fatal("a closed stream left its deadline timers armed")
	}
}

func TestLinkCloseUnblocksStreams(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte("x"))
	_ = acceptOne(t, srv)
	parked := parkSignal(cs)
	done := make(chan error, 1)
	go func() {
		_, err := cs.Read(make([]byte, 1))
		done <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never blocked")
	}
	srv.Close() // trunk dies under the session
	select {
	case err := <-done:
		if err == nil || err == io.EOF {
			t.Fatalf("expected link failure error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never unblocked after link close")
	}
}

func TestResetAbortsPeer(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte("x"))
	ss := acceptOne(t, srv)
	buf := make([]byte, 1)
	if _, err := ss.Read(buf); err != nil {
		t.Fatal(err)
	}
	cs.Close() // mid-stream close → RESET
	if _, err := ss.Read(buf); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("expected stream reset, got %v", err)
	}
}

// TestResetKeepsBufferedDataReadable pins the ordering a depot's reject
// relies on: a peer that writes a last message and then aborts the stream
// has not taken the message back. The writer learns of the RESET first
// (its Write fails), and the bytes that arrived ahead of it still read.
func TestResetKeepsBufferedDataReadable(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte("x"))
	ss := acceptOne(t, srv)
	ss.Write([]byte("refused"))
	ss.Close() // unread "x", no half-close → RESET behind the message

	cs.SetDeadline(time.Now().Add(5 * time.Second))
	chunk := make([]byte, 32<<10)
	for err == nil {
		_, err = cs.Write(chunk)
	}
	if !errors.Is(err, ErrStreamReset) {
		t.Fatalf("write into an aborted stream = %v, want ErrStreamReset", err)
	}
	buf := make([]byte, 16)
	n, err := io.ReadFull(cs, buf[:7])
	if err != nil || string(buf[:n]) != "refused" {
		t.Fatalf("read after the reset = %q, %v; want the message sent ahead of it", buf[:n], err)
	}
	if _, err := cs.Read(buf); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read past the buffered message = %v, want ErrStreamReset", err)
	}
}

func TestDrainClosesIdleLink(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	srv.Drain()
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle drain never closed the link")
	}
	// The client side observes the close too.
	select {
	case <-client.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client link never noticed the close")
	}
	if _, err := client.OpenStream(); err == nil {
		t.Fatal("OpenStream succeeded on dead link")
	}
}

func TestDrainWaitsForLiveStream(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cs.Write([]byte("hello"))
	ss := acceptOne(t, srv)
	srv.Drain()
	select {
	case <-srv.Done():
		t.Fatal("drain closed the link under a live stream")
	case <-time.After(50 * time.Millisecond):
	}
	// The live stream still works.
	buf := make([]byte, 16)
	if n, err := ss.Read(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read on draining link: %q, %v", buf[:n], err)
	}
	ss.Close()
	cs.Close()
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drained link never closed after last stream finished")
	}
}
