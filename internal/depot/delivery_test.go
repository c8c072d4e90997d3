package depot

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/mux"
	"lsl/internal/wire"
)

// transports names the two kinds of delivery sublink: a classic
// connection from a classic depot, a trunk stream from a Mux depot.
var transports = []struct {
	name  string
	trunk bool
}{{"classic", false}, {"trunk", true}}

// scriptedTarget runs play on every session sublink dialed at it: classic
// connections, or streams on trunks when trunk is set (otherwise it
// refuses a trunk hello at its magic, as a target that predates trunks
// does). play gets the
// sublink's sequence number from 1. Every sublink is closed at cleanup,
// so a script may simply return to hold one open.
func scriptedTarget(t *testing.T, trunk bool, play func(n int, nc net.Conn, hdr *wire.OpenHeader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []io.Closer
	hold := func(c io.Closer) {
		mu.Lock()
		held = append(held, c)
		mu.Unlock()
	}
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	var seq atomic.Int32
	serve := func(nc net.Conn) {
		hold(nc)
		hdr, err := wire.ReadOpenHeader(nc)
		if err != nil {
			nc.Close()
			return
		}
		play(int(seq.Add(1)), nc, hdr)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if !trunk {
				go serve(nc)
				continue
			}
			go func() {
				link, err := mux.Server(nc, mux.LinkConfig{})
				if err != nil {
					nc.Close()
					return
				}
				hold(link)
				for {
					st, err := link.AcceptStream()
					if err != nil {
						return
					}
					go serve(st)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// acceptAndRead is a well-behaved target: accept, read to EOF, hand the
// bytes over, hang up.
func acceptAndRead(nc net.Conn, hdr *wire.OpenHeader, got chan<- []byte) {
	nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	data, err := io.ReadAll(nc)
	hangUp(nc)
	if err == nil {
		got <- data
	}
}

// hangUp ends a sublink cleanly: a trunk stream closed with its write
// side still open resets the peer instead.
func hangUp(nc net.Conn) {
	halfClose(nc)
	nc.Close()
}

// forwardHeader is the header a depot at hop 0 delivers to target.
func forwardHeader(target string, flags uint16, contentLen int) *wire.OpenHeader {
	return &wire.OpenHeader{
		Flags:      flags,
		Session:    wire.NewSessionID(),
		HopIndex:   1,
		Route:      []string{"depot.invalid:1", target},
		ContentLen: uint64(contentLen),
	}
}

// memStage is payload committed to an in-memory custody stage, for
// attempts a test drives itself.
func memStage(t *testing.T, payload []byte) *custody.Stager {
	t.Helper()
	st := custody.StageInMemory(int64(len(payload)))
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	return st
}

// stageThrough uploads payload (digested) into the depot's custody for
// target and returns once custody is committed.
func stageThrough(t *testing.T, depotAddr, target string, payload []byte) {
	t.Helper()
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitCustody(); err != nil {
		t.Fatal(err)
	}
}

// withTrailer is a digested payload as the depot stores and forwards it.
func withTrailer(payload []byte) []byte {
	sum := md5.Sum(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// A target that refuses the delivery after the payload started streaming
// behind the header: the attempt fails with the typed refusal, code
// intact, not as a broken pipe.
func TestDeliveryRejectedBehindPipelinedPayload(t *testing.T) {
	payload := bytes.Repeat([]byte("refused!"), 128<<10) // 1 MiB
	for _, tr := range transports {
		for _, code := range []uint8{wire.CodeRejectBusy, wire.CodeRejectRoute} {
			t.Run(tr.name+"/"+wire.CodeString(code), func(t *testing.T) {
				sawPayload := make(chan error, 1)
				target := scriptedTarget(t, tr.trunk, func(_ int, nc net.Conn, hdr *wire.OpenHeader) {
					// The first payload bytes arrive before anyone answered.
					nc.SetReadDeadline(time.Now().Add(5 * time.Second))
					_, err := io.ReadFull(nc, make([]byte, 64<<10))
					sawPayload <- err
					nc.Write((&wire.AcceptFrame{Code: code, Session: hdr.Session}).Encode())
					halfClose(nc)
					io.Copy(io.Discard, nc)
					nc.Close()
				})
				d, _ := stagedDepot(t, Config{Mux: tr.trunk})
				err := d.attemptDelivery(context.Background(), target, forwardHeader(target, 0, len(payload)), memStage(t, payload))
				if perr := <-sawPayload; perr != nil {
					t.Fatalf("no payload behind the header before the accept: %v", perr)
				}
				if !errors.Is(err, core.ErrRejected) || !strings.Contains(err.Error(), wire.CodeString(code)) {
					t.Fatalf("attempt = %v, want ErrRejected: %s", err, wire.CodeString(code))
				}
			})
		}
	}
}

// A target that takes the delivery and never answers costs one attempt
// the handshake timeout, not more; the next attempt delivers.
func TestDeliveryAcceptNeverComes(t *testing.T) {
	payload := bytes.Repeat([]byte("mute"), 16<<10)
	const handshake = 300 * time.Millisecond
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			got := make(chan []byte, 4)
			target := scriptedTarget(t, tr.trunk, func(n int, nc net.Conn, hdr *wire.OpenHeader) {
				if n == 1 {
					io.Copy(io.Discard, nc) // swallow everything, answer nothing
					return
				}
				acceptAndRead(nc, hdr, got)
			})
			d, depotAddr := stagedDepot(t, Config{Mux: tr.trunk, handshakeTimeout: handshake, StageRetryInterval: 20 * time.Millisecond})
			start := time.Now()
			stageThrough(t, depotAddr, target, payload)
			select {
			case data := <-got:
				if !bytes.Equal(data, withTrailer(payload)) {
					t.Fatalf("delivered %d bytes, want the %d stored bytes", len(data), len(payload)+wire.DigestLen)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("never delivered (stats %+v)", d.Stats())
			}
			if took := time.Since(start); took > 10*handshake {
				t.Fatalf("delivery took %v behind a mute first attempt, want about the %v handshake timeout", took, handshake)
			}
			if n := d.Stats().StagedDeliveryAttempts; n != 2 {
				t.Fatalf("attempts = %d, want 2", n)
			}
		})
	}
}

// A target that resets mid-payload gets the payload again: the retry
// delivers it byte-exact, exactly once, and the attempt counter shows
// both attempts.
func TestDeliveryResetMidPayloadRetries(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			got := make(chan []byte, 4)
			target := scriptedTarget(t, tr.trunk, func(n int, nc net.Conn, hdr *wire.OpenHeader) {
				if n == 1 {
					nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
					io.ReadFull(nc, make([]byte, 256<<10))
					if tc, ok := nc.(*net.TCPConn); ok {
						tc.SetLinger(0) // RST, not FIN
					}
					nc.Close()
					return
				}
				acceptAndRead(nc, hdr, got)
			})
			d, depotAddr := stagedDepot(t, Config{Mux: tr.trunk, StageRetryInterval: 20 * time.Millisecond})
			stageThrough(t, depotAddr, target, payload)
			select {
			case data := <-got:
				if !bytes.Equal(data, withTrailer(payload)) {
					t.Fatalf("redelivered %d bytes, not the stored payload", len(data))
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("never redelivered (stats %+v)", d.Stats())
			}
			waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == 1 })
			// The session is over, so a second delivery would already
			// have been a third attempt.
			select {
			case data := <-got:
				t.Fatalf("delivered a second time (%d bytes)", len(data))
			default:
			}
			if st := d.Stats(); st.StagedDelivered != 1 || st.StagedDeliveryAttempts != 2 {
				t.Fatalf("delivered %d in %d attempts, want 1 in 2", st.StagedDelivered, st.StagedDeliveryAttempts)
			}
			var m strings.Builder
			d.Metrics().WritePrometheus(&m)
			if !strings.Contains(m.String(), "lsd_staged_delivery_attempts_total 2\n") {
				t.Fatal("lsd_staged_delivery_attempts_total does not read 2")
			}
		})
	}
}

// Custody holds a staged session's whole payload, so a staged session
// that also asks to resume (no library client opens one; a foreign one
// may) is delivered as a fresh one: the target sees neither flag, and
// the payload follows the header from byte 0 without waiting for the
// accept.
func TestDeliveryOfResumingStagedSessionStartsFresh(t *testing.T) {
	payload := bytes.Repeat([]byte("resume"), 50000)
	stored := withTrailer(payload)
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			early := make(chan error, 1)
			got := make(chan []byte, 1)
			target := scriptedTarget(t, tr.trunk, func(_ int, nc net.Conn, hdr *wire.OpenHeader) {
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				head := make([]byte, 1024)
				_, err := io.ReadFull(nc, head)
				switch {
				case hdr.Flags&(wire.FlagResume|wire.FlagStaged) != 0:
					early <- fmt.Errorf("target saw header flags %#x", hdr.Flags)
				case err != nil:
					early <- fmt.Errorf("no payload ahead of the accept: %w", err)
				default:
					early <- nil
				}
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				rest, _ := io.ReadAll(nc)
				hangUp(nc)
				got <- append(head, rest...)
			})
			d, depotAddr := stagedDepot(t, Config{Mux: tr.trunk})
			c, err := core.Dial(context.Background(),
				core.Route{Via: []string{depotAddr}, Target: target},
				core.WithStaged(), core.WithResume(), core.WithDigest(),
				core.WithContentLength(int64(len(payload))))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SendReader(bytes.NewReader(payload)); err != nil {
				t.Fatal(err)
			}
			if err := c.AwaitCustody(); err != nil {
				t.Fatal(err)
			}
			if err := <-early; err != nil {
				t.Fatal(err)
			}
			if data := <-got; !bytes.Equal(data, stored) {
				t.Fatalf("target got %d bytes, want the %d stored bytes from byte 0", len(data), len(stored))
			}
			waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == 1 })
		})
	}
}

// A target that accepts and stops reading a payload larger than the
// socket buffers wedges the attempt's write; the stage deadline closes the
// sublink under it, the session ends abandoned rather than canceled, and
// nothing the delivery started outlives the depot.
func TestDeliveryWedgedTargetAbortsAtStageDeadline(t *testing.T) {
	payload := make([]byte, 16<<20)
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			// Registered first, so it runs last: after the target and the
			// depot have closed.
			before := runtime.NumGoroutine()
			t.Cleanup(func() {
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond) // no event marks a goroutine's exit: poll the count
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<20)
					t.Errorf("%d goroutines after the depot closed, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
				}
			})
			accepted := make(chan struct{}, 1)
			target := scriptedTarget(t, tr.trunk, func(_ int, nc net.Conn, hdr *wire.OpenHeader) {
				if tc, ok := nc.(*net.TCPConn); ok {
					tc.SetReadBuffer(64 << 10)
				}
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				accepted <- struct{}{}
			})
			d, depotAddr := stagedDepot(t, Config{
				Mux:           tr.trunk,
				StageDeadline: 500 * time.Millisecond,
				SockBuf:       64 << 10,
			})
			stageThrough(t, depotAddr, target, payload)
			<-accepted
			waitStats(t, d, "the session's end", func(st Stats) bool { return st.StagedAborted+st.Canceled+st.StagedDelivered > 0 })
			st := d.Stats()
			if st.StagedAborted != 1 || st.Canceled != 0 || st.StagedDelivered != 0 {
				t.Fatalf("wedged delivery not abandoned at the stage deadline: %+v", st)
			}
			if recent := d.Sessions().Recent; len(recent) == 0 || recent[len(recent)-1].Outcome != OutcomeStagedAborted {
				t.Fatalf("recent sessions %+v, want the last one %s", recent, OutcomeStagedAborted)
			}
		})
	}
}

// Redelivery delays for a fixed jitter seed and session are pinned: the
// lazily seeded source draws the sequence a source seeded up front per
// session drew.
func TestRetryDelaysSequence(t *testing.T) {
	d := New(Config{retryJitterSeed: 42, StageRetryInterval: 100 * time.Millisecond, StageRetryMax: 2 * time.Second})
	defer d.Close()
	id := wire.SessionID{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xff}
	delay := d.retryDelays(id)
	want := []time.Duration{
		99672176, 152314304, 351053533, 628487433, 861029646, 1943439791,
	}
	for i, w := range want {
		if got := delay(i + 1); got != w {
			t.Errorf("attempt %d: delay %v, want %v", i+1, got, w)
		}
	}
}
