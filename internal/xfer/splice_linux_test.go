package xfer

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.AcceptTCP()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// rig is one relay hop over loopback: what the test writes to in arrives
// at src, a copy moves it from src to dst, and it comes out of out.
type rig struct{ in, src, dst, out *net.TCPConn }

func newRig(t testing.TB) rig {
	in, src := tcpPair(t)
	dst, out := tcpPair(t)
	return rig{in, src, dst, out}
}

// plainConn hides a connection's type, so a copy takes the buffered loop.
type plainConn struct{ io.ReadWriter }

// writePieces writes p to w in random pieces of up to 64 KiB, then
// half-closes w.
func writePieces(w *net.TCPConn, p []byte, rng *rand.Rand) {
	for len(p) > 0 {
		n := min(len(p), 1+rng.Intn(64<<10))
		if _, err := w.Write(p[:n]); err != nil {
			return
		}
		p = p[n:]
	}
	w.CloseWrite()
}

// TestSpliceByteExact: the splice path delivers exactly what the buffered
// loop delivers, for empty, one-byte, pipe-sized ±1 and multi-round
// payloads written in random pieces; the counters see every byte, no
// round exceeds the pipe, and the pipe goes back to the pool empty.
func TestSpliceByteExact(t *testing.T) {
	pool := NewPool(64 << 10)
	rng := rand.New(rand.NewSource(1))
	dropped := droppedPipes.Load()
	for _, size := range []int{0, 1, pool.Size() - 1, pool.Size(), pool.Size() + 1, 3 << 20} {
		payload := make([]byte, size)
		rng.Read(payload)
		for _, spliced := range []bool{true, false} {
			r := newRig(t)
			go writePieces(r.in, payload, rand.New(rand.NewSource(rng.Int63())))
			got := make(chan []byte, 1)
			go func() { b, _ := io.ReadAll(r.out); got <- b }()
			var total counter
			var high maxGauge
			cfg := CopyConfig{Counters: []Adder{&total}, HighWater: &high}
			var n int64
			var err error
			if spliced {
				var handled bool
				n, handled, err = copySplice(r.dst, r.src, pool, &cfg)
				if !handled {
					t.Fatalf("size %d: TCP to TCP was not spliced", size)
				}
			} else {
				n, err = CopyCounted(plainConn{r.dst}, plainConn{r.src}, pool, cfg)
			}
			r.dst.CloseWrite()
			if b := <-got; err != nil || n != int64(size) || !bytes.Equal(b, payload) {
				t.Fatalf("size %d spliced=%v: n=%d err=%v, %d bytes out, equal=%v", size, spliced, n, err, len(b), bytes.Equal(b, payload))
			}
			if total.v != uint64(size) || high.v > int64(pool.Size()) {
				t.Fatalf("size %d spliced=%v: counted %d, high water %d", size, spliced, total.v, high.v)
			}
		}
	}
	if d := droppedPipes.Load() - dropped; d != 0 {
		t.Fatalf("%d drained pipes closed instead of pooled", d)
	}
}

// TestSpliceHalfClose: both directions of a relay spliced, as a depot
// runs them. The initiator's half-close reaches the target, which still
// answers; its own half-close then reaches the initiator.
func TestSpliceHalfClose(t *testing.T) {
	pool := NewPool(64 << 10)
	r := newRig(t)
	errs := make(chan error, 2)
	relay := func(dst, src *net.TCPConn) {
		_, handled, err := copySplice(dst, src, pool, &CopyConfig{})
		if !handled {
			t.Error("not spliced")
		}
		dst.CloseWrite()
		errs <- err
	}
	go relay(r.dst, r.src)
	go relay(r.src, r.dst)
	r.in.Write([]byte("request"))
	r.in.CloseWrite()
	if b, err := io.ReadAll(r.out); err != nil || string(b) != "request" {
		t.Fatalf("target read %q, %v; want the request, then EOF", b, err)
	}
	r.out.Write([]byte("reply"))
	r.out.CloseWrite()
	if b, err := io.ReadAll(r.in); err != nil || string(b) != "reply" {
		t.Fatalf("initiator read %q, %v; want the reply, then EOF", b, err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpliceDownstreamResetDropsPipe: a destination reset mid-relay ends
// the copy with its error, and the pipe, which still holds the round it
// could not write, is closed rather than pooled.
func TestSpliceDownstreamResetDropsPipe(t *testing.T) {
	pool := NewPool(64 << 10)
	r := newRig(t)
	r.dst.SetWriteBuffer(64 << 10)
	r.out.SetReadBuffer(64 << 10)
	go func() { // never ends the stream: the copy can only end at dst
		chunk := make([]byte, 64<<10)
		for {
			if _, err := r.in.Write(chunk); err != nil {
				return
			}
		}
	}()
	dropped := droppedPipes.Load()
	done := make(chan error, 1)
	go func() {
		_, _, err := copySplice(r.dst, r.src, pool, &CopyConfig{})
		done <- err
	}()
	if _, err := io.ReadFull(r.out, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	r.out.SetLinger(0)
	r.out.Close()
	if err := <-done; err == nil {
		t.Fatal("copy into a reset connection succeeded")
	}
	if d := droppedPipes.Load() - dropped; d != 1 {
		t.Fatalf("%d pipes dropped, want the one that held data", d)
	}
	if pp := pool.pipes.Get(); pp != nil {
		t.Fatal("a pipe holding data went back to the pool")
	}
}

// TestSplicePoolDropClosesPipes: pipes the sync.Pool lets go of are
// closed by the GC, not leaked with their descriptors.
func TestSplicePoolDropClosesPipes(t *testing.T) {
	before := openFDs(t)
	pool := NewPool(64 << 10)
	for i := 0; i < 20; i++ {
		if pool.getPipe() == nil { // dropped, as the sync.Pool drops an idle pipe
			t.Skip("no pipe of 64 KiB")
		}
	}
	for i := 0; i < 1000 && openFDs(t) > before; i++ {
		runtime.GC() // finalizers run after a cycle, on their own goroutine
		runtime.Gosched()
	}
	if n := openFDs(t); n > before {
		t.Fatalf("%d descriptors after the pipes were collected, %d before", n, before)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	return len(ents)
}

// TestSpliceSmallPipeFallsBack: a pipe the kernel will not grow to the
// pool's size (past the per-user pipe budget) is released, and the copy
// takes the buffered loop with nothing consumed.
func TestSpliceSmallPipeFallsBack(t *testing.T) {
	orig := pipeSize
	pipeSize = func(int, int) int { return 8 << 10 }
	defer func() { pipeSize = orig }()
	r := newRig(t)
	pool := NewPool(64 << 10)
	payload := bytes.Repeat([]byte("z"), 100<<10)
	go writePieces(r.in, payload, rand.New(rand.NewSource(2)))
	before := openFDs(t)
	if n, handled, err := copySplice(r.dst, r.src, pool, &CopyConfig{}); handled || n != 0 || err != nil {
		t.Fatalf("n=%d handled=%v err=%v with a two-page pipe", n, handled, err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors after the fallback, %d before: the pipe was kept", after, before)
	}
	go func() {
		CopyCounted(r.dst, r.src, pool, CopyConfig{})
		r.dst.CloseWrite()
	}()
	if b, err := io.ReadAll(r.out); err != nil || !bytes.Equal(b, payload) {
		t.Fatalf("buffered fallback delivered %d bytes, %v", len(b), err)
	}
}

// TestSpliceRoundAllocs pins the splice path at zero allocations per
// round: a pipe's callbacks are made with the pipe, not per round.
func TestSpliceRoundAllocs(t *testing.T) {
	r := newRig(t)
	pp := NewPool(64 << 10).getPipe()
	if pp == nil {
		t.Skip("no pipe of 64 KiB")
	}
	defer pp.close()
	pp.src, _ = r.src.SyscallConn()
	pp.dst, _ = r.dst.SyscallConn()
	chunk, buf := make([]byte, 4<<10), make([]byte, 4<<10)
	allocs := testing.AllocsPerRun(100, func() {
		r.in.Write(chunk)
		for got := 0; got < len(chunk); {
			out, err := pp.round()
			if err != nil {
				t.Fatal(err)
			}
			got += out
		}
		io.ReadFull(r.out, buf)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per round", allocs)
	}
}
