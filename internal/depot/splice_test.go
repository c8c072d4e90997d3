package depot

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"lsl/internal/wire"
)

// A classic relay's sublinks are both TCP, so on Linux its pumps splice.
// These end a relay mid-stream from each side, and from the depot's own
// watchdog, and check that it ends with the outcome the buffered loop
// gives it and that neither pump outlives the session.

// endTarget accepts one session, completes its handshake and hands the
// connection to serve.
func endTarget(t *testing.T, serve func(nc *net.TCPConn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		hdr, err := wire.ReadOpenHeader(nc)
		if err != nil {
			return
		}
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
		serve(nc.(*net.TCPConn))
	}()
	return ln.Addr().String()
}

// openLive opens a relay through d to target and waits for the accept.
func openLive(t *testing.T, depotAddr, target string) *net.TCPConn {
	t.Helper()
	nc := openThrough(t, depotAddr, target)
	t.Cleanup(func() { nc.Close() })
	if _, err := wire.ReadAcceptFrame(nc); err != nil {
		t.Fatal(err)
	}
	return nc.(*net.TCPConn)
}

// noPumpLeft fails if a goroutine is still in a relay copy. The relay
// waits for both pumps before it records the session, so once its outcome
// is counted none may be left.
func noPumpLeft(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := buf[:runtime.Stack(buf, true)]; bytes.Contains(stacks, []byte("lsl/internal/xfer.CopyCounted")) {
		t.Fatalf("a pump outlived its session:\n%s", stacks)
	}
}

func TestSpliceRelayUpstreamReset(t *testing.T) {
	ended := make(chan struct{})
	target := endTarget(t, func(nc *net.TCPConn) {
		io.Copy(io.Discard, nc)
		close(ended)
	})
	d, depotAddr := runDepot(t, Config{})
	nc := openLive(t, depotAddr, target)
	if _, err := nc.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	nc.SetLinger(0)
	nc.Close()
	<-ended
	waitStats(t, d, "the relay's end", func(st Stats) bool { return st.Completed == 1 })
	noPumpLeft(t)
}

func TestSpliceRelayDownstreamReset(t *testing.T) {
	target := endTarget(t, func(nc *net.TCPConn) {
		io.ReadFull(nc, make([]byte, 1))
		nc.SetLinger(0)
	})
	d, depotAddr := runDepot(t, Config{})
	nc := openLive(t, depotAddr, target)
	go func() {
		chunk := make([]byte, 64<<10)
		for {
			if _, err := nc.Write(chunk); err != nil {
				return
			}
		}
	}()
	waitStats(t, d, "the relay's end", func(st Stats) bool { return st.Completed == 1 })
	io.Copy(io.Discard, nc) // the depot closed its end
	noPumpLeft(t)
}

func TestSpliceRelayCanceledByWatchdog(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	target := endTarget(t, func(*net.TCPConn) { <-hold })
	d, depotAddr := runDepot(t, Config{})
	nc := openLive(t, depotAddr, target)
	if _, err := nc.Write([]byte("mid-stream")); err != nil {
		t.Fatal(err)
	}
	d.Kill()
	if st := d.Stats(); st.Canceled != 1 || st.Completed != 0 {
		t.Fatalf("after Kill: %+v, want one canceled relay", st)
	}
	io.Copy(io.Discard, nc) // the depot closed its end
	noPumpLeft(t)
}
