package depot

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/wire"
)

// rawTarget accepts one TCP connection, reads an open header, replies with
// an accept frame, then echoes everything it reads back, reversed in
// framing terms (just an echo).
func rawTarget(t *testing.T) (addr string, received chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	received = make(chan []byte, 1)
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
		data, _ := io.ReadAll(nc)
		received <- data
	}()
	return ln.Addr().String(), received
}

func runDepot(t *testing.T, cfg Config) (*Depot, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

// waitStats blocks until cond holds for d's counters, failing the test
// with what after 10 s.
func waitStats(t *testing.T, d *Depot, what string, cond func(Stats) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.WaitStats(ctx, cond); err != nil {
		t.Fatalf("waiting for %s: %v (stats %+v)", what, err, d.Stats())
	}
}

func openThrough(t *testing.T, depotAddr, targetAddr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Route:      []string{depotAddr, targetAddr},
		ContentLen: wire.UnknownLength,
	}
	enc, _ := hdr.Encode()
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	return nc
}

func TestDepotForwardsHeaderAndPayload(t *testing.T) {
	targetAddr, received := rawTarget(t)
	d, depotAddr := runDepot(t, Config{})
	nc := openThrough(t, depotAddr, targetAddr)
	defer nc.Close()
	// Accept frame relayed backward through the depot.
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil || acc.Code != wire.CodeOK {
		t.Fatalf("accept: %v %+v", err, acc)
	}
	payload := bytes.Repeat([]byte("abc"), 10000)
	nc.Write(payload)
	nc.(*net.TCPConn).CloseWrite()
	select {
	case got := <-received:
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mismatch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	st := d.Stats()
	if st.Accepted != 1 {
		t.Fatalf("accepted=%d", st.Accepted)
	}
	if st.BytesForward < uint64(len(payload)) {
		t.Fatalf("bytes forward=%d", st.BytesForward)
	}
}

func TestDepotAdvancesHopIndex(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hopIdx := make(chan uint8, 1)
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
		hopIdx <- hdr.HopIndex
	}()
	_, depotAddr := runDepot(t, Config{})
	nc := openThrough(t, depotAddr, ln.Addr().String())
	defer nc.Close()
	select {
	case h := <-hopIdx:
		if h != 1 {
			t.Fatalf("hop index %d, want 1", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDepotRejectsMalformedHeader(t *testing.T) {
	d, depotAddr := runDepot(t, Config{handshakeTimeout: time.Second})
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	buf := make([]byte, 1)
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("expected connection close")
	}
	nc.Close()
	if d.Stats().RejectedProto == 0 {
		t.Fatal("proto rejection not counted")
	}
}

func TestDepotRejectsFinalHopHeader(t *testing.T) {
	_, depotAddr := runDepot(t, Config{})
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Session: wire.NewSessionID(),
		Route:   []string{depotAddr}, // depot is the final hop: misroute
	}
	enc, _ := hdr.Encode()
	nc.Write(enc)
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectRoute {
		t.Fatalf("code=%s", wire.CodeString(acc.Code))
	}
}

func TestDepotDialFailureRejects(t *testing.T) {
	d, depotAddr := runDepot(t, Config{DialTimeout: time.Second})
	nc := openThrough(t, depotAddr, "127.0.0.1:1")
	defer nc.Close()
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectRoute {
		t.Fatalf("code=%s", wire.CodeString(acc.Code))
	}
	if d.Stats().RejectedRoute != 1 {
		t.Fatal("route rejection not counted")
	}
	if d.Stats().DialFailures != 1 {
		t.Fatalf("dial failures = %d, want 1", d.Stats().DialFailures)
	}
	// The session ring distinguishes a dead next hop from a malformed
	// route even though both reject with the same wire code. The ring
	// entry is written before the reject frame the test just read.
	if recent := d.Sessions().Recent; len(recent) != 1 || recent[0].Outcome != OutcomeDialFailed {
		t.Fatalf("ring outcome is not %q: %+v", OutcomeDialFailed, recent)
	}
}

func TestDepotAdmissionControl(t *testing.T) {
	targetAddr, _ := rawTarget(t)
	_, depotAddr := runDepot(t, Config{MaxSessions: 1})
	first := openThrough(t, depotAddr, targetAddr)
	defer first.Close()
	if _, err := wire.ReadAcceptFrame(first); err != nil {
		t.Fatal(err)
	}
	second := openThrough(t, depotAddr, targetAddr)
	defer second.Close()
	acc, err := wire.ReadAcceptFrame(second)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectBusy {
		t.Fatalf("code=%s", wire.CodeString(acc.Code))
	}
}

func TestDepotCloseUnblocksServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{})
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	// A refused probe proves the accept loop runs, so Close cannot beat
	// Serve to the listener.
	probe, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	probe.Write([]byte("junk"))
	probe.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := probe.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("probe read %v, want the refusal's EOF", err)
	}
	probe.Close()
	if a := d.Addr(); a == nil || a.String() != ln.Addr().String() {
		t.Fatalf("Addr() = %v, want %v", a, ln.Addr())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestDepotCustomDialer(t *testing.T) {
	targetAddr, received := rawTarget(t)
	dialed := make(chan string, 1)
	_, depotAddr := runDepot(t, Config{
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dialed <- addr
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	})
	nc := openThrough(t, depotAddr, targetAddr)
	defer nc.Close()
	if _, err := wire.ReadAcceptFrame(nc); err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("z"))
	nc.(*net.TCPConn).CloseWrite()
	<-received
	select {
	case a := <-dialed:
		if a != targetAddr {
			t.Fatalf("dialed %s", a)
		}
	default:
		t.Fatal("custom dialer unused")
	}
}
