package depot

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// stagedDepot builds a depot tuned for fast staged-delivery tests.
func stagedDepot(t *testing.T, cfg Config) (*Depot, string) {
	t.Helper()
	if cfg.StageRetryInterval == 0 {
		cfg.StageRetryInterval = 100 * time.Millisecond
	}
	if cfg.StageDeadline == 0 {
		cfg.StageDeadline = 10 * time.Second
	}
	return runDepot(t, cfg)
}

func TestStagedDeliveryWhileTargetOnline(t *testing.T) {
	payload := bytes.Repeat([]byte("stage"), 20000)
	done := make(chan bool, 1)
	target, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	go func() {
		sc, err := target.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		data, err := io.ReadAll(sc)
		done <- err == nil && sc.Verified() && bytes.Equal(data, payload)
	}()

	d, depotAddr := stagedDepot(t, Config{})
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	c.Close() // initiator disconnects immediately after upload

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("staged payload corrupted or unverified")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered > 0 })
	st := d.Stats()
	if st.Staged != 1 || st.StagedDelivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// The headline capability: the receiver is offline during the upload and
// appears later; the depot retries and delivers.
func TestStagedDeliveryToLateReceiver(t *testing.T) {
	payload := bytes.Repeat([]byte("later"), 10000)

	// Reserve an address, then close it so the first delivery attempts fail.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	targetAddr := tmp.Addr().String()
	tmp.Close()

	d, depotAddr := stagedDepot(t, Config{DialTimeout: 500 * time.Millisecond})
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	c.Close() // sender is gone before the receiver ever existed

	// Let the depot fail at least one attempt, then bring the target up.
	waitStats(t, d, "a failed attempt", func(st Stats) bool { return st.DialFailures > 0 })
	ln, err := net.Listen("tcp", targetAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", targetAddr, err)
	}
	target := core.NewListener(ln)
	defer target.Close()
	done := make(chan bool, 1)
	go func() {
		sc, err := target.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		data, err := io.ReadAll(sc)
		done <- err == nil && sc.Verified() && bytes.Equal(data, payload)
	}()

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("late delivery corrupted")
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("late delivery never happened (stats %+v)", d.Stats())
	}
	// At least one refused attempt preceded the successful one, and both
	// are visible in the staged-attempt and dial-failure counters.
	st := d.Stats()
	if st.StagedDeliveryAttempts < 2 {
		t.Fatalf("staged delivery attempts = %d, want >= 2", st.StagedDeliveryAttempts)
	}
	if st.DialFailures < 1 {
		t.Fatalf("dial failures = %d, want >= 1", st.DialFailures)
	}
}

func TestStagedRequiresContentLength(t *testing.T) {
	_, depotAddr := stagedDepot(t, Config{})
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Flags:      wire.FlagStaged,
		Route:      []string{depotAddr, "t:1"},
		ContentLen: wire.UnknownLength,
	}
	enc, _ := hdr.Encode()
	nc.Write(enc)
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectProto {
		t.Fatalf("code=%s", wire.CodeString(acc.Code))
	}
}

func TestStagedRejectsOversizedCustody(t *testing.T) {
	_, depotAddr := stagedDepot(t, Config{MaxStageBytes: 1024})
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Flags:      wire.FlagStaged,
		Route:      []string{depotAddr, "t:1"},
		ContentLen: 10 << 20,
	}
	enc, _ := hdr.Encode()
	nc.Write(enc)
	acc, err := wire.ReadAcceptFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Code != wire.CodeRejectBusy {
		t.Fatalf("code=%s", wire.CodeString(acc.Code))
	}
}

func TestStagedAbandonedAfterDeadline(t *testing.T) {
	d, depotAddr := stagedDepot(t, Config{
		DialTimeout:        200 * time.Millisecond,
		StageRetryInterval: 50 * time.Millisecond,
		StageDeadline:      300 * time.Millisecond,
	})
	payload := []byte("doomed payload")
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: "127.0.0.1:1"},
		core.WithStaged(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	c.Close()
	waitStats(t, d, "the session's end", func(st Stats) bool { return st.StagedAborted+st.StagedDelivered+st.Canceled > 0 })
	if d.Stats().StagedAborted != 1 {
		t.Fatalf("stats: %+v", d.Stats())
	}
}

func TestStagedDialValidation(t *testing.T) {
	_, err := core.Dial(context.Background(), core.Route{Target: "t:1"},
		core.WithStaged(), core.WithContentLength(10))
	if err == nil {
		t.Fatal("staged without depot accepted")
	}
	_, err = core.Dial(context.Background(), core.Route{Via: []string{"d:1"}, Target: "t:1"},
		core.WithStaged())
	if err == nil {
		t.Fatal("staged without length accepted")
	}
}

// Staged custody at depot 1 followed by a synchronous hop through depot 2.
func TestStagedThroughSecondDepot(t *testing.T) {
	payload := bytes.Repeat([]byte("two-hop"), 5000)
	target, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	done := make(chan bool, 1)
	go func() {
		sc, err := target.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		data, err := io.ReadAll(sc)
		done <- err == nil && bytes.Equal(data, payload)
	}()
	_, d2Addr := runDepot(t, Config{})
	_, d1Addr := stagedDepot(t, Config{})
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{d1Addr, d2Addr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	c.Close()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("two-hop staged delivery failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}
