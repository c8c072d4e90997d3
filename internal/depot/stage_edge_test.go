package depot

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/wire"
)

// A staged payload of exactly MaxStageBytes is admitted; one byte more
// is refused busy — the per-session cap is inclusive.
func TestStagedMaxStageBytesBoundary(t *testing.T) {
	const capBytes = 4096
	d, depotAddr := stagedDepot(t, Config{MaxStageBytes: capBytes})

	target, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	got := make(chan int, 2)
	go func() {
		for {
			sc, err := target.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sc.Close()
				data, err := io.ReadAll(sc)
				if err == nil {
					got <- len(data)
				}
			}()
		}
	}()

	// Exactly at the cap: accepted and delivered in full.
	exact, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithContentLength(capBytes))
	if err != nil {
		t.Fatalf("payload of exactly MaxStageBytes refused: %v", err)
	}
	exact.Write(bytes.Repeat([]byte{'x'}, capBytes))
	exact.CloseWrite()
	if err := exact.AwaitCustody(); err != nil {
		t.Fatalf("custody at cap: %v", err)
	}
	exact.Close()
	select {
	case n := <-got:
		if n != capBytes {
			t.Fatalf("delivered %d bytes, want %d", n, capBytes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("at-cap delivery timeout")
	}

	// One byte over: refused with the busy code before any upload.
	_, err = core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithContentLength(capBytes+1))
	if err == nil {
		t.Fatal("payload over MaxStageBytes accepted")
	}
	if !strings.Contains(err.Error(), wire.CodeString(wire.CodeRejectBusy)) {
		t.Fatalf("over-cap rejection not busy-typed: %v", err)
	}
	// The delivery is counted after the target's confirm, which can trail
	// the target's read of the payload.
	waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered > 0 })
	if st := d.Stats(); st.StagedDelivered != 1 {
		t.Fatalf("stats after boundary probe: %+v", st)
	}
}

// A zero-byte staged session is a legal custody object: it commits,
// journals, and delivers an empty verified stream.
func TestStagedZeroByteSession(t *testing.T) {
	dir := t.TempDir()
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
		done <- err == nil && len(data) == 0 && sc.Verified()
	}()

	d, j, depotAddr := journalDepot(t, dir, Config{})
	defer func() {
		d.Close()
		j.Close()
	}()
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitCustody(); err != nil {
		t.Fatalf("zero-byte custody: %v", err)
	}
	c.Close()

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("zero-byte session not delivered empty and verified")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered > 0 })
	if st := d.Stats(); st.StagedDelivered != 1 || st.CustodyBytes != 0 {
		t.Fatalf("stats after zero-byte delivery: %+v", st)
	}
}

// Redelivery retries racing a depot Close drain must neither panic nor
// lose track of custody: the session ends canceled and, with a journal,
// its entry survives for the next process.
func TestStagedRedeliveryRacesClose(t *testing.T) {
	dir := t.TempDir()
	targetAddr := reserveAddr(t) // never comes up: retries always fail

	d, j, depotAddr := journalDepot(t, dir, Config{
		StageRetryInterval: 20 * time.Millisecond,
		StageDeadline:      time.Minute,
		DrainTimeout:       150 * time.Millisecond,
	})

	payload := bytes.Repeat([]byte("race"), 512)
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	if err := c.AwaitCustody(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Close mid-retry: the short drain expires while the delivery loop is
	// live, forcing the cancel path to race the backoff/dial machinery.
	waitStats(t, d, "a delivery attempt", func(st Stats) bool { return st.StagedDeliveryAttempts > 0 })
	d.Close()

	st := d.Stats()
	if st.StagedDelivered != 0 || st.StagedAborted != 0 {
		t.Fatalf("canceled session misclassified: %+v", st)
	}
	// Shutdown cancellation is not an abort: the journal keeps custody.
	if j.Live() != 1 {
		t.Fatalf("journal holds %d sessions after drain cancel, want 1", j.Live())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// And the survivor is recoverable.
	j2, err := custody.Open(dir, custody.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Recovered()); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	if got := j2.Recovered()[0].Total; got != int64(len(payload)) {
		t.Fatalf("recovered total %d, want %d", got, len(payload))
	}
}
