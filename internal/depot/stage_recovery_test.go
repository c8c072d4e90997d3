package depot

import (
	"bytes"
	"context"
	"crypto/md5"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/wire"
)

// journalDepot builds a depot with a custody write-ahead journal rooted
// at dir and fast staged-retry timing.
func journalDepot(t *testing.T, dir string, cfg Config) (*Depot, *custody.Journal, string) {
	t.Helper()
	j, err := custody.Open(dir, custody.Config{Fsync: custody.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Custody = j
	if cfg.StageRetryInterval == 0 {
		cfg.StageRetryInterval = 100 * time.Millisecond
	}
	if cfg.StageDeadline == 0 {
		cfg.StageDeadline = 30 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 300 * time.Millisecond
	}
	cfg.retryJitterSeed = 42
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	go d.Serve(ln)
	return d, j, ln.Addr().String()
}

// reserveAddr grabs a loopback address and releases it, so delivery
// attempts against it fail until the test rebinds it.
func reserveAddr(t *testing.T) string {
	t.Helper()
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	tmp.Close()
	return addr
}

// The headline robustness guarantee: every staged payload the depot
// acknowledged with the custody-commit frame before a hard stop (no
// drain — a simulated crash) is delivered byte-exact, MD5-verified,
// after a new depot process recovers the same state dir; a payload whose
// upload never committed is never delivered; and a corrupted journal
// tail does not break recovery of the valid prefix.
func TestStagedCrashRecoveryDeliversAckedPayloads(t *testing.T) {
	dir := t.TempDir()
	targetAddr := reserveAddr(t) // offline during custody + crash

	d1, j1, depotAddr := journalDepot(t, dir, Config{})

	payloads := map[string][]byte{}
	for i, seed := range []string{"alpha", "bravo", "charlie"} {
		p := bytes.Repeat([]byte(seed), 4000+i*1000)
		payloads[string(p[:16])] = p
		c, err := core.Dial(context.Background(),
			core.Route{Via: []string{depotAddr}, Target: targetAddr},
			core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(p))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := c.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		// The ACK that matters: the payload is durable from here on.
		if err := c.AwaitCustody(); err != nil {
			t.Fatalf("custody commit %d: %v", i, err)
		}
		c.Close()
	}

	// A fourth upload stalls mid-payload and never reaches the commit:
	// it must NOT survive the crash.
	ghost, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithContentLength(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ghost.Write(bytes.Repeat([]byte("ghost"), 1000)) // 5000 of 1<<20 bytes
	defer ghost.Close()

	// Let redelivery fail at least once so the crash lands mid-retry.
	waitStats(t, d1, "three delivery attempts", func(st Stats) bool { return st.StagedDeliveryAttempts >= 3 })
	if got := d1.Stats().StagedDeliveryAttempts; got < 3 {
		t.Fatalf("only %d delivery attempts before crash", got)
	}

	// Hard stop: no drain, no cleanup — the journal keeps the custody.
	d1.Kill()
	j1.Close()

	// Scribble a torn record onto the journal tail, as a crash mid-append
	// would: recovery must skip it without panicking.
	jf, err := os.OpenFile(filepath.Join(dir, custody.JournalName), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	jf.Write([]byte{0, 0, 1, 0, 0xba, 0xad, 0xf0, 0x0d, 0x01, 0x02})
	jf.Close()

	// Restart on the same state dir.
	d2, j2, _ := journalDepot(t, dir, Config{})
	defer func() {
		d2.Close()
		j2.Close()
	}()
	if got := len(j2.Recovered()); got != 3 {
		t.Fatalf("recovered %d custody sessions, want 3", got)
	}
	if got := d2.Stats().StagedRecovered; got != 3 {
		t.Fatalf("StagedRecovered=%d, want 3", got)
	}
	if got := d2.Stats().CustodyBytes; got <= 0 {
		t.Fatalf("CustodyBytes=%d after recovery, want > 0", got)
	}

	// The receiver appears. Every ACKed payload must arrive byte-exact
	// with its end-to-end MD5 intact; the ghost must not.
	ln, err := net.Listen("tcp", targetAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", targetAddr, err)
	}
	target := core.NewListener(ln)
	defer target.Close()

	type delivery struct {
		data     []byte
		verified bool
	}
	got := make(chan delivery, 8)
	go func() {
		for {
			sc, err := target.Accept()
			if err != nil {
				return
			}
			go func() {
				defer sc.Close()
				data, err := io.ReadAll(sc)
				if err != nil {
					return
				}
				got <- delivery{data: data, verified: sc.Verified()}
			}()
		}
	}()

	seen := map[string]bool{}
	for len(seen) < 3 {
		select {
		case del := <-got:
			if !del.verified {
				t.Fatalf("recovered delivery failed MD5 verification (%d bytes, digest %x)",
					len(del.data), md5.Sum(del.data))
			}
			key := string(del.data[:16])
			want, ok := payloads[key]
			if !ok || !bytes.Equal(del.data, want) {
				t.Fatalf("recovered delivery does not match any staged payload (%d bytes)", len(del.data))
			}
			if seen[key] {
				t.Fatalf("payload %q delivered twice", key)
			}
			seen[key] = true
		case <-time.After(20 * time.Second):
			t.Fatalf("recovered deliveries stalled: %d of 3 arrived (stats %+v)", len(seen), d2.Stats())
		}
	}

	// The never-committed upload must not materialize.
	select {
	case del := <-got:
		t.Fatalf("unexpected extra delivery of %d bytes", len(del.data))
	case <-time.After(500 * time.Millisecond):
	}
	if j2.Live() != 0 {
		t.Fatalf("%d sessions still journaled after delivery", j2.Live())
	}
}

// Staged sessions beyond the global custody budget are refused with the
// typed shed frame, visible on lsl_stage_shed_total and the custody
// bytes gauge.
func TestStagedShedBeyondBudget(t *testing.T) {
	targetAddr := reserveAddr(t) // offline: custody stays resident
	d, depotAddr := stagedDepot(t, Config{
		MaxTotalStageBytes: 1000,
		DialTimeout:        200 * time.Millisecond,
		StageDeadline:      3 * time.Second,
		DrainTimeout:       5 * time.Second,
	})

	first, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithContentLength(600))
	if err != nil {
		t.Fatal(err)
	}
	first.Write(bytes.Repeat([]byte{'a'}, 600))
	first.CloseWrite()
	if err := first.AwaitCustody(); err != nil {
		t.Fatalf("first custody: %v", err)
	}
	first.Close()
	if got := d.Stats().CustodyBytes; got != 600 {
		t.Fatalf("CustodyBytes=%d, want 600", got)
	}

	// 600 + 600 > 1000: the second session must shed, not buffer.
	_, err = core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithContentLength(600))
	if err == nil {
		t.Fatal("over-budget staged session accepted")
	}
	if !strings.Contains(err.Error(), wire.CodeString(wire.CodeRejectShed)) {
		t.Fatalf("shed rejection not typed: %v", err)
	}
	st := d.Stats()
	if st.StagedShed != 1 {
		t.Fatalf("StagedShed=%d, want 1", st.StagedShed)
	}
	if st.CustodyBytes != 600 {
		t.Fatalf("CustodyBytes=%d after shed, want still 600", st.CustodyBytes)
	}
	var metricsOut strings.Builder
	if err := d.Metrics().WritePrometheus(&metricsOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsOut.String(), "lsl_stage_shed_total 1") {
		t.Fatal("lsl_stage_shed_total not exported")
	}
	if !strings.Contains(metricsOut.String(), "lsl_custody_bytes 600") {
		t.Fatal("lsl_custody_bytes not exported")
	}

	// A session that fits the remaining headroom is still admitted.
	third, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithContentLength(300))
	if err != nil {
		t.Fatalf("within-budget session refused: %v", err)
	}
	third.Write(bytes.Repeat([]byte{'c'}, 300))
	third.CloseWrite()
	if err := third.AwaitCustody(); err != nil {
		t.Fatalf("third custody: %v", err)
	}
	third.Close()
}

// The custody budget releases when a delivery completes, so shedding is
// a function of live custody, not history.
func TestStagedBudgetReleasesAfterDelivery(t *testing.T) {
	payload := bytes.Repeat([]byte("cycle"), 100)
	d, depotAddr := stagedDepot(t, Config{MaxTotalStageBytes: int64(len(payload)) + 10})
	for i := 0; i < 3; i++ {
		target, err := core.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan []byte, 1)
		go func() {
			sc, err := target.Accept()
			if err != nil {
				return
			}
			defer sc.Close()
			data, _ := io.ReadAll(sc)
			done <- data
		}()
		c, err := core.Dial(context.Background(),
			core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
			core.WithStaged(), core.WithContentLength(int64(len(payload))))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		c.Write(payload)
		c.CloseWrite()
		if err := c.AwaitCustody(); err != nil {
			t.Fatalf("round %d custody: %v", i, err)
		}
		c.Close()
		select {
		case data := <-done:
			if !bytes.Equal(data, payload) {
				t.Fatalf("round %d corrupted", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d timeout", i)
		}
		target.Close()
		waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == uint64(i+1) })
		if got := d.Stats().CustodyBytes; got != 0 {
			t.Fatalf("round %d: CustodyBytes=%d not released", i, got)
		}
	}
	if got := d.Stats().StagedDelivered; got != 3 {
		t.Fatalf("StagedDelivered=%d, want 3", got)
	}
}

// Journal-backed staged delivery to an online receiver — the everyday
// path stays correct with durability on.
func TestStagedJournalDeliveryOnline(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("durable-path"), 3000)
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
		done <- err == nil && sc.Verified() && bytes.Equal(data, payload)
	}()

	d, j, depotAddr := journalDepot(t, dir, Config{})
	defer func() {
		d.Close()
		j.Close()
	}()
	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	if err := c.AwaitCustody(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("journal-backed staged payload corrupted or unverified")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered > 0 })
	// Delivered sessions compact out of the journal and the state dir.
	if j.Live() != 0 || j.LiveBytes() != 0 {
		t.Fatalf("journal still holds %d sessions / %d bytes after delivery", j.Live(), j.LiveBytes())
	}
}

// OnSessionEnd runs after a staged session's custody is settled. A
// delivered journaled session has left the journal and released its
// budget; a session canceled by shutdown has released its budget too but
// keeps its journal entry, which is what the next process recovers.
func TestStagedSessionEndSeesCustodySettled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outcome string
		live    int
	}{
		{"delivered", OutcomeStagedDeliver, 0},
		{"canceled", OutcomeCanceled, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := custody.Open(t.TempDir(), custody.Config{Fsync: custody.FsyncNever, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			type ending struct {
				outcome string
				custody int64
				live    int
			}
			ended := make(chan ending, 1)
			var d *Depot
			d = New(Config{
				Custody:            j,
				StageRetryInterval: 20 * time.Millisecond,
				DialTimeout:        300 * time.Millisecond,
				DrainTimeout:       100 * time.Millisecond,
				retryJitterSeed:    42,
				OnSessionEnd: func(info SessionInfo) {
					ended <- ending{info.Outcome, d.Stats().CustodyBytes, j.Live()}
				},
			})
			defer d.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go d.Serve(ln)

			targetAddr := reserveAddr(t) // offline: the session stays in custody
			if tc.outcome == OutcomeStagedDeliver {
				targetAddr, _ = startTarget(t)
			}
			stageThrough(t, ln.Addr().String(), targetAddr, bytes.Repeat([]byte("settled"), 1000))
			if tc.outcome == OutcomeCanceled {
				waitStats(t, d, "a failed attempt", func(st Stats) bool { return st.DialFailures > 0 })
				d.Close()
			}
			select {
			case e := <-ended:
				if e.outcome != tc.outcome || e.custody != 0 || e.live != tc.live {
					t.Fatalf("OnSessionEnd saw outcome %s, custody bytes %d, journal entries %d; want %s, 0, %d",
						e.outcome, e.custody, e.live, tc.outcome, tc.live)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("session never ended (stats %+v)", d.Stats())
			}
		})
	}
}
