package depot

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

func adminGET(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// metricValue extracts one sample value from Prometheus exposition text.
func metricValue(t *testing.T, exposition []byte, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, exposition)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("sample %q value %q: %v", sample, m[1], err)
	}
	return v
}

// End-to-end: a digested transfer cascades through the depot, and its
// bytes show up in both /metrics and /sessions.
func TestAdminEndToEndTransferObservable(t *testing.T) {
	payload := bytes.Repeat([]byte("observability"), 20000)
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

	d, depotAddr := runDepot(t, Config{})
	h := AdminHandler(d)

	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: target.Addr().String()},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("transfer corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("transfer timeout")
	}
	c.Close()

	// Session teardown is asynchronous to the transfer itself.
	waitStats(t, d, "the session to complete", func(st Stats) bool { return st.Completed == 1 })

	code, body := adminGET(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	fwd := metricValue(t, body, `lsd_relay_bytes_total{direction="forward"}`)
	if fwd < float64(len(payload)) {
		t.Errorf("forward bytes %v < payload %d", fwd, len(payload))
	}
	if v := metricValue(t, body, `lsd_relay_bytes_total{direction="backward"}`); v <= 0 {
		t.Errorf("backward bytes %v, want > 0 (accept frame)", v)
	}
	if v := metricValue(t, body, "lsd_sessions_accepted_total"); v != 1 {
		t.Errorf("accepted %v", v)
	}
	if v := metricValue(t, body, "lsd_sessions_completed_total"); v != 1 {
		t.Errorf("completed %v", v)
	}
	if v := metricValue(t, body, "lsd_sessions_active"); v != 0 {
		t.Errorf("active %v", v)
	}
	high := metricValue(t, body, "lsd_relay_buffer_high_water_bytes")
	if high <= 0 || high > 256<<10 {
		t.Errorf("relay high-water %v outside (0, bufferSize]", high)
	}
	if v := metricValue(t, body, `lsd_session_duration_seconds_count{outcome="completed"}`); v != 1 {
		t.Errorf("duration histogram count %v", v)
	}
	if v := metricValue(t, body, "lsd_session_bytes_count"); v != 1 {
		t.Errorf("session bytes histogram count %v", v)
	}

	code, body = adminGET(t, h, "/sessions")
	if code != http.StatusOK {
		t.Fatalf("/sessions status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/sessions JSON: %v\n%s", err, body)
	}
	if len(snap.Live) != 0 {
		t.Errorf("live sessions %d, want 0", len(snap.Live))
	}
	if len(snap.Recent) != 1 {
		t.Fatalf("recent sessions %d, want 1", len(snap.Recent))
	}
	got := snap.Recent[0]
	if got.Outcome != OutcomeCompleted {
		t.Errorf("outcome %q", got.Outcome)
	}
	if got.Kind != KindRelay {
		t.Errorf("kind %q", got.Kind)
	}
	if got.BytesForward < uint64(len(payload)) {
		t.Errorf("session bytes forward %d < payload %d", got.BytesForward, len(payload))
	}
	if got.BytesBackward == 0 {
		t.Error("session bytes backward 0")
	}
	if got.DurationSeconds <= 0 {
		t.Errorf("duration %v", got.DurationSeconds)
	}

	// Consistency between the two views.
	if st := d.Stats(); uint64(fwd) != st.BytesForward {
		t.Errorf("/metrics forward %v != Stats %d", fwd, st.BytesForward)
	}
}

func TestAdminHealthAndPprof(t *testing.T) {
	d, _ := runDepot(t, Config{})
	h := AdminHandler(d)
	code, body := adminGET(t, h, "/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, _ = adminGET(t, h, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

// A live session must be visible in /sessions with in-flight byte counts.
func TestAdminShowsLiveSession(t *testing.T) {
	// The target reports every chunk it reads. The relay credits a chunk
	// after writing it and before reading the next, so once the target has
	// read a chunk sent after the first arrived, the first is counted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	chunks := make(chan int, 16) // more slots than bytes sent: the target never blocks
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
		buf := make([]byte, 64)
		for {
			n, err := nc.Read(buf)
			if err != nil {
				return
			}
			chunks <- n
		}
	}()
	targetAddr := ln.Addr().String()
	d, depotAddr := runDepot(t, Config{})
	nc := openThrough(t, depotAddr, targetAddr)
	defer nc.Close()
	for _, chunk := range []string{"hello", " depot"} {
		if _, err := fmt.Fprint(nc, chunk); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(chunk); {
			select {
			case n := <-chunks:
				got += n
			case <-time.After(5 * time.Second):
				t.Fatalf("target never read %q", chunk)
			}
		}
	}

	snap := d.Sessions()
	if len(snap.Live) != 1 || snap.Live[0].BytesForward < uint64(len("hello")) {
		t.Fatalf("live session not visible with its bytes: %+v", snap)
	}
	if live := snap.Live[0]; live.Kind != KindRelay || live.NextHop != targetAddr || live.Outcome != "" {
		t.Fatalf("live session: %+v", live)
	}
}
