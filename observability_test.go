package lsl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lsl"
)

// The public observability surface: a cascaded transfer's bytes must be
// visible through Depot.Sessions, Depot.Stats, and the admin handler's
// /metrics and /sessions endpoints.
func TestDepotObservabilityEndToEnd(t *testing.T) {
	payload := bytes.Repeat([]byte("scrape me"), 30000)

	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan bool, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		data, err := io.ReadAll(sc)
		done <- err == nil && sc.Verified() && bytes.Equal(data, payload)
	}()

	d := lsl.NewDepot(lsl.DepotConfig{})
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(dln)
	defer d.Close()
	depotAddr := dln.Addr().String()

	c, err := lsl.Dial(context.Background(),
		lsl.Route{Via: []string{depotAddr}, Target: ln.Addr().String()},
		lsl.WithDigest(), lsl.WithContentLength(int64(len(payload))))
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

	// The depot's teardown trails the target's read.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.WaitStats(ctx, func(st lsl.DepotStats) bool { return st.Completed > 0 }); err != nil {
		t.Fatalf("session never completed: %v", err)
	}
	st := d.Stats()
	if st.Completed != 1 || st.BytesForward < uint64(len(payload)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxBuffered <= 0 {
		t.Fatalf("relay high-water not tracked: %+v", st)
	}

	var sessions lsl.DepotSessions = d.Sessions()
	if len(sessions.Recent) != 1 || sessions.Recent[0].Outcome != "completed" {
		t.Fatalf("sessions: %+v", sessions)
	}
	if sessions.Recent[0].BytesForward < uint64(len(payload)) {
		t.Fatalf("recent session bytes: %+v", sessions.Recent[0])
	}

	h := lsl.DepotAdminHandler(d)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	exposition := rec.Body.String()
	for _, want := range []string{
		"# TYPE lsd_relay_bytes_total counter",
		`lsd_relay_bytes_total{direction="forward"}`,
		"# TYPE lsd_session_duration_seconds histogram",
		`lsd_session_duration_seconds_count{outcome="completed"} 1`,
		"lsd_sessions_completed_total 1",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q:\n%s", want, exposition)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	var snap lsl.DepotSessions
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/sessions JSON: %v", err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].BytesForward < uint64(len(payload)) {
		t.Fatalf("/sessions: %+v", snap)
	}
}
