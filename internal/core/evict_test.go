package core_test

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// drainTarget starts a target that reads every sublink to its end and
// reports each end on the returned channel, by which time the sublink's
// bytes are counted in the resume table.
func drainTarget(t *testing.T) (string, *core.Listener, chan struct{}) {
	t.Helper()
	ended := make(chan struct{}, 16) // more than any test's sublinks: the target never blocks
	addr, l := startTarget(t, func(sc *core.ServerConn) {
		io.Copy(io.Discard, sc)
		sc.Close()
		ended <- struct{}{}
	})
	return addr, l, ended
}

// sublinkEnded waits for the target to finish reading one sublink.
func sublinkEnded(t *testing.T, ended chan struct{}) {
	t.Helper()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the target never finished reading a sublink")
	}
}

// interrupt opens a resumable digested session, writes part of the
// payload, and kills the transport, leaving resume state at the target.
// It returns once the target has read the dead sublink to its end.
func interrupt(t *testing.T, addr string, ended chan struct{}, payload []byte) wire.SessionID {
	t.Helper()
	id := wire.NewSessionID()
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))),
		core.WithSession(id), core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sublinkEnded(t, ended)
	return id
}

// expectStates checks the listener's resume table size.
func expectStates(t *testing.T, l *core.Listener, want int) {
	t.Helper()
	if n := l.ResumeStates(); n != want {
		t.Fatalf("resume table holds %d states, want %d", n, want)
	}
}

func TestStaleEntriesDoNotBlockResumableSessions(t *testing.T) {
	// A table full of abandoned sessions must still take a new resumable
	// one, and keep it: the cap evicts the stalest entry, never the
	// freshest.
	addr, l, ended := drainTarget(t)
	l.SetMaxSessions(4)

	payload := randBytes(10_000, 41)
	for i := 0; i < 4; i++ {
		interrupt(t, addr, ended, payload)
	}
	expectStates(t, l, 4)

	id := interrupt(t, addr, ended, payload)
	expectStates(t, l, 4)

	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))),
		core.WithSession(id), core.WithResume())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Offset() <= 0 {
		t.Fatalf("resume offset %d: the fresh session's state was evicted instead of a stale one", c.Offset())
	}
	if err := c.SendReader(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	// Completion deletes the entry at once.
	sublinkEnded(t, ended)
	expectStates(t, l, 3)
}

func TestCompletedSessionDeletesStateImmediately(t *testing.T) {
	addr, l, _ := drainTarget(t)

	payload := randBytes(50_000, 42)
	c, err := core.Dial(context.Background(), core.Route{Target: addr},
		core.WithDigest(), core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	c.Write(payload)
	c.CloseWrite()
	io.Copy(io.Discard, c) // the target deletes the state before it hangs up
	c.Close()
	expectStates(t, l, 0)
}
