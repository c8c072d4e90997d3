package depot

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/wire"
)

// holdingTarget accepts every connection, replies with an accept frame,
// and holds the connection open until the test releases it.
func holdingTarget(t *testing.T) (addr string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			go func() {
				hdr, err := wire.ReadOpenHeader(nc)
				if err != nil {
					nc.Close()
					return
				}
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				<-done
			}()
		}
	}()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(done)
			ln.Close()
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
		})
	}
	t.Cleanup(release)
	return ln.Addr().String(), release
}

// N concurrent opens against MaxSessions=k must admit exactly k and
// reject exactly N-k busy, with Stats and Sessions agreeing. Run under
// -race in CI.
func TestAdmissionControlConcurrent(t *testing.T) {
	const maxSessions = 4
	const opens = 16

	targetAddr, release := holdingTarget(t)
	d, depotAddr := runDepot(t, Config{MaxSessions: maxSessions})

	type result struct {
		code uint8
		err  error
	}
	results := make(chan result, opens)
	var conns sync.Map
	var wg sync.WaitGroup
	for i := 0; i < opens; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", depotAddr)
			if err != nil {
				results <- result{err: err}
				return
			}
			conns.Store(i, nc)
			hdr := &wire.OpenHeader{
				Session:    wire.NewSessionID(),
				Route:      []string{depotAddr, targetAddr},
				ContentLen: wire.UnknownLength,
			}
			enc, _ := hdr.Encode()
			if _, err := nc.Write(enc); err != nil {
				results <- result{err: err}
				return
			}
			nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			acc, err := wire.ReadAcceptFrame(nc)
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{code: acc.Code}
		}(i)
	}
	wg.Wait()
	close(results)

	accepted, busy := 0, 0
	for r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("open failed: %v", r.err)
		case r.code == wire.CodeOK:
			accepted++
		case r.code == wire.CodeRejectBusy:
			busy++
		default:
			t.Fatalf("unexpected code %s", wire.CodeString(r.code))
		}
	}
	if accepted != maxSessions || busy != opens-maxSessions {
		t.Fatalf("accepted=%d busy=%d, want %d/%d", accepted, busy, maxSessions, opens-maxSessions)
	}

	// The admitted sessions are still relaying: Stats and /sessions must
	// agree on the same picture.
	st := d.Stats()
	if st.Accepted != maxSessions || st.RejectedBusy != opens-maxSessions {
		t.Fatalf("stats: %+v", st)
	}
	if st.Active != maxSessions {
		t.Fatalf("active=%d, want %d", st.Active, maxSessions)
	}
	snap := d.Sessions()
	if len(snap.Live) != maxSessions {
		t.Fatalf("live=%d, want %d", len(snap.Live), maxSessions)
	}
	rejectedRecent := 0
	for _, s := range snap.Recent {
		if s.Outcome == OutcomeRejectedBusy {
			rejectedRecent++
		}
	}
	if rejectedRecent != opens-maxSessions {
		t.Fatalf("recent busy=%d, want %d", rejectedRecent, opens-maxSessions)
	}

	// Release everything; the depot must drain back to zero and count the
	// completions.
	release()
	conns.Range(func(_, v interface{}) bool {
		v.(net.Conn).Close()
		return true
	})
	waitStats(t, d, "the admitted sessions to complete", func(st Stats) bool { return st.Completed >= maxSessions })
	st = d.Stats()
	if st.Active != 0 {
		t.Fatalf("sessions never drained: %+v", st)
	}
	if st.Completed != maxSessions {
		t.Fatalf("completed=%d, want %d", st.Completed, maxSessions)
	}
	if len(d.Sessions().Live) != 0 {
		t.Fatalf("live sessions remain: %+v", d.Sessions().Live)
	}
}

// The recent ring keeps only the newest entries once it wraps.
func TestRecentSessionRingWraps(t *testing.T) {
	r := newSessionRegistry(3, nil)
	for i := 0; i < 5; i++ {
		r.record(SessionInfo{ID: fmt.Sprintf("s%d", i), Outcome: OutcomeRejectedBusy})
	}
	snap := r.snapshot()
	if len(snap.Recent) != 3 {
		t.Fatalf("recent=%d, want 3", len(snap.Recent))
	}
	// Newest first.
	for i, want := range []string{"s4", "s3", "s2"} {
		if snap.Recent[i].ID != want {
			t.Fatalf("recent[%d]=%s, want %s (all: %+v)", i, snap.Recent[i].ID, want, snap.Recent)
		}
	}
}

// A peer that never reads cannot pin the handler: the reject frame write
// must time out and be counted.
func TestRejectWriteDeadline(t *testing.T) {
	d := New(Config{writeTimeout: 50 * time.Millisecond})
	us, them := net.Pipe()
	defer them.Close()
	done := make(chan struct{})
	go func() {
		// Nobody ever reads from `them`; the unbuffered pipe write can only
		// end via the deadline.
		d.reject(us, wire.NewSessionID(), wire.CodeRejectBusy)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reject blocked past the write deadline")
	}
	if got := d.Stats().ControlWriteFailures; got != 1 {
		t.Fatalf("control write failures = %d, want 1", got)
	}
}
