package depot

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/custody"
	"lsl/internal/wire"
)

// custodyModes are the two places a staged payload can be held: a
// write-ahead journal's spill file, or process memory.
var custodyModes = []struct {
	name      string
	journaled bool
}{{"journal", true}, {"memory", false}}

// cutThroughDepot serves a staged depot whose custody is journaled under
// a fresh directory, or held in memory (j is nil then).
func cutThroughDepot(t *testing.T, journaled bool, cfg Config) (d *Depot, j *custody.Journal, addr, dir string) {
	t.Helper()
	if !journaled {
		d, addr = stagedDepot(t, cfg)
		return d, nil, addr, ""
	}
	dir = t.TempDir()
	d, j, addr = journalDepot(t, dir, cfg)
	t.Cleanup(func() {
		d.Close()
		j.Close()
	})
	return d, j, addr, dir
}

// delivered is what a target made of one session.
type delivered struct {
	data     []byte
	verified bool
	err      error
}

// watchTarget is a verifying core.Listener target. It signals first when
// a session's first payload bytes arrive, and done with the session's end.
type watchTarget struct {
	addr     string
	first    chan struct{}
	done     chan delivered
	accepted atomic.Int32
}

func startWatchTarget(t *testing.T, ln net.Listener) *watchTarget {
	t.Helper()
	l := core.NewListener(ln)
	t.Cleanup(func() { l.Close() })
	w := &watchTarget{addr: ln.Addr().String(), first: make(chan struct{}, 8), done: make(chan delivered, 8)}
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			w.accepted.Add(1)
			go func() {
				defer sc.Close()
				var got delivered
				buf := make([]byte, 32<<10)
				for {
					n, err := sc.Read(buf)
					if n > 0 && len(got.data) == 0 {
						w.first <- struct{}{}
					}
					got.data = append(got.data, buf[:n]...)
					if err != nil {
						if err != io.EOF {
							got.err = err
						}
						got.verified = sc.Verified()
						w.done <- got
						return
					}
				}
			}()
		}
	}()
	return w
}

func newWatchTarget(t *testing.T) *watchTarget {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startWatchTarget(t, ln)
}

// await fails the test if ch yields nothing within 10 s.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func randomPayload(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(p)
	return p
}

// A staged session's delivery starts while its upload is still running:
// the target reads payload bytes before the initiator has written the
// rest, and the payload still arrives whole and verified, in one attempt.
func TestStagedCutThroughTargetReadsDuringUpload(t *testing.T) {
	payload := randomPayload(512 << 10)
	for _, m := range custodyModes {
		t.Run(m.name, func(t *testing.T) {
			target := newWatchTarget(t)
			d, _, depotAddr, _ := cutThroughDepot(t, m.journaled, Config{})
			c, err := core.Dial(context.Background(),
				core.Route{Via: []string{depotAddr}, Target: target.addr},
				core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			half := len(payload) / 2
			if _, err := c.Write(payload[:half]); err != nil {
				t.Fatal(err)
			}
			await(t, target.first, "the target's first byte while the upload is half done")
			if _, err := c.Write(payload[half:]); err != nil {
				t.Fatal(err)
			}
			if err := c.CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if err := c.AwaitCustody(); err != nil {
				t.Fatal(err)
			}
			got := await(t, target.done, "the delivery")
			if got.err != nil || !got.verified || !bytes.Equal(got.data, payload) {
				t.Fatalf("delivered %d bytes, verified %v, err %v; want the %d-byte payload verified", len(got.data), got.verified, got.err, len(payload))
			}
			waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == 1 })
			if st := d.Stats(); st.Staged != 1 || st.StagedDeliveryAttempts != 1 {
				t.Fatalf("staged %d in %d attempts, want 1 in 1", st.Staged, st.StagedDeliveryAttempts)
			}
		})
	}
}

// rawStagedOpen opens a digesting staged session for contentLen payload
// bytes on a bare connection and reads its admission.
func rawStagedOpen(t *testing.T, depotAddr, target string, contentLen int) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", depotAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	hdr := &wire.OpenHeader{
		Session:    wire.NewSessionID(),
		Flags:      wire.FlagStaged | wire.FlagDigest,
		Route:      []string{depotAddr, target},
		ContentLen: uint64(contentLen),
	}
	enc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	if acc, err := wire.ReadAcceptFrame(nc); err != nil || acc.Code != wire.CodeOK {
		t.Fatalf("admission: %+v, %v", acc, err)
	}
	return nc
}

// An upload stalled one byte short of its MD5 trailer has handed the
// target every byte it wrote and nothing more: the target cannot verify,
// and nothing is in custody. The last byte reaches the target only after
// the custody commit, and then the payload arrives whole.
func TestStagedCutThroughStalledOneByteShort(t *testing.T) {
	payload := randomPayload(200 << 10)
	stored := withTrailer(payload)
	for _, m := range custodyModes {
		t.Run(m.name, func(t *testing.T) {
			d, j, depotAddr, _ := cutThroughDepot(t, m.journaled, Config{})
			short := make(chan struct{})
			liveAtLast := make(chan int, 1)
			got := make(chan []byte, 1)
			target := scriptedTarget(t, false, func(_ int, nc net.Conn, hdr *wire.OpenHeader) {
				nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}).Encode())
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				data := make([]byte, len(stored))
				if _, err := io.ReadFull(nc, data[:len(stored)-1]); err != nil {
					return
				}
				close(short)
				if _, err := io.ReadFull(nc, data[len(stored)-1:]); err != nil {
					return
				}
				live := -1
				if j != nil {
					live = j.Live()
				}
				liveAtLast <- live
				rest, _ := io.ReadAll(nc)
				hangUp(nc)
				got <- append(data, rest...)
			})
			up := rawStagedOpen(t, depotAddr, target, len(payload))
			if _, err := up.Write(stored[:len(stored)-1]); err != nil {
				t.Fatal(err)
			}
			await(t, short, "every byte the upload wrote at the target")
			if j != nil && j.Live() != 0 {
				t.Fatalf("journal holds %d sessions before the upload ended", j.Live())
			}
			if st := d.Stats(); st.Staged != 0 || st.StagedDelivered != 0 {
				t.Fatalf("staged %d, delivered %d before the upload ended", st.Staged, st.StagedDelivered)
			}
			if _, err := up.Write(stored[len(stored)-1:]); err != nil {
				t.Fatal(err)
			}
			if acc, err := wire.ReadAcceptFrame(up); err != nil || acc.Code != wire.CodeCustody {
				t.Fatalf("custody commit: %+v, %v", acc, err)
			}
			if live := await(t, liveAtLast, "the last byte"); j != nil && live != 1 {
				t.Fatalf("the last byte reached the target with %d sessions journaled, want 1", live)
			}
			if data := await(t, got, "the delivery"); !bytes.Equal(data, stored) {
				t.Fatalf("target got %d bytes, want the %d stored bytes", len(data), len(stored))
			}
			waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == 1 })
		})
	}
}

// An upload cut mid-payload fails the delivery already under way: the
// session ends staged-upload-failed, nothing is journaled or left on
// disk, and the target's session ends in an error, unverified — with a
// digest or with a declared length alone.
func TestStagedCutThroughUploadCutMidPayload(t *testing.T) {
	payload := randomPayload(512 << 10)
	for _, m := range custodyModes {
		for _, sc := range []struct {
			name string
			opts []core.Option
		}{
			{"digest", []core.Option{core.WithDigest()}},
			{"length-only", nil},
		} {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				target := newWatchTarget(t)
				d, j, depotAddr, dir := cutThroughDepot(t, m.journaled, Config{})
				opts := append([]core.Option{core.WithStaged(), core.WithContentLength(int64(len(payload)))}, sc.opts...)
				c, err := core.Dial(context.Background(),
					core.Route{Via: []string{depotAddr}, Target: target.addr}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Write(payload[:len(payload)/2]); err != nil {
					t.Fatal(err)
				}
				await(t, target.first, "the target's first byte")
				c.Close() // the initiator goes away mid-payload

				got := await(t, target.done, "the target's session end")
				if got.err == nil || got.verified {
					t.Fatalf("target session ended err %v, verified %v after a cut upload; want an error, unverified", got.err, got.verified)
				}
				assertUploadFailed(t, d, j, dir)
			})
		}
	}
}

// assertUploadFailed checks that a staged session ended with its upload:
// staged-upload-failed, with nothing counted staged, nothing in custody
// and, when journaled, no journal entry or payload file.
func assertUploadFailed(t *testing.T, d *Depot, j *custody.Journal, dir string) {
	t.Helper()
	waitStats(t, d, "the session's end", func(Stats) bool { return len(d.Sessions().Recent) > 0 })
	if recent := d.Sessions().Recent; recent[0].Outcome != OutcomeStagedUpFailed {
		t.Fatalf("session ended %s, want %s", recent[0].Outcome, OutcomeStagedUpFailed)
	}
	if st := d.Stats(); st.Staged != 0 || st.StagedDelivered != 0 || st.CustodyBytes != 0 {
		t.Fatalf("stats after a failed upload: %+v", st)
	}
	if j == nil {
		return
	}
	if j.Live() != 0 {
		t.Fatalf("journal holds %d sessions after a failed upload", j.Live())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+custody.PayloadSuffix)); len(files) != 0 {
		t.Fatalf("payload files left behind: %v", files)
	}
}

// An upload that stalls fails once it has sent nothing for the depot's
// idle bound, with the initiator still connected: the session ends
// staged-upload-failed, and the target's session, which the early
// delivery attempt opened, ends in an error instead of staying open.
func TestStagedCutThroughStalledUploadTimesOut(t *testing.T) {
	const idle = 300 * time.Millisecond
	payload := randomPayload(256 << 10)
	for _, m := range custodyModes {
		t.Run(m.name, func(t *testing.T) {
			target := newWatchTarget(t)
			d, j, depotAddr, dir := cutThroughDepot(t, m.journaled, Config{handshakeTimeout: idle})
			c, err := core.Dial(context.Background(),
				core.Route{Via: []string{depotAddr}, Target: target.addr},
				core.WithStaged(), core.WithDigest(), core.WithContentLength(int64(len(payload))))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(payload[:len(payload)/2]); err != nil {
				t.Fatal(err)
			}
			await(t, target.first, "the target's first byte")
			stalled := time.Now()

			got := await(t, target.done, "the target's session end")
			if got.err == nil || got.verified {
				t.Fatalf("target session ended err %v, verified %v after a stalled upload; want an error, unverified", got.err, got.verified)
			}
			if waited := time.Since(stalled); waited > 5*time.Second {
				t.Fatalf("target session held %v by a stalled upload, idle bound %v", waited, idle)
			}
			assertUploadFailed(t, d, j, dir)
			if err := c.AwaitCustody(); err == nil {
				t.Fatal("custody confirmed for a stalled upload")
			}
		})
	}
}

// A target that is down while the upload runs gets the payload after the
// commit, from custody, exactly once.
func TestStagedCutThroughTargetDownDuringUpload(t *testing.T) {
	payload := randomPayload(300 << 10)
	for _, m := range custodyModes {
		t.Run(m.name, func(t *testing.T) {
			targetAddr := reserveAddr(t)
			d, _, depotAddr, _ := cutThroughDepot(t, m.journaled, Config{})
			stageThrough(t, depotAddr, targetAddr, payload)
			waitStats(t, d, "a failed attempt", func(st Stats) bool { return st.DialFailures > 0 })
			ln, err := net.Listen("tcp", targetAddr)
			if err != nil {
				t.Skipf("could not rebind %s: %v", targetAddr, err)
			}
			target := startWatchTarget(t, ln)
			got := await(t, target.done, "the late delivery")
			if got.err != nil || !got.verified || !bytes.Equal(got.data, payload) {
				t.Fatalf("delivered %d bytes, verified %v, err %v; want the payload verified", len(got.data), got.verified, got.err)
			}
			waitStats(t, d, "the delivery", func(st Stats) bool { return st.StagedDelivered == 1 })
			st := d.Stats()
			if n := target.accepted.Load(); n != 1 {
				t.Fatalf("target accepted %d sessions, want 1", n)
			}
			if st.StagedDeliveryAttempts < 2 {
				t.Fatalf("attempts = %d, want the failed first one and the delivery", st.StagedDeliveryAttempts)
			}
		})
	}
}
