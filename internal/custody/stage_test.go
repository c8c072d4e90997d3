package custody

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// stagers opens a journaled and an in-memory stage for the same entry.
func stagers(t *testing.T, e Entry) map[string]*Stager {
	t.Helper()
	j, err := Open(t.TempDir(), Config{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	st, err := j.Stage(e)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Stager{"journal": st, "memory": StageInMemory(e.Total)}
}

// A follower reads what the stage has written, all of it but the last
// byte before Commit, and that last byte only once Commit has journaled
// the session.
func TestFollowHoldsLastByteUntilCommit(t *testing.T) {
	payload := bytes.Repeat([]byte("follow"), 10000)
	e := testEntry(int64(len(payload)))
	for name, st := range stagers(t, e) {
		t.Run(name, func(t *testing.T) {
			r, err := st.Follow()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := make([]byte, len(payload))
			if _, err := st.Write(payload[:1000]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(r, got[:1000]); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Write(payload[1000:]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(r, got[1000:len(payload)-1]); err != nil {
				t.Fatal(err)
			}
			type last struct {
				live int
				err  error
			}
			done := make(chan last, 1)
			go func() {
				_, err := io.ReadFull(r, got[len(payload)-1:])
				l := last{live: -1, err: err}
				if st.j != nil {
					l.live = st.j.Live()
				}
				done <- l
			}()
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			l := <-done
			if l.err != nil {
				t.Fatal(l.err)
			}
			if st.j != nil && l.live != 1 {
				t.Fatalf("the last byte was read with %d sessions journaled, want 1", l.live)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("follower read other bytes than were staged")
			}
			if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("read past the end: %d, %v", n, err)
			}
		})
	}
}

// Abort fails a follower waiting for bytes, and every later Follow.
func TestFollowAbortFailsReader(t *testing.T) {
	e := testEntry(100)
	for name, st := range stagers(t, e) {
		t.Run(name, func(t *testing.T) {
			r, err := st.Follow()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			st.Write(make([]byte, 40))
			if _, err := io.ReadFull(r, make([]byte, 40)); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.Read(make([]byte, 10))
				done <- err
			}()
			st.Abort()
			if err := <-done; !errors.Is(err, ErrAborted) {
				t.Fatalf("waiting read = %v, want ErrAborted", err)
			}
			if _, err := st.Follow(); !errors.Is(err, ErrAborted) {
				t.Fatalf("Follow after Abort = %v, want ErrAborted", err)
			}
		})
	}
}

// The spill file's descriptor outlives Commit while a follower reads it,
// a follower can seek (a resumed delivery), and once every follower has
// closed, a journaled stage is followed from its committed spill file.
func TestFollowAfterCommit(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 3000)
	e := testEntry(int64(len(payload)))
	for name, st := range stagers(t, e) {
		t.Run(name, func(t *testing.T) {
			r, err := st.Follow()
			if err != nil {
				t.Fatal(err)
			}
			st.Write(payload)
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			if off, err := r.Seek(12345, io.SeekStart); err != nil || off != 12345 {
				t.Fatalf("seek: %d, %v", off, err)
			}
			rest, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(rest, payload[12345:]) {
				t.Fatalf("read %d bytes past the seek (%v), want %d", len(rest), err, len(payload)-12345)
			}
			r.Close()
			again, err := st.Follow()
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if all, err := io.ReadAll(again); err != nil || !bytes.Equal(all, payload) {
				t.Fatalf("second follower read %d bytes (%v), want the payload", len(all), err)
			}
		})
	}
}

// A stage takes no more than its entry's Total.
func TestStageOverrunRefused(t *testing.T) {
	e := testEntry(10)
	for name, st := range stagers(t, e) {
		t.Run(name, func(t *testing.T) {
			defer st.Abort()
			if _, err := st.Write(make([]byte, 11)); err == nil {
				t.Fatal("a write past Total was taken")
			}
		})
	}
}

// Under FsyncAlways a commit makes the payload and its directory entry
// durable before the admit record is appended: a host crash cannot leave
// a journaled session whose file the directory lost.
func TestCommitSyncsDirBeforeAdmit(t *testing.T) {
	j, err := Open(t.TempDir(), Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var steps []string
	j.observe = func(step string) { steps = append(steps, step) }
	stagePayload(t, j, testEntry(64), make([]byte, 64))
	want := []string{"sync payload", "sync dir", "append", "sync journal"}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("commit steps %q, want %q", steps, want)
	}
}

// A filesystem that cannot fsync a directory keeps directory sync best
// effort; any other failure is reported.
func TestDirSyncErr(t *testing.T) {
	for _, c := range []struct {
		err  error
		want error
	}{
		{nil, nil},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EINVAL}, nil},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.ENOTSUP}, nil},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EIO}, syscall.EIO},
	} {
		if got := dirSyncErr(c.err); !errors.Is(got, c.want) || (c.want == nil) != (got == nil) {
			t.Errorf("dirSyncErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	j := &Journal{dir: filepath.Join(t.TempDir(), "gone"), cfg: Config{Fsync: FsyncAlways}}
	if err := j.syncDir(); err == nil {
		t.Error("syncDir of a missing directory reported no error")
	}
}

// An append that fails part-way is cut back to the last whole record, so
// an admit journaled after it is recovered by the next Open.
func TestTornAppendCutBack(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	first, torn, later := testEntry(8), testEntry(8), testEntry(8)
	stagePayload(t, j, first, make([]byte, 8))
	j.write = func(f *os.File, p []byte) (int, error) {
		j.write = nil
		n, _ := f.Write(p[:len(p)/2])
		return n, errors.New("disk full")
	}
	st, err := j.Stage(torn)
	if err != nil {
		t.Fatal(err)
	}
	st.Write(make([]byte, 8))
	if err := st.Commit(); err == nil {
		t.Fatal("a commit whose admit was torn succeeded")
	}
	stagePayload(t, j, later, make([]byte, 8))
	if err := j.Complete(first.Session, true); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(dir, Config{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec := j2.Recovered()
	if len(rec) != 1 || rec[0].Session != later.Session {
		t.Fatalf("recovered %d sessions %+v, want only the admit after the torn one", len(rec), rec)
	}
}

// A session recovered by Open is delivered through its committed stage,
// whose followers read the spill file the dead process left.
func TestCommittedFollowsRecoveredPayload(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("recovered"), 500)
	stagePayload(t, j, testEntry(int64(len(payload))), payload)
	j.Close()

	j2, err := Open(dir, Config{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec := j2.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(rec))
	}
	r, err := j2.Committed(rec[0]).Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if all, err := io.ReadAll(r); err != nil || !bytes.Equal(all, payload) {
		t.Fatalf("read %d bytes (%v), want the %d-byte payload", len(all), err, len(payload))
	}
}
