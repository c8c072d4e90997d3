// Package custody makes staged delivery crash-safe: a write-ahead journal
// records every payload a depot has taken into custody, so an
// acknowledged staged session survives a process crash or redeploy and
// resumes redelivery after restart.
//
// The paper's §III custody model ("the ultimate sending and receiving
// ports need not exist at the same time") is only trustworthy if an
// intermediary that has acknowledged a payload cannot silently lose it.
// The journal provides that guarantee with two on-disk structures under
// one state directory:
//
//   - per-session payload files (<session-hex>.payload), written and
//     fsynced, with the state directory, before the session is
//     journaled;
//   - an append-only journal (custody.journal) of length-prefixed,
//     CRC32-guarded records: an admit record carrying the session's
//     routing header fields once its payload is durable, and a done
//     record once the payload is delivered or abandoned.
//
// The commit protocol orders payload-then-journal: a crash between the
// two leaves an orphan payload file (removed by the next Open's
// compaction) but never a journaled session without its bytes. An
// append that fails part-way is cut back at once, so no record is ever
// appended behind a torn one. Open scans the journal, truncates a torn
// tail at the first corrupt record (a partially flushed append), drops
// entries whose payload file is missing or short, rewrites the journal
// with only live entries, and hands the survivors to the depot for
// re-admission.
package custody

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"lsl/internal/wire"
)

// Journal file layout constants.
const (
	// JournalName is the append-only record log inside the state dir.
	JournalName = "custody.journal"
	// PayloadSuffix names per-session payload spill files.
	PayloadSuffix = ".payload"
	// MaxRecordLen bounds one journal record body: a full open header's
	// worth of route bytes plus the fixed fields, with slack. The decoder
	// refuses anything larger before allocating.
	MaxRecordLen = wire.MaxHeaderLen + 128
	// recordHeaderLen is the per-record framing: u32 body length + u32
	// CRC32 (IEEE) of the body.
	recordHeaderLen = 8
)

// Record types.
const (
	// RecAdmit journals a session whose payload is durably on disk.
	RecAdmit = 1
	// RecDone retires an admit: the payload was delivered or abandoned.
	RecDone = 2
)

// Decode errors. ErrCorrupt (bad CRC, bad structure) and ErrTruncated
// (clean EOF mid-record) both mark the end of the journal's valid prefix.
var (
	ErrCorrupt   = errors.New("custody: corrupt journal record")
	ErrTruncated = errors.New("custody: truncated journal record")
	ErrClosed    = errors.New("custody: journal closed")
)

// FsyncPolicy selects how hard the journal pushes bytes to stable
// storage before acknowledging custody.
type FsyncPolicy int

const (
	// FsyncAlways syncs the payload file and the journal append before
	// the custody commit is acknowledged — a crash after the ACK cannot
	// lose the payload. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever skips fsync entirely: durable against process crashes
	// (the page cache survives) but not against power loss. For tests
	// and throwaway tiers.
	FsyncNever
)

// ParseFsync maps the operator-facing -fsync flag values.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "always":
		return FsyncAlways, nil
	case "never", "none":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("custody: unknown fsync policy %q (want always or never)", s)
}

// Entry is one custody session's journaled routing state — everything
// needed to rebuild the forwarding header and resume redelivery after a
// restart.
type Entry struct {
	Session    wire.SessionID
	Flags      uint16
	HopIndex   uint8
	Route      []string
	ContentLen uint64
	Offset     uint64
	// Total is the payload file size: content length plus the MD5
	// trailer when the session digests. The trailer is stored and
	// forwarded verbatim, so end-to-end integrity still verifies at the
	// ultimate receiver after a crash-restart cycle.
	Total int64
}

// validate applies the wire route rule so a journal can never admit an
// entry the forwarding path would refuse to encode.
func (e *Entry) validate() error {
	if err := wire.ValidRoute(e.Route); err != nil {
		return fmt.Errorf("custody: %w", err)
	}
	if e.Total < 0 {
		return fmt.Errorf("custody: negative payload size %d", e.Total)
	}
	return nil
}

// Record is one decoded journal record.
type Record struct {
	Type byte
	// Entry is populated for RecAdmit records.
	Entry Entry
	// Session and Delivered are populated for RecDone records.
	Session   wire.SessionID
	Delivered bool
}

// admitFixedLen is the admit body before the route entries: type(1)
// session(16) flags(2) hopIndex(1) contentLen(8) offset(8) total(8)
// routeLen(1).
const admitFixedLen = 1 + 16 + 2 + 1 + 8 + 8 + 8 + 1

// encodeAdmit serializes an admit record body.
func encodeAdmit(e *Entry) []byte {
	body := make([]byte, 0, admitFixedLen+wire.RouteSize(e.Route))
	body = append(body, RecAdmit)
	body = append(body, e.Session[:]...)
	body = wire.AppendU16(body, e.Flags)
	body = append(body, e.HopIndex)
	body = wire.AppendU64(body, e.ContentLen)
	body = wire.AppendU64(body, e.Offset)
	body = wire.AppendU64(body, uint64(e.Total))
	body = append(body, uint8(len(e.Route)))
	return wire.AppendRoute(body, e.Route)
}

// encodeDone serializes a done record body.
func encodeDone(id wire.SessionID, delivered bool) []byte {
	body := append(make([]byte, 0, 18), RecDone)
	body = append(body, id[:]...)
	if delivered {
		return append(body, 1)
	}
	return append(body, 0)
}

// decodeBody parses one record body. It never panics on malformed input
// and bounds every allocation by the already-checked body length.
func decodeBody(body []byte) (*Record, error) {
	d := wire.NewDec(body)
	r := &Record{Type: d.U8()}
	switch r.Type {
	case RecAdmit:
		e := &r.Entry
		d.Fill(e.Session[:])
		e.Flags = d.U16()
		e.HopIndex = d.U8()
		e.ContentLen = d.U64()
		e.Offset = d.U64()
		total := d.U64()
		e.Route = d.Route(int(d.U8()))
		if d.Err() != nil || d.Len() != 0 || total > 1<<62 {
			return nil, ErrCorrupt
		}
		e.Total = int64(total)
	case RecDone:
		d.Fill(r.Session[:])
		delivered := d.U8()
		// The encoder writes delivered as 0 or 1 only.
		if d.Err() != nil || d.Len() != 0 || delivered > 1 {
			return nil, ErrCorrupt
		}
		r.Delivered = delivered == 1
	default:
		return nil, ErrCorrupt
	}
	return r, nil
}

// ReadRecord reads and decodes one journal record from r. A clean EOF at
// a record boundary returns io.EOF; a record cut mid-frame returns
// ErrTruncated; a CRC mismatch or structural violation returns
// ErrCorrupt. The decoder never panics and never allocates more than
// MaxRecordLen for one record.
func ReadRecord(r io.Reader) (*Record, error) {
	var hdr [recordHeaderLen]byte
	if err := wire.ReadNext(r, hdr[:], ErrTruncated); err != nil {
		return nil, err
	}
	d := wire.NewDec(hdr[:])
	n, sum := d.U32(), d.U32()
	body, err := wire.ReadBody(r, int(n), MaxRecordLen, ErrCorrupt, ErrTruncated)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrCorrupt
	}
	return decodeBody(body)
}

// frameRecord wraps a body with its length + CRC header.
func frameRecord(body []byte) []byte {
	out := make([]byte, 0, recordHeaderLen+len(body))
	out = wire.AppendU32(out, uint32(len(body)))
	out = wire.AppendU32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// Config tunes a journal.
type Config struct {
	// Fsync selects the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// CompactEvery rewrites the journal after this many done records
	// accumulate since the last compaction (0 = 256). Open always
	// compacts.
	CompactEvery int
	// Logf, when set, receives one line per recovery/repair event.
	Logf func(format string, args ...interface{})
}

// Journal is a custody write-ahead log rooted at one state directory.
// All methods are safe for concurrent use.
type Journal struct {
	dir string
	cfg Config

	mu        sync.Mutex
	f         *os.File
	size      int64 // journal length through its last whole record
	torn      error // set when a failed append could not be cut back
	live      map[wire.SessionID]Entry
	liveBytes int64
	dead      int
	recovered []Entry
	closed    bool

	// Test seams, nil in production: observe sees each durability step
	// of a commit as it starts, and write stands in for the journal
	// file's Write on every append.
	observe func(step string)
	write   func(f *os.File, p []byte) (int, error)
}

// Open loads (or creates) the journal under dir, repairs a torn tail,
// compacts retired entries, removes orphan payload files, and returns
// the journal with the surviving custody sessions available via
// Recovered.
func Open(dir string, cfg Config) (*Journal, error) {
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 256
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, cfg: cfg, live: make(map[wire.SessionID]Entry)}
	if err := j.recover(); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *Journal) logf(format string, args ...interface{}) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}

// Dir returns the journal's state directory.
func (j *Journal) Dir() string { return j.dir }

// recover scans the journal, validates payload files, and rewrites the
// log with only live entries.
func (j *Journal) recover() error {
	path := filepath.Join(j.dir, JournalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o600)
	if err != nil {
		return err
	}
	admits := make(map[wire.SessionID]Entry)
	var order []wire.SessionID
	for {
		rec, err := ReadRecord(f)
		if err == io.EOF {
			break
		}
		if err == ErrCorrupt || err == ErrTruncated {
			// A torn append: everything before it is valid, everything
			// after it is garbage from a mid-write crash. The compaction
			// rewrite below discards the tail.
			j.logf("custody: journal tail unreadable (%v), keeping valid prefix", err)
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		switch rec.Type {
		case RecAdmit:
			if _, seen := admits[rec.Entry.Session]; !seen {
				order = append(order, rec.Entry.Session)
			}
			admits[rec.Entry.Session] = rec.Entry
		case RecDone:
			delete(admits, rec.Session)
		}
	}
	f.Close()
	// Keep only sessions whose payload file really holds every byte the
	// admit record promised: a short or missing file means the
	// payload-then-journal ordering was violated by outside interference
	// (manual deletion, disk trouble) — refuse to redeliver garbage.
	for _, id := range order {
		e, ok := admits[id]
		if !ok {
			continue
		}
		st, err := os.Stat(j.payloadPath(id))
		if err != nil || st.Size() != e.Total {
			j.logf("custody: dropping session %s: payload file invalid (%v)", id, err)
			delete(admits, id)
			os.Remove(j.payloadPath(id))
			continue
		}
		j.live[id] = e
		j.liveBytes += e.Total
		j.recovered = append(j.recovered, e)
	}
	sort.Slice(j.recovered, func(a, b int) bool {
		return j.recovered[a].Session.String() < j.recovered[b].Session.String()
	})
	if err := j.rewriteLocked(); err != nil {
		return err
	}
	j.removeOrphans()
	return nil
}

// removeOrphans deletes payload files with no live journal entry —
// sessions that crashed between payload write and journal append, or
// whose done record was journaled but whose unlink was lost.
func (j *Journal) removeOrphans() {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, PayloadSuffix) {
			continue
		}
		id, err := wire.ParseSessionID(strings.TrimSuffix(name, PayloadSuffix))
		if err != nil {
			continue
		}
		if _, ok := j.live[id]; !ok {
			j.logf("custody: removing orphan payload %s", name)
			os.Remove(filepath.Join(j.dir, name))
		}
	}
}

// rewriteLocked rebuilds the journal with one admit record per live
// session, atomically (write temp, fsync, rename), and reopens it for
// appending. Callers hold the lock or are single-threaded (Open).
func (j *Journal) rewriteLocked() error {
	path := filepath.Join(j.dir, JournalName)
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	ids := make([]wire.SessionID, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].String() < ids[b].String() })
	var size int64
	for _, id := range ids {
		e := j.live[id]
		n, err := tf.Write(frameRecord(encodeAdmit(&e)))
		if err != nil {
			tf.Close()
			os.Remove(tmp)
			return err
		}
		size += int64(n)
	}
	if j.cfg.Fsync == FsyncAlways {
		if err := tf.Sync(); err != nil {
			tf.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	j.f = f
	j.size = size
	j.dead = 0
	return j.syncDir()
}

// syncDir fsyncs the state directory under FsyncAlways, so a new spill
// file, a rename or an unlink is durable. A filesystem that cannot fsync
// a directory (EINVAL, ENOTSUP) leaves it best effort; any other error
// is returned.
func (j *Journal) syncDir() error {
	if j.cfg.Fsync != FsyncAlways {
		return nil
	}
	j.note("sync dir")
	df, err := os.Open(j.dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return dirSyncErr(df.Sync())
}

// dirSyncErr drops the errors of a filesystem without directory fsync.
func dirSyncErr(err error) error {
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		return nil
	}
	return err
}

// note tells the observe seam that a durability step starts.
func (j *Journal) note(step string) {
	if j.observe != nil {
		j.observe(step)
	}
}

// appendLocked writes one record at the journal's end and, under
// FsyncAlways, syncs it. A write that fails cuts the journal back to its
// last whole record: Open reads a torn record as the journal's end, so
// every admit appended behind one would be lost on recovery. If the cut
// fails too, the journal refuses every later append.
func (j *Journal) appendLocked(body []byte) error {
	if j.torn != nil {
		return j.torn
	}
	rec := frameRecord(body)
	j.note("append")
	var n int
	var err error
	if j.write != nil {
		n, err = j.write(j.f, rec)
	} else {
		n, err = j.f.Write(rec)
	}
	if err != nil {
		if terr := j.f.Truncate(j.size); terr != nil {
			j.torn = fmt.Errorf("custody: journal torn after %d bytes: %w", j.size, terr)
		}
		return err
	}
	j.size += int64(n)
	if j.cfg.Fsync == FsyncAlways {
		j.note("sync journal")
		return j.f.Sync()
	}
	return nil
}

// Recovered returns the custody sessions that survived the last Open,
// oldest journal order first. The caller (the depot) re-admits them and
// resumes redelivery.
func (j *Journal) Recovered() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, len(j.recovered))
	copy(out, j.recovered)
	return out
}

// LiveBytes reports the aggregate payload bytes currently journaled.
func (j *Journal) LiveBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveBytes
}

// Live reports the number of sessions currently in custody.
func (j *Journal) Live() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live)
}

func (j *Journal) payloadPath(id wire.SessionID) string {
	return filepath.Join(j.dir, id.String()+PayloadSuffix)
}

// admit appends the admit record under the journal lock.
func (j *Journal) admit(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.appendLocked(encodeAdmit(&e)); err != nil {
		return err
	}
	j.live[e.Session] = e
	j.liveBytes += e.Total
	return nil
}

// Complete retires a custody session: a done record is journaled, the
// payload file is removed, and the journal compacts once enough retired
// records accumulate. Completing an unknown session is a no-op.
func (j *Journal) Complete(id wire.SessionID, delivered bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	e, ok := j.live[id]
	if !ok {
		return nil
	}
	if err := j.appendLocked(encodeDone(id, delivered)); err != nil {
		return err
	}
	delete(j.live, id)
	j.liveBytes -= e.Total
	os.Remove(j.payloadPath(id))
	j.dead++
	if j.dead >= j.cfg.CompactEvery {
		if err := j.rewriteLocked(); err != nil {
			return err
		}
	}
	return nil
}

// OpenPayload opens a custody session's payload file for one redelivery
// attempt. Each attempt opens its own handle, so the payload pins no
// heap between attempts — the journal file IS the custody buffer.
func (j *Journal) OpenPayload(id wire.SessionID) (*os.File, error) {
	return os.Open(j.payloadPath(id))
}

// Close releases the journal file handle. Live entries stay on disk for
// the next Open.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
