package custody

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"lsl/internal/wire"
)

// addGolden seeds f with every golden record.
func addGolden(f *testing.F) {
	g, err := readGolden(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(g[name])
	}
}

// FuzzReadJournalRecord drives the record decoder with arbitrary bytes:
// it must never panic, never allocate beyond MaxRecordLen, and anything
// it accepts must satisfy the same structural limits the forwarding
// path enforces — a corrupt journal may lose custody entries but can
// never resurrect an undeliverable one — and re-encode to exactly the
// bytes it consumed. A done record's delivered byte other than 0 or 1 is
// refused as corrupt, so it needs no exemption here.
func FuzzReadJournalRecord(f *testing.F) {
	e := Entry{
		Session:    wire.SessionID{1, 2, 3},
		Flags:      wire.FlagDigest,
		Route:      []string{"a:1", "b:2", "c:3"},
		ContentLen: 512,
		Total:      528,
	}
	f.Add(frameRecord(encodeAdmit(&e)))
	f.Add(frameRecord(encodeDone(e.Session, true)))
	f.Add(frameRecord(encodeDone(e.Session, false)))
	// Truncated frames and corrupted checksums.
	full := frameRecord(encodeAdmit(&e))
	f.Add(full[:len(full)-3])
	f.Add(full[:5])
	flipped := append([]byte(nil), full...)
	flipped[6] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	addGolden(f)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := ReadRecord(bytes.NewReader(raw))
		if err != nil {
			if rec != nil {
				t.Fatal("record returned alongside error")
			}
			return
		}
		switch rec.Type {
		case RecAdmit:
			if err := rec.Entry.validate(); err != nil {
				t.Fatalf("decoder accepted invalid entry: %v", err)
			}
		case RecDone:
		default:
			t.Fatalf("decoder produced unknown record type %d", rec.Type)
		}
		if enc := encodeRecord(rec); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("re-encoded %x, consumed %x", enc, raw[:len(enc)])
		}
	})
}

// Fuzz the scan path end-to-end: arbitrary journal bytes must recover
// without panicking, a valid prefix followed by garbage must keep the
// prefix, and every record read must re-encode to the bytes it consumed.
func FuzzJournalScan(f *testing.F) {
	e := Entry{Session: wire.SessionID{9}, Route: []string{"x:1", "y:2"}, ContentLen: 4, Total: 4}
	valid := frameRecord(encodeAdmit(&e))
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	f.Add([]byte("not a journal at all"))
	g, err := readGolden(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(append([]byte(nil), g["admit"]...), g["done_delivered"]...), g["done_abandoned"][:9]...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		for {
			at := len(raw) - r.Len()
			rec, err := ReadRecord(r)
			if err == io.EOF || err == ErrCorrupt || err == ErrTruncated {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
			if enc := encodeRecord(rec); !bytes.Equal(enc, raw[at:len(raw)-r.Len()]) {
				t.Fatalf("re-encoded %x, consumed %x", enc, raw[at:len(raw)-r.Len()])
			}
		}
	})
}
