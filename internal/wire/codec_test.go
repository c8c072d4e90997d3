package wire

import (
	"bytes"
	"testing"
)

// Cursor reads FuzzDec draws from: an op byte's value mod numOps picks
// the read, its high 5 bits size Fill and Route.
const (
	opU8 = iota
	opU16
	opU32
	opU64
	opFill
	opName
	opRoute
	numOps
)

// FuzzDec drives the cursor with an arbitrary sequence of reads over
// arbitrary bytes. It must never panic; its first error sticks, after
// which every read returns zero and consumes nothing; and while it has
// not failed, re-encoding what it returned gives back exactly the bytes
// it consumed.
func FuzzDec(f *testing.F) {
	route := []string{"depot1:5000", "server:6000"}
	f.Add([]byte{opName, opName, opRoute | 2<<3, opU8},
		AppendRoute(AppendName(AppendName(nil, "a"), "bb"), route))
	f.Add([]byte{opU8, opU16, opU32, opU64, opFill | 16<<3}, bytes.Repeat([]byte{0xa5}, 40))
	f.Add([]byte{opName}, []byte{0, 0})
	f.Add([]byte{opRoute | 17<<3}, []byte{})
	g, err := readGolden(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Repeat([]byte{opU8}, len(g["open_plain"])), g["open_plain"])
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := NewDec(data)
		var enc []byte
		for _, op := range ops {
			failed, before := d.Err(), d.Len()
			var zero bool
			switch op % numOps {
			case opU8:
				v := d.U8()
				enc, zero = append(enc, v), v == 0
			case opU16:
				v := d.U16()
				enc, zero = AppendU16(enc, v), v == 0
			case opU32:
				v := d.U32()
				enc, zero = AppendU32(enc, v), v == 0
			case opU64:
				v := d.U64()
				enc, zero = AppendU64(enc, v), v == 0
			case opFill:
				p := make([]byte, op>>3)
				d.Fill(p)
				enc, zero = append(enc, p...), bytes.Count(p, []byte{0}) == len(p)
			case opName:
				s := d.Name()
				if d.Err() == nil && !ValidName(s) {
					t.Fatalf("Name returned invalid %q", s)
				}
				enc, zero = AppendName(enc, s), s == ""
			case opRoute:
				r := d.Route(int(op>>3) % (MaxRouteEntries + 2))
				if d.Err() == nil && ValidRoute(r) != nil {
					t.Fatalf("Route returned invalid %q", r)
				}
				enc, zero = AppendRoute(enc, r), r == nil
			}
			if failed != nil && (d.Err() != failed || !zero || d.Len() != before) {
				t.Fatalf("read after %v: err %v, zero %v, consumed %d", failed, d.Err(), zero, before-d.Len())
			}
			if err := d.Err(); err != nil && err != ErrTruncated && err != ErrBadRoute {
				t.Fatalf("unexpected error %v", err)
			}
		}
		consumed := data[:len(data)-d.Len()]
		if d.Err() == nil && !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoded %x, consumed %x", enc, consumed)
		}
	})
}
