package wire

import (
	"bytes"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func sampleHeader() *OpenHeader {
	return &OpenHeader{
		Flags:      FlagDigest,
		Session:    NewSessionID(),
		HopIndex:   0,
		Route:      []string{"depot1:5000", "depot2:5000", "server:6000"},
		ContentLen: 1 << 20,
		Offset:     0,
	}
}

func TestOpenRoundTrip(t *testing.T) {
	h := sampleHeader()
	enc, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadOpenHeader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != h.Flags || got.Session != h.Session || got.HopIndex != h.HopIndex ||
		got.ContentLen != h.ContentLen || got.Offset != h.Offset {
		t.Fatalf("mismatch: %+v vs %+v", got, h)
	}
	if len(got.Route) != 3 || got.Route[2] != "server:6000" {
		t.Fatalf("route: %v", got.Route)
	}
}

func TestOpenRoundTripUnknownLength(t *testing.T) {
	h := sampleHeader()
	h.ContentLen = UnknownLength
	enc, _ := h.Encode()
	got, err := ReadOpenHeader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentLen != UnknownLength {
		t.Fatalf("content len %x", got.ContentLen)
	}
}

func TestHeaderFollowedByPayload(t *testing.T) {
	h := sampleHeader()
	enc, _ := h.Encode()
	stream := append(append([]byte{}, enc...), []byte("payload-bytes")...)
	r := bytes.NewReader(stream)
	if _, err := ReadOpenHeader(r); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "payload-bytes" {
		t.Fatalf("payload disturbed: %q", rest)
	}
}

func TestNextHopProgression(t *testing.T) {
	h := sampleHeader()
	next, ok := h.NextHop()
	if !ok || next != "depot2:5000" {
		t.Fatalf("next=%q ok=%v", next, ok)
	}
	if h.Final() {
		t.Fatal("not final yet")
	}
	h.HopIndex = 2
	if _, ok := h.NextHop(); ok {
		t.Fatal("no next hop at target")
	}
	if !h.Final() {
		t.Fatal("should be final")
	}
}

func TestRemainingHops(t *testing.T) {
	h := sampleHeader()
	h.HopIndex = 1
	rem := h.RemainingHops()
	if len(rem) != 2 || rem[0] != "depot2:5000" {
		t.Fatalf("remaining=%v", rem)
	}
}

func TestValidateRejectsBadRoutes(t *testing.T) {
	h := sampleHeader()
	h.Route = nil
	if err := h.Validate(); err == nil {
		t.Fatal("empty route")
	}
	h = sampleHeader()
	h.Route = make([]string, MaxRouteEntries+1)
	for i := range h.Route {
		h.Route[i] = "a:1"
	}
	if err := h.Validate(); err == nil {
		t.Fatal("too many hops")
	}
	h = sampleHeader()
	h.Route = []string{strings.Repeat("x", MaxAddrLen+1)}
	if err := h.Validate(); err == nil {
		t.Fatal("oversized addr")
	}
	h = sampleHeader()
	h.HopIndex = 3
	if err := h.Validate(); err == nil {
		t.Fatal("hop index out of range")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	enc, _ := sampleHeader().Encode()
	enc[0] = 'X'
	if _, err := ReadOpenHeader(bytes.NewReader(enc)); err != ErrBadMagic {
		t.Fatalf("err=%v", err)
	}
}

// TestForeignMagicRefusedEarly pins the refusal a trunk probe relies on: a
// reader handed a trunk hello (12 bytes, fewer than a fixed header) on a
// connection that stays open answers ErrBadMagic at once instead of
// waiting for the rest of a header that will never come.
func TestForeignMagicRefusedEarly(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go c.Write(append([]byte("LSLM"), make([]byte, 8)...))
	s.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err := ReadOpenHeader(s)
	if err != ErrBadMagic {
		t.Fatalf("err=%v, want ErrBadMagic", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("refusal took %v", took)
	}
}

// TestFinishOpenHeaderAnySplit decodes one header however a dispatcher
// split it: any front it already read (none to the whole fixed part), with
// the rest arriving one byte per read.
func TestFinishOpenHeaderAnySplit(t *testing.T) {
	h := sampleHeader()
	enc, _ := h.Encode()
	for k := 0; k <= OpenFixedLen; k++ {
		got, err := FinishOpenHeader(enc[:k], iotest.OneByteReader(bytes.NewReader(enc[k:])))
		if err != nil {
			t.Fatalf("head %d: %v", k, err)
		}
		if got.Session != h.Session || len(got.Route) != len(h.Route) {
			t.Fatalf("head %d: decoded %+v", k, got)
		}
	}
}

func TestDecodeBadVersion(t *testing.T) {
	enc, _ := sampleHeader().Encode()
	enc[4] = 99
	if _, err := ReadOpenHeader(bytes.NewReader(enc)); err != ErrBadVersion {
		t.Fatalf("err=%v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc, _ := sampleHeader().Encode()
	for _, cut := range []int{0, 3, 10, OpenFixedLen - 1, OpenFixedLen + 1, len(enc) - 1} {
		if _, err := ReadOpenHeader(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		ReadOpenHeader(bytes.NewReader(raw))
		ReadAcceptFrame(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(flags uint16, hop uint8, n uint8, contentLen, offset uint64, addrSeed uint8) bool {
		nr := int(n%MaxRouteEntries) + 1
		route := make([]string, nr)
		for i := range route {
			route[i] = strings.Repeat(string(rune('a'+(int(addrSeed)+i)%26)), int(addrSeed)%40+1) + ":1"
		}
		h := &OpenHeader{
			Flags:      flags,
			Session:    NewSessionID(),
			HopIndex:   hop % uint8(nr),
			Route:      route,
			ContentLen: contentLen,
			Offset:     offset,
		}
		enc, err := h.Encode()
		if err != nil {
			return false
		}
		got, err := ReadOpenHeader(bytes.NewReader(enc))
		if err != nil {
			return false
		}
		if got.Flags != h.Flags || got.Session != h.Session || got.HopIndex != h.HopIndex ||
			got.ContentLen != h.ContentLen || got.Offset != h.Offset || len(got.Route) != nr {
			return false
		}
		for i := range route {
			if got.Route[i] != route[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptRoundTrip(t *testing.T) {
	a := &AcceptFrame{Code: CodeOK, Session: NewSessionID(), Offset: 123456}
	got, err := ReadAcceptFrame(bytes.NewReader(a.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != a.Code || got.Session != a.Session || got.Offset != a.Offset {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestAcceptBadMagic(t *testing.T) {
	a := &AcceptFrame{Code: CodeOK}
	enc := a.Encode()
	enc[1] = 'x'
	if _, err := ReadAcceptFrame(bytes.NewReader(enc)); err != ErrBadMagic {
		t.Fatalf("err=%v", err)
	}
}

func TestSessionIDHex(t *testing.T) {
	id := NewSessionID()
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("hex len %d", len(s))
	}
	back, err := ParseSessionID(s)
	if err != nil || back != id {
		t.Fatalf("roundtrip failed: %v", err)
	}
	if _, err := ParseSessionID("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
}

func TestSessionIDsUnique(t *testing.T) {
	seen := map[SessionID]bool{}
	for i := 0; i < 100; i++ {
		id := NewSessionID()
		if seen[id] {
			t.Fatal("duplicate session id")
		}
		seen[id] = true
	}
}

func TestCodeString(t *testing.T) {
	if CodeString(CodeRejectShed) != "custody-shed" || CodeString(CodeCustody) != "custody-committed" {
		t.Fatal("custody code names wrong")
	}
	if CodeString(CodeOK) != "ok" || CodeString(CodeRejectBusy) != "busy" {
		t.Fatal("code names")
	}
	if !strings.Contains(CodeString(200), "200") {
		t.Fatal("unknown code")
	}
}

func TestHeaderLenFieldConsistent(t *testing.T) {
	enc, _ := sampleHeader().Encode()
	claimed := int(enc[7])<<8 | int(enc[8])
	if claimed != len(enc) {
		t.Fatalf("headerLen field %d != %d", claimed, len(enc))
	}
}

// addGolden seeds f with every golden vector whose name has prefix.
func addGolden(f *testing.F, prefix string) {
	g, err := readGolden(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(g))
	for name := range g {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(g[name])
	}
}

// FuzzReadOpenHeader drives the decoder with arbitrary bytes; it must
// never panic, and anything it accepts must re-encode to exactly the
// bytes it consumed.
func FuzzReadOpenHeader(f *testing.F) {
	enc, _ := sampleHeader().Encode()
	f.Add(enc)
	f.Add([]byte("LSL1garbage"))
	f.Add([]byte{})
	addGolden(f, "open_")
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := ReadOpenHeader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		enc, err := h.Encode()
		if err != nil {
			t.Fatalf("decoded header does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("re-encoded %x, consumed %x", enc, raw[:len(enc)])
		}
	})
}

// TestOpenHeaderAllocs pins the open header's allocation cost on a 3-hop
// route: the decode makes the fixed part, the header, the route bytes,
// the route slice and one string per hop; the encode makes its buffer.
func TestOpenHeaderAllocs(t *testing.T) {
	h := sampleHeader()
	enc, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(enc)
	decode := testing.AllocsPerRun(1000, func() {
		rd.Reset(enc)
		if _, err := ReadOpenHeader(rd); err != nil {
			t.Fatal(err)
		}
	})
	encode := testing.AllocsPerRun(1000, func() { h.Encode() })
	t.Logf("decode %v allocs, encode %v allocs", decode, encode)
	if decode > 7 || encode > 1 {
		t.Fatalf("decode %v allocs (want ≤ 7), encode %v allocs (want ≤ 1)", decode, encode)
	}
}
