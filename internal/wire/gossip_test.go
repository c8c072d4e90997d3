package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func sampleGossipObs() []GossipObs {
	return []GossipObs{
		{From: "denver", To: "chicago", Origin: "denver", Metric: 0, Hops: 0, TimeUnixNano: 1700000000000000001, Value: 0.012, Count: 9},
		{From: "chicago", To: "ncsa", Origin: "denver", Metric: 1, Hops: 1, TimeUnixNano: 1700000000000000002, Value: 95e6, Count: 4},
		{From: "denver", To: "ncsa", Origin: "utk", Metric: 2, Hops: 2, TimeUnixNano: 1700000000000000003, Value: 0.5, Count: 1},
	}
}

func TestGossipFrameRoundTrip(t *testing.T) {
	for _, kind := range []uint8{GossipDigest, GossipDelta} {
		f := &GossipFrame{Kind: kind, Self: "denver", Obs: sampleGossipObs()}
		enc, err := f.Encode()
		if err != nil {
			t.Fatalf("%s: %v", GossipKindString(kind), err)
		}
		if !IsGossipMagic(enc) {
			t.Fatalf("%s: missing gossip magic", GossipKindString(kind))
		}
		got, err := ReadGossipFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: decode: %v", GossipKindString(kind), err)
		}
		want := *f
		if kind == GossipDigest {
			// Digest frames strip values and counts on the wire.
			want.Obs = append([]GossipObs(nil), f.Obs...)
			for i := range want.Obs {
				want.Obs[i].Value = 0
				want.Obs[i].Count = 0
			}
		}
		if got.Kind != want.Kind || got.Self != want.Self || !reflect.DeepEqual(got.Obs, want.Obs) {
			t.Fatalf("%s: round trip mismatch\n got %+v\nwant %+v", GossipKindString(kind), got, &want)
		}
	}
}

func TestGossipFrameEmptyDelta(t *testing.T) {
	f := &GossipFrame{Kind: GossipDelta, Self: "a"}
	enc, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadGossipFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Self != "a" || len(got.Obs) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestGossipFrameEncodeRejects(t *testing.T) {
	cases := []struct {
		name string
		f    GossipFrame
	}{
		{"bad kind", GossipFrame{Kind: 9, Self: "a"}},
		{"empty self", GossipFrame{Kind: GossipDigest}},
		{"empty edge name", GossipFrame{Kind: GossipDelta, Self: "a", Obs: []GossipObs{{To: "b", Origin: "a"}}}},
		{"bad metric", GossipFrame{Kind: GossipDelta, Self: "a", Obs: []GossipObs{{From: "x", To: "b", Origin: "a", Metric: 7}}}},
		{"nan value", GossipFrame{Kind: GossipDelta, Self: "a", Obs: []GossipObs{{From: "x", To: "b", Origin: "a", Value: math.NaN()}}}},
		{"too many entries", GossipFrame{Kind: GossipDigest, Self: "a", Obs: make([]GossipObs, MaxGossipEntries+1)}},
	}
	for _, c := range cases {
		if _, err := c.f.Encode(); err == nil {
			t.Errorf("%s: encode accepted", c.name)
		}
	}
}

func TestGossipFrameDecodeRejectsMalformed(t *testing.T) {
	good, err := (&GossipFrame{Kind: GossipDelta, Self: "denver", Obs: sampleGossipObs()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(name string, f func([]byte) []byte, want error) {
		b := f(append([]byte(nil), good...))
		if _, err := ReadGossipFrame(bytes.NewReader(b)); err == nil || (want != nil && !errors.Is(err, want)) {
			t.Errorf("%s: err=%v, want %v", name, err, want)
		}
	}
	mut("bad magic", func(b []byte) []byte { b[3] = 'X'; return b }, ErrBadMagic)
	mut("bad version", func(b []byte) []byte { b[4] = 99; return b }, ErrBadVersion)
	mut("bad kind", func(b []byte) []byte { b[5] = 0; return b }, ErrBadGossipFrame)
	mut("oversized body", func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff; return b }, ErrTooLarge)
	mut("truncated body", func(b []byte) []byte { return b[:len(b)-4] }, ErrTruncated)
	mut("trailing bytes", func(b []byte) []byte {
		// Declare one fewer entry than the body actually carries.
		b[6], b[7] = 0, 2
		return b
	}, ErrBadGossipFrame)

	if _, err := ReadGossipFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err=%v, want io.EOF", err)
	}
	if _, err := ReadGossipFrame(bytes.NewReader(good[:6])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header: err=%v, want %v", err, ErrTruncated)
	}
}

// FuzzReadGossipFrame drives the gossip decoder with arbitrary bytes; it
// must never panic and never allocate beyond the declared bounds, and
// anything it accepts must re-encode to exactly the bytes it consumed.
func FuzzReadGossipFrame(f *testing.F) {
	for _, kind := range []uint8{GossipDigest, GossipDelta} {
		if enc, err := (&GossipFrame{Kind: kind, Self: "denver", Obs: sampleGossipObs()}).Encode(); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte("LSLG"))
	f.Add([]byte{})
	addGolden(f, "gossip_")
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadGossipFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := fr.Encode()
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encoded %x, consumed %x", enc, data[:len(enc)])
		}
	})
}
