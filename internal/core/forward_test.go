package core_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// forwardPeer is a scripted next hop for Forward: it reads the header,
// then — before answering — either reads ahead bytes of payload
// (pipelined open) or checks that nothing follows the header (synchronous
// open), accepts with offset, and reads the rest to EOF.
type forwardPeer struct {
	hdr   *wire.OpenHeader
	early error // what the peer saw between the header and its accept
	rest  []byte
}

func runForwardPeer(t *testing.T, ahead int, offset uint64) (string, chan forwardPeer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan forwardPeer, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var p forwardPeer
		if p.hdr, err = wire.ReadOpenHeader(nc); err != nil {
			p.early = err
			out <- p
			return
		}
		var head []byte
		if ahead > 0 {
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			head = make([]byte, ahead)
			_, p.early = io.ReadFull(nc, head)
		} else {
			nc.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			var ne net.Error
			if n, err := nc.Read(make([]byte, 1)); n > 0 {
				p.early = errors.New("payload arrived before the accept")
			} else if !errors.As(err, &ne) || !ne.Timeout() {
				p.early = err
			}
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		nc.Write((&wire.AcceptFrame{Code: wire.CodeOK, Session: p.hdr.Session, Offset: offset}).Encode())
		rest, _ := io.ReadAll(nc)
		p.rest = append(head, rest...)
		out <- p
	}()
	return ln.Addr().String(), out
}

// Forward sends a prebuilt header unchanged and the stored payload
// verbatim — a digesting session's trailer included, never a second one —
// pipelined behind the header with WithEager and after the accept (at the
// accept's offset) without it.
func TestForward(t *testing.T) {
	content := randBytes(300<<10, 92)
	stored := append(append([]byte(nil), content...), bytes.Repeat([]byte{0xd1}, wire.DigestLen)...)
	for _, tc := range []struct {
		name   string
		flags  uint16
		opts   []core.Option
		ahead  int
		offset uint64
	}{
		{"pipelined", wire.FlagDigest, []core.Option{core.WithEager(), core.WithDigest()}, 64 << 10, 0},
		{"synchronous-resume", wire.FlagDigest | wire.FlagResume, nil, 0, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, out := runForwardPeer(t, tc.ahead, tc.offset)
			hdr := &wire.OpenHeader{
				Flags:      tc.flags,
				Session:    wire.NewSessionID(),
				HopIndex:   2,
				Route:      []string{"d1.invalid:1", "d2.invalid:1", addr},
				ContentLen: uint64(len(content)),
			}
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Forward(nc, hdr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Offset(); tc.ahead == 0 && got != int64(tc.offset) {
				t.Fatalf("Offset after a synchronous Forward = %d, want %d", got, tc.offset)
			}
			if err := c.SendReader(bytes.NewReader(stored)); err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.Copy(io.Discard, c); err != nil {
				t.Fatalf("drain: %v", err)
			}
			var p forwardPeer
			select {
			case p = <-out:
			case <-time.After(10 * time.Second):
				t.Fatal("peer never finished")
			}
			if p.early != nil {
				t.Fatalf("before the accept: %v", p.early)
			}
			if !reflect.DeepEqual(p.hdr, hdr) {
				t.Fatalf("header arrived as %+v, want %+v unchanged", p.hdr, hdr)
			}
			if want := stored[tc.offset:]; !bytes.Equal(p.rest, want) {
				t.Fatalf("peer got %d bytes, want the %d stored bytes from offset %d verbatim", len(p.rest), len(want), tc.offset)
			}
		})
	}
}
