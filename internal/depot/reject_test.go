package depot

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/wire"
)

// An initiator that pipelines its payload behind the header is still
// sending when the depot decides to refuse it. The refusal must end the
// sublink without a reset: the reject frame, then a clean EOF, with the
// payload that kept arriving swallowed rather than answered with RST —
// on the relay path (dead next hop) and the staged path (over budget),
// behind a short payload and behind a full first window, the most a
// pipelined initiator sends before its verdict: one waiting for it with
// the forward direction open, one whose payload ended there with trailer
// and FIN.
func TestDepotRejectLingersBehindPipelinedPayload(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		flags  uint16
		length uint64
		code   uint8
	}{
		{"relay-dead-next-hop", Config{DialTimeout: time.Second}, 0, wire.UnknownLength, wire.CodeRejectRoute},
		{"staged-over-budget", Config{MaxStageBytes: 1024}, wire.FlagStaged, 10 << 20, wire.CodeRejectBusy},
	}
	behind := []struct {
		name  string
		bytes int
		fin   bool // the forward direction ends behind the payload
	}{
		{"short", 100 << 10, false},
		{"first-window", wire.FirstWindow, false},
		{"first-window-trailer-fin", wire.FirstWindow + wire.DigestLen, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range behind {
				t.Run(b.name, func(t *testing.T) {
					// Small socket buffers on both ends: the payload cannot
					// hide in them, so the initiator is still writing while
					// the depot lingers, as a large pipelined one is.
					cfg := tc.cfg
					cfg.SockBuf = 32 << 10
					_, depotAddr := runDepot(t, cfg)
					nc, err := net.Dial("tcp", depotAddr)
					if err != nil {
						t.Fatal(err)
					}
					defer nc.Close()
					nc.(*net.TCPConn).SetWriteBuffer(32 << 10)
					hdr := &wire.OpenHeader{
						Session:    wire.NewSessionID(),
						Flags:      tc.flags,
						Route:      []string{depotAddr, "127.0.0.1:1"},
						ContentLen: tc.length,
					}
					enc, _ := hdr.Encode()
					nc.SetDeadline(time.Now().Add(10 * time.Second))
					// Header and a payload the depot will never want, in one
					// write.
					if _, err := nc.Write(append(enc, bytes.Repeat([]byte{0x5A}, b.bytes)...)); err != nil {
						t.Fatalf("the depot hung up before the payload was in: %v", err)
					}
					if b.fin {
						nc.(*net.TCPConn).CloseWrite()
					}
					acc, err := wire.ReadAcceptFrame(nc)
					if err != nil {
						t.Fatal(err)
					}
					if acc.Code != tc.code || acc.Session != hdr.Session {
						t.Fatalf("frame = %s for %s, want %s for this session",
							wire.CodeString(acc.Code), acc.Session, wire.CodeString(tc.code))
					}
					if rest, err := io.ReadAll(nc); err != nil || len(rest) != 0 {
						t.Fatalf("after the reject frame: %d bytes, %v; want a clean EOF, not a reset", len(rest), err)
					}
				})
			}
		})
	}
}

// A pipelined staged upload has two frames coming back — the depot's
// admission accept, then the custody commit. AwaitCustody must take them
// in that order instead of mistaking the first for the second.
func TestStagedEagerUploadTakesCustody(t *testing.T) {
	targetAddr, received := startTarget(t)
	_, depotAddr := stagedDepot(t, Config{})
	payload := bytes.Repeat([]byte("custody"), 20_000)

	c, err := core.Dial(context.Background(),
		core.Route{Via: []string{depotAddr}, Target: targetAddr},
		core.WithStaged(), core.WithEager(), core.WithDigest(),
		core.WithContentLength(int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitCustody(); err != nil {
		t.Fatalf("AwaitCustody on a pipelined staged session: %v", err)
	}
	expectPayload(t, received, payload)
}
