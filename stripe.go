package lsl

import (
	"context"
	"io"
	"sync"

	"lsl/internal/resilience"
	"lsl/internal/stripe"
)

// The striped-session surface (paper §VII future work: session-layer
// framing and parallel TCP streams). A striped transfer carries one
// logical stream over several concurrent sessions, each with its own
// loose source route — parallel sockets and multi-path in one mechanism.

// StripedTransferResult reports how a striped transfer was achieved:
// per-stripe routes and byte counts, heals, replans, abandonments, and
// mid-flow weight rebalances.
type StripedTransferResult = resilience.StripedResult

// Striped transfer options, re-exported (they compose with the
// WithTransfer* options in lsl.go).
var (
	// WithStripes sets the stripe fan-out (default: one per route).
	WithStripes = resilience.WithStripes
	// WithStripeFrameSize sets the striping granularity in bytes.
	WithStripeFrameSize = resilience.WithFrameSize
	// WithStripeRebalanceBytes recomputes stripe weights from observed
	// throughput every n bytes written (<= 0 disables).
	WithStripeRebalanceBytes = resilience.WithRebalanceBytes
)

// StripedTransfer delivers size bytes from src across concurrent stripe
// sessions on the given routes and heals individual stripes through
// transient failures: a stripe that dies mid-flow is re-dialed (replanned
// onto the next-best link-disjoint route when WithPlanner supplies a
// logistics planner) and its in-flight frames are reassigned; a stripe
// whose retry budget runs out is abandoned and its share flows through
// the survivors. With a planner, the routes argument is a fallback — the
// planner proposes up to WithStripes(n) link-disjoint routes weighted by
// predicted throughput. src must support concurrent ReadAt. Receive with
// StripedReceive.
func StripedTransfer(ctx context.Context, routes []Route, src io.ReaderAt, size int64, opts ...TransferOption) (*StripedTransferResult, error) {
	return resilience.StripedTransfer(ctx, routes, src, size, opts...)
}

// StripedReceive accepts a stripe group's sessions from ln and
// reassembles the logical stream into out, returning the byte count. It
// keeps accepting until the stream is byte-complete, so a healed stripe's
// replacement session (which replays the dead stripe's frames; duplicates
// are dropped) joins the same group — stream errors on individual
// sessions are tolerated as long as the group completes. The stripes
// argument sizes internal buffers only; the group header carries the
// authoritative count. An accept error before completion cancels the
// group.
func StripedReceive(ln *Listener, stripes int, out io.Writer) (int64, error) {
	recv := stripe.NewReceiver(out)
	done := make(chan struct{})
	var once sync.Once
	acceptErrCh := make(chan error, 1)
	var mu sync.Mutex
	var conns []*ServerConn
	var wg sync.WaitGroup
	go func() {
		for {
			sc, err := ln.Accept()
			if err != nil {
				acceptErrCh <- err
				return
			}
			mu.Lock()
			conns = append(conns, sc)
			mu.Unlock()
			wg.Add(1)
			go func(sc *ServerConn) {
				defer wg.Done()
				// A stream error here is a dead stripe; its replacement
				// arrives as a fresh session, so only the group's
				// completeness matters. Closing unwinds the cascade,
				// which finishes the sender's stripe.
				_ = recv.Attach(sc)
				sc.Close()
				if recv.Complete() {
					once.Do(func() { close(done) })
				}
			}(sc)
		}
	}()
	select {
	case <-done:
		// Remaining stripes drain on their own goroutines; the accept
		// loop keeps serving late replays until the caller closes ln.
		return recv.Written(), nil
	case err := <-acceptErrCh:
		// The group can never complete once accepts fail. Cancel the
		// sessions already attached and wait for their goroutines:
		// returning with them in flight would leak them and race on recv.
		mu.Lock()
		open := append([]*ServerConn(nil), conns...)
		mu.Unlock()
		for _, sc := range open {
			sc.Close()
		}
		wg.Wait()
		if recv.Complete() {
			return recv.Written(), nil
		}
		return recv.Written(), err
	}
}
