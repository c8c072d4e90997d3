package resilience_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/backoff"
	"lsl/internal/core"
	"lsl/internal/depot"
	"lsl/internal/faultnet"
	"lsl/internal/metrics"
	"lsl/internal/mux"
	"lsl/internal/resilience"
)

// fastPolicy keeps retry tests quick and deterministic.
func fastPolicy() resilience.Policy {
	pol := resilience.Policy{MaxAttempts: 10}
	pol.SetBackoff(backoff.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond})
	pol.SetJitterSeed(1)
	return pol
}

// verifyingTarget is a session target that reassembles a session's
// payload across sublinks (resume fragments arrive in accept order) and
// reports the full stream once a sublink completes with the digest
// verified. frags keeps what each sublink carried, in arrival order;
// ended ticks once per sublink after its fragment is in frags.
type verifyingTarget struct {
	l     *core.Listener
	mu    sync.Mutex
	data  bytes.Buffer
	frags [][]byte
	done  chan []byte
	ended chan struct{}
}

func newVerifyingTarget(t *testing.T) *verifyingTarget {
	t.Helper()
	l, err := core.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vt := &verifyingTarget{l: l, done: make(chan []byte, 1), ended: make(chan struct{}, 64)}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			// Sublinks are handled sequentially: a resumed sublink only
			// exists after its predecessor died, and fragment order must
			// match arrival order for reassembly.
			frag, rerr := io.ReadAll(sc)
			vt.mu.Lock()
			vt.data.Write(frag)
			vt.frags = append(vt.frags, frag)
			if rerr == nil && sc.Verified() {
				full := append([]byte(nil), vt.data.Bytes()...)
				select {
				case vt.done <- full:
				default:
				}
			}
			vt.mu.Unlock()
			sc.Close()
			select {
			case vt.ended <- struct{}{}:
			default:
			}
		}
	}()
	return vt
}

func (vt *verifyingTarget) addr() string { return vt.l.Addr().String() }

func (vt *verifyingTarget) wait(t *testing.T, want []byte) {
	t.Helper()
	select {
	case got := <-vt.done:
		if !bytes.Equal(got, want) {
			t.Fatalf("reassembled stream differs: got %d bytes, want %d", len(got), len(want))
		}
		if md5.Sum(got) != md5.Sum(want) {
			t.Fatal("end-to-end MD5 mismatch")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for verified delivery")
	}
}

func startDepot(t *testing.T, cfg depot.Config) (string, *depot.Depot) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := depot.New(cfg)
	go d.Serve(ln)
	t.Cleanup(func() { d.Close() })
	return ln.Addr().String(), d
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestTransferCleanPath(t *testing.T) {
	vt := newVerifyingTarget(t)
	dep, _ := startDepot(t, depot.Config{})
	payload := randBytes(300_000, 1)

	res, err := resilience.Transfer(context.Background(),
		core.Route{Via: []string{dep}, Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	vt.wait(t, payload)
	if res.Attempts != 1 || res.Retries != 0 || res.Failovers != 0 {
		t.Fatalf("clean transfer did recovery work: %+v", res)
	}
	if res.Bytes != int64(len(payload)) {
		t.Fatalf("bytes=%d", res.Bytes)
	}
}

// The deterministic healing case: the first two sublinks are reset at
// exact byte counts by the fault harness; the engine resumes each time
// and the digest still verifies end to end.
func TestTransferHealsInjectedMidStreamResets(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(2<<20, 2)

	fn := faultnet.New(nil)
	fn.Script(vt.addr(),
		faultnet.Step{ResetAfterBytes: 400_000},
		faultnet.Step{ResetAfterBytes: 900_000},
	)

	reg := metrics.NewRegistry()
	met := resilience.NewMetrics(reg)
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fn.DialContext),
		resilience.WithMetrics(met),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	vt.wait(t, payload)
	if res.Attempts != 3 || res.Retries != 2 {
		t.Fatalf("result: %+v", res)
	}
	if got := met.Retries.Value(); got != 2 {
		t.Fatalf("lsl_transfer_retries_total=%d, want 2", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lsl_transfer_retries_total 2") {
		t.Fatalf("metrics text missing retry count:\n%s", sb.String())
	}
}

// The acceptance-criteria case: a real depot is killed mid-transfer. The
// engine re-dials, finds the depot dead, fails over by dropping it from
// the route, and finishes the delivery through the surviving depot with
// the end-to-end digest intact — zero manual resume calls.
func TestTransferFailsOverKilledDepot(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(4<<20, 3)

	// Pace the first-hop writes so the kill lands mid-stream
	// (~16 chunks of 256KiB, 2ms apiece gives a ~32ms window).
	fn := faultnet.New(nil)

	dep1Cfg := depot.Config{DrainTimeout: time.Millisecond}
	dep1Addr, dep1 := startDepot(t, dep1Cfg)
	dep2Addr, _ := startDepot(t, depot.Config{})
	fn.Script(dep1Addr, faultnet.Step{WriteLatency: 2 * time.Millisecond})

	// Kill depot 1 once the initiator has written a quarter of the
	// payload to it.
	quarter := make(chan struct{})
	trip := sync.OnceFunc(func() { close(quarter) })
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := fn.DialContext(ctx, network, addr)
		if err != nil || addr != dep1Addr {
			return nc, err
		}
		return &tripConn{Conn: nc, at: int64(len(payload) / 4), trip: trip}, nil
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-quarter
		dep1.Close() // cancels the in-flight relay and refuses new dials
	}()

	reg := metrics.NewRegistry()
	met := resilience.NewMetrics(reg)
	res, err := resilience.Transfer(context.Background(),
		core.Route{Via: []string{dep1Addr, dep2Addr}, Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(dial),
		resilience.WithMetrics(met),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("transfer did not heal: %v", err)
	}
	<-killed
	vt.wait(t, payload)

	if res.Retries == 0 {
		t.Fatal("no retries recorded for a killed depot")
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1", res.Failovers)
	}
	wantVia := []string{dep2Addr}
	if len(res.Route.Via) != 1 || res.Route.Via[0] != wantVia[0] {
		t.Fatalf("final route %v, want via %v", res.Route.Via, wantVia)
	}
	if got := met.Retries.Value(); got != uint64(res.Retries) {
		t.Fatalf("lsl_transfer_retries_total=%d, result says %d", got, res.Retries)
	}
	if got := met.Failovers.Value(); got != 1 {
		t.Fatalf("lsl_transfer_failovers_total=%d", got)
	}
	if got := met.Transfers.With(resilience.OutcomeDelivered).Value(); got != 1 {
		t.Fatalf("delivered=%d", got)
	}
}

// tripConn calls trip once at bytes written through it have reached at.
type tripConn struct {
	net.Conn
	at      int64
	written atomic.Int64
	trip    func()
}

func (c *tripConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.written.Add(int64(n)) >= c.at {
		c.trip()
	}
	return n, err
}

func (c *tripConn) CloseWrite() error {
	return c.Conn.(interface{ CloseWrite() error }).CloseWrite()
}

// A seeded chaos schedule: refusals and resets mixed, still heals. Run
// with -count=2 to prove the schedule is reproducible.
func TestTransferSurvivesChaosSchedule(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(1<<20, 4)

	fn := faultnet.New(nil)
	steps := fn.Chaos(vt.addr(), 1234, faultnet.ChaosConfig{
		Steps:         4,
		RefuseProb:    0.5,
		MaxResetBytes: int64(len(payload)) - 1,
	})
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(fn.DialContext),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("chaos schedule %+v defeated the engine: %v", steps, err)
	}
	vt.wait(t, payload)
	// Resume shrinks each successive sublink, so a late reset threshold
	// may never fire — the engine can finish before consuming every step.
	if res.Attempts < 2 || res.Attempts > len(steps)+1 {
		t.Fatalf("attempts=%d, want in [2, %d] (schedule %+v)", res.Attempts, len(steps)+1, steps)
	}
	if res.Retries != res.Attempts-1 {
		t.Fatalf("retries=%d attempts=%d", res.Retries, res.Attempts)
	}
}

func TestTransferPermanentRejectionStopsRetrying(t *testing.T) {
	// A depot whose next hop is unreachable rejects the session: that is
	// an active refusal (ErrRejected), classified permanent.
	dep, _ := startDepot(t, depot.Config{DialTimeout: 200 * time.Millisecond})
	payload := randBytes(1000, 5)
	res, err := resilience.Transfer(context.Background(),
		core.Route{Via: []string{dep}, Target: "127.0.0.1:1"},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()))
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("permanent error retried: %+v", res)
	}
}

func TestTransferExhaustsAgainstDeadWorld(t *testing.T) {
	// Nothing listens anywhere; every attempt is a transient dial failure
	// until the budget runs out.
	payload := randBytes(100, 6)
	pol := fastPolicy()
	pol.MaxAttempts = 3
	pol.SetFailoverAfter(-1) // no Via to drop anyway
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: "127.0.0.1:1"},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(pol))
	if !errors.Is(err, resilience.ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts=%d", res.Attempts)
	}
}

func TestTransferCancelledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pol := fastPolicy()
	pol.SetBackoff(backoff.Policy{Base: 10 * time.Second, Max: 10 * time.Second})
	payload := randBytes(100, 7)
	start := time.Now()
	_, err := resilience.Transfer(ctx,
		core.Route{Target: "127.0.0.1:1"},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(pol),
		// The first attempt's failure is logged just before its 10 s
		// backoff: cancel there.
		resilience.WithLogf(func(string, ...interface{}) { cancel() }))
	if err == nil {
		t.Fatal("transfer succeeded against a dead target")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

func TestTransferMeasuresSizeWhenNegative(t *testing.T) {
	vt := newVerifyingTarget(t)
	payload := randBytes(123_456, 8)
	res, err := resilience.Transfer(context.Background(),
		core.Route{Target: vt.addr()},
		bytes.NewReader(payload), -1,
		resilience.WithPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(payload)) {
		t.Fatalf("measured %d bytes", res.Bytes)
	}
	vt.wait(t, payload)
}

func TestPermanentClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{core.ErrRejected, true},
		{core.ErrDigestMismatch, true},
		{context.Canceled, true},
		{io.ErrUnexpectedEOF, false},
		{errors.New("connection reset by peer"), false},
		{&core.DialError{Hop: "x:1", Err: errors.New("refused")}, false},
	}
	for _, c := range cases {
		if got := resilience.Permanent(c.err); got != c.want {
			t.Errorf("Permanent(%v)=%v, want %v", c.err, got, c.want)
		}
	}
}

// The persistent-trunk acceptance case: the session rides a multiplexed
// stream on a pooled TCP link, and that link is killed at an exact byte
// count mid-transfer. The pool detects the dead trunk, the engine
// re-dials with resume (which opens a replacement trunk), and the
// payload arrives byte-exact with the end-to-end digest verified.
func TestTransferHealsKilledTrunk(t *testing.T) {
	vt := newVerifyingTarget(t)
	dep, _ := startDepot(t, depot.Config{Mux: true})
	payload := randBytes(2<<20, 9)

	fn := faultnet.New(nil)
	fn.Script(dep, faultnet.Step{ResetAfterBytes: 600_000})

	reg := metrics.NewRegistry()
	pm := &mux.PoolMetrics{
		LinkOpened: reg.Counter("lsl_link_opened_total", "Trunks established."),
		LinkClosed: reg.Counter("lsl_link_closed_total", "Trunks torn down."),
	}
	pool := mux.NewPool(mux.PoolConfig{Dial: fn.DialContext, Metrics: pm, Logf: t.Logf})
	defer pool.Close()

	res, err := resilience.Transfer(context.Background(),
		core.Route{Via: []string{dep}, Target: vt.addr()},
		bytes.NewReader(payload), int64(len(payload)),
		resilience.WithPolicy(fastPolicy()),
		resilience.WithDialer(pool.DialContext),
		resilience.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	vt.wait(t, payload)
	if res.Attempts != 2 || res.Retries != 1 {
		t.Fatalf("trunk kill should cost exactly one retry: %+v", res)
	}
	if fn.Resets() != 1 {
		t.Fatalf("injected resets = %d, want 1", fn.Resets())
	}
	// The healed attempt rode a fresh trunk: original plus replacement.
	if got := pm.LinkOpened.Value(); got != 2 {
		t.Fatalf("lsl_link_opened_total = %d, want 2", got)
	}
}
