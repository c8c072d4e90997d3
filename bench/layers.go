package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lsl"
	"lsl/internal/custody"
	"lsl/internal/emu"
	"lsl/internal/gossip"
	"lsl/internal/logistics"
	"lsl/internal/metrics"
	"lsl/internal/mux"
	"lsl/internal/stripe"
	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// The layer fixtures time calls into one layer's public functions from
// outside, on fixed inputs, so a shift in an end-to-end number can be
// attributed. They do not depend on the workload being run.

// layerRun collects the per-layer rows of one traced run.
type layerRun struct {
	l        *ledger
	workload string
	seed     int64
	tmpDir   string
}

func (lr *layerRun) add(layer, metric string, value float64, unit string, n int) {
	lr.l.add(lr.workload, layer, metric, value, unit, n)
}

// batchNs runs f in batches of iters calls and returns the median
// per-call time in ns over the batches.
func batchNs(batches, iters int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per)
}

// mallocsDuring returns the heap allocations the process made while f ran.
func mallocsDuring(f func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	f()
	runtime.ReadMemStats(&m)
	return m.Mallocs - before
}

// samplesUs times n calls of f individually, in microseconds.
func samplesUs(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return out
}

// runLayers runs every layer fixture once.
func runLayers(lr *layerRun) error {
	steps := []struct {
		name string
		run  func(*layerRun) error
	}{
		{"wire", layerWire}, {"xfer", layerXfer}, {"paths", layerPaths},
		{"depot", layerDepot}, {"mux", layerMux}, {"stripe", layerStripe},
		{"custody", layerCustody}, {"logistics", layerLogistics},
		{"gossip", layerGossip}, {"emu", layerEmu},
	}
	for _, s := range steps {
		if err := s.run(lr); err != nil {
			return fmt.Errorf("layer %s: %w", s.name, err)
		}
		settle()
	}
	return nil
}

// ---- wire ----

func layerWire(lr *layerRun) error {
	hdr := &wire.OpenHeader{
		Flags:      wire.FlagDigest | wire.FlagResume,
		Session:    newSessionIDs(lr.seed, "wire").next(),
		Route:      []string{"127.0.0.1:15000", "127.0.0.1:15001", "127.0.0.1:17000"},
		ContentLen: 64 << 10,
	}
	enc, err := hdr.Encode()
	if err != nil {
		return err
	}
	const iters = 20000
	lr.add("wire", "wire.open_encode_ns", batchNs(5, iters, func() { hdr.Encode() }), "ns", 5*iters)
	rd := bytes.NewReader(enc)
	decode := func() {
		rd.Reset(enc)
		if _, err := wire.ReadOpenHeader(rd); err != nil {
			panic(err)
		}
	}
	lr.add("wire", "wire.open_decode_ns", batchNs(5, iters, decode), "ns", 5*iters)
	allocs := mallocsDuring(func() {
		for i := 0; i < iters; i++ {
			decode()
		}
	})
	lr.add("wire", "wire.open_decode_allocs", float64(allocs)/iters, "count", iters)

	acc := &wire.AcceptFrame{Code: wire.CodeOK, Session: hdr.Session}
	lr.add("wire", "wire.accept_roundtrip_ns", batchNs(5, iters, func() {
		rd.Reset(acc.Encode())
		if _, err := wire.ReadAcceptFrame(rd); err != nil {
			panic(err)
		}
	}), "ns", 5*iters)

	data := genPayload(lr.seed, "wire/mux", 16<<10)
	var frame []byte
	lr.add("wire", "wire.mux_frame_ns", batchNs(5, 5000, func() {
		frame = wire.AppendMuxFrame(frame[:0], wire.MuxData, 7, data)
		rd.Reset(frame)
		if _, err := wire.ReadMuxFrame(rd); err != nil {
			panic(err)
		}
	}), "ns", 5*5000)

	gf := &wire.GossipFrame{Kind: wire.GossipDelta, Self: "d00"}
	for i := 0; i < 1000; i++ {
		gf.Obs = append(gf.Obs, wire.GossipObs{
			From: fmt.Sprintf("d%02d", i%48), To: fmt.Sprintf("d%02d", (i+1)%48),
			Origin: fmt.Sprintf("o%03d", i/48), Metric: uint8(i % 3),
			TimeUnixNano: int64(1e18) + int64(i), Value: float64(i) + 0.5, Count: uint32(i),
		})
	}
	if _, err := gf.Encode(); err != nil {
		return err
	}
	lr.add("wire", "wire.gossip_frame_ns_per_1k", batchNs(5, 20, func() {
		b, _ := gf.Encode()
		rd.Reset(b)
		if _, err := wire.ReadGossipFrame(rd); err != nil {
			panic(err)
		}
	}), "ns", 5*20)
	return nil
}

// ---- xfer ----

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair() (client, server *net.TCPConn, err error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		c.Close()
		return nil, nil, a.err
	}
	return c.(*net.TCPConn), a.c.(*net.TCPConn), nil
}

// relayTCP times moving size bytes from one loopback TCP connection to
// another through relay, the shape of a depot's forward pump: a feeder
// writes into the inbound connection and a drainer empties the outbound
// one. It returns ns per KiB.
func relayTCP(payload []byte, relay func(dst, src *net.TCPConn) error) (float64, error) {
	inW, inR, err := tcpPair()
	if err != nil {
		return 0, err
	}
	outW, outR, err := tcpPair()
	if err != nil {
		inW.Close()
		inR.Close()
		return 0, err
	}
	defer func() {
		for _, c := range []*net.TCPConn{inW, inR, outW, outR} {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	var drained int64
	go func() {
		defer wg.Done()
		inW.Write(payload)
		inW.CloseWrite()
	}()
	go func() {
		defer wg.Done()
		drained, _ = io.Copy(io.Discard, outR)
	}()
	t0 := time.Now()
	rerr := relay(outW, inR)
	outW.CloseWrite()
	wg.Wait()
	el := time.Since(t0)
	if rerr != nil {
		return 0, rerr
	}
	if drained != int64(len(payload)) {
		return 0, fmt.Errorf("relay moved %d of %d bytes", drained, len(payload))
	}
	return float64(el) / (float64(len(payload)) / 1024), nil
}

func layerXfer(lr *layerRun) error {
	payload := genPayload(lr.seed, "xfer", 64<<20)
	pool := xfer.PoolFor(256 << 10)
	kib := float64(len(payload)) / 1024
	rd := bytes.NewReader(payload)
	// onlyReader hides bytes.Reader's WriteTo, as a socket would.
	type onlyReader struct{ io.Reader }
	copyMem := func() {
		rd.Reset(payload)
		if _, err := xfer.CopyCounted(io.Discard, onlyReader{rd}, pool, xfer.CopyConfig{}); err != nil {
			panic(err)
		}
	}
	copyMem()
	lr.add("xfer", "xfer.copy_mem_ns_per_KiB", batchNs(5, 1, copyMem)/kib, "ns", 5)
	allocs := mallocsDuring(copyMem)
	lr.add("xfer", "xfer.copy_allocs_per_MiB", float64(allocs)/(kib/1024), "count", 1)

	var counted, plain []float64
	for i := 0; i < 3; i++ {
		v, err := relayTCP(payload, func(dst, src *net.TCPConn) error {
			_, err := xfer.CopyCounted(dst, src, pool, xfer.CopyConfig{})
			return err
		})
		if err != nil {
			return err
		}
		counted = append(counted, v)
		v, err = relayTCP(payload, func(dst, src *net.TCPConn) error {
			_, err := io.Copy(dst, src)
			return err
		})
		if err != nil {
			return err
		}
		plain = append(plain, v)
	}
	lr.add("xfer", "xfer.copy_tcp_ns_per_KiB", median(counted), "ns", len(counted))
	lr.add("xfer", "xfer.iocopy_tcp_ns_per_KiB", median(plain), "ns", len(plain))
	return nil
}

// ---- mux ----

// linkPair returns a client and a server mux link over one loopback TCP
// connection; under wraps the client's end (nil for none).
func linkPair(under func(net.Conn) net.Conn) (cl, sv *mux.Link, err error) {
	c, s, err := tcpPair()
	if err != nil {
		return nil, nil, err
	}
	var cc net.Conn = c
	if under != nil {
		cc = under(c)
	}
	type made struct {
		l   *mux.Link
		err error
	}
	ch := make(chan made, 1)
	go func() {
		l, err := mux.Server(s, mux.LinkConfig{})
		ch <- made{l, err}
	}()
	cl, err = mux.Client(cc, mux.LinkConfig{})
	m := <-ch
	if err != nil || m.err != nil {
		c.Close()
		s.Close()
		if err == nil {
			err = m.err
		}
		return nil, nil, err
	}
	return cl, m.l, nil
}

// streamBytes pushes payload through n concurrent streams of one link
// and returns ns per KiB over all of them.
func streamBytes(cl, sv *mux.Link, payload []byte, n int) (float64, error) {
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			st, err := sv.AcceptStream()
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			got, err := io.Copy(io.Discard, st)
			if err == nil && got != int64(len(payload)) {
				err = fmt.Errorf("stream carried %d of %d bytes", got, len(payload))
			}
			st.CloseWrite()
			errs <- err
		}()
		go func() {
			defer wg.Done()
			st, err := cl.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			for off := 0; off < len(payload) && err == nil; off += 64 << 10 {
				_, err = st.Write(payload[off:min(off+64<<10, len(payload))])
			}
			if err == nil {
				err = st.CloseWrite()
			}
			if err == nil { // wait for the peer's half-close so Close is clean, not a RESET
				_, err = io.Copy(io.Discard, st)
			}
			errs <- err
		}()
	}
	wg.Wait()
	el := time.Since(t0)
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(el) / (float64(n*len(payload)) / 1024), nil
}

func layerMux(lr *layerRun) error {
	payload := genPayload(lr.seed, "mux", 32<<20)
	cl, sv, err := linkPair(nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	defer sv.Close()
	var one, two []float64
	for i := 0; i < 3; i++ {
		v, err := streamBytes(cl, sv, payload, 1)
		if err != nil {
			return err
		}
		one = append(one, v)
		v, err = streamBytes(cl, sv, payload[:len(payload)/2], 2)
		if err != nil {
			return err
		}
		two = append(two, v)
	}
	lr.add("mux", "mux.stream_ns_per_KiB", median(one), "ns", len(one))
	lr.add("mux", "mux.stream2_ns_per_KiB", median(two), "ns", len(two))

	// Stream open on a warm trunk: OpenStream plus the first byte, until
	// the accepting side has the stream and that byte.
	accepted := make(chan struct{})
	go func() {
		var b [1]byte
		for {
			st, err := sv.AcceptStream()
			if err != nil {
				return
			}
			io.ReadFull(st, b[:])
			accepted <- struct{}{}
			io.Copy(io.Discard, st)
			st.CloseWrite()
			st.Close()
		}
	}()
	var opens []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		st, err := cl.OpenStream()
		if err != nil {
			return err
		}
		st.Write([]byte{1})
		<-accepted
		opens = append(opens, float64(time.Since(t0))/1e3)
		st.CloseWrite()
		io.Copy(io.Discard, st)
		st.Close()
	}
	lr.add("mux", "mux.stream_open_us_p50", median(opens), "us", len(opens))

	// Exact wire cost: every byte crossing the trunk, both ways, over the
	// payload bytes it carried.
	var cc *countingConn
	ccl, csv, err := linkPair(func(c net.Conn) net.Conn { cc = &countingConn{Conn: c}; return cc })
	if err != nil {
		return err
	}
	defer ccl.Close()
	defer csv.Close()
	base := cc.read.Load() + cc.written.Load() // the hello exchange
	small := payload[:16<<20]
	if _, err := streamBytes(ccl, csv, small, 1); err != nil {
		return err
	}
	wireBytes := cc.read.Load() + cc.written.Load() - base
	lr.add("mux", "mux.wire_overhead_ratio", float64(wireBytes)/float64(len(small)), "ratio", 1)

	// Trunk reuse: sequential dials through a pool to a trunk-capable peer.
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	ml := newMuxListener(ln)
	defer ml.Close()
	go func() {
		for {
			c, err := ml.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	reg := metrics.NewRegistry()
	pm := &mux.PoolMetrics{
		LinkOpened: reg.Counter("opened", ""),
		LinkReused: reg.Counter("reused", ""),
	}
	pool := mux.NewPool(mux.PoolConfig{Metrics: pm})
	defer pool.Close()
	const dials = 50
	for i := 0; i < dials; i++ {
		c, err := pool.DialContext(context.Background(), "tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		c.Write([]byte{1})
		c.Close()
	}
	opened, reused := float64(pm.LinkOpened.Value()), float64(pm.LinkReused.Value())
	lr.add("mux", "mux.link_reuse_ratio", reused/(opened+reused), "ratio", dials)
	return nil
}

// ---- stripe ----

func layerStripe(lr *layerRun) error {
	fx := layerFixture(lr, "layer/stripe", workloadByName("striped_wan").size)
	defer fx.close()
	via, err := fx.stripedPaths()
	if err != nil {
		return err
	}
	payload, ids := fx.payload, fx.ids
	var goodput, fastShare, tailMs, stolen, speculated, dup []float64
	const xfers = 3
	for i := 0; i < xfers; i++ {
		rec := &opRec{id: ids.next(), bytes: int64(len(payload)), done: make(chan struct{})}
		rec.src.reset(payload)
		res, err := stripedOnce(context.Background(), via, payload, rec)
		if err != nil {
			return err
		}
		if !rec.ok() {
			return fmt.Errorf("striped transfer did not verify")
		}
		goodput = append(goodput, float64(rec.bytes)*8/(float64(rec.end-rec.start)/1e9))
		fastShare = append(fastShare, float64(res.StripeBytes[0])/float64(res.Bytes))
		tailMs = append(tailMs, float64(res.Tail)/1e6)
		stolen = append(stolen, float64(res.FramesStolen))
		speculated = append(speculated, float64(res.FramesSpeculated))
		dup = append(dup, float64(res.FramesSpeculated)*stripeFrame/float64(res.Bytes))
	}
	lr.add("stripe", "stripe.efficiency", median(goodput)/(stripeFastBps+stripeSlowBps), "ratio", xfers)
	lr.add("stripe", "stripe.fast_share", median(fastShare), "ratio", xfers)
	lr.add("stripe", "stripe.tail_ms_p50", median(tailMs), "ms", xfers)
	lr.add("stripe", "stripe.frames_stolen_per_xfer", mean(stolen), "count", xfers)
	lr.add("stripe", "stripe.frames_speculated_per_xfer", mean(speculated), "count", xfers)
	lr.add("stripe", "stripe.dup_bytes_share", mean(dup), "ratio", xfers)

	// Pure dispatch and reassembly: Sender to Receiver over in-memory
	// pipes, two stripes, nothing shaped.
	big := genPayload(lr.seed, "stripe/pipe", 64<<20)
	pipe := func() error {
		out := &crcWriter{}
		recv := stripe.NewReceiver(out)
		snd, err := stripe.NewSender(ids.next(), bytes.NewReader(big), int64(len(big)), 2,
			stripe.SenderConfig{FrameSize: stripeFrame})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			pr, pw := io.Pipe()
			wg.Add(1)
			go func() { defer wg.Done(); recv.Attach(pr) }()
			if err := snd.Attach(i, pw); err != nil {
				return err
			}
		}
		if err := snd.Run(context.Background()); err != nil {
			return err
		}
		wg.Wait()
		if !recv.Complete() || out.crc != crc32c(big) {
			return fmt.Errorf("piped stripe group did not reassemble")
		}
		return nil
	}
	var pipeNs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := pipe(); err != nil {
			return err
		}
		pipeNs = append(pipeNs, float64(time.Since(t0))/(float64(len(big))/1024))
	}
	lr.add("stripe", "stripe.pipe_ns_per_KiB", median(pipeNs), "ns", len(pipeNs))
	return nil
}

// ---- custody ----

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func layerCustody(lr *layerRun) error {
	root, err := os.MkdirTemp(lr.tmpDir, "layer-custody-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	payload := genPayload(lr.seed, "custody", 256<<10)
	ids := newSessionIDs(lr.seed, "custody")
	entry := func(total int) custody.Entry {
		return custody.Entry{Session: ids.next(), Flags: wire.FlagStaged,
			Route: []string{"127.0.0.1:15000", "127.0.0.1:17000"}, ContentLen: uint64(total), Total: int64(total)}
	}
	stage := func(j *custody.Journal, e custody.Entry, p []byte) error {
		st, err := j.Stage(e)
		if err != nil {
			return err
		}
		if _, err := st.Write(p); err != nil {
			st.Abort()
			return err
		}
		return st.Commit()
	}
	// commits stages n payloads and returns each stage+commit's time.
	commits := func(policy custody.FsyncPolicy, dir string, n int) ([]float64, *custody.Journal, []custody.Entry, error) {
		j, err := custody.Open(filepath.Join(root, dir), custody.Config{Fsync: policy, CompactEvery: 1 << 20})
		if err != nil {
			return nil, nil, nil, err
		}
		var serr error
		var entries []custody.Entry
		us := samplesUs(n, func() {
			e := entry(len(payload))
			entries = append(entries, e)
			if err := stage(j, e, payload); err != nil {
				serr = err
			}
		})
		return us, j, entries, serr
	}

	const n = 200
	never, j, entries, err := commits(custody.FsyncNever, "never", n)
	if err != nil {
		return err
	}
	lr.add("custody", "custody.stage_commit_us_p50.never", median(never), "us", n)
	amp := float64(dirBytes(filepath.Join(root, "never"))) / float64(n*len(payload))
	lr.add("custody", "custody.write_amplification", amp, "ratio", n)
	var cerr error
	i := 0
	done := samplesUs(n, func() {
		if err := j.Complete(entries[i].Session, true); err != nil {
			cerr = err
		}
		i++
	})
	j.Close()
	if cerr != nil {
		return cerr
	}
	lr.add("custody", "custody.complete_us_p50", median(done), "us", n)

	always, ja, _, err := commits(custody.FsyncAlways, "always", 15)
	if err != nil {
		return err
	}
	ja.Close()
	lr.add("custody", "custody.stage_commit_us_p50.always", median(always), "us", len(always))

	// Recovery: Open on a journal holding 1000 live entries.
	const live = 1000
	rdir := filepath.Join(root, "recover")
	jr, err := custody.Open(rdir, custody.Config{Fsync: custody.FsyncNever})
	if err != nil {
		return err
	}
	for k := 0; k < live; k++ {
		if err := stage(jr, entry(1<<10), payload[:1<<10]); err != nil {
			return err
		}
	}
	jr.Close()
	var opens []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		jo, err := custody.Open(rdir, custody.Config{Fsync: custody.FsyncNever})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if got := len(jo.Recovered()); got != live {
			jo.Close()
			return fmt.Errorf("journal recovered %d of %d entries", got, live)
		}
		jo.Close()
	}
	lr.add("custody", "custody.open_recover_ms_per_1k", median(opens), "ms", len(opens))
	return nil
}

// ---- logistics ----

// seededObservations returns n remote observations over the overlay's
// edges, each (edge, metric, origin) distinct, stamped at t.
func seededObservations(seed int64, text, origin string, n int, t time.Time) ([]logistics.EdgeObservation, error) {
	g, err := lsl.ParseOverlay(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	edges := g.Edges()
	rng := newRNG(seed, "observations/"+origin)
	out := make([]logistics.EdgeObservation, 0, n)
	for i := 0; len(out) < n; i++ {
		e := edges[i%len(edges)]
		m := logistics.ObsMetric(i / len(edges) % 3)
		gen := i / (3 * len(edges)) // another origin once every (edge, metric) is used
		v := 0.002 + 0.05*rng.float()
		switch m {
		case logistics.ObsBandwidth:
			v = 5e7 + 9e8*rng.float()
		case logistics.ObsLoss:
			v = 0.0001 + 0.001*rng.float()
		}
		out = append(out, logistics.EdgeObservation{
			From: string(e.From), To: string(e.To), Metric: m, Value: v, Count: 8,
			Origin: fmt.Sprintf("%s-%d", origin, gen), Time: t,
		})
	}
	return out, nil
}

func layerLogistics(lr *layerRun) error {
	text, target := genOverlay(lr.seed)
	pl, err := logistics.FromOverlay(strings.NewReader(text), "src")
	if err != nil {
		return err
	}
	const size = 64 << 20
	var routes []lsl.Route
	var perr error
	// Ranking every two-depot candidate on 50 nodes takes a few hundred
	// milliseconds a call, so a handful of samples is all the run affords.
	plans := samplesUs(3, func() { routes, perr = pl.PlanRoutes(target, size) })
	if perr != nil {
		return perr
	}
	lr.add("logistics", "logistics.plan_routes_us_p50", median(plans), "us", len(plans))
	stripes := samplesUs(3, func() { _, _, perr = pl.PlanStripes(target, size, 3) })
	if perr != nil {
		return perr
	}
	lr.add("logistics", "logistics.plan_stripes_us_p50", median(stripes), "us", len(stripes))
	lr.add("logistics", "logistics.observe_success_us",
		batchNs(5, 100, func() { pl.ObserveSuccess(routes[0], size, 2.5, 0.02) })/1e3, "us", 500)

	obs, err := seededObservations(lr.seed, text, "peer", 1000, time.Now())
	if err != nil {
		return err
	}
	var merged int
	t0 := time.Now()
	merged = pl.MergeRemote(obs)
	mergeUs := float64(time.Since(t0)) / 1e3
	if merged != len(obs) {
		return fmt.Errorf("planner merged %d of %d observations", merged, len(obs))
	}
	lr.add("logistics", "logistics.merge_remote_us_per_1k", mergeUs, "us", 1)
	var exported int
	exportUs := median(samplesUs(5, func() { exported = len(pl.ExportObservations(0)) }))
	lr.add("logistics", "logistics.export_us_per_1k", exportUs*1000/float64(max(exported, 1)), "us", 5)
	path := filepath.Join(lr.tmpDir, "layer-snapshot.json")
	defer os.Remove(path)
	var serr error
	saves := samplesUs(5, func() { serr = pl.SaveSnapshot(path) })
	if serr != nil {
		return serr
	}
	lr.add("logistics", "logistics.snapshot_save_ms", median(saves)/1e3, "ms", len(saves))
	return nil
}

// ---- gossip ----

func layerGossip(lr *layerRun) error {
	text, _ := genOverlay(lr.seed)
	mk := func(self, origin string) (*logistics.Planner, error) {
		pl, err := logistics.FromOverlay(strings.NewReader(text), lsl.NodeID(self))
		if err != nil {
			return nil, err
		}
		obs, err := seededObservations(lr.seed, text, origin, 1000, time.Now())
		if err != nil {
			return nil, err
		}
		pl.MergeRemote(obs)
		return pl, nil
	}
	pa, err := mk("d00", "a")
	if err != nil {
		return err
	}
	pb, err := mk("d01", "b")
	if err != nil {
		return err
	}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer func() { ln.Close(); wg.Wait() }()
	gb, err := gossip.New(gossip.Config{Planner: pb, Peers: []string{"127.0.0.1:1"}, Seed: lr.seed + 1})
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			gb.ServeConn(c)
		}
	}()
	var last *countingConn
	ga, err := gossip.New(gossip.Config{Planner: pa, Peers: []string{ln.Addr().String()}, Seed: lr.seed,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			last = &countingConn{Conn: c}
			return last, nil
		}})
	if err != nil {
		return err
	}
	ctx := context.Background()
	// Rounds until nothing new moves: the first carry the 1k-observation
	// deltas each way, the rest are the digest-only steady state.
	for i := 0; i < 8 && ga.RunRound(ctx) > 0; i++ {
	}
	rounds := samplesUs(10, func() { ga.RunRound(ctx) })
	lr.add("gossip", "gossip.round_ms_p50", median(rounds)/1e3, "ms", len(rounds))
	if last == nil {
		return fmt.Errorf("gossiper never dialed its peer")
	}
	lr.add("gossip", "gossip.round_wire_bytes", float64(last.read.Load()+last.written.Load()), "B", 1)
	return nil
}

// ---- emu ----

func layerEmu(lr *layerRun) error {
	// Delay: one-byte echo through a 2 ms proxy; the error is the round
	// trip beyond the configured 4 ms.
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer func() { ln.Close(); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); io.Copy(c, c); c.Close() }()
		}
	}()
	shape := emu.Shape{Delay: wanDelay}
	p := emu.NewProxy(ln.Addr().String(), shape, shape)
	addr, err := p.Start()
	if err != nil {
		return err
	}
	defer p.Close()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	var b [1]byte
	var eerr error
	rtts := samplesUs(50, func() {
		if _, err := c.Write(b[:]); err != nil {
			eerr = err
		}
		if _, err := io.ReadFull(c, b[:]); err != nil {
			eerr = err
		}
	})
	c.Close()
	if eerr != nil {
		return eerr
	}
	lr.add("emu", "emu.delay_error_ms_p50", median(rtts)/1e3-2*ms(int64(wanDelay)), "ms", len(rtts))

	// Rate: raw TCP through the 250 Mbit/s proxy into a discarding sink.
	sinkLn, err := listenLoopback()
	if err != nil {
		return err
	}
	defer sinkLn.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := sinkLn.Accept()
		if err != nil {
			got <- -1
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		got <- n
	}()
	rp := emu.NewProxy(sinkLn.Addr().String(), emu.Shape{RateBps: stripeFastBps}, emu.Shape{})
	raddr, err := rp.Start()
	if err != nil {
		return err
	}
	defer rp.Close()
	payload := genPayload(lr.seed, "emu", 8<<20)
	rc, err := net.Dial("tcp", raddr)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := rc.Write(payload); err != nil {
		rc.Close()
		return err
	}
	rc.(*net.TCPConn).CloseWrite()
	n := <-got
	el := time.Since(t0)
	rc.Close()
	if n != int64(len(payload)) {
		return fmt.Errorf("shaped path carried %d of %d bytes", n, len(payload))
	}
	lr.add("emu", "emu.rate_ratio", float64(n)*8/el.Seconds()/stripeFastBps, "ratio", 1)
	return nil
}
