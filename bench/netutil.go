package main

import (
	"bufio"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lsl/internal/mux"
	"lsl/internal/wire"
)

// epoch anchors the monotonic clock every timestamp in a run is read
// from; initiator, target and tracer share it because they share the
// process.
var epoch = time.Now()

// now returns nanoseconds since the process started (monotonic).
func now() int64 { return int64(time.Since(epoch)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// prefixConn replays bytes already consumed while sniffing a connection's
// protocol magic.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (p *prefixConn) Read(b []byte) (int, error) {
	if len(p.prefix) > 0 {
		n := copy(b, p.prefix)
		p.prefix = p.prefix[n:]
		return n, nil
	}
	return p.Conn.Read(b)
}

func (p *prefixConn) CloseWrite() error {
	if cw, ok := p.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// muxListener is a session target's transport listener that speaks both
// transports, like a depot does: a connection opening with the trunk
// magic becomes a mux link whose streams are surfaced as connections, and
// anything else is passed through as a classic per-session connection.
// The public lsl.Listener only accepts classic connections, so the
// all-trunk workloads wrap one of these with lsl.NewListener.
type muxListener struct {
	ln    net.Listener
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once

	mu    sync.Mutex
	links []*mux.Link
	wg    sync.WaitGroup
}

func newMuxListener(ln net.Listener) *muxListener {
	m := &muxListener{ln: ln, conns: make(chan net.Conn), done: make(chan struct{})}
	m.wg.Add(1)
	go m.acceptLoop()
	return m
}

func (m *muxListener) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.serve(nc)
	}
}

func (m *muxListener) serve(nc net.Conn) {
	defer m.wg.Done()
	probe := make([]byte, 4)
	if _, err := io.ReadFull(nc, probe); err != nil {
		nc.Close()
		return
	}
	pc := &prefixConn{Conn: nc, prefix: probe}
	if !wire.IsMuxMagic(probe) {
		m.deliver(pc)
		return
	}
	link, err := mux.Server(pc, mux.LinkConfig{})
	if err != nil {
		nc.Close()
		return
	}
	m.mu.Lock()
	m.links = append(m.links, link)
	m.mu.Unlock()
	for {
		st, err := link.AcceptStream()
		if err != nil {
			return
		}
		m.deliver(st)
	}
}

func (m *muxListener) deliver(c net.Conn) {
	select {
	case m.conns <- c:
	case <-m.done:
		c.Close()
	}
}

func (m *muxListener) Accept() (net.Conn, error) {
	select {
	case c := <-m.conns:
		return c, nil
	case <-m.done:
		return nil, net.ErrClosed
	}
}

func (m *muxListener) Addr() net.Addr { return m.ln.Addr() }

// Close stops accepting, tears down every trunk and waits for the serving
// goroutines, so a fixture leaves nothing running behind it.
func (m *muxListener) Close() error {
	m.once.Do(func() {
		close(m.done)
		m.ln.Close()
		m.mu.Lock()
		links := m.links
		m.mu.Unlock()
		for _, l := range links {
			l.Close()
		}
		m.wg.Wait()
	})
	return nil
}

// countingConn counts every byte crossing a connection in both
// directions (the exact wire cost of whatever is layered on top).
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// listenLoopback binds an ephemeral loopback TCP port.
func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
