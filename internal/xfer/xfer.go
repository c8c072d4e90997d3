// Package xfer is the shared session data plane: the one place bytes are
// moved between transport connections on behalf of a session. The depot's
// relay loop, its staged (custody) delivery path, and the initiator's
// SendReader all drain through CopyCounted, so buffer pooling, byte
// accounting, high-water tracking, and cancellation behave identically at
// every layer — the paper's depot is "a transport to transport binding"
// (§IV-A), and this package is that binding as a reusable engine.
//
// Buffers come from size-classed sync.Pool-backed pools (PoolFor), so a
// depot moving millions of sessions performs no per-session buffer
// allocation: a session borrows a buffer for exactly as long as bytes are
// moving and returns it on the way out. A source that already holds its
// bytes in buffers of its own (a trunk stream, BatchSource) hands them to
// the destination instead, and no relay buffer is borrowed at all. On
// Linux a copy between two TCP connections splices through a pooled
// kernel pipe, and the bytes never enter user space.
package xfer

import (
	"io"
	"sync"
	"sync/atomic"
)

// Pool hands out fixed-size copy buffers backed by a sync.Pool. All
// buffers from one Pool have the same length (its size class).
type Pool struct {
	size  int
	p     sync.Pool
	pipes sync.Pool // kernel pipes of at least size bytes (splice path)
}

// NewPool builds a pool whose buffers are size bytes long. Sizes must be
// positive; a non-positive size falls back to 256 KiB (the default relay
// buffer).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = 256 << 10
	}
	p := &Pool{size: size}
	p.p.New = func() interface{} {
		b := make([]byte, p.size)
		return &b
	}
	return p
}

// Size returns the pool's buffer length.
func (p *Pool) Size() int { return p.size }

// Get borrows a buffer of exactly Size bytes.
func (p *Pool) Get() *[]byte { return p.p.Get().(*[]byte) }

// Put returns a buffer to the pool. Buffers of the wrong size class are
// dropped rather than poisoning the pool.
func (p *Pool) Put(b *[]byte) {
	if b == nil || len(*b) != p.size {
		return
	}
	p.p.Put(b)
}

// pools is the process-wide size-class registry behind PoolFor.
var (
	poolsMu sync.Mutex
	pools   = map[int]*Pool{}
)

// PoolFor returns the process-wide pool for one buffer size class,
// creating it on first use. Layers configured with the same buffer size
// (e.g. every depot plus the initiator's send path) share one pool.
func PoolFor(size int) *Pool {
	if size <= 0 {
		size = 256 << 10
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p, ok := pools[size]; ok {
		return p
	}
	p := NewPool(size)
	pools[size] = p
	return p
}

// Adder receives byte credits as data moves. *metrics.Counter satisfies
// it directly; wrap an atomic counter with AtomicAdder.
type Adder interface{ Add(n uint64) }

// AtomicAdder adapts a per-session *atomic.Uint64 live counter to Adder.
type AtomicAdder struct{ U *atomic.Uint64 }

// Add credits the underlying atomic counter.
func (a AtomicAdder) Add(n uint64) { a.U.Add(n) }

// MaxSetter tracks a high-water mark. *metrics.Gauge satisfies it.
type MaxSetter interface{ SetMax(v int64) }

// BatchSource is a source that writes what it has buffered to the
// destination itself, one batch per call, so a copy moves it without
// passing it through a relay buffer. A trunk stream (mux.Stream) is one:
// it lends its received blocks to the destination's vectored write.
type BatchSource interface {
	// WriteBatchTo waits for data, writes one batch of it to w, and
	// returns the bytes w took; io.EOF once the source is drained and
	// finished.
	WriteBatchTo(w io.Writer) (int, error)
}

// CopyConfig threads per-session observability into one counted copy.
// The zero value is a plain pooled copy.
type CopyConfig struct {
	// Counters are credited with each chunk after it is written (the
	// session's live byte counter, the depot-wide direction total, ...).
	Counters []Adder
	// HighWater, when set, records the largest single read — the relay
	// buffer fill level; on the splice path the largest round, at most
	// the pipe's capacity. On a hand-through from a BatchSource no buffer
	// is borrowed, and it records the largest batch instead: the most
	// received bytes held out of the source's window while the
	// destination write was under way.
	HighWater MaxSetter
}

// CopyCounted moves bytes from src to dst through a buffer borrowed from
// pool, returning the byte count and the first error. A clean EOF from
// src is not an error. Each chunk is credited to every configured counter
// only after it has been written downstream, so counters never run ahead
// of the receiver. A src that is a BatchSource writes its batches to dst
// itself and no buffer is borrowed; the counters and HighWater then apply
// per batch. Between two *net.TCPConn on Linux the bytes move by
// splice(2) through a pipe from pool, the same per round.
func CopyCounted(dst io.Writer, src io.Reader, pool *Pool, cfg CopyConfig) (int64, error) {
	if bs, ok := src.(BatchSource); ok {
		return copyBatches(dst, bs, cfg)
	}
	if n, handled, err := copySplice(dst, src, pool, &cfg); handled {
		return n, err
	}
	bp := pool.Get()
	defer pool.Put(bp)
	buf := *bp
	var moved int64
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if cfg.HighWater != nil {
				cfg.HighWater.SetMax(int64(n))
			}
			nw, werr := dst.Write(buf[:n])
			if nw > 0 {
				moved += int64(nw)
				cfg.credit(nw)
			}
			if werr != nil {
				return moved, werr
			}
			if nw < n {
				return moved, io.ErrShortWrite
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return moved, nil
			}
			return moved, rerr
		}
	}
}

// copyBatches is CopyCounted for a source that writes its own batches.
func copyBatches(dst io.Writer, src BatchSource, cfg CopyConfig) (int64, error) {
	var moved int64
	for {
		n, err := src.WriteBatchTo(dst)
		if n > 0 {
			if cfg.HighWater != nil {
				cfg.HighWater.SetMax(int64(n))
			}
			moved += int64(n)
			cfg.credit(n)
		}
		if err == io.EOF {
			return moved, nil
		}
		if err != nil {
			return moved, err
		}
	}
}

// credit reports n bytes written downstream to the counters.
func (cfg *CopyConfig) credit(n int) {
	for _, c := range cfg.Counters {
		c.Add(uint64(n))
	}
}
