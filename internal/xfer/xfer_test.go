package xfer

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPoolSizeClass(t *testing.T) {
	p := NewPool(1024)
	b := p.Get()
	if len(*b) != 1024 {
		t.Fatalf("len=%d", len(*b))
	}
	p.Put(b)
	// Wrong-size buffers must not poison the pool.
	bad := make([]byte, 10)
	p.Put(&bad)
	again := p.Get()
	if len(*again) != 1024 {
		t.Fatalf("pool poisoned: len=%d", len(*again))
	}
	if NewPool(0).Size() != 256<<10 {
		t.Fatal("zero size did not default")
	}
}

func TestPoolForSharesByClass(t *testing.T) {
	if PoolFor(2048) != PoolFor(2048) {
		t.Fatal("same size class returned distinct pools")
	}
	if PoolFor(2048) == PoolFor(4096) {
		t.Fatal("distinct size classes share a pool")
	}
	if PoolFor(0) != PoolFor(256<<10) {
		t.Fatal("zero size did not alias the default class")
	}
}

func TestCopyCountedCounts(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 10000)
	var dst bytes.Buffer
	var live atomic.Uint64
	var total counter
	var high maxGauge
	var progress int
	n, err := CopyCounted(&dst, bytes.NewReader(payload), NewPool(512), CopyConfig{
		Counters:  []Adder{AtomicAdder{U: &live}, &total, adderFunc(func(n uint64) { progress += int(n) })},
		HighWater: &high,
	})
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("payload corrupted")
	}
	if live.Load() != uint64(len(payload)) || total.v != uint64(len(payload)) || progress != len(payload) {
		t.Fatalf("counters: live=%d total=%d progress=%d", live.Load(), total.v, progress)
	}
	if high.v != 512 {
		t.Fatalf("high water %d, want full buffer fills of 512", high.v)
	}
}

func TestCopyCountedReadError(t *testing.T) {
	boom := errors.New("boom")
	src := io.MultiReader(strings.NewReader("abcd"), errReader{boom})
	var dst bytes.Buffer
	n, err := CopyCounted(&dst, src, NewPool(2), CopyConfig{})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if n != 4 {
		t.Fatalf("n=%d", n)
	}
}

func TestCopyCountedWriteError(t *testing.T) {
	boom := errors.New("full")
	var total counter
	n, err := CopyCounted(failWriter{2, boom}, strings.NewReader("abcdef"), NewPool(4), CopyConfig{
		Counters: []Adder{&total},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// Only the bytes actually written downstream are credited.
	if n != 2 || total.v != 2 {
		t.Fatalf("n=%d total=%d", n, total.v)
	}
}

func TestCopyCountedShortWrite(t *testing.T) {
	_, err := CopyCounted(failWriter{1, nil}, strings.NewReader("abcd"), NewPool(4), CopyConfig{})
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err=%v", err)
	}
}

// batchSource hands its batches to the writer in order, then io.EOF; a
// copy that reads it through a buffer instead fails.
type batchSource struct{ batches [][]byte }

func (s *batchSource) Read([]byte) (int, error) {
	return 0, errors.New("a BatchSource was read through a relay buffer")
}

func (s *batchSource) WriteBatchTo(w io.Writer) (int, error) {
	if len(s.batches) == 0 {
		return 0, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return w.Write(b)
}

// TestCopyCountedHandsThrough: a BatchSource writes its own batches; the
// copy credits the counters per batch after the write, records the
// largest batch as its high-water mark, and stops at a destination's error.
func TestCopyCountedHandsThrough(t *testing.T) {
	batches := func() [][]byte {
		return [][]byte{bytes.Repeat([]byte("a"), 300), bytes.Repeat([]byte("b"), 1000), bytes.Repeat([]byte("c"), 50)}
	}
	var dst bytes.Buffer
	var live atomic.Uint64
	var high maxGauge
	var progress []uint64
	n, err := CopyCounted(&dst, &batchSource{batches()}, NewPool(16), CopyConfig{
		Counters:  []Adder{AtomicAdder{U: &live}, adderFunc(func(n uint64) { progress = append(progress, n) })},
		HighWater: &high,
	})
	if err != nil || n != 1350 || dst.Len() != 1350 || !bytes.Equal(dst.Bytes(), bytes.Join(batches(), nil)) {
		t.Fatalf("n=%d err=%v dst=%d bytes", n, err, dst.Len())
	}
	if live.Load() != 1350 || high.v != 1000 || len(progress) != 3 || progress[1] != 1000 {
		t.Fatalf("live=%d high=%d progress=%v; want 1350, the largest batch, one call per batch", live.Load(), high.v, progress)
	}

	var total counter
	n, err = CopyCounted(failWriter{2, errors.New("full")}, &batchSource{batches()}, NewPool(16), CopyConfig{
		Counters: []Adder{&total},
	})
	if err == nil || n != 2 || total.v != 2 {
		t.Fatalf("failing destination: n=%d total=%d err=%v; want the 2 bytes it took and its error", n, total.v, err)
	}
}

func BenchmarkCopyCounted(b *testing.B) {
	payload := bytes.Repeat([]byte("y"), 1<<20)
	pool := PoolFor(256 << 10)
	var live atomic.Uint64
	cfg := CopyConfig{Counters: []Adder{AtomicAdder{U: &live}}}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CopyCounted(io.Discard, bytes.NewReader(payload), pool, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

type counter struct{ v uint64 }

// adderFunc is an Adder that hands each credit to a test's function.
type adderFunc func(n uint64)

func (f adderFunc) Add(n uint64) { f(n) }

func (c *counter) Add(n uint64) { c.v += n }

type maxGauge struct{ v int64 }

func (g *maxGauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// failWriter accepts n bytes of the first chunk, then fails with err
// (nil err models a silent short write).
type failWriter struct {
	n   int
	err error
}

func (w failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		return len(p), nil
	}
	return w.n, w.err
}
