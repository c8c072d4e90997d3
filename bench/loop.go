package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// loopResult is one closed-loop run of a workload: every transfer's
// record plus the process-level counters around the measured window.
type loopResult struct {
	ops        []*opRec
	clientRate float64 // sum over clients of completed sessions / that client's elapsed seconds
	cpuSeconds float64
	mallocs    uint64
	gcPauseNs  uint64
}

// runLoop drives fx as a closed loop for dur: each of the workload's
// clients issues its next transfer only when the previous one has
// completed. A transfer that started inside the window runs to its end,
// and each client's rate is taken over its own elapsed time, so a long
// transfer straddling the deadline neither counts short nor is dropped.
func runLoop(fx *fixture, dur time.Duration) *loopResult {
	stagger := genStagger(fx.seed, fx.w.name, fx.w.clients)
	perClient := make([][]*opRec, fx.w.clients)
	elapsed := make([]float64, fx.w.clients)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0, pause0 := mem.Mallocs, mem.PauseTotalNs
	cpu0 := cpuSeconds()

	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < fx.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			time.Sleep(stagger[c])
			t0 := now()
			for time.Now().Before(deadline) {
				rec := fx.newOp(c)
				fx.do(ctx, rec)
				rec.src.r = nil // the record outlives the fixture; its payload must not
				perClient[c] = append(perClient[c], rec)
			}
			elapsed[c] = float64(now()-t0) / 1e9
		}(c)
	}
	wg.Wait()
	cpu1 := cpuSeconds()

	res := &loopResult{cpuSeconds: cpu1 - cpu0}
	// Staged transfers release the initiator at the custody ack; give the
	// deliveries still in flight a bounded time to land before judging.
	for _, ops := range perClient {
		for _, rec := range ops {
			if rec.err == nil {
				awaitDelivery(rec, deliveryLimit)
			}
		}
	}
	runtime.ReadMemStats(&mem)
	res.mallocs, res.gcPauseNs = mem.Mallocs-mallocs0, mem.PauseTotalNs-pause0
	for c, ops := range perClient {
		done := 0
		for _, rec := range ops {
			if rec.ok() {
				done++
			}
		}
		if elapsed[c] > 0 {
			res.clientRate += float64(done) / elapsed[c]
		}
		res.ops = append(res.ops, ops...)
	}
	return res
}

// e2e holds one run's end-to-end metrics. Latencies are taken over
// verified transfers only; a failed, refused, short or corrupt transfer
// is counted in failed and is missing from every latency.
type e2e struct {
	attempted, failed int
	goodputMBps       float64 // median per-transfer payload bytes / wall time of the public call
	sessionMs         []float64
	openMs            []float64
	ttfbMs            []float64
	deliverMs         []float64
	sessionsPerS      float64
	cpuSPerGiB        float64
	attemptsPerOp     float64
}

// failShare is failed / attempted.
func (m *e2e) failShare() float64 { return float64(m.failed) / float64(max(m.attempted, 1)) }

func summarize(res *loopResult) *e2e {
	m := &e2e{attempted: len(res.ops), sessionsPerS: res.clientRate}
	var goodput []float64
	var bytes int64
	attempts := 0
	for _, r := range res.ops {
		if !r.ok() {
			m.failed++
			continue
		}
		call := float64(r.end-r.start) / 1e9
		goodput = append(goodput, float64(r.bytes)/1e6/call)
		m.sessionMs = append(m.sessionMs, ms(r.end-r.start))
		m.openMs = append(m.openMs, ms(r.src.first.Load()-r.start))
		m.ttfbMs = append(m.ttfbMs, ms(r.firstByte-r.start))
		m.deliverMs = append(m.deliverMs, ms(r.delivered-r.start))
		bytes += r.bytes
		attempts += r.attempts
	}
	if n := len(goodput); n > 0 {
		m.goodputMBps = median(goodput)
		m.cpuSPerGiB = res.cpuSeconds / (float64(bytes) / (1 << 30))
		m.attemptsPerOp = float64(attempts) / float64(n)
	}
	return m
}
