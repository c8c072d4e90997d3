package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// A run measures its workload in segments, each on a fixture of its own:
// on this box the same code on two fixtures built a second apart differs
// by several per cent for as long as each lives (which threads the
// pumps land on, which ports and buffers they got), so a run pools
// several fixtures and takes medians over all of them instead of
// reporting whichever one it happened to build. Every build is timed;
// setup_s is their median. A set-up that takes a millisecond needs more
// samples than one that takes a tenth of a second, so builds continue
// (unmeasured) until they add up to setupBudget or there are setupMax of
// them.
const (
	segments    = 4
	setupMax    = 40
	setupBudget = 500 * time.Millisecond
)

// warmupFor returns the warm-up that precedes a measured window of the
// given length: a fifth of it, so trunks, buffer pools and the first GC
// cycles are behind it, between 0.2 s and 2 s.
func warmupFor(measure time.Duration) time.Duration {
	w := measure / 5
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	if w < 200*time.Millisecond {
		w = 200 * time.Millisecond
	}
	return w
}

// settle returns the heap to a known state between phases, so peak RSS
// reflects one fixture's working set and not garbage from the last one.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runOutcome is what one untraced run of one workload yields.
type runOutcome struct {
	e2e     *e2e
	setupS  []float64
	peakRSS float64
}

// measureWorkload runs w with tracing off: per segment it builds a fresh
// fixture, warms it, runs the measured closed loop and tears it down.
func measureWorkload(w *workload, cfg config) (*runOutcome, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	var setupS []float64
	var setupTotal time.Duration
	build := func() (*fixture, error) {
		settle()
		t0 := time.Now()
		fx, err := buildFixture(w, cfg.seed, cfg.tmpDir)
		d := time.Since(t0)
		setupS = append(setupS, d.Seconds())
		setupTotal += d
		return fx, err
	}
	segment := cfg.measure / segments
	pooled := &loopResult{}
	for i := 0; i < segments; i++ {
		fx, err := build()
		if err != nil {
			return nil, err
		}
		warm := summarize(runLoop(fx, warmupFor(segment)))
		if warm.failed > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d of %d warm-up transfers failed\n", w.name, warm.failed, warm.attempted)
		}
		res := runLoop(fx, segment)
		fx.close()
		pooled.ops = append(pooled.ops, res.ops...)
		pooled.clientRate += res.clientRate / segments
		pooled.cpuSeconds += res.cpuSeconds
	}
	peak := peakRSSMiB()
	for setupTotal < setupBudget && len(setupS) < setupMax {
		fx, err := build()
		if err != nil {
			return nil, err
		}
		fx.close()
	}
	return &runOutcome{e2e: summarize(pooled), setupS: setupS, peakRSS: peak}, nil
}

// addE2E appends one run's end-to-end rows for workload name.
func addE2E(l *ledger, name string, o *runOutcome) {
	m := o.e2e
	n := len(m.sessionMs)
	l.add(name, layerE2E, "goodput_MBps", m.goodputMBps, "MB/s", n)
	l.add(name, layerE2E, "cpu_s_per_GiB", m.cpuSPerGiB, "s", n)
	l.add(name, layerE2E, "session_ms_p50", median(m.sessionMs), "ms", n)
	l.add(name, layerE2E, "open_ms_p50", median(m.openMs), "ms", n)
	l.add(name, layerE2E, "ttfb_ms_p50", median(m.ttfbMs), "ms", n)
	l.add(name, layerE2E, "deliver_ms_p50", median(m.deliverMs), "ms", n)
	l.add(name, layerE2E, "sessions_per_s", m.sessionsPerS, "1/s", n)
	l.add(name, layerE2E, "setup_s", median(o.setupS), "s", len(o.setupS))
	l.add(name, layerE2E, "peak_rss_MiB", o.peakRSS, "MiB", 1)
	l.add(name, layerE2E, "fail_share", m.failShare(), "ratio", m.attempted)
}
