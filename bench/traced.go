package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// tracedRun is the per-layer side of the ledger for one workload: the
// workload rerun with harness-side spans (session -> open / write /
// confirm, plus the target's read, sharing the session ID), the depots'
// and the process's own counters around it, and — with layers set — the
// fixed layer fixtures. baseGoodput is the untraced goodput to compare
// against; zero makes the run measure it itself first. Spans are kept in
// memory and written to <outDir>/trace.json at the end.
func tracedRun(l *ledger, cfg config, w *workload, baseGoodput float64, layers bool) (attempted, failed int, err error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return 0, 0, err
	}
	settle()
	goroutines := runtime.NumGoroutine()
	fx, err := buildFixture(w, cfg.seed, cfg.tmpDir)
	if err != nil {
		return 0, 0, err
	}
	runLoop(fx, warmupFor(cfg.measure))
	if baseGoodput == 0 {
		base := summarize(runLoop(fx, cfg.measure/4))
		attempted, failed = base.attempted, base.failed
		baseGoodput = base.goodputMBps
	}
	settle()
	res := runLoop(fx, cfg.measure/2)
	m := summarize(res)
	attempted += m.attempted
	failed += m.failed

	tr := &tracer{}
	for _, r := range res.ops {
		if r.ok() {
			tr.recordOp(w.name, r)
		}
	}
	var accepted, rejected, stagedSessions, stagedAttempts uint64
	var highWater int64
	for _, d := range fx.depots {
		st := d.Stats()
		accepted += st.Accepted
		rejected += st.RejectedBusy + st.RejectedRoute + st.RejectedProto
		stagedSessions += st.Staged
		stagedAttempts += st.StagedDeliveryAttempts
		if st.MaxBuffered > highWater {
			highWater = st.MaxBuffered
		}
	}
	fx.close()
	leaked := leakedGoroutines(goroutines)

	n := len(m.sessionMs)
	add := func(layer, metric string, v float64, unit string, n int) *row {
		return l.add(w.name, layer, metric, v, unit, n)
	}
	self := tr.selfTimes()
	add("session", "session.self_ms_p50", median(self[spanSession]), "ms", n)
	add("session", "session.open_ms_p50", median(self[spanOpen]), "ms", n)
	add("session", "session.write_ms_p50", median(self[spanWrite]), "ms", n)
	add("session", "session.confirm_ms_p50", median(self[spanConfirm]), "ms", n)
	add("session", "session.target_read_ms_p50", median(self[spanTargetRead]), "ms", n)
	pct := tailPercentile(n)
	add("session", "session.tail_ms", percentile(m.sessionMs, pct), "ms", n).Note = fmt.Sprintf("p%.0f", pct)
	add("session", "session.tail_percentile", pct, "%", n)
	add("session", "session.fail_share", m.failShare(), "ratio", m.attempted)
	add("trace", "trace.overhead_ratio", m.goodputMBps/baseGoodput, "ratio", n)
	add("trace", "trace.spans", float64(len(tr.spans)), "count", n)
	add("resilience", "resilience.attempts_per_transfer", m.attemptsPerOp, "count", n)
	add("depot", "depot.sessions_accepted", float64(accepted), "count", 1)
	add("depot", "depot.sessions_rejected", float64(rejected), "count", 1)
	add("depot", "depot.buffer_high_water_bytes", float64(highWater), "B", 1)
	perStaged := 0.0
	if stagedSessions > 0 {
		perStaged = float64(stagedAttempts) / float64(stagedSessions)
	}
	add("depot", "depot.staged_delivery_attempts_per_session", perStaged, "count", int(stagedSessions))
	add("proc", "proc.cpu_s_per_GiB", m.cpuSPerGiB, "s", n)
	add("proc", "proc.allocs_per_session", float64(res.mallocs)/float64(max(n, 1)), "count", n)
	add("proc", "proc.gc_pause_ms_total", float64(res.gcPauseNs)/1e6, "ms", 1)
	add("proc", "proc.goroutines_leaked", float64(leaked), "count", 1)

	if layers {
		if err := runLayers(&layerRun{l: l, workload: w.name, seed: cfg.seed, tmpDir: cfg.tmpDir}); err != nil {
			return attempted, failed, err
		}
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
		return attempted, failed, err
	}
	return attempted, failed, nil
}

// leakedGoroutines waits for the goroutines a torn-down fixture started
// to finish and returns how many are still running beyond before.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
