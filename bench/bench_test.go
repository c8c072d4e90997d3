package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testConfig(t *testing.T, seed int64) config {
	dir := t.TempDir()
	return config{seed: seed, measure: 500 * time.Millisecond, outDir: dir, tmpDir: filepath.Join(dir, "tmp")}
}

// TestSmoke runs every workload for half a second untraced and traced and
// the layer fixtures once, and checks the ledger against BENCHMARK.json:
// every metric the contract names is emitted with a finite value, names
// are well-formed, nothing fails, nothing is retried, nothing leaks.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	cfg := testConfig(t, 1)
	l := newLedger(cfg.seed, 0)
	for _, w := range workloads {
		o, err := measureWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		addE2E(l, w.name, o)
		if _, _, err := tracedRun(l, cfg, w, o.e2e.goodputMBps, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.outDir, "trace.json")); err != nil {
		t.Errorf("traced run left no trace.json: %v", err)
	}
	if err := runLayers(&layerRun{l: l, workload: "layers", seed: cfg.seed, tmpDir: cfg.tmpDir}); err != nil {
		t.Fatal(err)
	}

	rows := make(map[rowKey]row)
	anywhere := make(map[string]bool)
	for _, r := range l.Rows {
		if !metricName.MatchString(r.Metric) {
			t.Errorf("metric name %q is not well-formed", r.Metric)
		}
		if !finite(r.Value) {
			t.Errorf("%s %s = %v is not finite", r.Workload, r.Metric, r.Value)
		}
		rows[rowKey{r.Workload, r.Metric}] = r
		anywhere[r.Metric] = true
	}
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			r, ok := rows[rowKey{w.name, m.Name}]
			if !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.name, m.Name)
			} else if r.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, r.Value)
			}
		}
		for metric, want := range map[string]float64{
			"fail_share": 0, "session.fail_share": 0,
			"resilience.attempts_per_transfer": 1, "proc.goroutines_leaked": 0,
		} {
			if r, ok := rows[rowKey{w.name, metric}]; !ok || r.Value != want {
				t.Errorf("%s: %s = %v (emitted %v), want %v", w.name, metric, r.Value, ok, want)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !anywhere[m.Name] {
			t.Errorf("per-layer metric %s not emitted", m.Name)
		}
	}
}

// TestSeedDiscipline checks that inputs are a function of the seed alone:
// the same seed regenerates identical inputs, another seed changes them,
// and every workload still verifies a transfer under either.
func TestSeedDiscipline(t *testing.T) {
	a, b := genPayload(1, "x", 1<<16), genPayload(1, "x", 1<<16)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different payloads")
	}
	if crc32c(a) == crc32c(genPayload(2, "x", 1<<16)) {
		t.Error("different seeds, same payload CRC")
	}
	if crc32c(a) == crc32c(genPayload(1, "y", 1<<16)) {
		t.Error("different workloads share a payload")
	}
	o1, t1 := genOverlay(1)
	o1b, _ := genOverlay(1)
	o2, _ := genOverlay(2)
	if o1 != o1b {
		t.Error("same seed, different overlays")
	}
	if o1 == o2 {
		t.Error("different seeds, same overlay")
	}
	if t1 == "" {
		t.Error("overlay has no target address")
	}
	if newSessionIDs(1, "w").next() != newSessionIDs(1, "w").next() {
		t.Error("same seed, different session IDs")
	}
	if newSessionIDs(1, "w").next() == newSessionIDs(2, "w").next() {
		t.Error("different seeds, same session IDs")
	}
	s1, s2 := genStagger(1, "w", 2), genStagger(1, "w", 2)
	if s1[0] != s2[0] || s1[1] != s2[1] {
		t.Error("same seed, different stagger")
	}

	for _, seed := range []int64{1, 2} {
		cfg := testConfig(t, seed)
		if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			// buildFixture pushes one transfer through and fails unless the
			// target verified it against the seeded payload.
			fx, err := buildFixture(w, seed, cfg.tmpDir)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got := crc32c(fx.payload); got != crc32c(genPayload(seed, w.name, w.size)) {
				t.Errorf("seed %d %s: fixture payload is not the seeded one", seed, w.name)
			}
			fx.close()
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to the values
// Python's statistics.quantiles(xs, n=4) gives, since the acceptance
// check computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 7, 3, 9, 15, 4, 8, 11, 6, 10}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-5.5) > 1e-12 || math.Abs(q3-11.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 5.5, 11.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-5.75/8.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 5.75/8.5)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 19: 50, 20: 50, 100: 90, 1000: 99, 5000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestSelfTime checks that a span's self time excludes what its children
// cover, overlaps counted once and children clipped to the parent.
func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	root := tr.add(0, "s", "w", "root", 0, 100e6)
	tr.add(root, "s", "w", "a", 10e6, 40e6)
	tr.add(root, "s", "w", "b", 30e6, 60e6)  // overlaps a
	tr.add(root, "s", "w", "c", 90e6, 130e6) // runs past the parent
	self := tr.selfTimes()
	if got := self["root"][0]; math.Abs(got-40) > 1e-9 {
		t.Errorf("root self time = %v ms, want 40", got)
	}
	if got := self["a"][0]; got != 30 {
		t.Errorf("leaf self time = %v ms, want its duration 30", got)
	}
}

// TestCompareVerdicts drives -compare over small ledgers: within bound
// passes, beyond it fails, a spread wider than the bound is unresolved
// and not failed, and a higher fail_share fails.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	specJSON := `{"workloads":[{"name":"w","why":"x"}],"end_to_end":[
	 {"name":"goodput_MBps","unit":"MB/s","better":"higher","bound":0.1},
	 {"name":"session_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, goodput, session, spreadV, failShare float64) string {
		l := newLedger(1, 1)
		l.add("w", layerE2E, "goodput_MBps", goodput, "MB/s", 10).Spread = spreadV
		l.add("w", layerE2E, "session_ms_p50", session, "ms", 10)
		l.add("w", layerE2E, "fail_share", failShare, "ratio", 10)
		p := filepath.Join(dir, name)
		if err := l.writeFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 100, 10, 0.01, 0)
	cases := []struct {
		name string
		path string
		want int
	}{
		{"within bound", write("same.json", 95, 10.5, 0.01, 0), 0},
		{"goodput fell", write("slow.json", 85, 10, 0.01, 0), 1},
		{"latency rose", write("late.json", 100, 11.5, 0.01, 0), 1},
		{"noisy, so unresolved", write("noisy.json", 85, 10, 0.2, 0), 0},
		{"more failures", write("fail.json", 100, 10, 0.01, 0.01), 1},
	}
	for _, c := range cases {
		if got := runCompare(specPath, base, c.path); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestStagedSessionRefusedWithoutDepot checks that a failing transfer is
// reported as failed, not as a sample.
func TestFailedTransferCounts(t *testing.T) {
	w := workloadByName("staged_local")
	cfg := testConfig(t, 1)
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	fx, err := buildFixture(w, 1, cfg.tmpDir)
	if err != nil {
		t.Fatal(err)
	}
	fx.close() // the depot and target are gone: every transfer must now fail
	rec := fx.newOp(0)
	fx.do(context.Background(), rec)
	m := summarize(&loopResult{ops: []*opRec{rec}})
	if m.failed != 1 || len(m.sessionMs) != 0 {
		t.Errorf("failed = %d with %d latency samples, want 1 and 0", m.failed, len(m.sessionMs))
	}
}
