package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// resetPeakRSS asks the kernel to restart the resident-set high-water
// mark from the current size, so that in a run of all workloads each one
// reports its own peak and not the largest so far. Best effort: where
// the kernel refuses, peaks are cumulative.
func resetPeakRSS() {
	settle()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rowKey identifies one measured quantity across sets.
type rowKey struct{ workload, metric string }

// runLedger is the default mode: every workload end to end (repeat full
// sets, run alternately so drift in the machine spreads over all of
// them), then one traced run per workload and the layer fixtures once.
// It prints one line per metric and writes the same as JSON.
func runLedger(cfg config, trace, repeat int, outFile, specPath string) int {
	if repeat < 1 {
		repeat = 1
	}
	l := newLedger(cfg.seed, int(cfg.measure/time.Second))
	l.GitRev = gitRev()
	if repeat > 1 {
		l.Repeat = repeat
	}
	bounds := make(map[string]float64)
	if sp, err := readSpec(specPath); err == nil {
		for _, m := range sp.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	failed := false
	goodput := make(map[string]float64)

	if trace != 1 {
		sets := make([]*ledger, repeat)
		for s := range sets {
			sets[s] = newLedger(cfg.seed, l.Seconds)
			sets[s].GitRev = l.GitRev
			for _, w := range workloads {
				resetPeakRSS()
				o, err := measureWorkload(w, cfg)
				if err != nil {
					fatal("%v", err)
				}
				from := len(sets[s].Rows)
				addE2E(sets[s], w.name, o)
				if repeat > 1 {
					fmt.Printf("# set %d of %d\n", s+1, repeat)
					sets[s].print(os.Stdout, from)
				}
				if o.e2e.failed > 0 {
					failed = true
				}
			}
		}
		from := len(l.Rows)
		mergeSets(l, sets, bounds)
		l.print(os.Stdout, from)
		for _, r := range l.Rows {
			if r.Metric == "goodput_MBps" {
				goodput[r.Workload] = r.Value
			}
		}
	}

	if trace != 0 {
		for _, w := range workloads {
			from := len(l.Rows)
			_, nfail, err := tracedRun(l, cfg, w, goodput[w.name], false)
			if err != nil {
				fatal("%v", err)
			}
			if nfail > 0 {
				failed = true
			}
			l.print(os.Stdout, from)
			// One trace file per workload; trace.json is the last one.
			os.Rename(filepath.Join(cfg.outDir, "trace.json"), filepath.Join(cfg.outDir, "trace."+w.name+".json"))
		}
		from := len(l.Rows)
		if err := runLayers(&layerRun{l: l, workload: "layers", seed: cfg.seed, tmpDir: cfg.tmpDir}); err != nil {
			fatal("%v", err)
		}
		l.print(os.Stdout, from)
	}
	os.RemoveAll(cfg.tmpDir)
	fmt.Println("# " + l.Statement)
	if err := l.writeFile(outFile); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("# ledger written to %s (git %s, %s, nproc %d, seed %d)\n", outFile, l.GitRev, l.GoVersion, l.NProc, l.Seed)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: some transfers failed; see fail_share")
		return 1
	}
	return 0
}

// mergeSets folds repeated sets into l: one row per (workload, metric)
// whose value is the median over the sets, with the quartiles and the
// spread beside it.
func mergeSets(l *ledger, sets []*ledger, bounds map[string]float64) {
	values := make(map[rowKey][]float64)
	for _, s := range sets {
		for _, r := range s.Rows {
			k := rowKey{r.Workload, r.Metric}
			values[k] = append(values[k], r.Value)
		}
	}
	for _, r := range sets[len(sets)-1].Rows {
		vs := values[rowKey{r.Workload, r.Metric}]
		out := l.add(r.Workload, r.Layer, r.Metric, median(vs), r.Unit, r.N)
		out.Bound = bounds[r.Metric]
		if len(vs) > 1 {
			out.Values = vs
			out.Q1, out.Q3 = quartiles(vs)
			out.Spread = spread(vs)
		}
	}
}
