package main

import (
	"fmt"
	"os"
)

// runCompare applies BENCHMARK.json's per-metric bounds to two ledgers.
// It prints one row per (workload, gated metric) with both medians and
// their ratio (base: the old ledger), marks a row unresolved when either
// side's run-to-run spread is wider than the bound, and returns non-zero
// on any regression or on a higher fail_share.
func runCompare(specPath, oldPath, newPath string) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fatal("%v", err)
	}
	oldL, err := readLedger(oldPath)
	if err != nil {
		fatal("%v", err)
	}
	newL, err := readLedger(newPath)
	if err != nil {
		fatal("%v", err)
	}
	index := func(l *ledger) map[rowKey]row {
		m := make(map[rowKey]row)
		for _, r := range l.Rows {
			if r.Layer == layerE2E {
				m[rowKey{r.Workload, r.Metric}] = r
			}
		}
		return m
	}
	oldRows, newRows := index(oldL), index(newL)
	fmt.Printf("old: %s (git %s)   new: %s (git %s)   ratio = new/old\n", oldPath, oldL.GitRev, newPath, newL.GitRev)
	fmt.Printf("%-18s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "old", "new", "ratio", "bound", "verdict")
	regressions, unresolved, missing := 0, 0, 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			k := rowKey{w.Name, m.Name}
			o, okOld := oldRows[k]
			n, okNew := newRows[k]
			if !okOld || !okNew {
				fmt.Printf("%-18s %-16s %12s %12s %8s %6.0f%%  missing\n", w.Name, m.Name, "-", "-", "-", 100*m.Bound)
				missing++
				continue
			}
			ratio := n.Value / o.Value
			worse := ratio > 1+m.Bound
			if m.Better == "higher" {
				worse = ratio < 1-m.Bound
			}
			verdict := "ok"
			switch {
			case o.Spread > m.Bound || n.Spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread old %.1f%% new %.1f%%)", 100*o.Spread, 100*n.Spread)
				unresolved++
			case worse:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-18s %-16s %12.6g %12.6g %8.4f %6.0f%%  %s\n", w.Name, m.Name, o.Value, n.Value, ratio, 100*m.Bound, verdict)
		}
		k := rowKey{w.Name, "fail_share"}
		if o, n := oldRows[k], newRows[k]; n.Value > o.Value {
			fmt.Printf("%-18s %-16s %12.6g %12.6g %8s %7s  REGRESSION (more transfers fail)\n", w.Name, "fail_share", o.Value, n.Value, "-", "-")
			regressions++
		}
	}
	fmt.Printf("%d regressions, %d unresolved, %d missing\n", regressions, unresolved, missing)
	if regressions > 0 || missing > 0 {
		return 1
	}
	if unresolved > 0 {
		fmt.Fprintln(os.Stderr, "bench: unresolved rows are neither passed nor failed; rerun with a larger -repeat")
	}
	return 0
}
