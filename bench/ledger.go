package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// layerE2E marks a row as an end-to-end metric; every other row carries
// the name of the layer it measures.
const layerE2E = "end_to_end"

// row is one measured value. The ledger, BASELINE.json and the input of
// -compare all use this one schema.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Layer    string  `json:"layer"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	GitRev   string  `json:"git_rev"`
	// Note states what a bare name cannot, e.g. which percentile a tail
	// metric could support with the samples it had.
	Note string `json:"note,omitempty"`
	// With -repeat, Value is the median of Values (one per set), Q1/Q3
	// their quartiles and Spread the interquartile range over the median.
	Values []float64 `json:"values,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	// Bound is the regression bound BENCHMARK.json fixes for the metric
	// (gated end-to-end metrics only).
	Bound float64 `json:"bound,omitempty"`
}

// ledger is one run of the benchmark: where and how it ran, and its rows.
type ledger struct {
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Repeat    int    `json:"repeat,omitempty"`
	Statement string `json:"statement"`
	Rows      []row  `json:"rows"`
}

const loopbackStatement = "traffic crossed the host loopback; emu shapes delay and rate, not loss"

func newLedger(seed int64, seconds int) *ledger {
	return &ledger{
		GitRev:    "unknown",
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Seed:      seed,
		Seconds:   seconds,
		Statement: loopbackStatement,
	}
}

// gitRev asks git for the checkout's revision; outside a repository it is
// "unknown". Only the full ledger asks: a single-workload run starts no
// other process.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (l *ledger) add(workload, layer, metric string, value float64, unit string, n int) *row {
	l.Rows = append(l.Rows, row{Workload: workload, Metric: metric, Layer: layer,
		Value: value, Unit: unit, N: n, GitRev: l.GitRev})
	return &l.Rows[len(l.Rows)-1]
}

// print writes one line per metric: workload metric value unit n=…
func (l *ledger) print(w io.Writer, from int) {
	for _, r := range l.Rows[from:] {
		line := fmt.Sprintf("%-18s %-44s %14.6g %-8s n=%d", r.Workload, r.Metric, r.Value, r.Unit, r.N)
		if len(r.Values) > 1 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g spread=%.2f%%", r.Q1, r.Q3, 100*r.Spread)
		}
		if r.Note != "" {
			line += " (" + r.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

func (l *ledger) writeFile(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// finite reports a value a ledger may carry.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// spec is BENCHMARK.json: the contract naming the command, workloads,
// gated end-to-end metrics with their bounds, and per-layer metrics.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
