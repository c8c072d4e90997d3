// Package metrics is a dependency-free metrics registry for the depot
// and session paths: counters, gauges, and histograms that render in the
// Prometheus text exposition format (version 0.0.4), so any standard
// scraper can watch a long-lived lsd instance without pulling a client
// library into the module.
//
// All metric types are safe for concurrent use; the hot-path operations
// (Inc/Add/Observe/SetMax) are lock-free atomics so relay goroutines can
// update them per-read without contending.
//
// A nil Counter, FloatGauge, Histogram, CounterVec or GaugeVec is a no-op
// sink that reads as zero (a nil vec hands out nil children, whose
// Inc/Add/Set are no-ops too), so a component given no metrics records
// none without guarding each site.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d and returns the new value (useful for
// admission checks that reserve a slot atomically).
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float-valued gauge for quantities that are not integer
// counts — forecast errors, ratios, seconds. Lock-free (float64 bits in
// an atomic word), like the integer metrics.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the current value (0 before any Set).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, plus a running sum and count, matching the Prometheus histogram
// model.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or the +Inf bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the cumulative count at each bound
// (the +Inf bucket equals Count).
func (h *Histogram) Buckets() ([]float64, []uint64) {
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return h.bounds, cum
}

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	mu       sync.Mutex
	label    string
	children map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Sum totals the family across all label values.
func (v *CounterVec) Sum() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var total uint64
	for _, c := range v.children {
		total += c.Value()
	}
	return total
}

// GaugeVec is a family of gauges partitioned by one label.
type GaugeVec struct {
	mu       sync.Mutex
	label    string
	children map[string]*Gauge
}

// With returns the child gauge for the label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[value]
	if !ok {
		g = &Gauge{}
		v.children[value] = g
	}
	return g
}

// Sum totals the family across all label values.
func (v *GaugeVec) Sum() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var total int64
	for _, g := range v.children {
		total += g.Value()
	}
	return total
}

// HistogramVec is a family of histograms partitioned by one label.
type HistogramVec struct {
	mu       sync.Mutex
	label    string
	bounds   []float64
	children map[string]*Histogram
}

// With returns the child histogram for the label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[value] = h
	}
	return h
}

// family is one registered metric name: help, type, and either a single
// unlabeled metric or a labeled vec.
type family struct {
	name, help, typ string
	counter         *Counter
	gauge           *Gauge
	fgauge          *FloatGauge
	hist            *Histogram
	counterVec      *CounterVec
	gaugeVec        *GaugeVec
	histVec         *HistogramVec
}

// Registry holds registered metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("metrics: duplicate registration of " + f.name)
	}
	r.families[f.name] = f
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// CounterVec registers and returns a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, children: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", counterVec: v})
	return v
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// FloatGauge registers and returns a float-valued gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{}
	r.register(&family{name: name, help: help, typ: "gauge", fgauge: g})
	return g
}

// GaugeVec registers and returns a gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{label: label, children: make(map[string]*Gauge)}
	r.register(&family{name: name, help: help, typ: "gauge", gaugeVec: v})
	return v
}

// Histogram registers and returns a histogram with the given upper
// bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// HistogramVec registers and returns a histogram family keyed by label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{label: label, bounds: append([]float64(nil), bounds...), children: make(map[string]*Histogram)}
	r.register(&family{name: name, help: help, typ: "histogram", histVec: v})
	return v
}

// WritePrometheus renders every family in text exposition format, sorted
// by metric name (and label value within a family) so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.gauge.Value())
		case f.fgauge != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.fgauge.Value()))
		case f.hist != nil:
			writeHistogram(bw, f.name, "", f.hist)
		case f.counterVec != nil:
			for _, child := range f.counterVec.sorted() {
				fmt.Fprintf(bw, "%s{%s=%q} %d\n", f.name, f.counterVec.label, child.value, child.c.Value())
			}
		case f.gaugeVec != nil:
			for _, child := range f.gaugeVec.sorted() {
				fmt.Fprintf(bw, "%s{%s=%q} %d\n", f.name, f.gaugeVec.label, child.value, child.g.Value())
			}
		case f.histVec != nil:
			for _, child := range f.histVec.sorted() {
				writeHistogram(bw, f.name, fmt.Sprintf("%s=%q", f.histVec.label, child.value), child.h)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	bounds, cum := h.Buckets()
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, "le="+strconv.Quote(formatFloat(b))), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="+Inf"`), cum[len(cum)-1])
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

type counterChild struct {
	value string
	c     *Counter
}

type gaugeChild struct {
	value string
	g     *Gauge
}

type histChild struct {
	value string
	h     *Histogram
}

// sorted snapshots a vec's children under its lock so rendering never
// races a concurrent With.
func (v *CounterVec) sorted() []counterChild {
	v.mu.Lock()
	out := make([]counterChild, 0, len(v.children))
	for lv, c := range v.children {
		out = append(out, counterChild{lv, c})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

func (v *GaugeVec) sorted() []gaugeChild {
	v.mu.Lock()
	out := make([]gaugeChild, 0, len(v.children))
	for lv, g := range v.children {
		out = append(out, gaugeChild{lv, g})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

func (v *HistogramVec) sorted() []histChild {
	v.mu.Lock()
	out := make([]histChild, 0, len(v.children))
	for lv, h := range v.children {
		out = append(out, histChild{lv, h})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}
