package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its calls into the stack. Spans of one transfer share
// its session ID; Parent is the ID of the span that caused this one
// (0 for the root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Session  string `json:"session"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The loop records a
// transfer's spans after the transfer returns, from timestamps taken at
// the boundaries, so tracing adds no work inside the timed call.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent int, session, workload, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: session,
		Workload: workload, Name: name, StartNs: start, EndNs: end})
	return id
}

// Span names. A session is the public call; its children tile it:
// open ends when the stack first touches the payload source (lsl.Dial
// has returned), write ends when the source's last byte has been read,
// and confirm ends when the call returns. target.read is the target's
// side of the same session, first payload byte to last verified byte.
const (
	spanSession    = "session"
	spanOpen       = "open"
	spanWrite      = "write"
	spanConfirm    = "confirm"
	spanTargetRead = "target.read"
)

// recordOp turns one verified transfer into its span tree.
func (t *tracer) recordOp(workload string, r *opRec) {
	sid := r.id.String()
	first, last := r.src.first.Load(), r.src.last.Load()
	root := t.add(0, sid, workload, spanSession, r.start, r.end)
	t.add(root, sid, workload, spanOpen, r.start, first)
	t.add(root, sid, workload, spanWrite, first, last)
	t.add(root, sid, workload, spanConfirm, last, r.end)
	t.add(root, sid, workload, spanTargetRead, r.firstByte, r.delivered)
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.EndNs-s.StartNs-covered(s, children[s.ID])))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cursor := s.StartNs
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < cursor {
			lo = cursor
		}
		if hi > s.EndNs {
			hi = s.EndNs
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// traceFile is what trace.json holds: the spans and, per span name, the
// median self time they add up to.
type traceFile struct {
	Note         string             `json:"note"`
	SelfMsMedian map[string]float64 `json:"self_ms_median"`
	Spans        []span             `json:"spans"`
}

func (t *tracer) write(path string) error {
	tf := traceFile{
		Note:         "harness-side spans; times are ns on the bench process's monotonic clock; self time = span minus the part its children cover",
		SelfMsMedian: make(map[string]float64),
		Spans:        t.spans,
	}
	for name, xs := range t.selfTimes() {
		tf.SelfMsMedian[name] = median(xs)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
