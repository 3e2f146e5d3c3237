package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the benchmark's own making, recorded around
// a call into the program: host times since process start, the span that
// contains it (-1 for a root) and the workload it belongs to.
type span struct {
	Name     string
	Start    time.Duration
	End      time.Duration
	Parent   int
	Workload string
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	workload string
	spans    []span
	open     []int // stack of spans begun and not yet ended
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(processStart), Parent: t.parent(), Workload: t.workload})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(processStart)
}

// add records a finished interval as a child of the innermost open span,
// for boundaries only known after the fact.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(processStart), End: end.Sub(processStart),
		Parent: t.parent(), Workload: t.workload})
}

// duration sums the spans called name.
func (t *tracer) duration(name string) time.Duration {
	var d time.Duration
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns each span's duration minus the time its direct children
// cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, self time in
// args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"self_us": float64(self[i]) / 1e3, "parent": s.Parent, "workload": s.Workload},
		})
	}
	b, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
