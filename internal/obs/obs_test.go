package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bionicdb/internal/sim"
)

func TestOptionsNilSafe(t *testing.T) {
	var o *Options
	if o.Enabled() || o.TraceOn() || o.MetricsOn() {
		t.Error("nil options report observation enabled")
	}
	if o.Cap() != DefaultTraceCap {
		t.Errorf("nil options Cap = %d, want default %d", o.Cap(), DefaultTraceCap)
	}
	if o.Tick() != DefaultMetricsTick {
		t.Errorf("nil options Tick = %v, want default %v", o.Tick(), DefaultMetricsTick)
	}
	full := &Options{Trace: true, Metrics: true, TraceCap: 8, MetricsTick: sim.Microsecond}
	if !full.Enabled() || !full.TraceOn() || !full.MetricsOn() {
		t.Error("full options report observation disabled")
	}
	if full.Cap() != 8 || full.Tick() != sim.Microsecond {
		t.Error("explicit cap/tick not honored")
	}
}

func TestShardRecNilSafe(t *testing.T) {
	var r *ShardRec
	r.Record(Span{}) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil ring reports contents")
	}
	var rec *Recorder
	if rec.Shard(3) != nil || rec.NumShards() != 0 || rec.Merged() != nil || rec.Dropped() != 0 {
		t.Error("nil recorder not inert")
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	rec := NewRecorder(1, 4)
	r := rec.Shard(0)
	for i := 0; i < 10; i++ {
		r.Record(Span{Start: sim.Time(i), End: sim.Time(i + 1), Kind: KindAction})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d spans, want cap 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	merged := rec.Merged()
	if len(merged) != 4 {
		t.Fatalf("Merged returned %d spans, want 4", len(merged))
	}
	// Overwrite keeps the newest spans: starts 6..9 in order.
	for i, sp := range merged {
		if sp.Start != sim.Time(6+i) {
			t.Errorf("merged[%d].Start = %d, want %d", i, sp.Start, 6+i)
		}
	}
}

func TestMergedCanonicalOrder(t *testing.T) {
	rec := NewRecorder(3, 16)
	// Record interleaved across shards, same timestamps on purpose: ties
	// break by shard, then per-shard sequence.
	rec.Shard(2).Record(Span{Start: 5, End: 6})
	rec.Shard(0).Record(Span{Start: 5, End: 6})
	rec.Shard(1).Record(Span{Start: 3, End: 4})
	rec.Shard(0).Record(Span{Start: 5, End: 7})
	m := rec.Merged()
	if len(m) != 4 {
		t.Fatalf("merged %d spans, want 4", len(m))
	}
	if m[0].Shard != 1 || m[0].Start != 3 {
		t.Errorf("first span should be shard 1 at t=3, got shard %d t=%d", m[0].Shard, m[0].Start)
	}
	if m[1].Shard != 0 || m[1].End != 6 {
		t.Errorf("tie at t=5 should order shard 0 seq 0 first, got shard %d end %d", m[1].Shard, m[1].End)
	}
	if m[2].Shard != 0 || m[2].End != 7 {
		t.Errorf("shard 0's second span should follow its first, got shard %d end %d", m[2].Shard, m[2].End)
	}
	if m[3].Shard != 2 {
		t.Errorf("last of the t=5 tie should be shard 2, got %d", m[3].Shard)
	}
}

func TestTraceExportValidJSON(t *testing.T) {
	rec := NewRecorder(1, 16)
	r := rec.Shard(0)
	r.Record(Span{Start: 0, End: 10, Kind: KindSubmit, Socket: 0, Txn: 7})
	r.Record(Span{Start: 20, End: 30, Kind: KindQueueWait, Socket: 1, Txn: 7})
	r.Record(Span{Start: 30, End: 90, Kind: KindAction, Socket: 1, Txn: 7})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int32   `json:"pid"`
			TID  int32   `json:"tid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var procs, xs int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
			}
		case "X":
			xs++
		}
	}
	if procs != 2 {
		t.Errorf("trace names %d socket lanes, want 2", procs)
	}
	if xs != 3 {
		t.Errorf("trace carries %d complete events, want 3", xs)
	}
}

func TestTelemetryOrderAndExport(t *testing.T) {
	tel := NewTelemetry(2, DefaultMetricsTick)
	// Socket 1 happens to append before socket 0: Samples must still come
	// out (time, socket)-ordered.
	tel.Append(Sample{At: 100, Socket: 1, QueueDepth: 3})
	tel.Append(Sample{At: 100, Socket: 0, QueueDepth: 1})
	tel.Append(Sample{At: 200, Socket: 0, QueueDepth: 2})
	ss := tel.Samples()
	if len(ss) != 3 || ss[0].Socket != 0 || ss[1].Socket != 1 || ss[2].At != 200 {
		t.Fatalf("samples not in (time, socket) order: %+v", ss)
	}

	var csv bytes.Buffer
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_us,socket,queue_depth,") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}

	var js bytes.Buffer
	if err := tel.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TickPs  int64    `json:"tick_ps"`
		Sockets int      `json:"sockets"`
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("telemetry JSON invalid: %v", err)
	}
	if doc.Sockets != 2 || len(doc.Samples) != 3 || doc.TickPs != int64(DefaultMetricsTick) {
		t.Errorf("telemetry JSON fields wrong: %+v", doc)
	}
}

func TestKindNamesTotal(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		n := k.String()
		if n == "" || seen[n] {
			t.Errorf("kind %d has empty or duplicate name %q", k, n)
		}
		seen[n] = true
	}
}

// Enabled reports whether the options ask for any observation at all.
func (o *Options) Enabled() bool { return o != nil && (o.Trace || o.Metrics) }

// NumShards reports how many rings the recorder holds.
func (rec *Recorder) NumShards() int {
	if rec == nil {
		return 0
	}
	return len(rec.shards)
}

// Len reports how many spans the ring currently holds.
func (r *ShardRec) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}
