package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bionicdb/internal/sim"
)

// Chrome trace_event export. One process (pid) per socket, one thread (tid)
// per span kind within it, so chrome://tracing / Perfetto renders per-socket
// lanes with the machine's layers stacked inside each. Timestamps are
// microseconds (the format's unit) computed from the picosecond simulated
// clock.

// traceEvent is one entry of the trace_event JSON array.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON object container form of the format.
type traceDoc struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

func usecD(d sim.Duration) float64 { return d.Microseconds() }

// WriteTrace renders the recorder's merged spans as Chrome trace_event JSON.
func WriteTrace(w io.Writer, rec *Recorder) error {
	spans := rec.Merged()
	doc := traceDoc{
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]traceEvent, 0, len(spans)+16),
	}
	// Name the lanes: metadata events for every (socket, kind) seen, in
	// ascending (socket, kind) order so the export is deterministic.
	var maxSocket int32 = -1
	lanes := map[[2]int32]bool{}
	for _, sp := range spans {
		if sp.Socket > maxSocket {
			maxSocket = sp.Socket
		}
		lanes[[2]int32{sp.Socket, int32(sp.Kind)}] = true
	}
	for s := int32(0); s <= maxSocket; s++ {
		named := false
		for k := Kind(0); k < NumKinds; k++ {
			if !lanes[[2]int32{s, int32(k)}] {
				continue
			}
			if !named {
				named = true
				doc.TraceEvents = append(doc.TraceEvents, traceEvent{
					Name: "process_name", Ph: "M", PID: s,
					Args: map[string]any{"name": fmt.Sprintf("socket %d", s)},
				})
			}
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", PID: s, TID: int32(k),
				Args: map[string]any{"name": k.String()},
			})
		}
	}
	for _, sp := range spans {
		args := map[string]any{"shard": sp.Shard}
		if sp.Txn != 0 {
			args["txn"] = sp.Txn
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: sp.Kind.String(), Ph: "X", Cat: "sim",
			TS: usec(sp.Start), Dur: usecD(sp.End.Sub(sp.Start)),
			PID: sp.Socket, TID: int32(sp.Kind), Args: args,
		})
	}
	if d := rec.Dropped(); d > 0 {
		doc.OtherData = map[string]any{"dropped_spans": d}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile writes the trace to path.
func WriteTraceFile(path string, rec *Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
