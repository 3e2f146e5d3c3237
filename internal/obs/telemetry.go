package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"bionicdb/internal/sim"
)

// Sample is one telemetry observation of one socket at one simulated
// instant. Gauges (queue depth, waiters, backlog, lag) are instantaneous;
// the platform counters (instructions, DRAM, LLC, egress busy) and the
// kernel's event count are cumulative since the start of the run, so rates
// come from differencing adjacent samples.
type Sample struct {
	At     sim.Time `json:"at_ps"`
	Socket int      `json:"socket"`

	// Engine gauges.
	QueueDepth  int   `json:"queue_depth"`  // actions parked in partition input queues
	Deferred    int   `json:"deferred"`     // DORA actions deferred behind lock predecessors
	LockWaiters int   `json:"lock_waiters"` // centralized lock-manager waiters (conventional)
	LogBacklog  int   `json:"log_backlog"`  // log bytes appended but not yet durable
	ReplLag     int64 `json:"repl_lag"`     // primary durable minus slowest replica ack, bytes

	// Platform counters (cumulative).
	Instructions int64        `json:"instructions"`
	DRAMBytes    int64        `json:"dram_bytes"`
	LLCHits      int64        `json:"llc_hits"`
	LLCMisses    int64        `json:"llc_misses"`
	EgressBusy   sim.Duration `json:"egress_busy_ps"` // interconnect egress port busy time

	// Kernel events executed (cumulative).
	Events uint64 `json:"events"`
}

// Gauges is one socket's instantaneous engine-side readings, returned by
// engines that support the telemetry sampler. Fields mirror the gauge half
// of Sample.
type Gauges struct {
	QueueDepth  int
	Deferred    int
	LockWaiters int
	LogBacklog  int
	ReplLag     int64
}

// Telemetry is the per-run time series: one sample slice per socket.
type Telemetry struct {
	Tick      sim.Duration
	perSocket [][]Sample
}

// NewTelemetry builds an empty series for the given socket count.
func NewTelemetry(sockets int, tick sim.Duration) *Telemetry {
	return &Telemetry{Tick: tick, perSocket: make([][]Sample, sockets)}
}

// Append records one sample for its socket.
func (t *Telemetry) Append(s Sample) {
	if t == nil {
		return
	}
	t.perSocket[s.Socket] = append(t.perSocket[s.Socket], s)
}

// NumSockets reports how many sockets the series covers.
func (t *Telemetry) NumSockets() int {
	if t == nil {
		return 0
	}
	return len(t.perSocket)
}

// Samples returns every sample ordered by (time, socket).
func (t *Telemetry) Samples() []Sample {
	if t == nil {
		return nil
	}
	var out []Sample
	for _, ss := range t.perSocket {
		out = append(out, ss...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Socket < b.Socket
	})
	return out
}

// WriteCSV renders the series as CSV, one row per sample.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "at_us,socket,queue_depth,deferred,lock_waiters,log_backlog,repl_lag,instructions,dram_bytes,llc_hits,llc_misses,egress_busy_us,events"); err != nil {
		return err
	}
	for _, s := range t.Samples() {
		if _, err := fmt.Fprintf(bw, "%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d\n",
			usec(s.At), s.Socket, s.QueueDepth, s.Deferred, s.LockWaiters,
			s.LogBacklog, s.ReplLag, s.Instructions, s.DRAMBytes,
			s.LLCHits, s.LLCMisses, s.EgressBusy.Microseconds(),
			s.Events); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSON renders the series as a JSON document.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	doc := struct {
		TickPs  int64    `json:"tick_ps"`
		Sockets int      `json:"sockets"`
		Samples []Sample `json:"samples"`
	}{int64(t.Tick), t.NumSockets(), t.Samples()}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteMetricsFile writes the series to path — JSON when the path ends in
// .json, CSV otherwise.
func (t *Telemetry) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := error(nil)
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		werr = t.WriteJSON(f)
	} else {
		werr = t.WriteCSV(f)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}
