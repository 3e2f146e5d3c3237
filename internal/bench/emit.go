package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"bionicdb/internal/stats"
)

// Doc is the one result document: the sweep results of an invocation
// followed by the crash experiments' typed sections. Every field it
// writes is simulated, so the document is a pure function of the
// experiments and their seeds.
type Doc struct {
	Results  []Result
	Recovery []RecoveryResult
	Failover []FailoverResult
}

// jsonDoc is the emitted document shape: the suite, then each section,
// omitted when empty.
type jsonDoc struct {
	Suite    string         `json:"suite"`
	Results  []jsonResult   `json:"results,omitempty"`
	Recovery []recoveryJSON `json:"recovery,omitempty"`
	Failover []failoverJSON `json:"failover,omitempty"`
}

// JSON marshals the document as indented JSON:
// {"suite": "bionicbench", "results": [...], "recovery": [...], "failover": [...]}.
func (d Doc) JSON() ([]byte, error) {
	doc := jsonDoc{Suite: "bionicbench"}
	for _, r := range d.Results {
		doc.Results = append(doc.Results, resultJSON(r))
	}
	for _, r := range d.Recovery {
		doc.Recovery = append(doc.Recovery, r.json())
	}
	for _, r := range d.Failover {
		doc.Failover = append(doc.Failover, r.json())
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteFile writes the JSON document to path.
func (d Doc) WriteFile(path string) error {
	b, err := d.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// jsonResult is the flat per-point record of the results section.
type jsonResult struct {
	Name       string `json:"name"`
	Group      string `json:"experiment,omitempty"`
	Workload   string `json:"workload"`
	Engine     string `json:"engine"`
	Terminals  int    `json:"terminals"`
	Seed       uint64 `json:"seed"`
	Sockets    int    `json:"sockets,omitempty"`
	ShardedLog bool   `json:"sharded_log,omitempty"`
	Repl       string `json:"replication,omitempty"`

	WarmupMs  float64 `json:"warmup_ms"`
	MeasureMs float64 `json:"measure_ms"`

	TPS          float64 `json:"tps"`
	Commits      int64   `json:"commits"`
	Aborts       int64   `json:"aborts"`
	JoulesPerTxn float64 `json:"joules_per_txn"`
	P50us        float64 `json:"p50_us"`
	P95us        float64 `json:"p95_us"`
	P99us        float64 `json:"p99_us"`
	CPUJoules    float64 `json:"cpu_joules"`
	FPGAJoules   float64 `json:"fpga_joules"`
	ICJoules     float64 `json:"interconnect_joules,omitempty"`

	// Events is the kernel event count of the run — a model-coverage
	// indicator, deliberately outside the sweep digest.
	Events    uint64           `json:"events,omitempty"`
	TxnCounts map[string]int64 `json:"txn_counts,omitempty"`
	LogShards []logShardJSON   `json:"log_shards,omitempty"`
	Scan      *scanJSON        `json:"scan,omitempty"`
	ReplStats []replShardJSON  `json:"repl_shards,omitempty"`

	// Anatomy is the per-phase latency breakdown of the point's committed
	// transactions (one entry per phase with samples). Like Events it is a
	// reporting field outside the sweep digest.
	Anatomy []phaseJSON `json:"anatomy,omitempty"`

	Error string `json:"error,omitempty"`
}

// phaseJSON is one latency-anatomy phase in the JSON document.
type phaseJSON struct {
	Phase  string  `json:"phase"`
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// anatomyJSON renders the phases that saw samples, in phase order.
func anatomyJSON(an *stats.Anatomy) []phaseJSON {
	var out []phaseJSON
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		h := an.Phase(ph)
		if h.Count() == 0 {
			continue
		}
		out = append(out, phaseJSON{
			Phase:  ph.String(),
			Count:  h.Count(),
			MeanUs: h.Mean().Microseconds(),
			P50us:  h.Percentile(50).Microseconds(),
			P99us:  h.Percentile(99).Microseconds(),
			MaxUs:  h.Max().Microseconds(),
		})
	}
	return out
}

// replShardJSON is one log shard's window shipping counters in the JSON
// document, present only on replicated points.
type replShardJSON struct {
	Shard         int     `json:"shard"`
	ShippedBytes  int64   `json:"shipped_bytes"`
	Ships         int64   `json:"ships"`
	AckRTTs       int64   `json:"ack_rtts"`
	LagBytesMax   int64   `json:"lag_bytes_max"`
	LagTimeMaxUs  float64 `json:"lag_time_max_us"`
	LagTimeMeanUs float64 `json:"lag_time_mean_us"`
}

// scanJSON is the analytical half's window statistics in the JSON document,
// present only on HTAP points.
type scanJSON struct {
	Scans          int64   `json:"scans"`
	Rows           int64   `json:"rows"`
	RowsOut        int64   `json:"rows_out"`
	ScanMBps       float64 `json:"scan_mbps"`
	StaleMaxUs     float64 `json:"stale_max_us"`
	StaleMeanUs    float64 `json:"stale_mean_us"`
	Refreshes      int64   `json:"refreshes"`
	SnapViolations int64   `json:"snap_violations"`
}

// logShardJSON is one log shard's window counters in the JSON document.
type logShardJSON struct {
	Shard  int   `json:"shard"`
	Bytes  int64 `json:"bytes"`
	Syncs  int64 `json:"syncs"`
	Epochs int64 `json:"epochs,omitempty"`
}

// replLabel renders the replication mode for JSON: empty when off, so the
// field is omitted and unreplicated documents keep their exact shape.
func replLabel(m stats.ReplMode) string {
	if m == stats.ReplNone {
		return ""
	}
	return m.String()
}

// resultJSON flattens one sweep result into its document record.
func resultJSON(r Result) jsonResult {
	p := r.Point
	name := fmt.Sprintf("%s/%s/t%d/s%d", p.Workload.Name, p.Engine.Name, p.Terminals, p.Seed)
	if p.Sockets > 0 {
		name = fmt.Sprintf("%s/x%d", name, p.Sockets)
	}
	if p.ShardedLog {
		name += "/slog"
	}
	if p.Repl != stats.ReplNone {
		name += "/" + p.Repl.String()
	}
	if p.Group != "" {
		name = p.Group + "/" + name
	}
	jr := jsonResult{
		Name:       name,
		Group:      p.Group,
		Workload:   p.Workload.Name,
		Engine:     p.Engine.Name,
		Terminals:  p.Terminals,
		Seed:       p.Seed,
		Sockets:    p.Sockets,
		ShardedLog: p.ShardedLog,
		Repl:       replLabel(p.Repl),
		WarmupMs:   p.Warmup.Seconds() * 1e3,
		MeasureMs:  p.Measure.Seconds() * 1e3,
	}
	if r.Err != nil {
		jr.Error = r.Err.Error()
		return jr
	}
	res := r.Res
	jr.TPS = res.TPS
	jr.Commits = res.Commits
	jr.Aborts = res.Aborts
	jr.JoulesPerTxn = res.JoulesPerTxn
	jr.P50us = res.Latency.Percentile(50).Microseconds()
	jr.P95us = res.Latency.Percentile(95).Microseconds()
	jr.P99us = res.Latency.Percentile(99).Microseconds()
	jr.CPUJoules = res.Energy.CPUDynamic + res.Energy.CPUIdle
	jr.FPGAJoules = res.Energy.FPGA
	jr.ICJoules = res.Energy.Interconnect
	jr.Events = res.Events
	jr.TxnCounts = res.TxnCounts
	jr.Anatomy = anatomyJSON(&res.Anatomy)
	for _, sh := range res.LogShards {
		jr.LogShards = append(jr.LogShards, logShardJSON{
			Shard: sh.Shard, Bytes: sh.Bytes, Syncs: sh.Syncs, Epochs: sh.Epochs,
		})
	}
	for _, rp := range res.Repl {
		jr.ReplStats = append(jr.ReplStats, replShardJSON{
			Shard:         rp.Shard,
			ShippedBytes:  rp.ShippedBytes,
			Ships:         rp.Ships,
			AckRTTs:       rp.AckRTTs,
			LagBytesMax:   rp.LagBytesMax,
			LagTimeMaxUs:  rp.LagTimeMax.Microseconds(),
			LagTimeMeanUs: rp.LagTimeMean().Microseconds(),
		})
	}
	if sc := res.Scan; sc != nil {
		jr.Scan = &scanJSON{
			Scans:          sc.Scans,
			Rows:           sc.Rows,
			RowsOut:        sc.RowsOut,
			ScanMBps:       float64(sc.Bytes) / 1e6 / p.Measure.Seconds(),
			StaleMaxUs:     sc.StaleMax.Microseconds(),
			StaleMeanUs:    sc.StaleMean().Microseconds(),
			Refreshes:      sc.Refreshes,
			SnapViolations: sc.SnapViolations,
		}
	}
	return jr
}
